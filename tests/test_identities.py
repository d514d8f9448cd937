"""Identity catalog: exact verification at s=1, seeded points at s=2.

The lowest level merges several symbolic index slots (3q = qq0 = 81 among
them), so a handful of catalog instances are structurally outside the
asserted scope there; that exclusion list is frozen here, together with
evidence that the excluded instances are not quietly true.
"""

import random
import sys
from collections import Counter

import pytest

import reecurve.hasse as hasse
import reecurve.identities as identities
import reecurve.params as params
import reecurve.weierstrass as weierstrass
from reecurve.identities import (
    IDENTITY_CATALOG,
    TYPE1_PAIRS,
    TYPE2_PAIRS,
    _dirty_values,
    _instance_label,
    _parse,
    _residuals,
    _sym_div_q,
    _valued_support,
    _witness,
    collision_reason,
    instances_for,
    verify_catalog,
)
from reecurve.hasse import route
from reecurve.orders import order_sequence
from reecurve.params import SAMPLE_EXTENSION, SymbolicIndex, index_value, ree_params
from reecurve.ring import FAMILY_NAMES, RECIPES, CurveElement
from reecurve.series import PointExpansion, default_window, random_point, rational_point
from reecurve.support import _member_values, member_support, virtual_support

from reference import (
    check_hypersurface,
    hyper_residuals,
    osculating_functions,
    osculating_vanishing,
    show,
)

P1 = ree_params(1)
P2 = ree_params(2)


def _exact_backend(s):
    """The exact route's expansion: the generic point, one coefficient wide."""
    return hasse.hasse_calculus(s)


def _point_backend(P):
    """The sampled route's expansion at P, with its depth and default window."""
    return PointExpansion(P, P.params.q**2 + 1)


def _row(key, instance, s=1, backend="symbolic", **kw):
    """The verdict on one catalog instance, as verify_catalog reports it."""
    (row,) = [r for r in verify_catalog(s, backend, keys=[key], **kw) if r.instance == instance]
    return row


def _exclusions():
    """(identity, instance, reason) of each instance not asserted at s=1."""
    out = []
    for spec in IDENTITY_CATALOG:
        for roles in instances_for(spec):
            reason = collision_reason(spec, roles)
            if reason is not None:
                out.append((spec.key, _instance_label(roles), reason))
    return out


def _check_rank_one(s, backend="symbolic", trials=3, seed=0):
    """The rows (f^q - f) and (D^1 f) over the family have rank one.

    That is the shift identity nu1 on every member, with the shared factor
    ell nonzero on each backend.
    """
    rows = verify_catalog(s, backend, keys=["nu1"], trials=trials, seed=seed)
    assert len(rows) == len(FAMILY_NAMES)
    assert all(r.ok and not r.skipped for r in rows)
    K = route(s, backend, trials, seed)
    ell = K.ell_power(1)
    assert all(K.describe(ell, lane) is not None for lane in range(K.lanes))


ALL_KEYS = (
    "nu1", "kq0-1", "kq0-2", "kq0-3", "dq-shift",
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10",
    "t1d-3q0+1", "t1d-q", "t1d-q+1", "t1d-q+3q0", "t1d-2q", "t1d-3q",
    "t1d-2q+1", "t1sum-2q+1", "t1sum-q+1", "t1sum-q+3q0", "t1sum-3q",
    "t2d-kq0+1", "t2d-q", "t2d-q+1", "t2d-q+q0", "t2d-q+2q0", "t2d-q+3q0",
    "t2d-2q", "t2d-2q+q0", "t2d-3q", "t2d-qq0", "t2d-qq0+1", "t2d-qq0+q0",
    "t2d-qq0+2q0", "t2d-qq0+3q0", "t2d-qq0+q", "t2d-qq0+q+q0", "t2d-qq0+2q",
)

# instances outside the asserted scope at s=1; 37 of these have a
# genuinely nonzero residual there, the four qq0+q0 / qq0+2q0 rows with
# b=w4 are skipped on structural grounds alone
EXPECTED_EXCLUSIONS = frozenset(
    [("A5", f"f={f}") for f in ("y", "z", "w4", "w5", "w7", "w9", "w10")]
    + [(k, f"f={f}") for k in ("A6", "A8", "A10")
       for f in ("w3", "w6", "w8", "w9", "w10")]
    + [("t2d-3q", f"b={b},f={f}") for f, b in TYPE2_PAIRS]
    + [(k, f"b=w4,f={f}") for k in ("t2d-qq0", "t2d-qq0+3q0",
                                    "t2d-qq0+q0", "t2d-qq0+2q0")
       for f in ("w2", "w3")]
)

TRULY_PASSING_EXCLUSIONS = frozenset(
    (k, f"b=w4,f={f}") for k in ("t2d-qq0+q0", "t2d-qq0+2q0")
    for f in ("w2", "w3")
)


def test_catalog_shape():
    assert tuple(sp.key for sp in IDENTITY_CATALOG) == ALL_KEYS
    assert len(IDENTITY_CATALOG) == 43
    groups = {}
    for sp in IDENTITY_CATALOG:
        groups[sp.group] = groups.get(sp.group, 0) + 1
    assert groups == {"base": 5, "rejection": 10, "type1": 11, "type2": 17}
    by_key = {sp.key: sp for sp in IDENTITY_CATALOG}
    assert [sub for sub, _ in by_key["t2d-kq0+1"].residuals] == ["k=1", "k=2", "k=3"]
    for sp in IDENTITY_CATALOG:
        assert instances_for(sp), sp.key


def _indices(e):
    """Every SymbolicIndex in a residual tree."""
    if isinstance(e, SymbolicIndex):
        yield e
    elif isinstance(e, tuple):
        for sub in e:
            yield from _indices(sub)


def test_catalog_indices_stay_in_range():
    for sp in IDENTITY_CATALOG:
        for _sub, expr in sp.residuals:
            for ix in _indices(expr):
                for p in (P1, P2):
                    assert 0 <= index_value(ix, p) <= p.q**2


def test_catalog_text_round_trips():
    # the printed text of every residual parses back to the same tree
    residuals = [(sp.key, expr) for sp in IDENTITY_CATALOG for _sub, expr in sp.residuals]
    assert len(residuals) == 45
    for key, expr in residuals:
        assert _parse(key, show(expr)) == expr, key


def test_frobenius_power_of_a_product_or_sum_is_taken_termwise():
    # the catalog raises only leaves to Frobenius powers; a power of a
    # product or sum has no memo key, and in characteristic 3 it is the
    # product or sum of the powers
    K = _exact_backend(1)
    for text in ("(Df[1] Db[q0+1])^q0 - Df[1]^q0 Db[q0+1]^q0",
                 "(Df[1] - L[1] Db[q])^3q0^q0 - Df[1]^3q0^q0 + L[1]^3q0^q0 Db[q]^3q0^q0"):
        memo = {}
        value = identities._evaluate(_parse("termwise", text), {"f": "x", "b": "y"}, K, memo)
        assert K.is_zero(value), text
        assert None not in memo


# the roles each group's residuals may name: those instances_for binds,
# and the virtual t, read through f and b and only as D^i t
GROUP_ROLES = {"base": {"f"}, "rejection": {"f"}, "type1": {"w", "f"}, "type2": {"f", "b", "t"}}


def test_residuals_use_only_the_roles_their_group_binds():
    for sp in IDENTITY_CATALOG:
        roles = GROUP_ROLES[sp.group]
        assert {frozenset(r) for r in instances_for(sp)} == {frozenset(roles - {"t"})}
        for _sub, expr in sp.residuals:
            for op, role, _ix in _leaves(expr):
                assert role in roles, (sp.key, role)
                assert role != "t" or op == "d", (sp.key, op)


@pytest.mark.parametrize(
    "text, problem",
    [
        ("L[q0] (Df[q0+1] - Df[1]", "unbalanced '('"),
        ("L[q0] Df[q0+1]) - Df[1]", "unbalanced ')'"),
        ("Xf[1] - Df[1]", "unknown token at 'Xf[1]"),
        ("Df[7qq0] - Df[1]", "quadruple out of range"),
        ("Df[q] - L[1] Df[q+1] -", "a term is missing at the end"),
    ],
    ids=["open-paren", "close-paren", "unknown-leaf", "index-range", "trailing-sign"],
)
def test_malformed_text_is_an_error_that_names_the_identity(text, problem):
    with pytest.raises(ValueError) as err:
        _residuals("A1", text)
    assert str(err.value).startswith("identity A1: ")
    assert problem in str(err.value)


def test_applicability_pairs():
    assert TYPE1_PAIRS == (("w1", "x"), ("w2", "y"), ("w3", "z"),
                           ("w6", "w4"), ("w8", "w7"))
    assert len(TYPE2_PAIRS) == 11
    assert set(TYPE2_PAIRS) == {
        ("w2", "x"), ("w1", "y"), ("w3", "x"), ("w1", "z"), ("w3", "y"),
        ("w2", "z"), ("w2", "y"), ("w2", "w4"), ("w6", "y"), ("w6", "z"),
        ("w3", "w4"),
    }


def test_shift_identity_for_x_is_the_separating_element():
    K = _exact_backend(1)
    assert K.shift_d("x", 0) == K.ell_power(1)
    r = _row("nu1", "f=x")
    assert r.ok and not r.skipped


def test_a5_terms_vanish_individually_above_the_lowest_level():
    # 3q, 2q, q+1 all sit outside the support of y once the slots split
    vals = _member_values("y", P2.s)
    for i in (3 * P2.q, 2 * P2.q, P2.q + 1):
        assert i not in vals
    K = _point_backend(rational_point(2, seed=11))
    for i in (3 * P2.q, 2 * P2.q, P2.q + 1):
        assert K.member_d("y", i) == {}


def test_symbolic_catalog_at_lowest_level():
    res = verify_catalog(1, backend="symbolic")
    assert len(res) == 452
    assert all(r.ok for r in res)
    skipped = {(r.identity, r.instance) for r in res if r.skipped}
    assert skipped == EXPECTED_EXCLUSIONS
    checked = [r for r in res if not r.skipped]
    assert len(checked) == 452 - 41
    assert all(r.witness is None for r in checked)


def test_exclusion_list_is_frozen():
    excl = _exclusions()
    assert {(k, inst) for k, inst, _ in excl} == EXPECTED_EXCLUSIONS
    assert all("carries" in reason or "q-power route" in reason
               for _, _, reason in excl)


def _leaves(e):
    """(op, role, index) of each derivative leaf of a residual."""
    op = e[0]
    if op in ("d", "dshift", "dqpow"):
        yield e
    elif op == "pw":
        yield from _leaves(e[1])
    elif op == "mul":
        for sub in e[1:]:
            yield from _leaves(sub)
    elif op == "sum":
        for _sign, sub in e[1:]:
            yield from _leaves(sub)


def test_valued_support_matches_a_direct_count_at_every_leaf():
    # the collision check values each support once; at every leaf of every
    # instance that must give the slot count of a per-index scan
    checked = multiple = 0
    for sp in IDENTITY_CATALOG:
        for roles in instances_for(sp):
            for _sub, expr in sp.residuals:
                for op, role, ix in _leaves(expr):
                    if role == "t":
                        support = virtual_support(roles["f"], roles["b"])
                        valued = _valued_support(roles["f"], roles["b"])
                    else:
                        support = member_support(roles[role])
                        valued = _valued_support(roles[role])
                    v1, v2 = index_value(ix, P1), index_value(ix, P2)
                    pairs = [(v1, v2)]
                    if op != "d" and _sym_div_q(ix):
                        pairs.append((v1 // P1.q, v2 // P2.q))
                    for w1, w2 in pairs:
                        carried = sum(1 for jx in support if index_value(jx, P1) == w1)
                        named = any(index_value(jx, P2) == w2 for jx in support)
                        assert valued[0].count(w1) == carried, (sp.key, roles, w1)
                        assert (w2 in valued[1]) == named, (sp.key, roles, w2)
                        clean = _dirty_values(valued, w1, w2) is None
                        assert clean == (carried == named), (sp.key, roles, w1)
                        checked += 1
                        multiple += carried > 1
    assert checked > 2000 and multiple > 0


def _check_on_backend(spec, roles, K):
    """None when every residual of one instance vanishes on K, else a witness."""
    return _witness(spec, roles, K, {})


def test_excluded_instances_fail_honestly_where_predicted():
    """The skip rule is not hiding true identities: outside the four
    structurally-dirty-but-numerically-true rows, excluded instances
    have nonzero residuals when checked anyway."""
    K = _exact_backend(1)
    by_key = {sp.key: sp for sp in IDENTITY_CATALOG}
    probes = [
        ("A5", {"f": "y"}, False),
        ("A6", {"f": "w3"}, False),
        ("t2d-3q", {"f": "w2", "b": "x"}, False),
        ("t2d-qq0", {"f": "w2", "b": "w4"}, False),
        ("t2d-qq0+q0", {"f": "w2", "b": "w4"}, True),
        ("t2d-qq0+2q0", {"f": "w3", "b": "w4"}, True),
    ]
    for key, roles, holds in probes:
        witness = _check_on_backend(by_key[key], roles, K)
        assert (witness is None) == holds, (key, roles, witness)


def test_full_exclusion_set_splits_37_to_4():
    K = _exact_backend(1)
    by_key = {sp.key: sp for sp in IDENTITY_CATALOG}
    passing = set()
    for key, inst, _reason in _exclusions():
        roles = dict(part.split("=") for part in inst.split(","))
        if _check_on_backend(by_key[key], roles, K) is None:
            passing.add((key, inst))
    assert passing == TRULY_PASSING_EXCLUSIONS


def test_points_catalog_at_lowest_level_agrees():
    res = verify_catalog(1, backend="points", trials=2, seed=3)
    assert all(r.ok for r in res)
    assert {(r.identity, r.instance) for r in res if r.skipped} == EXPECTED_EXCLUSIONS


def test_points_catalog_at_next_level():
    res = verify_catalog(2, backend="points", trials=3, seed=0)
    assert len(res) == 452
    assert not any(r.skipped for r in res)
    assert all(r.ok for r in res)
    assert all(r.points == 3 for r in res)


def test_key_filter_and_unknown_key():
    res = verify_catalog(1, keys=["A9"])
    assert len(res) == 14
    assert {r.identity for r in res} == {"A9"}
    with pytest.raises(KeyError):
        verify_catalog(1, keys=["A11"])


def test_single_check_verdicts():
    r = _row("A9", "f=w4", s=1, backend="symbolic")
    assert r.ok and r.backend == "symbolic" and r.points == 0
    r = _row("t1d-q", "f=w4,w=w6", s=2, backend="points", trials=2, seed=4)
    assert r.ok and r.points == 2
    r = _row("A5", "f=y", s=1, backend="symbolic")
    assert r.ok and r.skipped and "D^81" in r.witness


def test_symbolic_catalog_at_s3():
    # the deepest ell power, 2q+1 = 4375, is built from its base-3 digits
    res = verify_catalog(3, backend="symbolic")
    assert len(res) == 452
    assert all(r.ok and not r.skipped and r.points == 0 for r in res)


def test_hypersurface_exact_and_at_points():
    res = check_hypersurface(1, backend="symbolic")
    assert {r.instance for r in res} == {"pair-w8", "pair-xw6", "pair-w1w3",
                                         "pair-w2", "sum"}
    assert all(r.ok for r in res)
    res = check_hypersurface(2, backend="points", trials=3, seed=0)
    assert len(res) == 5 and all(r.ok for r in res)


def test_rank_one_pairing():
    _check_rank_one(1)
    _check_rank_one(2, backend="points", trials=3, seed=0)


def test_osculating_contact_order():
    # quadratic extensions carry no new points, so the random sample
    # ranges over the rational points themselves
    for seed in (0, 1, 2):
        P = rational_point(1, seed=seed)
        assert osculating_vanishing(P) >= 729
        g, h = osculating_functions(P)
        assert all(e >= 729 for e in g)
        assert all(e % 729 == 0 for e in h)  # an exact q^2-th power


def _flip_term(expr, term):
    """expr with the sign of its summand (1, term) flipped."""
    if expr == (1, term):
        return (-1, term)
    if type(expr) is tuple:
        return tuple(_flip_term(e, term) for e in expr)
    return expr


def test_witness_comes_from_the_first_failing_lane(monkeypatch):
    # w1 tampered in lane 1 only: lane 0, the seed point, still passes, so
    # the witness is the seed + 1 point's, byte for byte as the one-point
    # route writes it with the same tampering
    s, seed, e = 1, 3, 5
    monkeypatch.setattr(hasse, "_ROUTES", {})

    def tamper(K, bump):
        ser = K.series("w1")
        v = ser.get(e, K.zero) + bump
        if v.is_zero():
            ser.pop(e)
        else:
            ser[e] = v

    K = route(s, "points", 2, seed)
    field = K.field
    tamper(K, K.ctx.pack([field.zero(), field.one()]))
    tamper(route(s, "points", 1, seed + 1), field.one())

    def w1_row(trials, at):
        (row,) = [r for r in verify_catalog(s, "points", keys=["nu1"], trials=trials, seed=at)
                  if r.instance == "f=w1"]
        return row

    both, alone = w1_row(2, seed), w1_row(1, seed + 1)
    assert not both.ok and not alone.ok and both.points == 2
    assert both.witness == alone.witness
    x, y, z = (c.code() for c in random_point(s, seed + 1).coords())
    assert both.witness.endswith(f"at point codes ({x},{y},{z})")
    assert w1_row(1, seed).ok


def test_sampled_catalog_multiplies_once_for_all_points(monkeypatch):
    # tooling: Expansion.mul calls of the sampled catalog at s = 2 on three
    # points; an expansion per point made 4,269, one expansion with the
    # points as lanes makes a third of that
    calls = [0]
    mul = hasse.Expansion.mul

    def counting(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(hasse.Expansion, "mul", counting)
    rows = verify_catalog(2, "points", trials=3, seed=0)
    assert all(r.ok and r.points == 3 for r in rows)
    assert 0 < calls[0] < 2000


@pytest.mark.parametrize("s", [1, 2])
def test_window_is_read_off_the_route(s):
    # the exact route reads one coefficient; every point expansion keeps
    # the default window: the catalog's, the order scans' over extension 6
    # and a profile's
    assert route(s, "symbolic", 1, 0).window == 1
    points = [
        route(s, "points", 1, 0),
        route(s, "points", 2, 0, SAMPLE_EXTENSION),
        weierstrass._profile_backend(rational_point(s, 0)),
    ]
    assert [K.kind for K in points] == ["points"] * 3
    assert [K.window for K in points] == [default_window(ree_params(s))] * 3


def test_window_clears_the_deepest_ell_power():
    assert default_window(P1) > 2 * P1.q + 1
    assert default_window(P2) > 2 * P2.q + 1


# the first witness of the sign-flipped A10 below, as each route writes it
_A10_WITNESSES = {
    1: {"symbolic": "A10: 12 monomials, leading (58, 0, 0, 2)",
        "points": "A10: t^58 coefficient nonzero at point codes (2,26,22)"},
    2: {"symbolic": "A10: 12 monomials, leading (496, 0, 0, 2)",
        "points": "A10: t^496 coefficient nonzero at point codes (196,106,21)"},
}


@pytest.mark.parametrize("s", [1, 2])
def test_fixed_window_catches_a_wrong_deep_term(monkeypatch, s):
    # A10 with the sign of its ell^(2q+1) term flipped: the derivative it
    # multiplies starts at t^q0 at rational points, so a window of 2q+2
    # still reads zero; the fixed window reaches past 2q+q0+1
    term = identities._parse("A10", "L[1] Df[qq0+2q]")
    catalog = tuple(
        spec._replace(residuals=_flip_term(spec.residuals, term))
        if spec.key == "A10" else spec
        for spec in IDENTITY_CATALOG
    )
    assert catalog != IDENTITY_CATALOG
    monkeypatch.setattr(identities, "IDENTITY_CATALOG", catalog)
    for backend in ("points", "symbolic"):
        rows = verify_catalog(s, backend, keys=["A10"], seed=0)
        assert any(not r.ok and not r.skipped for r in rows), backend
        first = next(r.witness for r in rows if not r.ok and not r.skipped)
        assert first == _A10_WITNESSES[s][backend]


def test_point_member_is_cut_at_the_window():
    # the expansion holds the series far past the window; the hypersurface
    # pairs compare members with products cut off there
    K = _point_backend(rational_point(1, seed=0))
    K.member_d("w8", 40)
    assert all(e < K.window for e in K.member_d("w8", 0))
    assert [label for label, v in hyper_residuals(K) if not K.is_zero(v)] == []


def test_checks_do_not_depend_on_call_history():
    seed = 23
    fresh = [(label, not v)
             for label, v in hyper_residuals(_point_backend(rational_point(1, seed)))]
    K = route(1, "points", 1, seed)
    K.member_d("w8", 40)
    K.shift_d("w6", 200)
    verify_catalog(1, backend="points", trials=1, seed=seed)
    _check_rank_one(1, backend="points", trials=1, seed=seed)
    res = check_hypersurface(1, backend="points", trials=1, seed=seed)
    assert [(r.instance, r.ok) for r in res] == fresh
    assert all(r.ok for r in res)


class _CountingRecipes(dict):
    """ring.RECIPES, counting each recipe fold by expansion and member."""

    def __init__(self):
        super().__init__(RECIPES)
        self.folds = Counter()

    def __getitem__(self, name):
        # the caller is Expansion.series, folding the member for its self
        self.folds[(sys._getframe(1).f_locals["self"], name)] += 1
        return super().__getitem__(name)


def test_each_member_is_folded_once_per_expansion(monkeypatch):
    recipes = _CountingRecipes()
    monkeypatch.setattr(hasse, "RECIPES", recipes)
    monkeypatch.setattr(hasse, "_ROUTES", {})
    monkeypatch.setattr(hasse, "_CALC_CACHE", {})
    verify_catalog(2, "points", seed=3, trials=1)
    verify_catalog(1)
    order_sequence("D", s=1)
    order_sequence("E", s=1)
    # one expansion per route: the sampled point and a fresh HasseCalculus
    assert len({exp for exp, _ in recipes.folds}) == 2
    assert max(recipes.folds.values()) == 1


def test_each_leaf_is_read_once_per_backend_per_run(monkeypatch):
    reads = Counter()

    def counting(name):
        method = getattr(hasse.Expansion, name)

        def read(self, *args):
            reads[(self, name, args)] += 1
            return method(self, *args)

        return read

    for name in ("member_d", "shift_d", "qpow_d", "virtual_d", "ell_power"):
        monkeypatch.setattr(hasse.Expansion, name, counting(name))
    # both routes share the one class, so each run is counted on its own
    for backend in ("points", "symbolic"):
        reads.clear()
        monkeypatch.setattr(hasse, "_ROUTES", {})
        verify_catalog(2, backend, seed=3, trials=1)
        assert len({K for K, _, _ in reads}) == 1, backend
        assert max(reads.values()) == 1, backend
        assert len(reads) == 608, backend  # the distinct leaves at s = 2


def test_each_index_is_valued_once_per_run(monkeypatch):
    # tooling: a sampled s = 2 run values each catalog index once; valuing
    # every index afresh at each of the 452 instances made 3,187 calls
    calls = Counter()
    index_value, value = params.index_value, SymbolicIndex.value

    def counting_index_value(ix, p):
        calls["index_value"] += 1
        return index_value(ix, p)

    def counting_value(ix, p):
        calls["value"] += 1
        return value(ix, p)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("reecurve") and \
                getattr(module, "index_value", None) is index_value:
            monkeypatch.setattr(module, "index_value", counting_index_value)
    monkeypatch.setattr(SymbolicIndex, "value", counting_value)
    distinct = {ix for sp in IDENTITY_CATALOG for _sub, expr in sp.residuals
                for ix in _indices(expr)}
    assert len(distinct) == 27
    rows = verify_catalog(2, "points", trials=3, seed=0)
    assert all(r.ok for r in rows) and len(rows) == 452
    assert 0 < calls["index_value"] <= len(distinct)
    assert calls["value"] <= len(distinct)


def _contents(v):
    """A backend value, a series, as plain data.

    A ring coefficient's packed form is a mutable dict, so it is copied:
    a snapshot that shared it would change along with the operand.
    """
    return {e: dict(c.packed) if isinstance(c, CurveElement) else c.packed
            for e, c in v.items()}


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("backend", ["symbolic", "points"])
def test_backend_operations_leave_their_operands_unchanged(backend, s):
    # a catalog run shares each memoized value across residuals, so an
    # operation that updated an operand in place would corrupt later verdicts
    K = route(s, backend, 1, 5)
    rng = random.Random(f"operands:{backend}:{s}")
    reads = []
    for _ in range(3):
        reads.append(("member_d", rng.choice(FAMILY_NAMES), rng.randrange(2 * K.p.q)))
        reads.append(("ell_power", rng.randrange(2 * K.p.q + 2)))
    values = [getattr(K, op)(*args) for op, *args in reads]
    before = [_contents(v) for v in values]
    ops = [K.add, lambda a, b: K.add(a, b, -1), K.mul]
    ops += [lambda a, b, tag=tag: K.pow_tag(a, tag) for tag in ("q0", "3q0", "q", "q2")]
    # each value with its neighbour and with itself: on the exact route most
    # sparse member reads are zero, and only ell powers meet nonzero operands
    pairs = list(zip(values, values[1:] + values[:1])) + list(zip(values, values))
    for a, b in pairs:
        for op in ops:
            op(a, b)
            assert [_contents(v) for v in values] == before
    assert [_contents(getattr(K, op)(*args)) for op, *args in reads] == before


def test_unknown_backend_raises():
    with pytest.raises(ValueError, match="unknown backend"):
        verify_catalog(1, backend="magic", keys=["nu1"])
    with pytest.raises(ValueError, match="unknown backend"):
        verify_catalog(1, backend="magic")
    with pytest.raises(ValueError, match="at least one trial"):
        verify_catalog(1, backend="points", keys=["nu1"], trials=0)
