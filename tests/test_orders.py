"""Order scans, Frobenius orders, proof matrices, and closure bookkeeping.

The base-level expectations are frozen integers; the points backend must
reproduce them at extension-6 sample points for several seeds, and at s=2
the scans must land on the instantiated symbolic lists.
"""

import random

import pytest

import reecurve.orders
from reecurve.gf import field_context
from reecurve.hasse import hasse_calculus, route
from reecurve.orders import frobenius_orders, order_sequence
from reecurve.params import SAMPLE_EXTENSION, index_value, ree_params
from reecurve.ring import CurveElement
from reecurve.series import random_point
from reecurve.support import (
    family_candidate_values,
    leq3,
    minimal_non_orders,
    order_values,
)

from reference import (
    D_PROOF_COLS,
    _greedy,
    D_PROOF_ROWS,
    E_PROOF_ROWS,
    ell_of,
    morphism_scan,
    padic_closure_check,
    power,
    proof_matrix,
    rejection_report,
    rejection_witnesses,
    seeded_scan,
    triangular_check,
)

D_ORDERS_S1 = (0, 1, 3, 6, 9, 27, 30, 54, 81, 84, 108, 162, 243, 729)
E_ORDERS_S1 = (0, 1, 9, 27, 54, 243, 729)
D_LABELS = (
    "0", "1", "q0", "2q0", "3q0", "q", "q+q0", "2q",
    "qq0", "qq0+q0", "qq0+q", "2qq0", "3qq0", "q2",
)
E_LABELS = ("0", "1", "3q0", "q", "2q", "3qq0", "q2")


# -- base level, symbolic backend (the headline results)


def test_d_orders_symbolic_exact():
    seq = order_sequence("D", s=1, backend="symbolic")
    assert seq.orders == D_ORDERS_S1
    assert seq.labels == D_LABELS
    assert seq.backend == "symbolic" and seq.points == 0
    assert len(seq.witness) == 14


def test_e_orders_symbolic_exact():
    seq = order_sequence("E", s=1, backend="symbolic")
    assert seq.orders == E_ORDERS_S1
    assert seq.labels == E_LABELS


def test_sequence_invariants():
    p = ree_params(1)
    for series, expect in (("D", D_ORDERS_S1), ("E", E_ORDERS_S1)):
        seq = order_sequence(series, s=1, backend="symbolic")
        assert seq.orders[0] == 0 and seq.orders[1] == 1
        assert seq.orders[-1] <= p.m_value
        assert set(E_ORDERS_S1) <= set(D_ORDERS_S1)


def test_two_member_family_trivial():
    seq = order_sequence(("one", "x"), s=1, backend="symbolic")
    assert seq.orders == (0, 1)


def test_rank_deficiency_reported():
    # a repeated member can never grow the rank past the distinct members
    with pytest.raises(ArithmeticError, match="rank deficiency"):
        order_sequence(("one", "x", "x"), s=1, backend="symbolic")


@pytest.mark.parametrize("backend", ["symbolic", "points"])
def test_empty_family_is_refused(backend, monkeypatch):
    # all() over no members is true, so () once passed as a family: an
    # order sequence with no orders, after sampling the points route's points
    routes = []

    def spy(*args, **kwargs):
        routes.append(args)
        return route(*args, **kwargs)

    monkeypatch.setattr(reecurve.orders, "route", spy)
    for call in (order_sequence, frobenius_orders):
        with pytest.raises(ValueError, match="empty family"):
            call((), s=1, backend=backend, trials=2, seed=0)
        with pytest.raises(ValueError, match="empty family"):
            call([], s=1, backend=backend, trials=2, seed=0)
    assert routes == []


def test_symbolic_backend_policy():
    with pytest.raises(ValueError, match="unknown backend"):
        order_sequence("D", s=1, backend="magic")
    with pytest.raises(ValueError, match="unknown series"):
        order_sequence("F", s=1, backend="symbolic")


# -- Frobenius orders


def test_frobenius_d_symbolic():
    fr = frobenius_orders("D", s=1, backend="symbolic")
    assert fr.nus == (0, 3, 6, 9, 27, 30, 54, 81, 84, 108, 162, 243, 729)
    assert fr.nus[0] == 0
    assert fr.omitted_order == 1 and fr.omitted_index == 1
    assert set(fr.nus) | {fr.omitted_order} == set(D_ORDERS_S1)
    assert fr.below_q == (0, 3, 6, 9)


def test_frobenius_e_symbolic():
    fr = frobenius_orders("E", s=1, backend="symbolic")
    assert fr.nus == (0, 9, 27, 54, 243, 729)
    assert fr.omitted_order == 1 and fr.omitted_index == 1
    assert fr.below_q == (0, 9)


def test_frobenius_tuple_family_symbolic():
    # the omitted order is found against the family's own computed orders,
    # not against a closed-form list that only D and E have
    fr = frobenius_orders(("one", "x", "w1"), s=1, backend="symbolic")
    assert fr.nus == (0, 9) and fr.omitted_order == 1 and fr.omitted_index == 1


def test_frobenius_tuple_family_points():
    # the sampled route names the omitted order against its own order scan
    fr = frobenius_orders(("one", "x", "w1"), s=1, backend="points", trials=2, seed=0)
    assert fr.nus == (0, 9) and fr.omitted_order == 1 and fr.omitted_index == 1


@pytest.mark.parametrize("backend", ["symbolic", "points"])
def test_below_q_wherever_one_sits(backend):
    # the morphism (w1^q - w1, x^q - x) = (x^9 ell, ell) has orders 0 and 9
    # below q, whatever the place of `one` in the family
    fr = frobenius_orders(("w1", "x", "one"), s=1, backend=backend, trials=2, seed=0)
    assert fr.nus == (0, 9) and fr.below_q == (0, 9)
    # (ell, x^9 ell) has them too, but with no `one` there is no column for
    # the below-q rule to read, so the family is refused
    names, pool = _pool(1, ("x", "w1"))
    K = route(1, backend, 2, 0, SAMPLE_EXTENSION)
    assert morphism_scan(K, names, pool) == (0, 9)
    with pytest.raises(ValueError, match="constant member 'one'"):
        frobenius_orders(("x", "w1"), s=1, backend=backend, trials=2, seed=0)


# -- points backend, base level: must reproduce the symbolic answers


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_points_backend_stability_s1(seed):
    seq = order_sequence("D", s=1, backend="points", trials=2, seed=seed)
    assert seq.orders == D_ORDERS_S1
    assert seq.points == 2


def test_points_backend_e_and_frobenius_s1():
    assert order_sequence("E", s=1, backend="points", trials=2, seed=5).orders == E_ORDERS_S1
    fr = frobenius_orders("D", s=1, backend="points", trials=2, seed=3)
    assert fr.nus == (0, 3, 6, 9, 27, 30, 54, 81, 84, 108, 162, 243, 729)
    assert fr.below_q == (0, 3, 6, 9)


# -- level two, points backend (sample points shared through hasse.route)


def test_points_backend_s2_matches_theory():
    p = ree_params(2)
    seq = order_sequence("D", s=2, backend="points", trials=2, seed=0)
    assert list(seq.orders) == order_values(p, "D")
    assert seq.labels == D_LABELS
    sub = order_sequence("E", s=2, backend="points", trials=2, seed=0)
    assert list(sub.orders) == order_values(p, "E")


def test_frobenius_s2_points():
    p = ree_params(2)
    fr = frobenius_orders("D", s=2, backend="points", trials=2, seed=0)
    assert fr.omitted_order == 1 and fr.omitted_index == 1
    assert set(fr.nus) == set(order_values(p, "D")) - {1}
    assert fr.below_q == (0, p.q0, 2 * p.q0, 3 * p.q0)


@pytest.mark.parametrize("series", ["D", "E"])
def test_frobenius_s2_exact_equals_points(series):
    # the exact scan and the sampled one of test_frobenius_s2_points agree
    exact = frobenius_orders(series, s=2, backend="symbolic")
    pts = frobenius_orders(series, s=2, backend="points", trials=2, seed=0)
    fields = ("nus", "omitted_index", "omitted_order", "below_q")
    assert [getattr(exact, f) for f in fields] == [getattr(pts, f) for f in fields]


def test_scans_share_one_backend(monkeypatch):
    seen = []

    def spy(*args, **kwargs):
        K = route(*args, **kwargs)
        seen.append(K)
        return K

    monkeypatch.setattr(reecurve.orders, "route", spy)
    order_sequence("E", s=1, backend="points", trials=2, seed=8)
    K = seen[0]
    # one expansion holds both points, lane j at seed 8 + j
    assert K.lanes == 2
    assert K.points == (random_point(1, 8, 6), random_point(1, 9, 6))
    frobenius_orders("E", s=1, backend="points", trials=2, seed=8)
    # the scan; the Frobenius orders and the order sequence they read: one
    # expansion, so member series are expanded once, for both points
    assert len(seen) == 3
    assert all(K2 is K for K2 in seen)
    assert K is route(1, "points", 2, 8, 6)


# -- the exact echelon against the full cross-multiplication it replaces

_Echelon = reecurve.orders._SymbolicEchelon


class _CrossMultiplyEchelon:
    """Reference: every column cross-multiplied, the pivot column included."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []

    def insert(self, vec):
        for pivot, row in self.rows:
            c = vec[pivot]
            if c.is_zero():
                continue
            lead = row[pivot]
            vec = [lead * vec[k] - c * row[k] for k in range(self.ncols)]
        live = [k for k in range(self.ncols) if not vec[k].is_zero()]
        if not live:
            return None
        pivot = min(live, key=lambda k: (len(vec[k]), k))
        self.rows.append((pivot, list(vec)))
        return pivot

    def spanned_at(self, vec):
        for j, (pivot, row) in enumerate(self.rows):
            c = vec[pivot]
            if not c.is_zero():
                lead = row[pivot]
                vec = [lead * vec[k] - c * row[k] for k in range(self.ncols)]
            if all(a.is_zero() for a in vec):
                return j
        return None


class _TwinEchelon:
    """Feeds each row to both echelons and asserts they store the same."""

    inserts = 0
    spans = 0

    def __init__(self, ncols):
        self.fast = _Echelon(ncols)
        self.ref = _CrossMultiplyEchelon(ncols)

    def insert(self, vec):
        got = self.fast.insert(vec)
        assert got == self.ref.insert(vec)
        assert self.fast.rows == self.ref.rows
        _TwinEchelon.inserts += 1
        return got

    def spanned_at(self, vec):
        got = self.fast.spanned_at(vec)
        assert got == self.ref.spanned_at(vec)
        _TwinEchelon.spans += 1
        return got

    def close(self, kernel):
        # both twins keep reducing; the closing stage has its own twin below
        return False


@pytest.fixture
def fresh_order_scan():
    """An empty per-process memo of order scans, emptied again after."""
    reecurve.orders._order_scan.cache_clear()
    yield
    reecurve.orders._order_scan.cache_clear()


@pytest.mark.parametrize("s,series,scan", [
    (1, "D", order_sequence),
    (1, "E", order_sequence),
    (1, "D", frobenius_orders),
    (1, "E", frobenius_orders),
    (2, "D", order_sequence),
    (2, "D", frobenius_orders),
])
def test_echelon_stores_what_cross_multiplication_stores(
    monkeypatch, fresh_order_scan, s, series, scan
):
    # the pivot column is never multiplied; every stored row, pivot and
    # witness must be the one the full cross-multiplication gives
    monkeypatch.setattr(reecurve.orders, "_SymbolicEchelon", _TwinEchelon)
    _TwinEchelon.inserts = _TwinEchelon.spans = 0
    scan(series, s=s, backend="symbolic")
    assert _TwinEchelon.inserts > len(order_values(ree_params(s), series))
    assert _TwinEchelon.spans == (scan is frobenius_orders)


# -- the closing stage against the reduction it replaces


class _ClosingTwin(_Echelon):
    """Checks each row the closing stage decides against a reducing copy."""

    decided = []

    def insert(self, vec):
        if self.kernel is None:
            return super().insert(vec)
        assert not self.full
        copy = _Echelon(self.ncols)
        copy.rows = list(self.rows)
        want = copy.insert(vec)
        got = super().insert(vec)
        assert got == want
        _ClosingTwin.decided.append(got)
        return got


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("series", ["D", "E"])
def test_closing_verdicts_are_the_reduction_verdicts(monkeypatch, s, series):
    # every candidate past the (n-1)-th order gets the verdict, and the
    # last order the pivot, that a reduction through the stored rows gives
    monkeypatch.setattr(reecurve.orders, "_SymbolicEchelon", _ClosingTwin)
    _ClosingTwin.decided = []
    names = reecurve.orders._family_names(series)
    found = reecurve.orders._scan(route(s, "symbolic", 1, 0), names,
                                  want=len(names), closure=True)
    assert [i for i, _, _ in found] == order_values(ree_params(s), series)
    (echelon,) = found.echelons
    assert echelon.full and len(echelon.rows) == len(names) - 1
    *rejected, last = _ClosingTwin.decided
    assert rejected and set(rejected) == {None}
    assert last == found[-1][2]


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("series", ["D", "E"])
def test_pairing_row_annihilates_the_rows_below_the_last_order(s, series):
    # the osculating hyperplane at the generic point, exactly: it meets
    # the rows of the first n-1 orders and not the row of q^2
    names = reecurve.orders._family_names(series)
    K = route(s, "symbolic", 1, 0)
    c = reecurve.orders._pairing_row(K, names)
    eps = order_values(ree_params(s), series)
    assert eps[-1] == ree_params(s).q ** 2
    dots = [reecurve.orders._dot([K.coefficient(f, i) for f in names], c) for i in eps]
    assert [d.is_zero() for d in dots] == [True] * (len(names) - 1) + [False]


def test_family_without_the_seven_keeps_the_reduction():
    names = ("one", "x", "w1")
    K = route(1, "symbolic", 1, 0)
    raw = reecurve.orders._scan(K, names, want=len(names))
    closed = reecurve.orders._order_scan(names, K)
    (echelon,) = closed.echelons
    assert echelon.kernel is None and not echelon.full
    assert len(echelon.rows) == len(names)
    assert list(closed) == list(raw) == [(0, (0,), 0), (1, (0,), 1), (9, (0,), 2)]


def test_close_takes_only_an_exact_kernel():
    # an E echelon of six rows closes on the pairing row, and on nothing
    # that is zero or fails to annihilate a stored row
    names = reecurve.orders._family_names("E")
    K = route(1, "symbolic", 1, 0)
    c = reecurve.orders._pairing_row(K, names)
    six = reecurve.orders._scan(K, names, want=len(names) - 1)
    (echelon,) = six.echelons
    zero = K.coefficient("one", 0).ring.zero()
    assert not echelon.close([zero] * len(names))
    assert not echelon.close(c[:-1] + [c[-1] + K.coefficient("one", 0)])
    assert echelon.kernel is None
    assert echelon.close(c) and echelon.kernel is c
    short = reecurve.orders._scan(K, names, want=len(names) - 2)
    assert not short.echelons[0].close(c)


@pytest.mark.parametrize("series", ["D", "E"])
def test_full_echelon_spans_every_row(series):
    # no family reaches it (the seed row lies in the span of the first two
    # rows), but a row outside the stored rows' span lies in the span of
    # all n rows of a closed scan, the last one unstored
    names = reecurve.orders._family_names(series)
    K = route(1, "symbolic", 1, 0)
    (echelon,) = reecurve.orders._order_scan(names, K).echelons
    assert echelon.full
    last = [K.coefficient(f, ree_params(1).q ** 2) for f in names]
    assert echelon.spanned_at(last) == len(names) - 1
    partial = _Echelon(len(names))
    partial.rows = list(echelon.rows)
    assert partial.spanned_at(last) is None


def test_closing_bounds_the_d_scan_work(monkeypatch, fresh_order_scan):
    # tooling: the term-pair products of the exact D scan at s = 2, with
    # the expansion warm; the full reduction past the 13th order takes
    # about 1.49 million, the closing stage about 0.24 million
    order_sequence("D", s=2, backend="symbolic")
    reecurve.orders._order_scan.cache_clear()
    pairs = [0]
    mul = CurveElement.__mul__

    def counting(a, b):
        pairs[0] += len(a.packed) * len(b.packed)
        return mul(a, b)

    monkeypatch.setattr(CurveElement, "__mul__", counting)
    seq = order_sequence("D", s=2, backend="symbolic")
    assert list(seq.orders) == order_values(ree_params(2), "D")
    assert 0 < pairs[0] < 500_000


# -- what the exact route offers the echelon

_RAW_FULL_POOL_CASES = [(1, "D"), (1, "E"), (2, "D"), (2, "E"), (3, "E")]


class _Offered:
    """The exact route's expansion, recording which candidates' rows are read."""

    kind = "symbolic"

    def __init__(self, K):
        self.K = K
        self.seen = set()

    def coefficient(self, f, i):
        self.seen.add(i)
        return self.K.coefficient(f, i)

    def series(self, f):
        return self.K.series(f)

    def split(self, c):
        return self.K.split(c)


def _pool(s, series):
    names = reecurve.orders._family_names(series)
    return names, family_candidate_values(ree_params(s), names)


@pytest.mark.parametrize("s,series", _RAW_FULL_POOL_CASES)
def test_closure_scan_equals_the_raw_scan(s, series):
    # skipping the candidates closure rejects changes no accepted index,
    # no pivot and no hit list
    names = reecurve.orders._family_names(series)
    K = route(s, "symbolic", 1, 0)
    raw = reecurve.orders._scan(K, names, want=len(names))
    closed = reecurve.orders._order_scan(names, K)
    assert [(i, tuple(hits), pivot) for i, hits, pivot in raw] == list(closed)


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("series", ["D", "E"])
def test_minimal_non_orders_reach_the_echelon(s, series):
    # the echelon itself still rejects every minimal non-order in the pool
    names, pool = _pool(s, series)
    p = ree_params(s)
    spy = _Offered(route(s, "symbolic", 1, 0))
    found = reecurve.orders._scan(spy, names, want=len(names), closure=True)
    assert [i for i, _, _ in found] == order_values(p, series)
    minimal = {index_value(ix, p) for ix in minimal_non_orders(series)} & set(pool)
    assert minimal and minimal <= spy.seen
    if (s, series) == (1, "D"):
        assert len(pool) == 121 and len(spy.seen) <= 40


@pytest.mark.parametrize("series,s", [
    ("D", 1), ("D", 2), ("E", 1), ("E", 2), ("E", 3), (("one", "x", "w1"), 1),
], ids=["D-1", "D-2", "E-1", "E-2", "E-3", "one-x-w1-1"])
def test_frobenius_pool_equals_the_full_pool(s, series):
    # the Frobenius orders read off the order echelon are what the seeded
    # scan over the full pool takes, and the omitted order is the one the
    # closed form omits (for a tuple family, the one its raw scan omits)
    names, pool = _pool(s, series)
    K = route(s, "symbolic", 1, 0)
    nus = seeded_scan(K, names, pool)
    if series in ("D", "E"):
        eps = order_values(ree_params(s), series)
    else:
        eps = [i for i, _, _ in reecurve.orders._scan(K, names)]
    (omitted,) = set(eps) - set(nus)
    fr = frobenius_orders(series, s=s, backend="symbolic")
    assert (fr.nus, fr.omitted_order, fr.omitted_index) == (
        nus, omitted, eps.index(omitted)
    )
    assert fr.below_q == morphism_scan(K, names, pool)


_FROBENIUS_GRID = [("symbolic", s, 1, 0) for s in (1, 2, 3)] + [
    ("points", s, trials, seed)
    for s in (1, 2, 3) for trials in (1, 2, 3) for seed in range(4)
]


@pytest.mark.parametrize("backend,s,trials,seed", _FROBENIUS_GRID)
def test_frobenius_orders_equal_the_reference_scans(backend, s, trials, seed):
    # on both routes, the union rule over the lanes' order echelons gives
    # what the seeded scan takes, and below_q what the scan of the morphism
    # (f^q - f)_f takes, wherever `one` sits in the family
    K = route(s, backend, trials, seed, SAMPLE_EXTENSION)
    for series in ("D", "E", ("one", "x", "w1"), ("w1", "x", "one")):
        names, pool = _pool(s, series)
        nus = seeded_scan(K, names, pool)
        eps = list(order_sequence(series, s, backend, trials, seed).orders)
        (omitted,) = set(eps) - set(nus)
        fr = frobenius_orders(series, s, backend, trials, seed)
        assert (fr.nus, fr.omitted_order, fr.omitted_index, fr.below_q) == (
            nus, omitted, eps.index(omitted), morphism_scan(K, names, pool)
        )


@pytest.mark.parametrize("backend,s,trials,seed",
                         [(backend, s, 2, 0) for backend in ("symbolic", "points")
                          for s in (1, 2, 3)])
def test_order_scan_equals_the_greedy_scan_over_the_support_pool(backend, s, trials, seed):
    # the order scan offers the exponents of the members' series; the plain
    # greedy scan over the pool of the support rules, with no closure and
    # no closing, takes the same orders on both routes
    K = route(s, backend, trials, seed, SAMPLE_EXTENSION)
    for series in ("D", "E", ("one", "x", "w1"), ("w1", "x", "one")):
        names, pool = _pool(s, series)
        greedy = _greedy(K, names, K.coefficient, pool, want=len(names))
        assert tuple(i for i, _, _ in reecurve.orders._order_scan(names, K)) == greedy


def test_frobenius_orders_take_the_union_over_lanes(monkeypatch):
    # on every sampled configuration each lane omits eps_1, so lanes that
    # omit different orders are stubbed: lane 0 omits eps_1, lane 1 eps_2;
    # their union is all of eps, and the Frobenius orders its first n - 1
    omits = [1, 2]
    calls = []

    def spanned_at(self, vals):
        calls.append(self)
        return omits[len(calls) - 1]

    monkeypatch.setattr(reecurve.orders._PointEchelon, "spanned_at", spanned_at)
    fr = frobenius_orders("D", s=1, backend="points", trials=2, seed=0)
    assert len(set(calls)) == 2
    assert fr.nus == D_ORDERS_S1[:-1]
    assert (fr.omitted_index, fr.omitted_order) == (len(D_ORDERS_S1) - 1, 729)
    assert fr.below_q == (0, 1, 3, 6, 9)


@pytest.mark.parametrize("series", ["D", "E", ("one", "x", "w1")],
                         ids=["D", "E", "one-x-w1"])
def test_exact_frobenius_runs_no_seeded_scan(monkeypatch, series):
    # once the order scan is cached, the Frobenius orders of both routes
    # come off its echelons: no seeded scan, no shift scan, no scan at all
    calls = []
    scan = reecurve.orders._scan

    def spy(*args, **kwargs):
        calls.append((args[2:], kwargs))
        return scan(*args, **kwargs)

    for backend in ("symbolic", "points"):
        order_sequence(series, s=1, backend=backend, trials=2, seed=0)
        monkeypatch.setattr(reecurve.orders, "_scan", spy)
        frobenius_orders(series, s=1, backend=backend, trials=2, seed=0)
        monkeypatch.undo()
    assert calls == []


# -- the packed point echelon against the FieldElement elimination it replaces


class _FieldElementEchelon:
    """Reference: every column of every row through FieldElement arithmetic."""

    def __init__(self):
        self.rows = []

    def insert(self, vec):
        for pivot, row in self.rows:
            c = vec[pivot]
            if c.is_zero():
                continue
            vec = [a - c * b for a, b in zip(vec, row)]
        for k, a in enumerate(vec):
            if not a.is_zero():
                inv = a.inverse()
                self.rows.append((k, [v * inv for v in vec]))
                return k
        return None


def _packed_rows(ref):
    """The reference's rows as the packed echelon keeps them: 1 at the
    pivot, zeros before it, the later nonzero entries as (column, int)."""
    out = []
    for pivot, row in ref.rows:
        assert all(v.is_zero() for v in row[:pivot]) and row[pivot].packed == 1
        out.append((pivot, [(k, v.packed) for k, v in enumerate(row)
                            if k > pivot and v.packed]))
    return out


@pytest.mark.parametrize("m", [3, 18])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_point_echelon_stores_what_field_elements_store(m, seed):
    ctx = field_context(m)
    rng = random.Random(seed)
    ncols = 8

    def sparse():
        return [ctx.random_element(rng) if rng.random() < 0.6 else ctx.zero()
                for _ in range(ncols)]

    rows = []
    for _ in range(14):
        pick = rng.random()
        if pick < 0.1 or not rows:
            vec = [ctx.zero()] * ncols
        elif pick < 0.25:
            vec = list(rng.choice(rows))
        elif pick < 0.5:
            a, b = rng.choice(rows), rng.choice(rows)
            c = ctx.random_element(rng)
            vec = [x + c * y for x, y in zip(a, b)]
        else:
            vec = sparse()
        rows.append(vec)
    fast = reecurve.orders._PointEchelon(ctx)
    ref = _FieldElementEchelon()
    pivots = []
    for vec in rows:
        got = fast.insert(vec)
        assert got == ref.insert(vec)
        pivots.append(got)
        assert fast.rows == _packed_rows(ref)
    assert None in pivots and 0 < len(fast.rows) <= ncols


# -- triangular proof matrices


def test_triangular_proof_matrix_d_s1():
    p = ree_params(1)
    rows, cols = proof_matrix("D", p)
    assert rows == [0, 1, 4, 7, 10, 37, 64, 138, 115, 144, 171, 172]
    diag = triangular_check(rows, cols, s=1, backend="symbolic")
    calc = hasse_calculus(1)
    one = calc.ring.one()
    assert all(d == one for d in diag[:11])
    # the last entry is ell^2q; its bottom monomial is x^2q
    assert diag[11] == power(ell_of(calc.ring), 2 * p.q)
    assert diag[11].to_sorted_list()[0] == (2 * p.q, 0, 0, 1)


def test_triangular_proof_matrix_e_s1():
    p = ree_params(1)
    rows, cols = proof_matrix("E", p)
    diag = triangular_check(rows, cols, s=1, backend="symbolic")
    one = hasse_calculus(1).ring.one()
    assert len(diag) == 5 and all(d == one for d in diag)


def test_triangular_trivial_and_failure():
    diag = triangular_check([0], ["one"], s=1, backend="symbolic")
    assert diag[0] == hasse_calculus(1).ring.one()
    with pytest.raises(ArithmeticError, match="not triangular"):
        triangular_check([0, 1], ["x", "one"], s=1, backend="symbolic")
    with pytest.raises(ValueError, match="equal length"):
        triangular_check([0], ["one", "x"], s=1, backend="symbolic")


def test_triangular_s2_points():
    p = ree_params(2)
    rows, cols = proof_matrix("D", p)
    diags = triangular_check(rows, cols, s=2, backend="points", trials=2, seed=0)
    for diag in diags:
        assert all(not d.is_zero() for d in diag)
        one = diag[0].ctx.one()
        assert all(d == one for d in diag[:11])
    rows2, cols2 = proof_matrix("E", p)
    for diag in triangular_check(rows2, cols2, s=2, backend="points", trials=2, seed=0):
        one = diag[0].ctx.one()
        assert all(d == one for d in diag)


def test_proof_matrix_row_indices_symbolic():
    p2 = ree_params(2)
    rows, _ = proof_matrix("D", p2)
    assert rows == [index_value(ix, p2) for ix in D_PROOF_ROWS]
    assert len(D_PROOF_ROWS) == len(D_PROOF_COLS) == 12
    assert len(E_PROOF_ROWS) == 5


# -- p-adic closure


def test_padic_closure_theory_sets():
    for s in (1, 2, 3):
        p = ree_params(s)
        assert padic_closure_check(order_values(p, "D")) == []
        assert padic_closure_check(order_values(p, "E")) == []


def test_padic_closure_examples():
    assert padic_closure_check({0, 1, 3}) == []
    assert padic_closure_check({0, 4}) == [(1, 4), (3, 4)]


# -- rejection bookkeeping


def test_rejection_witnesses_cover_minimal_non_orders():
    for series in ("D", "E"):
        wit = rejection_witnesses(series)
        assert set(wit) == set(minimal_non_orders(series))
    d = rejection_witnesses("D")
    counting = {str(ix) for ix, key in d.items() if key == "counting"}
    assert counting == {"2qq0+q0"}
    e = rejection_witnesses("E")
    assert sorted(key for key in e.values() if key != "counting") == [
        "kq0-3", "t1sum-3q", "t1sum-q+1", "t1sum-q+3q0",
    ]


def test_counting_rejections_dominate_an_order():
    # each counting-tagged index lies digitwise above a certified order,
    # so closure plus the order count below the window rejects it
    p = ree_params(2)
    for series in ("D", "E"):
        orders = set(order_values(p, series))
        for ix, key in rejection_witnesses(series).items():
            if key != "counting":
                continue
            v = index_value(ix, p)
            assert any(leq3(o, v) for o in orders if 0 < o < v)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_rejection_report_d_symbolic(s):
    report = rejection_report("D", s=s, backend="symbolic")
    assert len(report) == 13
    for row in report:
        assert row["scan_rejected"] or row["base_collision"]
        if row["witness"] != "counting":
            assert row["identity_ok"] is True
    # 3q = qq0 only at s = 1; from s = 2 on no index value collides
    collided = [row["label"] for row in report if row["base_collision"]]
    assert collided == (["3q"] if s == 1 else [])


@pytest.mark.parametrize("s", [1, 2, 3])
def test_rejection_report_e_symbolic(s):
    report = rejection_report("E", s=s, backend="symbolic")
    assert len(report) == 8
    assert all(row["scan_rejected"] for row in report)
    assert all(row["identity_ok"] for row in report if row["witness"] != "counting")


def test_symbolic_label_format():
    from reecurve.params import SymbolicIndex

    assert str(SymbolicIndex(0, 0, 0, 0)) == "0"
    assert str(SymbolicIndex(1, 2, 0, 1)) == "qq0+2q+1"
    assert str(SymbolicIndex(0, 0, 0, 0, True)) == "q2"
    # an order sequence that matches the theory is labelled in that notation
    assert order_sequence("E", 1).labels == ("0", "1", "3q0", "q", "2q", "3qq0", "q2")
