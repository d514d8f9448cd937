"""Point sampling and local expansions, cross-checked against the ring."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reecurve import series
from reecurve.backends import Backend, default_window
from reecurve.gf import field_context, frobenius_power
from reecurve.hasse import binom_mod3, hasse_calculus, ser_pow3k
from reecurve.identities import IDENTITY_CATALOG, TYPE2_PAIRS
from reecurve.params import cube_count, index_value, ree_params
from reecurve.ring import FAMILY_NAMES, QPOWER_RULES
from reecurve.series import (
    CurvePoint,
    PointExpansion,
    origin_point,
    random_point,
    rational_point,
    ser_add,
    ser_mul,
)

from reference import evaluate


def _point_backend(P, window=None, depth=None):
    """The sampled route's backend at P: depth q^2 + 1, the default window."""
    p = P.params
    depth = p.q**2 + 1 if depth is None else depth
    return Backend(PointExpansion(P, depth), default_window(p) if window is None else window)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3**9 - 1))
def test_every_rational_triple_is_on_the_curve(code):
    ctx = field_context(3)
    coords = [ctx.from_code((code // 27**i) % 27) for i in range(3)]
    CurvePoint(1, 1, *coords)  # constructor validates both equations


def test_point_sampling_is_deterministic():
    a = rational_point(1, seed=42)
    b = rational_point(1, seed=42)
    assert a.coords() == b.coords()
    c = random_point(1, seed=9, extension=6)
    d = random_point(1, seed=9, extension=6)
    assert c.coords() == d.coords()
    assert frobenius_power(c.x, 2 * c.s + 1) != c.x  # x lies outside GF(q)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_degree6_points_have_x_in_gfq2_outside_gfq(s):
    e = 2 * s + 1
    for seed in (0, 1, 7):
        P = random_point(s, seed=seed, extension=6)
        assert P.coords() == random_point(s, seed=seed, extension=6).coords()
        assert P.extension == 6 and P.ctx.m == 6 * e
        assert frobenius_power(P.x, 2 * e) == P.x
        assert frobenius_power(P.x, e) != P.x


def test_small_extensions_carry_no_points():
    # 2-5 hold no new points; 7 and up are not sampled (6 is the least)
    for k in (2, 3, 4, 5, 7, 12):
        with pytest.raises(ValueError):
            random_point(1, seed=0, extension=k)


def test_exhausted_x_draws_name_the_replay(monkeypatch):
    monkeypatch.setattr(series, "_X_DRAWS", 0)
    with pytest.raises(RuntimeError, match="s=2, seed=4, extension=6"):
        random_point(2, seed=4, extension=6)


def test_unsolvable_artin_schreier_is_an_arithmetic_fault(monkeypatch):
    # Hilbert 90 promises a solution; a solver without one is not redrawn
    monkeypatch.setattr(series, "solve_artin_schreier", lambda c, q: None)
    with pytest.raises(ArithmeticError):
        random_point(1, seed=0, extension=6)


def test_low_order_derivatives_at_a_rational_point():
    # first-column entries of the small-derivative table, taken as values
    p = ree_params(1)
    P = rational_point(1, seed=5)
    exp = PointExpansion(P, 2 * p.q + 1)
    xq0 = frobenius_power(P.x, 1)
    one = P.ctx.one()
    assert exp.coefficient("y", 1) == xq0
    assert exp.coefficient("z", 1) == xq0 * xq0
    assert exp.coefficient("y", p.q0 + 1) == one
    assert exp.coefficient("z", p.q0 + 1) == -xq0
    assert exp.coefficient("z", 2 * p.q0 + 1) == one
    assert exp.coefficient("y", p.q + p.q0) == -one
    assert exp.coefficient("w4", 2 * p.q0 + 1) == -frobenius_power(P.x, 3)
    # ell vanishes at rational points, so the ell-weighted entries go to 0
    assert exp.coefficient("w4", p.q + 1).is_zero()
    assert exp.coefficient("w4", 2 * p.q).is_zero()


def test_origin_expansion_starts_at_the_gap_ladder():
    p = ree_params(1)
    exp = PointExpansion(origin_point(1), 2 * p.q0 + 2)
    ser = exp.series("y")
    assert min(ser) == p.q0 + 1
    ser = exp.series("z")
    assert min(ser) == 2 * p.q0 + 1


@pytest.mark.parametrize("s", [1, 2])
def test_origin_series_hold_no_zero_coefficient(s):
    # every coordinate of the origin is 0; a zero centre is dropped, not kept
    K = _point_backend(origin_point(s))
    assert K.exp.series("x") == {1: K.exp.one}
    for name in FAMILY_NAMES:
        for ser in (K.exp.series(name), K.row(name), K.member_d(name, 0)):
            assert all(not c.is_zero() for c in ser.values()), name


@pytest.mark.parametrize("s", [1, 2])
def test_defining_equations_hold_as_series(s):
    p = ree_params(s)
    P = rational_point(s, seed=3)
    e = 2 * s + 1
    prec = p.q**2 // 3 + 17
    exp = PointExpansion(P, prec)
    xq0 = ser_pow3k(exp.series("x"), s, prec)
    ell = exp.ell_series()
    for name, rhs in (
        ("y", ser_mul(xq0, ell, prec)),
        ("z", ser_mul(ser_mul(xq0, xq0, prec), ell, prec)),
    ):
        f = exp.series(name)
        lhs = ser_add(ser_pow3k(f, e, prec), f, -1)
        assert ser_add(lhs, rhs, -1) == {}, name


@pytest.mark.parametrize("s", [1, 2])
def test_qpower_rules_hold_as_series(s):
    # the recipes and the declared q-power rules are independent routes
    p = ree_params(s)
    e = 2 * s + 1
    for seed in (0, 1):
        P = rational_point(s, seed=seed) if seed else random_point(
            s, seed=1, extension=6 if s == 1 else 1
        )
        prec = p.q + 3 * p.q0 + 29
        exp = PointExpansion(P, prec)
        for name, rule in QPOWER_RULES.items():
            f = exp.series(name)
            lhs = ser_add(ser_pow3k(f, e, prec), f, -1)
            rhs = {}
            for sign, cof, tag, base in rule:
                b = exp.series(base)
                shift = ser_add(ser_pow3k(b, e, prec), b, -1)
                cofq = ser_pow3k(exp.series(cof), cube_count(tag, s), prec)
                rhs = ser_add(rhs, ser_mul(cofq, shift, prec), sign)
            assert ser_add(lhs, rhs, -1) == {}, (name, seed)


def _d_leaves(expr: tuple, out: list):
    """Append the (role, index) of every derivative leaf of expr to out."""
    op = expr[0]
    if op == "d":
        out.append((expr[1], expr[2]))
    elif op == "pw":
        _d_leaves(expr[1], out)
    elif op == "mul":
        for sub in expr[1:]:
            _d_leaves(sub, out)
    elif op == "sum":
        for _sign, sub in expr[1:]:
            _d_leaves(sub, out)


def test_cross_backend_agreement_on_seeded_triples():
    # one hundred (member, index, point) triples, symbolic versus series
    p = ree_params(1)
    calc = hasse_calculus(1)
    points = [rational_point(1, seed=k) for k in range(3)]
    points.append(origin_point(1))
    points.append(random_point(1, seed=2, extension=6))
    expansions = [PointExpansion(P, p.q**2 + 1) for P in points]
    rng = random.Random("cross-backend:1")
    names = [n for n in FAMILY_NAMES if n != "one"]
    special = [0, 1, p.q0, p.q0 + 1, 3 * p.q0 + 1, p.q, p.q + 1, p.q * p.q0, p.q**2]
    for _ in range(100):
        name = rng.choice(names)
        i = rng.choice(special) if rng.random() < 0.4 else rng.randrange(p.q**2 + 1)
        k = rng.randrange(len(points))
        sym = evaluate(calc.coefficient(name, i), *points[k].coords())
        assert expansions[k].coefficient(name, i) == sym, (name, i, k)
    # the virtual t of every shifted-product pair at the catalog's indices:
    # the table lift against the series lift
    leaves = []
    for spec in IDENTITY_CATALOG:
        if spec.group == "type2":
            for _sub, expr in spec.residuals:
                _d_leaves(expr, leaves)
    t_indices = sorted({index_value(ix, p) for role, ix in leaves if role == "t"})
    zero = calc.ring.zero()
    for f, b in TYPE2_PAIRS:
        lifted = calc.lift(f, b)
        for P, exp in zip(points, expansions):
            for i in t_indices:
                sym = evaluate(lifted.get(i, zero), *P.coords())
                got = exp.lift(f, b).get(i, P.ctx.zero())
                assert got == sym, (f, b, i, P.coords())


def test_derivative_series_window_matches_coefficients():
    K = _point_backend(rational_point(1, seed=8), window=40)
    p = ree_params(1)
    for name in ("y", "w4", "w10"):
        for i in (1, p.q0 + 1, p.q):
            win = K.member_d(name, i)
            for j in range(40):
                want = K.exp.coefficient(name, i + j)
                got = win.get(j, K.exp.zero)
                bc = binom_mod3(i + j, i)
                if bc == 0:
                    assert got.is_zero()
                else:
                    assert got == (want if bc == 1 else -want)


def test_reads_past_the_depth_raise():
    # one expansion at the depth: a window reaching past it would come back
    # short, so the read is refused
    K = _point_backend(rational_point(1, seed=0), depth=100)
    with pytest.raises(ValueError, match="depth"):
        K.member_d("w1", 20)
    with pytest.raises(ValueError, match="depth"):
        K.shift_value("w1", 100)
    with pytest.raises(ValueError, match="precision"):
        K.value("w1", 100)
    # the deepest read that fits equals the same read at the default depth
    i = 100 - K.window
    assert K.member_d("w1", i) == _point_backend(K.exp.point).member_d("w1", i)


def test_power_helper_matches_repeated_multiplication():
    prec = 260
    exp = PointExpansion(rational_point(1, seed=2), prec)
    ell = exp.ell_series()
    acc = {0: exp.point.ctx.one()}
    for n in range(1, 8):
        acc = ser_mul(acc, ell, prec)
        assert exp.power(ell, n, prec) == acc
        assert exp.ell_power(n, prec) == acc


def test_expansions_are_freed():
    exp = PointExpansion(rational_point(1, seed=4), 40)
    exp.series("z")  # builds and keeps the lifts behind y and z
    ref = weakref.ref(exp)
    del exp
    gc.collect()
    assert ref() is None
