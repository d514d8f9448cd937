import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reecurve.gf import field_context
from reecurve.params import ree_params
from reecurve.ring import (
    FAMILY_NAMES,
    QPOWER_RULES,
    CurveElement,
    coordinate_ring,
)

from reference import (
    ell_of,
    evaluate,
    expected_pole_orders,
    pole_order,
    recipe_fold,
    rule_residual,
    terms,
)

R1 = coordinate_ring(1)
F1 = recipe_fold(1)


# -- tuple-keyed reference for the int-key kernel


def _ref_reduce(raw, q, q0):
    """Normal form of {(a, b, c): int} by substituting y^q and z^q one at a time."""
    out = {}
    todo = list(raw.items())
    while todo:
        (a, b, c), v = todo.pop()
        if b >= q:  # y^q = y + x^(q+q0) - x^(q0+1)
            todo += [((a, b - q + 1, c), v), ((a + q + q0, b - q, c), v),
                     ((a + q0 + 1, b - q, c), -v)]
        elif c >= q:  # z^q = z + x^(q+2q0) - x^(2q0+1)
            todo += [((a, b, c - q + 1), v), ((a + q + 2 * q0, b, c - q), v),
                     ((a + 2 * q0 + 1, b, c - q), -v)]
        else:
            out[(a, b, c)] = out.get((a, b, c), 0) + v
    return {k: v % 3 for k, v in out.items() if v % 3}


def _ref_mul(f, g):
    raw = {}
    for (a1, b1, c1), v1 in f.items():
        for (a2, b2, c2), v2 in g.items():
            k = (a1 + a2, b1 + b2, c1 + c2)
            raw[k] = raw.get(k, 0) + v1 * v2
    return raw


def _ref_add(f, g, sign):
    raw = dict(f)
    for k, v in g.items():
        raw[k] = raw.get(k, 0) + sign * v
    return {k: v % 3 for k, v in raw.items() if v % 3}


def _summed(rows):
    """{(a, b, c): v} of a list of (a, b, c, v), repeated monomials summed mod 3."""
    out = {}
    for a, b, c, v in rows:
        out = _ref_add(out, {(a, b, c): v}, 1)
    return out


def _terms(s):
    """Normal-form term lists at level s: b, c up to q-1, a up to q^2."""
    q = 3 ** (2 * s + 1)
    term = st.tuples(
        st.integers(0, q * q), st.integers(0, q - 1), st.integers(0, q - 1),
        st.integers(1, 2),
    )
    return st.lists(term, max_size=6)


def _element(ring, rows):
    f = ring.zero()
    for a, b, c, v in rows:
        f = f + ring.monomial(a, b, c, v)
    return f


def _check_kernel(s, ta, tb):
    ring = coordinate_ring(s)
    q, q0 = ring.q, ring.q0
    f, g = _element(ring, ta), _element(ring, tb)
    tf, tg = terms(f), terms(g)
    # the view round-trips, and repeated monomials were summed mod 3
    assert tf == _summed(ta)
    assert CurveElement(ring, {ring.key(*m): v for m, v in tf.items()}) == f
    assert terms(f * g) == _ref_reduce(_ref_mul(tf, tg), q, q0)
    assert terms(f * g) == terms(g * f)
    cube = {(3 * a, 3 * b, 3 * c): v for (a, b, c), v in tf.items()}
    assert terms(f.pow3()) == _ref_reduce(cube, q, q0)
    assert terms(f + g) == _ref_add(tf, tg, 1)
    assert terms(f - g) == _ref_add(tf, tg, -1)
    assert terms(-f) == _ref_add({}, tf, -1)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 800), st.integers(0, 140), st.integers(0, 140), st.integers(1, 2))
def test_monomial_folds_from_the_tuple(a, b, c, v):
    # b and c range past 2^width, so an encoded field would carry
    assert terms(R1.monomial(a, b, c, v)) == _ref_reduce({(a, b, c): v}, R1.q, R1.q0)


@settings(max_examples=150, deadline=None)
@given(_terms(1), _terms(1))
def test_kernel_matches_reference_s1(ta, tb):
    _check_kernel(1, ta, tb)


@settings(max_examples=60, deadline=None)
@given(_terms(2), _terms(2))
def test_kernel_matches_reference_s2(ta, tb):
    _check_kernel(2, ta, tb)


def test_reduction_matches_curve_equations():
    q, q0 = R1.q, R1.q0
    yq = R1.monomial(0, q, 0)
    assert yq == R1.y() + R1.monomial(q + q0, 0, 0) - R1.monomial(q0 + 1, 0, 0)
    zq = R1.monomial(0, 0, q)
    assert zq == R1.z() + R1.monomial(q + 2 * q0, 0, 0) - R1.monomial(2 * q0 + 1, 0, 0)


def test_q_shift_of_coordinates():
    # y^q - y = x^q0 * (x^q - x), z^q - z = x^q0 * (y^q - y)
    x_q0 = R1.monomial(R1.q0, 0, 0)
    ell = ell_of(R1)
    y = R1.y()
    z = R1.z()
    cubes = 2 * R1.p.s + 1  # q = 3^cubes
    assert y.pow3k(cubes) - y == x_q0 * ell
    assert z.pow3k(cubes) - z == x_q0 * (y.pow3k(cubes) - y)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 200), st.integers(0, 120), st.integers(0, 120))
def test_reduce_normalizes_degrees(a, b, c):
    f = R1.monomial(a, b, c)
    for (_, bb, cc) in terms(f):
        assert bb < R1.q and cc < R1.q


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 40), st.integers(0, 30), st.integers(0, 30), st.integers(1, 2)
        ),
        max_size=5,
    ),
    st.lists(
        st.tuples(
            st.integers(0, 40), st.integers(0, 30), st.integers(0, 30), st.integers(1, 2)
        ),
        max_size=5,
    ),
)
def test_cube_is_ring_hom(ta, tb):
    f = R1.zero()
    for a, b, c, v in ta:
        f = f + R1.monomial(a, b, c, v)
    g = R1.zero()
    for a, b, c, v in tb:
        g = g + R1.monomial(a, b, c, v)
    assert (f + g).pow3() == f.pow3() + g.pow3()
    assert (f * g).pow3() == f.pow3() * g.pow3()
    assert f.pow3() == f * f * f


def test_derived_q0_normal_forms():
    # these reductions hold at every level; check s=1 and s=2
    for s in (1, 2):
        fam = recipe_fold(s)
        ring = fam.ring
        q0 = ring.q0
        assert fam.element("w1").pow3k(s) == ring.monomial(q0 + 1, 0, 0) - ring.y()
        assert fam.element("w2").pow3k(s) == ring.monomial(q0, 1, 0) - ring.z()
        assert fam.element("w4") == ring.y() * ring.y() - ring.x() * ring.z()


@pytest.mark.parametrize("name", sorted(QPOWER_RULES))
def test_q_power_rules_exact_s1(name):
    assert rule_residual(1, name).is_zero()


@pytest.mark.parametrize("name", ["y", "z", "w1", "w2", "w3", "w4", "v", "w5", "w7"])
def test_q_power_rules_exact_s2(name):
    assert rule_residual(2, name).is_zero()


def test_pole_orders_match_closed_forms_s1():
    p = ree_params(1)
    expected = expected_pole_orders(p)
    got = {name: pole_order(F1.element(name)) for name in FAMILY_NAMES}
    assert got == expected


def test_pole_orders_s1_values():
    got = [pole_order(F1.element(n)) for n in FAMILY_NAMES]
    assert got == [0, 729, 810, 891, 972, 999, 1026, 918, 1002, 1035, 921, 1036, 1029, 1032]
    assert len(set(got)) == 14
    assert max(got) == ree_params(1).m_value


def test_pole_orders_closed_forms_s2_small_members():
    p = ree_params(2)
    fam = recipe_fold(2)
    expected = expected_pole_orders(p)
    for name in ("one", "x", "y", "z", "w1", "w2", "w3", "w4", "w5", "w7"):
        assert pole_order(fam.element(name)) == expected[name]


def test_pole_order_of_monomials():
    p = ree_params(1)
    q, q0 = p.q, p.q0
    assert pole_order(R1.x()) == q * q
    assert pole_order(R1.y()) == q * q + q * q0
    assert pole_order(R1.z()) == q * q + 2 * q * q0
    assert pole_order(R1.monomial(2, 1, 1)) == 2 * q * q + (q * q + q * q0) + (
        q * q + 2 * q * q0
    )
    assert pole_order(-R1.one()) == 0
    with pytest.raises(ValueError):
        pole_order(R1.zero())


def test_evaluate_is_ring_hom_on_rational_points():
    ctx = field_context(3)  # GF(27) = GF(q) at s=1
    rng = random.Random(5)
    for _ in range(20):
        vx, vy, vz = (ctx.random_element(rng) for _ in range(3))
        f = R1.zero()
        g = R1.zero()
        for _ in range(4):
            f = f + R1.monomial(rng.randrange(50), rng.randrange(40), rng.randrange(40))
            g = g + R1.monomial(rng.randrange(50), rng.randrange(40), rng.randrange(40))
        lhs = evaluate(f * g, vx, vy, vz)
        rhs = evaluate(f, vx, vy, vz) * evaluate(g, vx, vy, vz)
        assert lhs == rhs
        assert evaluate(f + g, vx, vy, vz) == evaluate(f, vx, vy, vz) + evaluate(
            g, vx, vy, vz
        )


def test_family_independence_via_distinct_poles():
    # pairwise distinct pole orders make the 14 functions linearly
    # independent, so the series they span has projective dimension 13
    got = {pole_order(F1.element(n)) for n in FAMILY_NAMES}
    assert len(got) == len(FAMILY_NAMES)
