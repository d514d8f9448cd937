import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reecurve.gf import field_context
from reecurve.hasse import binom_mod3, hasse_calculus, ser_add
from reecurve.params import ree_params
from reecurve.ring import FAMILY_NAMES, coordinate_ring

from reference import binom_support, ell_of, hasse_reference, power, recipe_fold, scale

H1 = hasse_calculus(1)
REF1 = hasse_reference(1)
R1 = coordinate_ring(1)
P1 = ree_params(1)


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 3000))
def test_binom_mod3_against_math_comb(n, k):
    assert binom_mod3(n, k) == math.comb(n, k) % 3 if k <= n else binom_mod3(n, k) == 0


# base-3 digit sums up to 2000
_S3 = [0] * 2001
for _i in range(1, 2001):
    _S3[_i] = _S3[_i // 3] + _i % 3


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2000))
def test_binom_support_is_exact(n):
    # Legendre's formula: 3 divides C(n, k) exactly (s(k) + s(n-k) - s(n)) / 2
    # times, s the base-3 digit sum, so C(n, k) is nonzero mod 3 iff the
    # digit sums add up
    supp = set(binom_support(n))
    for k in range(n + 1):
        assert (k in supp) == (_S3[k] + _S3[n - k] == _S3[n])


def test_derivatives_of_x():
    assert H1.coefficient("x", 0) == R1.x()
    assert H1.coefficient("x", 1) == R1.one()
    for i in (2, 3, P1.q0, P1.q, P1.q**2):
        assert H1.coefficient("x", i).is_zero()


def test_first_derivatives_of_coordinates():
    q0 = P1.q0
    assert H1.coefficient("y", 1) == R1.monomial(q0, 0, 0)
    assert H1.coefficient("z", 1) == R1.monomial(2 * q0, 0, 0)
    # D^2 y = 0: index 2 is outside the support
    assert H1.coefficient("y", 2).is_zero()


def test_derivative_of_separating_element():
    # D^q (x^q - x) = 1 and D^1 (x^q - x) = -1
    ell = ell_of(R1)
    assert REF1.hasse_derivative(ell, P1.q) == R1.one()
    assert REF1.hasse_derivative(ell, 1) == -R1.one()
    assert REF1.hasse_derivative(ell, 2).is_zero()


# The eight-row derivative table for the generator coordinates and the
# quadric member, plus the trivial x column.  Entries are normal forms in
# x, y, z and powers of ell = x^q - x.
def _expected_table():
    q, q0 = P1.q, P1.q0
    ell = ell_of(R1)
    one = R1.one()
    zero = R1.zero()
    x = R1.x()
    y = R1.y()
    z = R1.z()
    xq0 = R1.monomial(q0, 0, 0)
    x2q0 = R1.monomial(2 * q0, 0, 0)
    rows = {
        1: {
            "x": one,
            "y": xq0,
            "z": x2q0,
            "w4": -R1.monomial(2 * q0 + 1, 0, 0) - xq0 * y - z,
        },
        q0 + 1: {
            "x": zero,
            "y": one,
            "z": -xq0,
            "w4": R1.monomial(q0 + 1, 0, 0) - y,
        },
        2 * q0 + 1: {"x": zero, "y": zero, "z": one, "w4": -R1.monomial(q, 0, 0)},
        q + 1: {"x": zero, "y": zero, "z": zero, "w4": -power(ell, 2 * q0)},
        q + q0: {
            "x": zero,
            "y": -one,
            "z": xq0,
            "w4": power(ell, q0 + 1) - R1.monomial(q0 + 1, 0, 0) + y,
        },
        2 * q: {"x": zero, "y": zero, "z": zero, "w4": power(ell, 2 * q0)},
        q * q0 + 1: {"x": zero, "y": zero, "z": zero, "w4": -power(ell, q + q0)},
        q * q0 + q0: {"x": zero, "y": zero, "z": zero, "w4": -power(ell, q + 1)},
    }
    return rows


def test_derivative_table_of_low_members():
    rows = _expected_table()
    for i, cols in rows.items():
        for name, expected in cols.items():
            got = H1.coefficient(name, i)
            assert got == expected, f"D^{i} {name}"


def test_derivative_table_shape():
    rows = _expected_table()
    assert len(rows) == 8
    assert all(len(cols) == 4 for cols in rows.values())


def test_q0_derivative_relation():
    # D^q0 y = -ell (via D^{kq0} f = -ell D^{kq0+1} f with D^{q0+1} y = 1)
    assert H1.coefficient("y", P1.q0) == -ell_of(R1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 30), st.integers(0, 15), st.integers(0, 15), st.integers(1, 2)
        ),
        min_size=1,
        max_size=3,
    ),
    st.lists(
        st.tuples(
            st.integers(0, 30), st.integers(0, 15), st.integers(0, 15), st.integers(1, 2)
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 60),
)
def test_leibniz_rule(ta, tb, i):
    f = R1.zero()
    for a, b, c, v in ta:
        f = f + R1.monomial(a, b, c, v)
    g = R1.zero()
    for a, b, c, v in tb:
        g = g + R1.monomial(a, b, c, v)
    lhs = REF1.hasse_derivative(f * g, i)
    rhs = R1.zero()
    for j in range(i + 1):
        rhs = rhs + REF1.hasse_derivative(f, j) * REF1.hasse_derivative(g, i - j)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 25), st.integers(0, 12), st.integers(0, 12), st.integers(1, 2)
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 40),
    st.integers(0, 40),
)
def test_composition_rule(ta, i, j):
    # D^i D^j = C(i+j, i) D^{i+j}
    f = R1.zero()
    for a, b, c, v in ta:
        f = f + R1.monomial(a, b, c, v)
    lhs = REF1.hasse_derivative(REF1.hasse_derivative(f, j), i)
    rhs = scale(REF1.hasse_derivative(f, i + j), binom_mod3(i + j, i))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 25), st.integers(0, 12), st.integers(0, 12), st.integers(1, 2)
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 100),
)
def test_cube_power_rule(ta, i):
    # D^i (f^3) = (D^{i/3} f)^3 when 3 | i, else 0
    f = R1.zero()
    for a, b, c, v in ta:
        f = f + R1.monomial(a, b, c, v)
    lhs = REF1.hasse_derivative(f.pow3(), i)
    if i % 3:
        assert lhs.is_zero()
    else:
        assert lhs == REF1.hasse_derivative(f, i // 3).pow3()


def test_table_agrees_with_monomial_path():
    # the DAG tables and the generic monomial-wise path must agree
    rng = random.Random(17)
    for name in ("y", "z", "w1", "w2", "w4"):
        f = recipe_fold(1).element(name)
        tbl = H1.table(name)
        indices = set(rng.sample(sorted(tbl), min(4, len(tbl))))
        indices.add(1)
        indices |= {i + 1 for i in list(indices) if i + 1 < H1.prec}
        for i in indices:
            assert REF1.hasse_derivative(f, i) == tbl.get(i, R1.zero()), (name, i)


def test_element_table_matches_tables():
    for name in ("y", "w1", "w4"):
        f = recipe_fold(1).element(name)
        assert REF1.element_table(f) == H1.table(name)


def test_zero_above_q_squared_truncation():
    with pytest.raises(ValueError):
        H1.coefficient("y", P1.q**2 + 1)


@pytest.mark.parametrize("s", [1, 2])
def test_tables_build_for_all_members(s):
    # the expansion at the generic point against the recipes folded in the ring
    calc = hasse_calculus(s)
    for name in FAMILY_NAMES:
        tbl = calc.table(name)
        assert 0 in tbl
        assert tbl[0] == recipe_fold(s).element(name)


def _snapshot(series):
    """A series as plain data; a ring coefficient's packed dict is copied."""
    return {e: dict(c.packed) if isinstance(c.packed, dict) else c.packed
            for e, c in series.items()}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("algebra", ["ring", "field"])
def test_ser_add_adds_and_subtracts_in_place(algebra, sign):
    if algebra == "ring":
        u, v = R1.monomial(2, 1, 0) + R1.y(), R1.x()
    else:
        ctx = field_context(5)
        u, v = ctx.from_code(7), ctx.from_code(40)
    # key 1 is in both series and cancels, key 2 is only in b
    a = {0: u, 1: v}
    b = {1: -v if sign == 1 else v, 2: u}
    before = (_snapshot(a), _snapshot(b))
    assert ser_add(a, b, sign) == {0: u, 2: u if sign == 1 else -u}
    assert ser_add(a, {0: -u if sign == 1 else u, 1: -v if sign == 1 else v}, sign) == {}
    assert (_snapshot(a), _snapshot(b)) == before
