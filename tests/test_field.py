import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reecurve.gf import (
    FieldElement,
    Lanes,
    _pmod,
    _Quotient,
    field_context,
    frobenius_power,
    solve_artin_schreier,
)

from reference import power


def _gen(ctx):
    """t, the class of the polynomial variable (zero when the modulus is t)."""
    return ctx.from_code(3) if ctx.m > 1 else ctx.zero()


def test_canonical_modulus_gf9():
    # smallest-code scan: t^2 + 1 is the first irreducible quadratic
    ctx = field_context(2)
    assert ctx.modulus == (1, 0, 1)
    t = _gen(ctx)
    assert (t * t).coeffs == (2, 0)  # t^2 = -1 = 2


def test_canonical_modulus_gf27():
    ctx = field_context(3)
    assert ctx.modulus == (1, 2, 0, 1)  # t^3 + 2t + 1
    t = _gen(ctx)
    t3 = t * t * t
    # t^3 = -2t - 1 = t + 2
    assert t3 == t + ctx.from_code(2)


def test_modulus_is_irreducible_by_order():
    # multiplicative order of every nonzero element divides 3^m - 1,
    # and the generator is not in a proper subfield
    for m in (2, 3, 6):
        ctx = field_context(m)
        t = _gen(ctx)
        assert power(t, 3**m - 1) == ctx.one()
        for d in (1, 2, 3):
            if d < m and m % d == 0:
                assert ctx.frobenius(t, d) != t


def test_code_round_trip():
    ctx = field_context(3)
    for code in range(27):
        assert ctx.from_code(code).code() == code


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 3**6 - 1), st.integers(0, 3**6 - 1), st.integers(0, 3**6 - 1))
def test_field_axioms(ca, cb, cc):
    ctx = field_context(6)
    a, b, c = ctx.from_code(ca), ctx.from_code(cb), ctx.from_code(cc)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ctx.zero() == a
    assert a * ctx.one() == a
    assert (a - a).is_zero()
    if not a.is_zero():
        assert a * a.inverse() == ctx.one()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3**6 - 1), st.integers(0, 3**6 - 1))
def test_cube_is_frobenius(ca, cb):
    ctx = field_context(6)
    a, b = ctx.from_code(ca), ctx.from_code(cb)
    assert ctx.frobenius(a, 1) == a * a * a
    assert ctx.frobenius(a + b, 1) == ctx.frobenius(a, 1) + ctx.frobenius(b, 1)
    assert ctx.frobenius(a * b, 1) == ctx.frobenius(a, 1) * ctx.frobenius(b, 1)


def test_frobenius_power_cycles():
    ctx = field_context(3)
    rng = random.Random(7)
    for _ in range(20):
        a = ctx.random_element(rng)
        assert frobenius_power(a, 3) == a
        assert frobenius_power(a, 1) == a * a * a
        assert frobenius_power(frobenius_power(a, 1), 2) == a


@pytest.mark.parametrize("m,e", [(2, 1), (3, 1), (6, 1), (6, 2), (6, 3)])
def test_artin_schreier_against_search(m, e):
    # oracle: brute-force search for any u with u^(3^e) - u = c
    ctx = field_context(m)
    q = 3**e
    for code in range(min(ctx.order, 81)):
        c = ctx.from_code(code)
        found = None
        for ucode in range(ctx.order):
            u = ctx.from_code(ucode)
            if frobenius_power(u, e) - u == c:
                found = u
                break
        got = solve_artin_schreier(c, q)
        if found is None:
            assert got is None
        else:
            assert got is not None
            assert frobenius_power(got, e) - got == c


def test_artin_schreier_deterministic():
    ctx = field_context(6)
    rng = random.Random(3)
    for _ in range(50):
        c = ctx.random_element(rng)
        u1 = solve_artin_schreier(c, 3)
        u2 = solve_artin_schreier(c, 3)
        if u1 is None:
            assert u2 is None
        else:
            assert u1 == u2


def _trace(a, e):
    """Tr from the context of a to GF(3^e), as a sum of Frobenius powers."""
    tr = term = a
    for _ in range(a.ctx.m // e - 1):
        term = frobenius_power(term, e)
        tr = tr + term
    return tr


def test_artin_schreier_solvable_iff_trace_zero():
    # u^q - u = c is solvable over GF(3^m) iff Tr to GF(q) vanishes; the
    # trace is taken from frobenius_power sums, not through the solver.
    # (18, 3) is the sampler's shape at s = 1.
    for m, e in ((3, 1), (6, 2), (18, 3)):
        ctx = field_context(m)
        rng = random.Random(f"as-trace:{m}:{e}")
        cs = [ctx.from_code(code) for code in range(min(ctx.order, 81))]
        for _ in range(40):
            v = ctx.random_element(rng)
            cs += [ctx.random_element(rng), frobenius_power(v, e) - v]
        for c in cs:
            tr = _trace(c, e)
            assert tr == frobenius_power(tr, e)  # the trace lies in GF(q)
            assert (solve_artin_schreier(c, 3**e) is not None) == tr.is_zero()


def _solve_gf3(rows, rhs):
    """Solve a GF(3) linear system; deterministic representative, or None."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for rr in range(r, nr):
            if aug[rr][c]:
                pr = rr
                break
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = pow(aug[r][c], -1, 3)
        aug[r] = [(v * inv) % 3 for v in aug[r]]
        for rr in range(nr):
            if rr != r and aug[rr][c]:
                f = aug[rr][c]
                aug[rr] = [(v - f * p) % 3 for v, p in zip(aug[rr], aug[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    for rr in range(r, nr):
        if aug[rr][nc]:
            return None
    sol = [0] * nc
    for i, c in enumerate(pivots):
        sol[c] = aug[i][nc]
    return sol


@pytest.mark.parametrize("m,e", [(6, 1), (6, 2), (6, 3), (18, 3), (30, 5)])
def test_artin_schreier_returns_the_reference_representative(m, e):
    # solvability against a plain solve of (Frob^e - I) u = c; the root is
    # the one with Tr(psi u) = 0 for psi = theta^(q^(n-1)), theta the first
    # t^j with nonzero trace.  That pins one root: Tr((u + a) psi) =
    # Tr(u psi) + a Tr(theta) for a in GF(q).
    ctx = field_context(m)
    cols = []
    for j in range(m):
        b = ctx.from_code(3**j)
        cols.append((frobenius_power(b, e) - b).coeffs)
    rows = [[col[i] for col in cols] for i in range(m)]
    theta = next(b for b in (ctx.from_code(3**j) for j in range(m))
                 if not _trace(b, e).is_zero())
    psi = frobenius_power(theta, m - e)
    rng = random.Random(f"as-reference:{m}:{e}")
    for _ in range(40):
        v = ctx.random_element(rng)
        # a random c, mostly unsolvable, and one that is solvable
        for c in (ctx.random_element(rng), frobenius_power(v, e) - v):
            got = solve_artin_schreier(c, 3**e)
            if _solve_gf3(rows, list(c.coeffs)) is None:
                assert got is None
            else:
                assert got is not None
                assert frobenius_power(got, e) - got == c
                assert _trace(psi * got, e).is_zero()


def test_artin_schreier_rejects_bad_q():
    ctx = field_context(3)
    with pytest.raises(ValueError):
        solve_artin_schreier(ctx.one(), 4)
    with pytest.raises(ValueError):
        solve_artin_schreier(ctx.one(), 9)  # exponent 2 does not divide 3


# ---------------------------------------------------------------------------
# packed kernels against schoolbook GF(3)[t] arithmetic on coefficient lists


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % 3
    return out


def _reduced(ctx, coeffs):
    c = _pmod(coeffs, ctx.modulus)
    return tuple(c) + (0,) * (ctx.m - len(c))


# m = 1 has modulus t; 63 is the last degree whose products fit one byte a
# trit (4m <= 255), so 64 runs the chunked kernels
@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 18, 42, 63, 64])
def test_packed_ops_match_schoolbook(m):
    ctx = field_context(m)
    rng = random.Random(f"packed:{m}")
    xs = [ctx.random_element(rng) for _ in range(8)] + [ctx.from_code(ctx.order - 1)]
    for a, b in zip(xs, xs[1:] + xs[:1]):
        ac, bc = list(a.coeffs), list(b.coeffs)
        assert (a * b).coeffs == _reduced(ctx, _pmul(ac, bc))
        # the all-2 square puts 4m into the middle byte of the product
        assert (a * a).coeffs == _reduced(ctx, _pmul(ac, ac))
        assert (a + b).coeffs == tuple((x + y) % 3 for x, y in zip(ac, bc))
        assert (a - b).coeffs == tuple((x - y) % 3 for x, y in zip(ac, bc))
        assert (-a).coeffs == tuple(-x % 3 for x in ac)
        cube = _reduced(ctx, _pmul(_pmul(ac, ac), ac))
        assert frobenius_power(a, 1).coeffs == cube
        assert frobenius_power(frobenius_power(a, 1), 1) == frobenius_power(a, 2)
        # a^(3^(m-1)) is the cube root of a
        root = frobenius_power(a, m - 1).coeffs
        assert _reduced(ctx, _pmul(_pmul(root, root), root)) == a.coeffs
        assert frobenius_power(a, m // 2 + 1) == frobenius_power(
            frobenius_power(a, m // 2), 1
        )
        if not a.is_zero():
            inv = a.inverse().coeffs
            assert _reduced(ctx, _pmul(ac, inv)) == (1,) + (0,) * (m - 1)
        code = a.code()
        assert code == sum(c * 3**i for i, c in enumerate(ac))
        assert ctx.from_code(code) == a
        assert (a + power(_gen(ctx), m + 1)).coeffs == _reduced(ctx, ac + [0, 1])
    with pytest.raises(ZeroDivisionError):
        ctx.zero().inverse()


def test_mixed_contexts_raise():
    a, b = field_context(2).one(), field_context(3).one()
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(ValueError):
            op()
    assert a != b


# ---------------------------------------------------------------------------
# lanes: T elements of one field in one packed int


@pytest.mark.parametrize("T", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 3, 5, 7, 18, 66])
def test_lanes_match_per_element_arithmetic(m, T):
    # m = 7 multiplies through tables, 18 and 66 through Kronecker; at
    # m = 66 the Kronecker kernel works in 63-trit chunks
    field = field_context(m)
    lanes = Lanes(field, T)
    rng = random.Random(f"lanes:{m}:{T}")

    def draw():
        # zero lanes and all-2 lanes among random ones
        return [rng.choice([field.zero(), field.from_code(field.order - 1)])
                if rng.random() < 0.25 else field.random_element(rng) for _ in range(T)]

    assert lanes.m == T * m
    assert lanes.split(lanes.one()) == [field.one()] * T
    for _ in range(12):
        xs, ys = draw(), draw()
        a, b = lanes.pack(xs), lanes.pack(ys)
        assert a.ctx is lanes
        assert lanes.split(a) == xs
        assert lanes.split(a + b) == [x + y for x, y in zip(xs, ys)]
        assert lanes.split(a - b) == [x - y for x, y in zip(xs, ys)]
        assert lanes.split(-a) == [-x for x in xs]
        assert lanes.split(a * b) == [x * y for x, y in zip(xs, ys)]
        for k in (1, 2, m - 1, m, m + 3):
            assert lanes.split(a.pow3k(k)) == [frobenius_power(x, k) for x in xs]
        assert a.is_zero() == all(x.is_zero() for x in xs)
        assert (a - a).is_zero()
    zero_but_one = [field.zero()] * T
    zero_but_one[-1] = field.one()
    assert not lanes.pack(zero_but_one).is_zero()
    with pytest.raises(ValueError):
        lanes.pack(draw()[:-1] + [field_context(m + 1).one()])


# ---------------------------------------------------------------------------
# log and exp tables of the small fields


def _cube(ctx, v):
    return _Quotient._mulmod(ctx, _Quotient._mulmod(ctx, v, v), v)


def test_tables_exactly_for_small_orders():
    for m in range(1, 10):
        assert (field_context(m)._log is not None) == (3**m <= 3**7)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_table_products_on_every_pair(m):
    ctx = field_context(m)
    for a in range(ctx.order):
        x = ctx.from_code(a).packed
        for b in range(ctx.order):
            y = ctx.from_code(b).packed
            assert ctx._mulmod(x, y) == _Quotient._mulmod(ctx, x, y)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
def test_table_inverse_and_frobenius(m):
    ctx = field_context(m)
    rng = random.Random(f"tables:{m}")
    if m == 7:
        pairs = [(ctx.random_element(rng), ctx.random_element(rng)) for _ in range(2000)]
        for a, b in pairs:
            assert ctx._mulmod(a.packed, b.packed) == _Quotient._mulmod(ctx, a.packed, b.packed)
        elements = [a for a, _ in pairs[:200]]
    else:
        elements = [ctx.from_code(c) for c in range(ctx.order)]
    for a in elements:
        if not a.is_zero():
            assert _Quotient._mulmod(ctx, a.packed, a.inverse().packed) == 1
        v = a.packed
        for k in range(2 * m + 1):
            assert ctx.frobenius(a, k).packed == v
            v = _cube(ctx, v)
    # the tables are built on the least primitive element by code
    n = ctx.order - 1
    assert len(set(_powers(ctx, ctx._exp[1]))) == n
    g = FieldElement(ctx, ctx._exp[1]).code()
    assert all(len(set(_powers(ctx, ctx.from_code(c).packed))) < n for c in range(1, g))


def _powers(ctx, x):
    """x^1 .. x^(order-1), by the packed product."""
    out, v = [], 1
    for _ in range(ctx.order - 1):
        v = _Quotient._mulmod(ctx, v, x)
        out.append(v)
    return out
