"""Arithmetic in GF(3^m) with deterministic moduli.

An element is one Python int that packs its coordinates in the polynomial
basis 1, t, ..., t^(m-1) one GF(3) digit (trit) per byte, constant term in
the lowest byte.  Sums are int additions followed by ``bytes.translate``,
which reduces every byte mod 3 at once.  Products use Kronecker
substitution (Harvey, J. Symbolic Comput. 44, 2009): one big-int product,
a byte-wise reduction, then a Barrett reduction modulo the field
polynomial made of two more packed products.  Frobenius powers are the
one GF(3)-linear map, applied as sums of packed columns built on first
use.  Inverses run the extended Euclidean algorithm (Knuth, TAOCP vol. 2,
4.6.1) on the packed long division that the modulus search uses too.

A field of order at most 3^7 (the rational points at s <= 3, and GF(3))
multiplies and raises to 3^k-th powers through discrete-log and exp
tables instead (Zech logarithms; Lidl-Niederreiter, Finite Fields,
ch. 9), built on the field's least primitive element by code.  The
choice depends on the field order only, and both give the same elements.

``Lanes(field, T)`` holds T elements of one field side by side in one
packed int, lane j in bytes j*m .. j*m + m - 1, so one FieldElement of
the lanes context carries T values.  Sums, differences, negation and the
zero test act on every lane at once through the same byte tricks;
products and Frobenius powers go lane by lane through the field.  The
sampled route expands the members at all its points as lanes of one
series, so each term is computed once for every point.

The modulus for each degree is pinned so that any two runs (and any two
machines) agree on element encodings: it is the monic irreducible whose
non-leading coefficient vector, read as a base-3 integer with the constant
term least significant, is smallest.  ``code()`` is that same base-3
reading of an element.  The search runs Ben-Or's irreducibility test on
packed candidates in that order; it drops a candidate at its smallest
factor (Gao-Panario, Finite Fields and Applications, 1997).

Beyond the ring operations the module provides the two maps the curve
machinery needs: iterated cube (Frobenius powers) and a deterministic
solver for Artin-Schreier equations u^q - u = c, the trace form of
additive Hilbert 90: Frobenius powers and products, no elimination.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = [
    "FieldContext",
    "FieldElement",
    "Lanes",
    "field_context",
    "frobenius_power",
    "solve_artin_schreier",
]


# ---------------------------------------------------------------------------
# packed GF(3)[t]: one trit per byte, constant term in the lowest byte

_MOD3 = bytes(i % 3 for i in range(256))
_NEG3 = bytes(-i % 3 for i in range(256))
_DIGITS = b"012" + bytes(253)  # trit -> ASCII digit
# A byte may sum up to 63 products of two trits plus one trit: 4*63 + 2 < 256.
_CHUNK = 63
_CHUNK_BITS = 8 * _CHUNK
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1
_from_bytes = int.from_bytes


def _pack(trits: Sequence[int]) -> int:
    return _from_bytes(bytes(trits), "little")


def _mod3(x: int, n: int) -> int:
    """Every byte of x reduced mod 3; n is at least the byte length of x."""
    return _from_bytes(x.to_bytes(n, "little").translate(_MOD3), "little")


def _neg3(x: int, n: int) -> int:
    return _from_bytes(x.to_bytes(n, "little").translate(_NEG3), "little")


def _kmul(a: int, b: int, n: int, c: int = 0) -> int:
    """c + a*b in GF(3)[t] on packed operands, by Kronecker substitution.

    A byte of a*b sums one product of two trits per trit of a, so a is
    taken _CHUNK trits at a time.  c must be reduced; n is at least the
    byte length of the result.
    """
    while a >> _CHUNK_BITS:
        c = _mod3(c + (a & _CHUNK_MASK) * b, n)
        a >>= _CHUNK_BITS
        b <<= _CHUNK_BITS
    return _mod3(c + a * b, n)


def _from_code(code: int, m: int) -> int:
    """The packed element whose base-3 code is code."""
    trits = bytearray(m)
    for i in range(m):
        code, trits[i] = divmod(code, 3)
    return _from_bytes(trits, "little")


def _divmod(a: int, f: int) -> tuple[int, int]:
    """Quotient and remainder of packed a by packed f != 0, by long division:
    f's leading trit is its own inverse mod 3, so each quotient trit is the
    product of the two leading trits."""
    df = (f.bit_length() - 1) >> 3
    lead = f >> 8 * df
    minus = (0, _neg3(f, df + 1), f)  # -c*f for the quotient trit c
    q = 0
    while (d := (a.bit_length() - 1) >> 3) >= df:
        c = (a >> 8 * d) * lead % 3
        q |= c << 8 * (d - df)
        a = _mod3(a + (minus[c] << 8 * (d - df)), d + 1)
    return q, a


class _Quotient:
    """GF(3)[t]/(f) for packed monic f of degree m >= 1, on packed residues."""

    def __init__(self, f: int):
        m = (f.bit_length() - 1) >> 3
        self.m = m
        self._f = f
        self.modulus = tuple(f.to_bytes(m + 1, "little"))
        self._bits = 8 * m
        self._mask = (1 << self._bits) - 1
        self._wide = 2 * m  # bytes of a product before reduction mod f
        self._mu = _divmod(1 << 8 * (2 * m - 2), f)[0]  # floor(t^(2m-2) / f)
        self._qshift = 8 * max(m - 2, 0)
        self._tm = _neg3(f & self._mask, m)  # t^m mod f

    def _mulmod(self, a: int, b: int) -> int:
        """a*b mod f.  Polynomial Barrett reduction needs no correction:
        for a product p = hi*t^m + lo, the quotient by f is exactly
        floor(hi * mu / t^(m-2))."""
        n = self._wide
        p = _kmul(a, b, n)
        hi = p >> self._bits
        if not hi:
            return p
        q = _kmul(hi, self._mu, n) >> self._qshift
        return _kmul(q, self._tm, n, p & self._mask) & self._mask


# ---------------------------------------------------------------------------
# the modulus search: Ben-Or's test on packed candidates


def _is_irreducible(f: int) -> bool:
    """Ben-Or's test (FOCS 1981) of a packed monic f of degree m.

    A reducible f has an irreducible factor of some degree d <= m/2, which
    divides t^(3^d) - t; so f is irreducible iff gcd(t^(3^d) - t, f) = 1
    for every d <= m/2.  The loop stops at the smallest factor's degree.
    """
    ring = _Quotient(f)
    x = 1 << 8  # t
    for _ in range(ring.m // 2):
        x = ring._mulmod(ring._mulmod(x, x), x)
        a, b = f, _mod3(x + (2 << 8), ring.m)  # x - t = x + 2t
        while b:
            a, b = b, _divmod(a, b)[1]
        if a >> 8:
            return False
    return True


def _smallest_modulus(m: int) -> int:
    """Packed monic irreducible of degree m whose low-coefficient code is minimal."""
    candidates = (_from_code(code, m) | 1 << 8 * m for code in range(3**m))
    return next(filter(_is_irreducible, candidates))


# ---------------------------------------------------------------------------


class FieldElement:
    """Immutable element of a FieldContext, packed one trit per byte."""

    __slots__ = ("ctx", "packed")

    def __init__(self, ctx: "FieldContext", packed: int):
        self.ctx = ctx
        self.packed = packed

    def is_zero(self) -> bool:
        return not self.packed

    def code(self) -> int:
        """Base-3 packed integer encoding, constant term least significant."""
        return int(self.packed.to_bytes(self.ctx.m, "big").translate(_DIGITS), 3)

    def _check(self, other: "FieldElement") -> None:
        if self.ctx is not other.ctx:
            raise ValueError("elements belong to different field contexts")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, _mod3(self.packed + other.packed, self.ctx.m))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        ctx = self.ctx
        # adding 3 to every byte keeps each byte of the difference >= 0
        return FieldElement(ctx, _mod3(self.packed + ctx._threes - other.packed, ctx.m))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.ctx, _neg3(self.packed, self.ctx.m))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, self.ctx._mulmod(self.packed, other.packed))

    def inverse(self) -> "FieldElement":
        return self.ctx.inv(self)

    def pow3k(self, k: int) -> "FieldElement":
        """self^(3^k), as frobenius_power(self, k) with the same depth of calls."""
        return self.ctx.frobenius(self, k)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.ctx is other.ctx
            and self.packed == other.packed
        )

    def __hash__(self) -> int:
        return hash(self.packed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GF(3^{self.ctx.m}):{self.code()}"


# fields up to this order multiply through log and exp tables
_TABLE_ORDER = 3**7


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldContext(_Quotient):
    """GF(3^m) with the deterministic degree-m modulus."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        super().__init__(_smallest_modulus(m))
        self.order = 3**m
        self._threes = _pack([3] * m)
        self._frob_cols: dict[int, list] = {}
        self._log: dict[int, int] | None = None
        if self.order <= _TABLE_ORDER:
            self._build_tables()

    def _build_tables(self) -> None:
        """Log and exp tables on the least primitive element by code.

        exp[i] is g^i for 0 <= i < 2(order - 1), so a product is one read
        at the sum of two logs; the table methods replace the packed ones
        on this context.
        """
        n = self.order - 1
        mul = self._mulmod

        def power(x: int, e: int) -> int:
            out = 1
            for bit in bin(e)[2:]:
                out = mul(out, out)
                if bit == "1":
                    out = mul(out, x)
            return out

        tests = [n // p for p in _prime_factors(n)]
        g = next(x for x in (_from_code(c, self.m) for c in range(1, self.order))
                 if all(power(x, e) != 1 for e in tests))
        exp = [1] * n
        for i in range(1, n):
            exp[i] = mul(exp[i - 1], g)
        self._log = {x: i for i, x in enumerate(exp)}
        self._exp = exp + exp
        self._mulmod = self._table_mulmod
        self._frob = self._table_frob

    def _table_mulmod(self, a: int, b: int) -> int:
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def _table_frob(self, v: int, k: int) -> int:
        if v:
            return self._exp[self._log[v] * 3 ** (k % self.m) % (self.order - 1)]
        return 0

    # -- constructors

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def from_code(self, code: int) -> FieldElement:
        if not 0 <= code < self.order:
            raise ValueError("code out of range")
        return FieldElement(self, _from_code(code, self.m))

    def random_element(self, rng) -> FieldElement:
        return self.from_code(rng.randrange(self.order))

    # -- core ops

    def inv(self, a: FieldElement) -> FieldElement:
        """1/a by the extended Euclidean algorithm: s1*a = r1 mod f at each
        step, and the last r1 is a nonzero constant, its own inverse mod 3."""
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero")
        m = self.m
        r0, r1 = self._f, a.packed
        s0, s1 = 0, 1
        while r1 >> 8:
            quo, r = _divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _kmul(_neg3(quo, m), s1, m, s0)
        return FieldElement(self, s1 if r1 == 1 else _neg3(s1, m))

    # -- Frobenius powers as sums of packed columns

    def _frob(self, v: int, k: int) -> int:
        """v^(3^k), the sum over the trits of v of the columns t^(i*3^k).

        The columns of k are built on first use, kept as (first index,
        [(0, col, -col), ...]) per chunk of _CHUNK columns.
        """
        m = self.m
        k %= m
        if not k:
            return v
        table = self._frob_cols.get(k)
        if table is None:
            tk = 1 << 8
            for _ in range(k):
                tk = self._mulmod(self._mulmod(tk, tk), tk)
            cols = [1]
            for _ in range(m - 1):
                cols.append(self._mulmod(cols[-1], tk))
            cols = [(0, c, _neg3(c, m)) for c in cols]
            table = self._frob_cols[k] = [
                (lo, cols[lo : lo + _CHUNK]) for lo in range(0, m, _CHUNK)
            ]
        trits = v.to_bytes(m, "little")
        acc = 0
        for lo, chunk in table:
            for c, col in zip(trits[lo:], chunk):
                if c:
                    acc += col[c]
            acc = _mod3(acc, m)
        return acc

    def frobenius(self, a: FieldElement, k: int) -> FieldElement:
        return FieldElement(self, self._frob(a.packed, k))

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldContext(GF(3^{self.m}))"


_CTX_CACHE: dict[int, FieldContext] = {}


def field_context(m: int) -> FieldContext:
    """Shared context per degree, so element contexts compare by identity."""
    if m not in _CTX_CACHE:
        _CTX_CACHE[m] = FieldContext(m)
    return _CTX_CACHE[m]


class Lanes:
    """T elements of one field side by side in one packed int, lane j in
    bytes j*m .. j*m + m - 1; its elements are FieldElements, so series
    arithmetic runs on them unchanged."""

    def __init__(self, field: FieldContext, T: int):
        self.field = field
        self.lanes = T
        self.m = T * field.m
        self._threes = _pack([3] * self.m)
        self._shifts = tuple(8 * field.m * j for j in range(T))
        self._lane_mask = (1 << 8 * field.m) - 1

    def one(self) -> FieldElement:
        return FieldElement(self, sum(1 << sh for sh in self._shifts))

    def pack(self, elements: Sequence[FieldElement]) -> FieldElement:
        """The element whose lane j is elements[j]."""
        if len(elements) != self.lanes or any(a.ctx is not self.field for a in elements):
            raise ValueError(f"pack takes {self.lanes} elements of {self.field!r}")
        return FieldElement(self, sum(a.packed << sh for a, sh in zip(elements, self._shifts)))

    def split(self, a: FieldElement) -> list[FieldElement]:
        """The lanes of a, as elements of the field."""
        v, mask = a.packed, self._lane_mask
        return [FieldElement(self.field, (v >> sh) & mask) for sh in self._shifts]

    def _mulmod(self, a: int, b: int) -> int:
        mul, mask = self.field._mulmod, self._lane_mask
        out = 0
        for sh in self._shifts:
            x = (a >> sh) & mask
            if x:
                y = (b >> sh) & mask
                if y:
                    out |= mul(x, y) << sh
        return out

    def _frob(self, v: int, k: int) -> int:
        frob, mask = self.field._frob, self._lane_mask
        out = 0
        for sh in self._shifts:
            x = (v >> sh) & mask
            if x:
                out |= frob(x, k) << sh
        return out

    def frobenius(self, a: FieldElement, k: int) -> FieldElement:
        return FieldElement(self, self._frob(a.packed, k))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Lanes(GF(3^{self.field.m}), {self.lanes})"


# ---------------------------------------------------------------------------
# module-level operation surface


def frobenius_power(a: FieldElement, k: int) -> FieldElement:
    """a^(3^k)."""
    return a.ctx.frobenius(a, k)


def solve_artin_schreier(c: FieldElement, q: int) -> Optional[FieldElement]:
    """Deterministic solution u of u^q - u = c in the context of c, or None.

    q must be a power of 3 whose exponent e divides m; Tr is the trace from
    GF(3^m) to GF(q), a sum of n = m/e conjugates.  The equation is solvable
    iff Tr(c) = 0 (additive Hilbert 90; Lidl-Niederreiter, Finite Fields,
    Thm 2.25), and then, with s_i = c + c^q + ... + c^(q^i) and theta the
    first power-basis element t^j with tau = Tr(theta) != 0,

        u = -1/tau * (s_0 theta + s_1 theta^q + ... + s_(n-1) theta^(q^(n-1))).

    Written through any root w (c = w^q - w, s_i = w^(q^(i+1)) - w), this
    is u = w - Tr(psi w)/tau with psi = theta^(q^(n-1)), so Tr(psi u) = 0.
    The roots differ by elements a of GF(q) and Tr(psi (u + a)) = a tau,
    so u is the one root with Tr(psi u) = 0, whatever computed it.
    """
    ctx = c.ctx
    e = 0
    qq = q
    while qq > 1 and qq % 3 == 0:
        qq //= 3
        e += 1
    if qq != 1 or e == 0:
        raise ValueError("q must be a power of 3 greater than 1")
    if ctx.m % e:
        raise ValueError("exponent of q must divide field degree")
    m, n = ctx.m, ctx.m // e
    frob, mul = ctx._frob, ctx._mulmod
    term = c.packed
    sums = [term]
    for _ in range(n - 1):
        term = frob(term, e)
        sums.append(_mod3(sums[-1] + term, m))
    if sums[-1]:
        return None  # s_(n-1) = Tr(c)
    # theta's conjugates; the power basis spans, so some t^j has nonzero trace
    for j in range(m):
        conj = tau = 1 << 8 * j
        conjs = [conj]
        for _ in range(n - 1):
            conj = frob(conj, e)
            conjs.append(conj)
            tau = _mod3(tau + conj, m)
        if tau:
            break
    out = 0
    for s, w in zip(sums, conjs):
        out = _mod3(out + mul(s, w), m)
    out = mul(_neg3(out, m), ctx.inv(FieldElement(ctx, tau)).packed)
    u = FieldElement(ctx, out)
    if ctx.frobenius(u, e) - u != c:
        raise ArithmeticError("Artin-Schreier solver produced a non-solution")
    return u
