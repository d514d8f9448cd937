"""Affine coordinate ring of the Ree curve in normal form.

The curve over GF(q), q = 3^(2s+1), q0 = 3^s, is cut out by

    y^q - y = x^q0 (x^q - x)
    z^q - z = x^q0 (y^q - y)

so every regular function has a unique normal form with y- and z-degrees
below q.  Reduction uses

    y^q = y + x^(q+q0) - x^(q0+1)
    z^q = z + x^(q+2q0) - x^(2q0+1)

An element is a sparse dict from one int key per monomial to its nonzero
GF(3) coefficient: x^a y^b z^c has key a << 2S | b << S | c, where the
field width S is the bit length of 3q.  The fields of a normal form are
below q and 2^S > 3(q-1), so adding two keys multiplies the monomials and
3*key is the Frobenius cube, with no carry between fields.  A product is
one int add and one dict update per term pair; the mod 3 and the fold of
y- and z-degrees >= q are left to ``CoordinateRing.reduce``.  The
{(a, b, c): coeff} view ``terms`` is derived on demand.

The module also builds the fourteen-function linear system spanning the
canonical very ample series, each function tagged with its q-power
recurrence (w^q - w expressed through smaller members), and computes exact
pole orders at the point at infinity.
"""

from __future__ import annotations

from typing import NamedTuple

from reecurve.params import ReeParams, ree_params

Monomial = tuple[int, int, int]


class CurveElement:
    """Normal-form regular function; immutable once built.

    ``packed`` maps each monomial's key (see ``CoordinateRing.key``) to
    its coefficient, 1 or 2.
    """

    __slots__ = ("ring", "packed")

    def __init__(self, ring: "CoordinateRing", packed: dict[int, int]):
        self.ring = ring
        self.packed = packed

    @property
    def terms(self) -> dict[Monomial, int]:
        """The terms as a fresh {(a, b, c): coeff} dict."""
        unpack = self.ring.unpack
        return {unpack(k): v for k, v in self.packed.items()}

    # -- predicates

    def is_zero(self) -> bool:
        return not self.packed

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CurveElement)
            and self.ring is other.ring
            and self.packed == other.packed
        )

    def __bool__(self) -> bool:
        return bool(self.packed)

    def __len__(self) -> int:
        """Number of terms."""
        return len(self.packed)

    # -- arithmetic

    def __add__(self, other: "CurveElement") -> "CurveElement":
        out = dict(self.packed)
        for k, v in other.packed.items():
            nv = (out.get(k, 0) + v) % 3
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return CurveElement(self.ring, out)

    def __sub__(self, other: "CurveElement") -> "CurveElement":
        out = dict(self.packed)
        for k, v in other.packed.items():
            nv = (out.get(k, 0) - v) % 3
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return CurveElement(self.ring, out)

    def __neg__(self) -> "CurveElement":
        return CurveElement(self.ring, {k: (-v) % 3 for k, v in self.packed.items()})

    def scale(self, c: int) -> "CurveElement":
        c %= 3
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        return -self

    def __mul__(self, other: "CurveElement") -> "CurveElement":
        if not isinstance(other, CurveElement):
            return NotImplemented
        a, b = self.packed, other.packed
        if len(a) > len(b):
            a, b = b, a
        b = b.items()
        raw: dict[int, int] = {}
        get = raw.get
        for k, v in a.items():
            for e, w in b:
                e += k
                raw[e] = get(e, 0) + v * w
        return CurveElement(self.ring, self.ring.reduce(raw))

    def pow3(self) -> "CurveElement":
        # Frobenius cube; GF(3) coefficients are fixed by it.
        raw = {3 * k: v for k, v in self.packed.items()}
        return CurveElement(self.ring, self.ring.reduce(raw))

    def pow3k(self, k: int) -> "CurveElement":
        out = self
        for _ in range(k):
            out = out.pow3()
        return out

    def qpow(self) -> "CurveElement":
        return self.pow3k(2 * self.ring.p.s + 1)

    # -- structure

    def monomial_mins(self) -> Monomial:
        """Componentwise minimum exponent over all terms."""
        if not self.packed:
            raise ValueError("zero element has no monomial content")
        S, M = self.ring.width, self.ring.mask
        return (
            min(self.packed) >> 2 * S,
            min((k >> S) & M for k in self.packed),
            min(k & M for k in self.packed),
        )

    def divide_monomial(self, mono: Monomial) -> "CurveElement":
        ga, gb, gc = mono
        S, M = self.ring.width, self.ring.mask
        for k in self.packed:
            if k >> 2 * S < ga or (k >> S) & M < gb or k & M < gc:
                raise ValueError("monomial does not divide every term")
        g = self.ring.key(ga, gb, gc)
        return CurveElement(self.ring, {k - g: v for k, v in self.packed.items()})

    def to_sorted_list(self) -> list[tuple[int, int, int, int]]:
        # key order is (a, b, c) order: the fields have fixed width
        unpack = self.ring.unpack
        return [(*unpack(k), v) for k, v in sorted(self.packed.items())]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.packed:
            return "0"
        bits = []
        for a, b, c, v in self.to_sorted_list()[:8]:
            bits.append(f"{v}*x^{a}y^{b}z^{c}")
        more = "" if len(self) <= 8 else f" (+{len(self) - 8} terms)"
        return " + ".join(bits) + more


class CoordinateRing:
    """Reduction tables, monomial keys and element constructors for one level."""

    def __init__(self, params: ReeParams):
        self.p = params
        self.q = params.q
        self.q0 = params.q0
        # key field width: a cube of a normal form keeps every field below 3q
        self.width = (3 * self.q).bit_length()
        self.mask = (1 << self.width) - 1
        # y^q and z^q as (x-shift, new-degree) -> coeff
        q, q0 = self.q, self.q0
        self._qrule = {
            "y": {(0, 1): 1, (q + q0, 0): 1, (q0 + 1, 0): 2},
            "z": {(0, 1): 1, (q + 2 * q0, 0): 1, (2 * q0 + 1, 0): 2},
        }
        self._red_memo: dict[str, dict[int, dict[tuple[int, int], int]]] = {"y": {}, "z": {}}

    # -- monomial keys

    def key(self, a: int, b: int, c: int) -> int:
        """Key of x^a y^b z^c; b and c must be below 2^width."""
        S = self.width
        return a << 2 * S | b << S | c

    def unpack(self, k: int) -> Monomial:
        S, M = self.width, self.mask
        return (k >> 2 * S, (k >> S) & M, k & M)

    # -- constructors

    def zero(self) -> CurveElement:
        return CurveElement(self, {})

    def one(self) -> CurveElement:
        return CurveElement(self, {0: 1})

    def monomial(self, a: int, b: int, c: int, coeff: int = 1) -> CurveElement:
        coeff %= 3
        if not coeff:
            return self.zero()
        out: dict[int, int] = {}
        self._fold_into(out, a, b, c, coeff)
        return CurveElement(self, out)

    def x(self) -> CurveElement:
        return self.monomial(1, 0, 0)

    def y(self) -> CurveElement:
        return self.monomial(0, 1, 0)

    def z(self) -> CurveElement:
        return self.monomial(0, 0, 1)

    # -- reduction

    def _red(self, var: str, n: int) -> dict[tuple[int, int], int]:
        """var^n for var in y, z with var^q folded back, as (x-shift, degree) -> coeff."""
        if n < self.q:
            return {(0, n): 1}
        memo = self._red_memo[var]
        if n not in memo:
            base = self._red(var, n - self.q)
            out: dict[tuple[int, int], int] = {}
            for (da1, n1), c1 in base.items():
                for (da2, dn2), c2 in self._qrule[var].items():
                    nn = n1 + dn2
                    co = (c1 * c2) % 3
                    if nn >= self.q:
                        for (da3, n3), c3 in self._red(var, nn).items():
                            k = (da1 + da2 + da3, n3)
                            nv = (out.get(k, 0) + co * c3) % 3
                            if nv:
                                out[k] = nv
                            else:
                                out.pop(k, None)
                    else:
                        k = (da1 + da2, nn)
                        nv = (out.get(k, 0) + co) % 3
                        if nv:
                            out[k] = nv
                        else:
                            out.pop(k, None)
            memo[n] = out
        return memo[n]

    def _fold_into(self, out: dict[int, int], a: int, b: int, c: int, v: int) -> None:
        """Add v x^a y^b z^c to the normal form out, folding y^b and z^c below q."""
        for (day, b2), cy in self._red("y", b).items():
            for (daz, c2), cz in self._red("z", c).items():
                k = self.key(a + day + daz, b2, c2)
                nv = (out.get(k, 0) + v * cy * cz) % 3
                if nv:
                    out[k] = nv
                else:
                    out.pop(k, None)

    def reduce(self, raw: dict[int, int]) -> dict[int, int]:
        """Normal form of a sum of keyed monomials with integer coefficients.

        Keys whose y- and z-fields are below q are kept as they are; only
        the others are folded.
        """
        q, S, M = self.q, self.width, self.mask
        out: dict[int, int] = {}
        high = []
        for k, v in raw.items():
            v %= 3
            if v:
                if k & M < q and (k >> S) & M < q:
                    out[k] = v
                else:
                    high.append((k, v))
        for k, v in high:
            self._fold_into(out, k >> 2 * S, (k >> S) & M, k & M, v)
        return out


# ---------------------------------------------------------------------------
# the fourteen-function system


class QPowerRule(NamedTuple):
    """w^q - w as a signed sum of cofactor^(3^twist) * (base^q - base).

    Each term is (sign, cofactor, twist, base) with sign in {+1, -1}; for
    base "x" the factor base^q - base is the separating element itself.
    Members built from a single term with twist s+1 are the 'plain' kind,
    the rest are 'mixed'; the distinction drives the two derivative-support
    table shapes.
    """

    kind: str  # "plain" | "mixed"
    terms: tuple[tuple[int, str, int, str], ...]


# member -> definition order; each definition only uses earlier names
FAMILY_NAMES = (
    "one",
    "x",
    "y",
    "z",
    "w1",
    "w2",
    "w3",
    "w4",
    "w5",
    "w6",
    "w7",
    "w8",
    "w9",
    "w10",
)

SUBFAMILY_NAMES = ("one", "x", "w1", "w2", "w3", "w6", "w8")

# Construction DAG shared by every backend.  Each member is a signed sum of
# terms  left * (right ^ 3^twist)  with twist given as "s" (exponent q0),
# "s1" (exponent 3*q0) or 0, and each term referring only to earlier names.
RECIPES: dict[str, tuple[tuple[int, str, str, str | int], ...]] = {
    "w1": ((1, "x", "x", "s1"), (-1, "one", "y", "s1")),
    "w2": ((1, "x", "y", "s1"), (-1, "one", "z", "s1")),
    "w3": ((1, "x", "z", "s1"), (-1, "one", "w1", "s1")),
    "w4": ((1, "x", "w2", "s"), (-1, "y", "w1", "s")),
    "v": ((1, "x", "w3", "s"), (-1, "z", "w1", "s")),
    "w5": ((1, "y", "w3", "s"), (-1, "z", "w2", "s")),
    "w6": ((1, "one", "v", "s1"), (-1, "one", "w2", "s1"), (1, "x", "w4", "s1")),
    "w7": ((1, "one", "w2", 0), (1, "one", "v", 0)),
    "w8": ((1, "one", "w5", "s1"), (1, "x", "w7", "s1")),
    "w9": ((1, "w4", "w2", "s"), (-1, "y", "w6", "s")),
    "w10": ((1, "z", "w6", "s"), (-1, "w4", "w3", "s")),
}


def recipe_twist(tag: str | int, s: int) -> int:
    """Cube count for a recipe twist tag at parameter level s."""
    if tag == "s":
        return s
    if tag == "s1":
        return s + 1
    return int(tag)


class FunctionFamily:
    """The q-power rules of the 14 spanning functions and the auxiliary v.

    The members themselves are the recipes RECIPES; ``hasse.Expansion``
    builds their series.
    """

    def __init__(self, ring: CoordinateRing):
        self.ring = ring
        s = ring.p.s
        t1 = s + 1  # exponent 3*q0 as a cube count
        t0 = s  # exponent q0
        self.rules: dict[str, QPowerRule] = {
            "y": QPowerRule("mixed", ((1, "x", t0, "x"),)),
            "z": QPowerRule("mixed", ((1, "x", t0, "y"),)),
            "w1": QPowerRule("plain", ((1, "x", t1, "x"),)),
            "w2": QPowerRule("plain", ((1, "y", t1, "x"),)),
            "w3": QPowerRule("plain", ((1, "z", t1, "x"),)),
            "w4": QPowerRule("mixed", ((1, "w2", t0, "x"), (-1, "w1", t0, "y"))),
            "w5": QPowerRule("mixed", ((1, "w3", t0, "y"), (-1, "w2", t0, "z"))),
            "w6": QPowerRule("plain", ((1, "w4", t1, "x"),)),
            "w7": QPowerRule("mixed", ((1, "w2", t0, "y"), (-1, "w3", t0, "x"))),
            "w8": QPowerRule("plain", ((1, "w7", t1, "x"),)),
            "w9": QPowerRule("mixed", ((1, "w2", t0, "w4"), (-1, "w6", t0, "y"))),
            "w10": QPowerRule("mixed", ((1, "w6", t0, "z"), (-1, "w3", t0, "w4"))),
            "v": QPowerRule("mixed", ((1, "w3", t0, "x"), (-1, "w1", t0, "z"))),
        }


# ---------------------------------------------------------------------------
# pole orders at the common pole


def _term_pole(p: ReeParams, mono: Monomial) -> int:
    a, b, c = mono
    q, q0 = p.q, p.q0
    return a * q * q + b * (q * q + q * q0) + c * (q * q + 2 * q * q0)


def pole_order(f: CurveElement, depth: int = 8) -> int:
    """Exact pole order at the point at infinity (0 for nonzero constants).

    For a normal form whose largest monomial bound is attained once, the
    bound is exact.  Ties are resolved through f^q - f, whose pole order is
    q times larger and generically untied; the recursion is depth-capped.
    """
    if f.is_zero():
        raise ValueError("zero element has no pole order")
    p = f.ring.p
    best = -1
    count = 0
    for mono in f.terms:
        t = _term_pole(p, mono)
        if t > best:
            best, count = t, 1
        elif t == best:
            count += 1
    if best == 0:
        return 0
    if count == 1:
        return best
    if depth == 0:
        raise ArithmeticError("pole order tie not resolved within depth cap")
    g = f.qpow() - f
    if g.is_zero():
        # f is fixed by Frobenius, hence a constant of GF(q); but best > 0
        # means a nonconstant normal form, which cannot happen
        raise ArithmeticError("nonconstant element fixed by q-power map")
    sub = pole_order(g, depth - 1)
    if sub % p.q:
        raise ArithmeticError("recursive pole order not divisible by q")
    return sub // p.q


_RING_CACHE: dict[int, CoordinateRing] = {}
_FAMILY_CACHE: dict[int, FunctionFamily] = {}


def coordinate_ring(s: int) -> CoordinateRing:
    if s not in _RING_CACHE:
        _RING_CACHE[s] = CoordinateRing(ree_params(s))
    return _RING_CACHE[s]


def function_family(s: int) -> FunctionFamily:
    if s not in _FAMILY_CACHE:
        _FAMILY_CACHE[s] = FunctionFamily(coordinate_ring(s))
    return _FAMILY_CACHE[s]
