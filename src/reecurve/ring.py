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

The fourteen functions spanning the canonical very ample series are stated
by two level-free tables: RECIPES builds each member from earlier ones,
and QPOWER_RULES gives its q-power rule, w^q - w through smaller members.
Both write a Frobenius power as a tag, "1", "q0" or "3q0", in the
vocabulary of the identity catalog, which adds "q" and "q2";
params.cube_count turns a tag into a cube count at a level.  The module also computes exact pole orders at the point at
infinity.
"""

from __future__ import annotations

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
# terms  left * right^e,  e the Frobenius power its tag names
# (params.cube_count), each term referring only to earlier names.
RECIPES: dict[str, tuple[tuple[int, str, str, str], ...]] = {
    "w1": ((1, "x", "x", "3q0"), (-1, "one", "y", "3q0")),
    "w2": ((1, "x", "y", "3q0"), (-1, "one", "z", "3q0")),
    "w3": ((1, "x", "z", "3q0"), (-1, "one", "w1", "3q0")),
    "w4": ((1, "x", "w2", "q0"), (-1, "y", "w1", "q0")),
    "v": ((1, "x", "w3", "q0"), (-1, "z", "w1", "q0")),
    "w5": ((1, "y", "w3", "q0"), (-1, "z", "w2", "q0")),
    "w6": ((1, "one", "v", "3q0"), (-1, "one", "w2", "3q0"), (1, "x", "w4", "3q0")),
    "w7": ((1, "one", "w2", "1"), (1, "one", "v", "1")),
    "w8": ((1, "one", "w5", "3q0"), (1, "x", "w7", "3q0")),
    "w9": ((1, "w4", "w2", "q0"), (-1, "y", "w6", "q0")),
    "w10": ((1, "z", "w6", "q0"), (-1, "w4", "w3", "q0")),
}

# The q-power rules, the same at every level: w^q - w is the signed sum of
# cofactor^e * (base^q - base) over the terms (sign, cofactor, tag, base),
# e named by the tag as in RECIPES; for base "x" the factor is the
# separating element x^q - x itself.  In y, z, then RECIPES order.
QPOWER_RULES: dict[str, tuple[tuple[int, str, str, str], ...]] = {
    "y": ((1, "x", "q0", "x"),),
    "z": ((1, "x", "q0", "y"),),
    "w1": ((1, "x", "3q0", "x"),),
    "w2": ((1, "y", "3q0", "x"),),
    "w3": ((1, "z", "3q0", "x"),),
    "w4": ((1, "w2", "q0", "x"), (-1, "w1", "q0", "y")),
    "v": ((1, "w3", "q0", "x"), (-1, "w1", "q0", "z")),
    "w5": ((1, "w3", "q0", "y"), (-1, "w2", "q0", "z")),
    "w6": ((1, "w4", "3q0", "x"),),
    "w7": ((1, "w2", "q0", "y"), (-1, "w3", "q0", "x")),
    "w8": ((1, "w7", "3q0", "x"),),
    "w9": ((1, "w2", "q0", "w4"), (-1, "w6", "q0", "y")),
    "w10": ((1, "w6", "q0", "z"), (-1, "w3", "q0", "w4")),
}


def is_plain(name: str) -> bool:
    """One term twisted by 3q0: the rule shape of the appendix's plain table."""
    rule = QPOWER_RULES[name]
    return len(rule) == 1 and rule[0][2] == "3q0"


def is_deep(name: str) -> bool:
    """Every term twisted by q0, none with cofactor x: a shifted-product rule."""
    rule = QPOWER_RULES.get(name, ())
    return bool(rule) and all(tag == "q0" and cof != "x" for _sign, cof, tag, _base in rule)


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


def coordinate_ring(s: int) -> CoordinateRing:
    if s not in _RING_CACHE:
        _RING_CACHE[s] = CoordinateRing(ree_params(s))
    return _RING_CACHE[s]

