"""Taylor expansions of the family members in the separating variable x.

At a point P = (x0, y0, z0) of the curve, t = x - x0 is a local parameter
and every member f expands as

    T_P(f) = sum_i (D^i f)(P) t^i,

with D^i the i-th Hasse derivative with respect to x (Stohr-Voloch).
``Expansion`` holds these series for one centre.  Its coefficients may lie
in any algebra whose elements offer +, -, *, is_zero and pow3k, and it is
evaluated at two centres:

* the generic point (x, y, z) of the coordinate ring, where the
  coefficients are the exact derivatives D^i f as normal forms:
  ``HasseCalculus``, the tables of the exact route, for i <= q^2;
* a sampled point over GF(3^m): ``series.PointExpansion``, the series of
  the points route.

x is x0 + t.  y and z are their centres plus Artin-Schreier lifts: a
function t with t^q - t = h, h = f^q0 (b^q - b), has

    D^i t = -D^i h + (D^{i/q} t)^q   (the second term only when q | i)

for i >= 1, since D^i (t^q) is (D^{i/q} t)^q or zero.  So T(t) - t(P) is
-sum_j (T(h) - h(P))^(q^j); y is the lift with f = b = x and z the lift
with f = x, b = y.  The other members fold the construction recipes
``ring.RECIPES``.  Raising a series to the power 3^k is cheap (exponents
scale, coefficients go through Frobenius), which keeps the q0-power towers
inexpensive.

Series are sparse dicts {exponent: coefficient} with zero values omitted,
a zero centre among them.  An operation taking prec returns every
coefficient for exponents < prec and no other, and each kept coefficient
is the exact coefficient of the underlying function, never an artefact of
truncation.  An expansion has one precision, fixed when it is made: q^2 + 1,
which holds every order candidate, or m + 1 for a vanishing profile.
Every series of one expansion is exact below it, so each is built once and
read many times.  ``hasse_shift`` cuts D^i of a series to a window; it is
how ``backends.Backend`` reads either centre, and at window 1 it returns
the one coefficient {0: D^i f}, so the exact route needs no reader of its
own.  Each centre names its route (``kind``) and writes the witness of a
nonzero series (``describe``).

The exact and sampled routes share this algorithm.  What keeps them
independent checks of each other, and of the algorithm, is:

* different coefficient arithmetic: normal forms reduced by
  ``CoordinateRing.reduce`` against GF(3^m) products under Barrett
  reduction (``gf``);
* the identity catalog (``identities``), relations between derivatives
  derived by hand that either route must satisfy;
* the hard-coded low-order tables in tests/test_hasse.py and
  tests/test_series.py;
* the reference ``hasse_derivative`` in tests/reference.py, which
  assembles D^i f monomial by monomial from binomials in x and the
  derivatives of y^b z^c, with no recipe fold.
"""

from __future__ import annotations

from functools import lru_cache

from reecurve.params import ReeParams, cube_count
from reecurve.ring import RECIPES, CoordinateRing, CurveElement, coordinate_ring

Series = dict  # {exponent: coefficient}, coefficients CurveElement or FieldElement
Table = dict[int, CurveElement]

_C3 = ((1, 0, 0), (1, 1, 0), (1, 2, 1))


def binom_mod3(n: int, k: int) -> int:
    """Binomial coefficient mod 3 by digitwise reduction."""
    if k < 0 or k > n:
        return 0
    out = 1
    while k:
        nd, kd = n % 3, k % 3
        if kd > nd:
            return 0
        out = (out * _C3[nd][kd]) % 3
        n //= 3
        k //= 3
    return out


@lru_cache(maxsize=None)
def binom_support(n: int) -> tuple[int, ...]:
    """All k with C(n, k) nonzero mod 3, ascending."""
    digits = []
    m = n
    while m:
        digits.append(m % 3)
        m //= 3
    supp = [0]
    place = 1
    for d in digits:
        supp = [k + j * place for k in supp for j in range(d + 1)]
        place *= 3
    return tuple(sorted(supp))


# ---------------------------------------------------------------------------
# sparse series arithmetic


def ser_add(a: Series, b: Series, sign: int = 1) -> Series:
    """a + sign*b, dropping cancellations."""
    out = dict(a)
    for e, c in b.items():
        v = out.get(e)
        if v is None:
            v = c if sign == 1 else -c
        else:
            v = v + c if sign == 1 else v - c
        if v.is_zero():
            out.pop(e, None)
        else:
            out[e] = v
    return out


def ser_mul(a: Series, b: Series, prec: int) -> Series:
    if len(a) > len(b):
        a, b = b, a
    out: Series = {}
    for ea, ca in a.items():
        if ea >= prec:
            continue
        for eb, cb in b.items():
            e = ea + eb
            if e >= prec:
                continue
            v = ca * cb
            old = out.get(e)
            if old is not None:
                v = old + v
            if v.is_zero():
                out.pop(e, None)
            else:
                out[e] = v
    return out


def ser_pow3k(a: Series, k: int, prec: int) -> Series:
    """a**(3**k); exponents scale, coefficients pass through Frobenius."""
    if k == 0:
        return {e: c for e, c in a.items() if e < prec}
    scale = 3**k
    out: Series = {}
    for e, c in a.items():
        es = e * scale
        if es < prec:
            out[es] = c.pow3k(k)
    return out


def hasse_shift(a: Series, i: int, prec: int) -> Series:
    """Series of the i-th Hasse derivative: binomial reindexing mod 3."""
    out: Series = {}
    for e, c in a.items():
        if e < i or e - i >= prec:
            continue
        bc = binom_mod3(e, i)
        if bc == 0:
            continue
        out[e - i] = c if bc == 1 else -c
    return out


# ---------------------------------------------------------------------------
# the expansion at one centre


class Expansion:
    """Taylor series of the members at the centre (x0, y0, z0), exact below prec.

    The precision is fixed when the expansion is made, so each member's
    series, q-power, shift and lift is built once, on first use, and then
    read.
    """

    kind: str  # the route's name, "symbolic" or "points"

    def __init__(self, p: ReeParams, one, x0, y0, z0, prec: int):
        self.p = p
        self.s = p.s
        self.one = one
        self.zero = one - one
        self.prec = prec
        self.centre = {"x": x0, "y": y0, "z": z0}
        self._series: dict[str, Series] = {}
        self._qpow: dict[str, Series] = {}
        self._shift: dict[str, Series] = {}
        self._lifts: dict[tuple[str, str], Series] = {}

    def series(self, name: str) -> Series:
        """Expansion of a member."""
        if name not in self._series:
            prec = self.prec
            if name == "one":
                out: Series = {0: self.one}
            elif name in self.centre:
                c0 = self.centre[name]
                out = {} if c0.is_zero() else {0: c0}
                if name == "x":
                    out[1] = self.one
                else:
                    out |= self.lift("x", "x" if name == "y" else "y")
            else:
                out = {}
                for sign, left, right, tag in RECIPES[name]:
                    sub = ser_pow3k(self.series(right), cube_count(tag, self.s), prec)
                    out = ser_add(out, ser_mul(self.series(left), sub, prec), sign)
            self._series[name] = out
        return self._series[name]

    def qpow_series(self, name: str) -> Series:
        """Expansion of f^q."""
        if name not in self._qpow:
            self._qpow[name] = ser_pow3k(self.series(name), 2 * self.s + 1, self.prec)
        return self._qpow[name]

    def shift_series(self, name: str) -> Series:
        """Expansion of f^q - f."""
        if name not in self._shift:
            self._shift[name] = ser_add(self.qpow_series(name), self.series(name), -1)
        return self._shift[name]

    def lift(self, f: str, b: str) -> Series:
        """Expansion of t with t^q - t = h, h = f^q0 (b^q - b), less t(P).

        The sum -sum_j (h - h(P))^(q^j) telescopes under the q-power, so it
        solves the equation up to the constant term.
        """
        if (f, b) not in self._lifts:
            prec = self.prec
            h = ser_mul(ser_pow3k(self.series(f), self.s, prec), self.shift_series(b), prec)
            h.pop(0, None)
            out: Series = {}
            k = 0
            while term := ser_pow3k(h, k, prec):
                out = ser_add(out, term, -1)
                k += 2 * self.s + 1
            self._lifts[(f, b)] = out
        return self._lifts[(f, b)]

    def coefficient(self, name: str, i: int):
        """D^i of the member at the centre."""
        if i >= self.prec:
            raise ValueError(f"D^{i} lies past the precision {self.prec}")
        return self.series(name).get(i, self.zero)

    def ell_series(self) -> Series:
        """x^q - x is a polynomial in t: ell(P) - t + t^q."""
        x0 = self.centre["x"]
        l0 = x0.pow3k(2 * self.s + 1) - x0
        out: Series = {1: -self.one, self.p.q: self.one}
        if not l0.is_zero():
            out[0] = l0
        return out

    def power(self, a: Series, n: int, prec: int) -> Series:
        """a**n by base-3 splitting, so Frobenius factors stay sparse."""
        out: Series = {0: self.one}
        k = 0
        while n:
            n, d = divmod(n, 3)
            if d:
                piece = ser_pow3k(a, k, prec)
                out = ser_mul(out, piece, prec)
                if d == 2:
                    out = ser_mul(out, piece, prec)
            k += 1
        return out

    def ell_power(self, n: int, prec: int) -> Series:
        return self.power(self.ell_series(), n, prec)


class HasseCalculus(Expansion):
    """The expansion at the generic point: exact tables {i: D^i f} for i <= q^2."""

    kind = "symbolic"

    def __init__(self, ring: CoordinateRing):
        q2 = ring.p.q**2
        super().__init__(ring.p, ring.one(), ring.x(), ring.y(), ring.z(), q2 + 1)
        self.ring = ring

    def table(self, name: str) -> Table:
        return self.series(name)

    def shift_table(self, name: str) -> Table:
        """Table of f^q - f."""
        return self.shift_series(name)

    def describe(self, v: Series) -> str:
        """A nonzero series' lowest coefficient, by its size and leading term."""
        terms = v[min(v)].to_sorted_list()
        return f"{len(terms)} monomials, leading {terms[0]}"


_CALC_CACHE: dict[int, HasseCalculus] = {}


def hasse_calculus(s: int) -> HasseCalculus:
    if s not in _CALC_CACHE:
        _CALC_CACHE[s] = HasseCalculus(coordinate_ring(s))
    return _CALC_CACHE[s]
