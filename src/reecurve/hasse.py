"""Hasse derivatives on the curve with respect to the coordinate x.

The central object is the full derivative transform of a function f,

    T(f) = sum_i D^i f * t^i,   0 <= i <= q^2,

a ring homomorphism into series with coefficients in the coordinate ring.
Tables are sparse dicts {index: element}; an absent index means the
derivative is exactly zero.  Indices above q^2 are outside the calculus and
are truncated away.

Tables for the fourteen spanning functions are assembled along the shared
construction DAG.  The y and z tables are Artin-Schreier lifts: a function
t with t^q - t = h, h = f^q0 (b^q - b), has

    D^i t = -D^i h + (D^{i/q} t)^q   (the second term only when q | i),

for i >= 1, since D^i (t^q) is (D^{i/q} t)^q or zero.  y is the lift with
f = b = x and z the lift with f = x, b = y.  Cubing a table is cheap
(indices triple, coefficients cube), which keeps the q0-power towers
inexpensive.
"""

from __future__ import annotations

from functools import lru_cache

from reecurve.ring import (
    RECIPE_ORDER,
    RECIPES,
    CurveElement,
    FunctionFamily,
    function_family,
    recipe_twist,
)

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


class HasseCalculus:
    """Derivative tables and single-index derivatives at one parameter level."""

    def __init__(self, family: FunctionFamily):
        self.fam = family
        self.ring = family.ring
        self.p = family.ring.p
        self.limit = self.p.q**2
        self._tbl: dict[str, Table] = {}
        self._ypow: dict[int, Table] = {}
        self._zpow: dict[int, Table] = {}
        self._xpow: dict[int, Table] = {}

    # -- table algebra

    def t_add(self, a: Table, b: Table, sign: int = 1) -> Table:
        out = dict(a)
        for i, v in b.items():
            w = out.get(i)
            nv = v.scale(sign) if w is None else w + v.scale(sign)
            if nv.is_zero():
                out.pop(i, None)
            else:
                out[i] = nv
        return out

    def t_mul(self, a: Table, b: Table) -> Table:
        out: Table = {}
        lim = self.limit
        for i1, c1 in a.items():
            for i2, c2 in b.items():
                i = i1 + i2
                if i > lim:
                    continue
                prod = c1 * c2
                if prod.is_zero():
                    continue
                w = out.get(i)
                nv = prod if w is None else w + prod
                if nv.is_zero():
                    out.pop(i, None)
                else:
                    out[i] = nv
        return out

    def t_pow3(self, a: Table) -> Table:
        lim = self.limit
        return {3 * i: c.pow3() for i, c in a.items() if 3 * i <= lim}

    def t_pow3k(self, a: Table, k: int) -> Table:
        out = a
        for _ in range(k):
            out = self.t_pow3(out)
        return out

    def qshift(self, a: Table) -> Table:
        """Table of f^q from the table of f."""
        k = 2 * self.p.s + 1
        return self.t_pow3k(a, k)

    # -- tables for the family

    def _x_power_table(self, n: int) -> Table:
        if n not in self._xpow:
            ring = self.ring
            tbl: Table = {}
            for k in binom_support(n):
                tbl[k] = ring.monomial(n - k, 0, 0, binom_mod3(n, k))
            self._xpow[n] = tbl
        return self._xpow[n]

    def lift(self, f: str, b: str) -> Table:
        """D^i t for 1 <= i <= q^2, where t^q - t = f^q0 (b^q - b); t is never needed."""
        q, zero = self.p.q, self.ring.zero()
        h = self.t_mul(self.t_pow3k(self.table(f), self.p.s), self.shift_table(b))
        # D^i t is nonzero only at i = j*q^k with D^j h nonzero; i <= q^2 keeps k <= 2
        cands = {i * q**k for i in h if i for k in range(3)}
        out: Table = {}
        for i in sorted(c for c in cands if c <= self.limit):
            val = zero - h.get(i, zero)
            if i % q == 0 and i // q in out:
                val = val + out[i // q].qpow()
            if not val.is_zero():
                out[i] = val
        return out

    def table(self, name: str) -> Table:
        if name not in self._tbl:
            ring = self.ring
            if name == "one":
                self._tbl[name] = {0: ring.one()}
            elif name == "x":
                self._tbl[name] = {0: ring.x(), 1: ring.one()}
            elif name == "y":
                self._tbl[name] = {0: ring.y()} | self.lift("x", "x")
            elif name == "z":
                self._tbl[name] = {0: ring.z()} | self.lift("x", "y")
            else:
                s = self.p.s
                for nm in RECIPE_ORDER:
                    if nm in self._tbl:
                        continue
                    total: Table = {}
                    for sign, left, right, tag in RECIPES[nm]:
                        piece = self.t_mul(
                            self.table(left),
                            self.t_pow3k(self.table(right), recipe_twist(tag, s)),
                        )
                        total = self.t_add(total, piece, sign)
                    self._tbl[nm] = total
                    if nm == name:
                        break
        return self._tbl[name]

    def shift_table(self, name: str) -> Table:
        """Table of f^q - f."""
        t = self.table(name)
        return self.t_add(self.qshift(t), t, sign=-1)

    # -- derivative access

    def derivative_of(self, name: str, i: int) -> CurveElement:
        if not 0 <= i <= self.limit:
            raise ValueError("derivative index out of range")
        return self.table(name).get(i, self.ring.zero())

    def _y_power(self, b: int) -> Table:
        if b not in self._ypow:
            if b == 0:
                self._ypow[b] = {0: self.ring.one()}
            else:
                self._ypow[b] = self.t_mul(self._y_power(b - 1), self.table("y"))
        return self._ypow[b]

    def _z_power(self, c: int) -> Table:
        if c not in self._zpow:
            if c == 0:
                self._zpow[c] = {0: self.ring.one()}
            else:
                self._zpow[c] = self.t_mul(self._z_power(c - 1), self.table("z"))
        return self._zpow[c]

    def hasse_derivative(self, f: CurveElement, i: int) -> CurveElement:
        """D^i f for an arbitrary normal form, assembled monomial by monomial."""
        if not 0 <= i <= self.limit:
            raise ValueError("derivative index out of range")
        ring = self.ring
        total = ring.zero()
        for (a, b, c), coeff in f.terms.items():
            yb = self._y_power(b)
            zc = self._z_power(c)
            for i2, cy in yb.items():
                if i2 > i:
                    continue
                for i3, cz in zc.items():
                    i1 = i - i2 - i3
                    if i1 < 0 or i1 > a:
                        continue
                    cb = binom_mod3(a, i1)
                    if not cb:
                        continue
                    piece = ring.monomial(a - i1, 0, 0, (coeff * cb) % 3) * cy * cz
                    total = total + piece
        return total

    def element_table(self, f: CurveElement) -> Table:
        """Full derivative table of an arbitrary normal form."""
        out: Table = {}
        for (a, b, c), coeff in f.terms.items():
            part = self._x_power_table(a)
            part = self.t_mul(part, self._y_power(b))
            part = self.t_mul(part, self._z_power(c))
            if coeff != 1:
                part = {i: v.scale(coeff) for i, v in part.items()}
            out = self.t_add(out, part)
        return out


_CALC_CACHE: dict[int, HasseCalculus] = {}


def hasse_calculus(s: int) -> HasseCalculus:
    if s not in _CALC_CACHE:
        _CALC_CACHE[s] = HasseCalculus(function_family(s))
    return _CALC_CACHE[s]
