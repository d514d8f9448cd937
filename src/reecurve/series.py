"""Local power-series expansions of the spanning functions at affine points.

Every triple over the base field satisfies both defining equations (each
right-hand side vanishes there), so rational points can be sampled
uniformly.  Extensions of degree two through five carry no further
points, see random_point; points with non-rational x live over extensions
of degree six and up and are found by rejection on the two Artin-Schreier
solvability conditions.

At an affine point the coordinate x - x(P) is a uniformizer, and the i-th
coefficient of the expansion of f is exactly the i-th Hasse derivative of
f (taken with respect to x) evaluated at P.  That makes these series the
point backend for the identity checks and for order computations at
parameter levels where the symbolic ring is too large: PointBackend, at the
end of this module, so that only the points route loads it.

Series are sparse dicts {exponent: coefficient} with zero values omitted.
An operation taking prec returns every coefficient for exponents < prec,
and each kept coefficient is the exact coefficient of the underlying
function, never an artefact of truncation.  The arithmetic helpers keep
only exponents < prec; PointExpansion.series may return more, since it
hands back whatever its cache holds once that covers prec.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from reecurve.backends import _pow_count, default_window
from reecurve.gf import (
    FieldContext,
    FieldElement,
    field_context,
    frobenius_power,
    solve_artin_schreier,
)
from reecurve.hasse import binom_mod3
from reecurve.params import ReeParams, ree_params
from reecurve.ring import RECIPES, recipe_twist

__all__ = [
    "CurvePoint",
    "PointExpansion",
    "PointBackend",
    "origin_point",
    "rational_point",
    "random_point",
    "ser_add",
    "ser_mul",
    "ser_pow3k",
    "hasse_shift",
]

Series = dict[int, FieldElement]


# ---------------------------------------------------------------------------
# sparse series arithmetic


def ser_add(a: Series, b: Series, sign: int = 1) -> Series:
    """a + sign*b, dropping cancellations."""
    out = dict(a)
    for e, c in b.items():
        v = out.get(e)
        if sign != 1:
            c = -c
        v = c if v is None else v + c
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
            out[es] = frobenius_power(c, k)
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
# points


@dataclass(frozen=True)
class CurvePoint:
    """Affine point, coordinates in GF(3^((2s+1)*extension))."""

    s: int
    extension: int
    x: FieldElement
    y: FieldElement
    z: FieldElement

    def __post_init__(self) -> None:
        e = 2 * self.s + 1
        xq0 = frobenius_power(self.x, self.s)
        ell = frobenius_power(self.x, e) - self.x
        if frobenius_power(self.y, e) - self.y != xq0 * ell:
            raise ValueError("first defining equation fails at the point")
        if frobenius_power(self.z, e) - self.z != xq0 * (
            frobenius_power(self.y, e) - self.y
        ):
            raise ValueError("second defining equation fails at the point")

    @property
    def ctx(self) -> FieldContext:
        return self.x.ctx

    @property
    def params(self) -> ReeParams:
        return ree_params(self.s)

    def ell_value(self) -> FieldElement:
        return frobenius_power(self.x, 2 * self.s + 1) - self.x

    def is_rational(self) -> bool:
        return self.ell_value().is_zero()

    def coords(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        return (self.x, self.y, self.z)


def origin_point(s: int) -> CurvePoint:
    ctx = field_context(2 * s + 1)
    return CurvePoint(s, 1, ctx.zero(), ctx.zero(), ctx.zero())


def rational_point(s: int, seed: int) -> CurvePoint:
    """Uniform point with coordinates in the base field."""
    deg = 2 * s + 1
    ctx = field_context(deg)
    rng = random.Random(f"ree-point:{s}:1:{seed}")
    x0, y0, z0 = (ctx.from_code(rng.randrange(3**deg)) for _ in range(3))
    return CurvePoint(s, 1, x0, y0, z0)


def random_point(s: int, seed: int, extension: int = 1) -> CurvePoint:
    """Seeded point over GF(3^((2s+1)*extension)).

    extension == 1 draws a uniform rational point.  Extensions two
    through five are rejected: the numerator of the zeta function is
    (1 + 3*q0*T + q*T^2)^a (1 + q*T^2)^b, the only split consistent with
    q^3 + 1 rational points and the genus, and its power sums make the
    point counts over those four extensions collapse to q^3 + 1 again.
    The smallest non-rational coordinate degree is six, so extension=6
    is the cheapest source of generic points.  For extension >= 6 the
    sampler rejects on the two Artin-Schreier conditions.
    """
    if extension == 1:
        return rational_point(s, seed)
    if extension in (2, 3, 4, 5):
        raise ValueError(
            "extensions of degree two through five carry no new points; "
            "use extension=1 or extension>=6"
        )
    p = ree_params(s)
    deg = (2 * s + 1) * extension
    ctx = field_context(deg)
    rng = random.Random(f"ree-point:{s}:{extension}:{seed}")
    e = 2 * s + 1
    for _ in range(100 * p.q**2):
        x0 = ctx.from_code(rng.randrange(3**deg))
        xq = frobenius_power(x0, e)
        if xq == x0:
            continue  # rational x forces a rational point
        xq0 = frobenius_power(x0, s)
        y0 = solve_artin_schreier(xq0 * (xq - x0), p.q)
        if y0 is None:
            continue
        z0 = solve_artin_schreier(xq0 * (frobenius_power(y0, e) - y0), p.q)
        if z0 is None:
            continue
        return CurvePoint(s, extension, x0, y0, z0)
    raise RuntimeError("point sampling exceeded the attempt budget")


# ---------------------------------------------------------------------------
# expansions


class PointExpansion:
    """Truncated expansions of all spanning functions at one point.

    y and z are Artin-Schreier lifts (see lift): y is the centre y(P) plus
    lift("x", "x") and z is z(P) plus lift("x", "y").  The remaining
    members fold the construction recipes, so the per-coefficient work
    stays polynomial in the number of retained terms.
    """

    def __init__(self, point: CurvePoint):
        self.point = point
        self.ctx = point.ctx
        self.p = point.params
        self.s = point.s
        self._cache: dict[str, tuple[int, Series]] = {}
        self._lifts: dict[tuple[str, str], tuple[int, Series]] = {}

    # -- exact polynomial ingredients

    def x_series(self) -> Series:
        return {0: self.point.x, 1: self.ctx.one()}

    def ell_series(self) -> Series:
        """x^q - x is a polynomial in t: ell(P) - t + t^q."""
        out: Series = {1: -self.ctx.one(), self.p.q: self.ctx.one()}
        l0 = self.point.ell_value()
        if not l0.is_zero():
            out[0] = l0
        return out

    # -- members

    def series(self, name: str, prec: int) -> Series:
        """Expansion of a member, exact on exponents < prec."""
        cached = self._cache.get(name)
        if cached is not None and cached[0] >= prec:
            return cached[1]
        if name == "one":
            out: Series = {0: self.ctx.one()}
        elif name == "x":
            out = self.x_series()
        elif name in ("y", "z"):
            centre = self.point.y if name == "y" else self.point.z
            out = {} if centre.is_zero() else {0: centre}
            out |= self.lift("x", "x" if name == "y" else "y", prec)
        else:
            out = {}
            for sign, left, right, tag in RECIPES[name]:
                k = recipe_twist(tag, self.s)
                sub = self.series(right, -(-prec // 3**k))
                term = ser_mul(self.series(left, prec), ser_pow3k(sub, k, prec), prec)
                out = ser_add(out, term, sign)
        self._cache[name] = (prec, out)
        return out

    def qpow_series(self, name: str, prec: int) -> Series:
        """Expansion of f^q, exact on exponents < prec."""
        return ser_pow3k(self.series(name, -(-prec // self.p.q)), 2 * self.s + 1, prec)

    def shift_series(self, name: str, prec: int) -> Series:
        """Expansion of f^q - f, exact on exponents < prec; terms past prec are not."""
        return ser_add(self.qpow_series(name, prec), self.series(name, prec), -1)

    def lift(self, f: str, b: str, prec: int) -> Series:
        """Expansion of t with t^q - t = h, h = f^q0 (b^q - b), less t(P).

        The sum -sum_j (h - h(0))^(q^j) telescopes under the q-power, so it
        solves the equation up to the constant term; exact on exponents
        < prec, and like series it may return more.
        """
        cached = self._lifts.get((f, b))
        if cached is not None and cached[0] >= prec:
            return cached[1]
        fq0 = ser_pow3k(self.series(f, -(-prec // self.p.q0)), self.s, prec)
        h = ser_mul(fq0, self.shift_series(b, prec), prec)
        h.pop(0, None)
        out: Series = {}
        k = 0
        while term := ser_pow3k(h, k, prec):
            out = ser_add(out, term, -1)
            k += 2 * self.s + 1
        self._lifts[(f, b)] = (prec, out)
        return out

    def coefficient(self, name: str, i: int) -> FieldElement:
        """i-th Hasse derivative of the member, evaluated at the point."""
        return self.series(name, i + 1).get(i, self.ctx.zero())

    def derivative_series(self, name: str, i: int, prec: int) -> Series:
        return hasse_shift(self.series(name, i + prec), i, prec)

    def power(self, a: Series, n: int, prec: int) -> Series:
        """a**n by base-3 splitting, so Frobenius factors stay sparse."""
        out: Series = {0: self.ctx.one()}
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


class PointBackend:
    """Evaluates residuals as truncated series at one sampled point."""

    kind = "points"

    def __init__(
        self, point: CurvePoint, window: Optional[int] = None, depth: Optional[int] = None
    ):
        self.point = point
        self.exp = PointExpansion(point)
        self.p = point.params
        self.s = point.s
        self.window = default_window(self.p) if window is None else window
        # member rows cover the indices below depth: q^2 + 1 holds every
        # order candidate, a vanishing profile needs m + 1
        self.depth = self.p.q**2 + 1 if depth is None else depth
        self._rows: dict[str, dict] = {}
        self._shift_rows: dict[str, dict] = {}

    def zero(self):
        return {}

    def member(self, name: str):
        # the expansion may hold more terms than asked for; residuals
        # compare this against products cut off at the window
        ser = self.exp.series(name, self.window)
        return {e: c for e, c in ser.items() if e < self.window}

    def member_d(self, name: str, i: int):
        return self.exp.derivative_series(name, i, self.window)

    def shift_d(self, name: str, i: int):
        return hasse_shift(self.exp.shift_series(name, i + self.window), i, self.window)

    def qpow_d(self, name: str, i: int):
        return hasse_shift(self.exp.qpow_series(name, i + self.window), i, self.window)

    def virtual_d(self, f: str, b: str, i: int):
        """D^i t for t^q - t = f^q0 (b^q - b); t itself is never needed."""
        if i <= 0:
            raise ValueError("virtual functions only expose positive indices")
        return hasse_shift(self.exp.lift(f, b, i + self.window), i, self.window)

    # -- rows: the i-th coefficient of a series is D^i at the point; each
    # member is expanded on first use, once

    def row(self, name: str) -> dict:
        """The member's series below the depth: where its rows are nonzero."""
        if name not in self._rows:
            ser = self.exp.series(name, self.depth)
            self._rows[name] = {e: c for e, c in ser.items() if e < self.depth}
        return self._rows[name]

    def value(self, name: str, i: int):
        return self.row(name).get(i, self.point.ctx.zero())

    def shift_value(self, name: str, i: int):
        """D^i (f^q - f) at the point for i < q, all the morphism scan reads."""
        if i >= self.p.q:
            raise ValueError("shift rows stop below q")
        if name not in self._shift_rows:
            self._shift_rows[name] = self.exp.shift_series(name, self.p.q)
        return self._shift_rows[name].get(i, self.point.ctx.zero())

    def qpow_value(self, name: str):
        return frobenius_power(self.value(name, 0), 2 * self.s + 1)

    def ell(self):
        return self.ell_power(1)

    def ell_power(self, n: int):
        return self.exp.ell_power(n, self.window)

    def pow_tag(self, v, tag: str):
        return ser_pow3k(v, _pow_count(tag, self.s), self.window)

    def mul(self, a, b):
        return ser_mul(a, b, self.window)

    def add(self, a, b, sign: int = 1):
        return ser_add(a, b, sign)

    def is_zero(self, v) -> bool:
        return not v

    def describe(self, v) -> str:
        e = min(v)
        x, y, z = (c.code() for c in self.point.coords())
        return f"t^{e} coefficient nonzero at point codes ({x},{y},{z})"
