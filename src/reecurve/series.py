"""Curve points over GF(3^m) and the members' expansions there: the points route.

Every triple over the base field satisfies both defining equations (each
right-hand side vanishes there), so rational points can be sampled
uniformly.  Extensions of degree two through five carry no further
points, see random_point; points with non-rational x live over extensions
of degree six and up.  The sampler builds them over degree six directly,
with no rejection on solvability: x is a trace into GF(q^2) outside GF(q),
and y and z are two Artin-Schreier solves that Hilbert 90 guarantees.

What a sampled result proves: the rank of the rows at a point never
exceeds their generic rank, so the j-th vanishing order at any point is
at least the j-th generic order, and a sampled scan that reproduces
order_values proves only the upper bounds eps_k <= j_k; the lower bounds
(the skipped indices are non-orders) come from the exact scan.  The drawn
points are the slice with x in GF(q^2) but not in GF(q), about 1/q^2 of
the degree-6 points: a degree-6 point cannot have x in GF(q^3) but not
in GF(q), since the curve has no points of degree 3.  A generic weight 0
there is evidence about that slice only.

There is one Taylor expansion in the package, ``hasse.Expansion``, with its
series arithmetic ``ser_add``, ``ser_mul`` (both re-exported here) and
``ser_pow3k``.  The exact route evaluates it at the generic point of the
coordinate ring (``hasse.HasseCalculus``); this module evaluates it at a
sampled point P: ``PointExpansion``.  There x - x(P) is a uniformizer, and
the i-th coefficient of the expansion of f is the i-th Hasse derivative
of f (with respect to x) evaluated at P.  Series follow the conventions of
``hasse``: sparse dicts {exponent: coefficient}, zero values omitted.

A PointExpansion may also hold several points of one field at once, as
the lanes of ``gf.Lanes``: lane j of each coefficient is the coefficient
at the j-th point, so one series operation serves every point.  A
coefficient is omitted only when it is zero in every lane, and each lane
equals that point's own expansion.  The sampled route expands its trial
points this way; a profile expands one point.

An expansion is its route's object, so this module holds no backend:
only the points route loads it, when hasse.route samples points or a
profile expands one.  A point's expansion is exact below its precision:
q^2 + 1 for the sampled route, which covers every order candidate and
every catalog read D^i over the window default_window(p), and m + 1 for
a vanishing profile, which reads rows only.
"""

from __future__ import annotations

import random
from collections import namedtuple

from reecurve.gf import (
    FieldContext,
    FieldElement,
    Lanes,
    field_context,
    frobenius_power,
    solve_artin_schreier,
)
from reecurve.hasse import Expansion, ser_add, ser_mul
from reecurve.params import SAMPLE_EXTENSION, ReeParams, ree_params

__all__ = [
    "CurvePoint",
    "PointExpansion",
    "default_window",
    "origin_point",
    "rational_point",
    "random_point",
    "ser_add",
    "ser_mul",
]

Series = dict[int, FieldElement]


# ---------------------------------------------------------------------------
# points


class CurvePoint(namedtuple("CurvePoint", "s extension x y z")):
    """Affine point of degree extension over GF(q), q = 3^(2s+1).

    Its coordinates lie in GF(q^extension) and are held in the field of
    their context ctx, which may be a subfield: the origin's is GF(3).
    """

    __slots__ = ()

    def __new__(
        cls, s: int, extension: int, x: FieldElement, y: FieldElement, z: FieldElement
    ):
        e = 2 * s + 1
        xq0 = frobenius_power(x, s)
        ell = frobenius_power(x, e) - x
        if frobenius_power(y, e) - y != xq0 * ell:
            raise ValueError("first defining equation fails at the point")
        if frobenius_power(z, e) - z != xq0 * (frobenius_power(y, e) - y):
            raise ValueError("second defining equation fails at the point")
        return super().__new__(cls, s, extension, x, y, z)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: send both through the checks above
        return cls(*iterable)

    @property
    def ctx(self) -> FieldContext:
        return self.x.ctx

    @property
    def params(self) -> ReeParams:
        return ree_params(self.s)

    def coords(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        return (self.x, self.y, self.z)


def origin_point(s: int) -> CurvePoint:
    """The rational point (0, 0, 0), held over GF(3).

    Its coordinates and the members' coefficients lie in GF(3), so its
    expansion builds no field of degree 2s + 1.
    """
    ctx = field_context(1)
    return CurvePoint(s, 1, ctx.zero(), ctx.zero(), ctx.zero())


def rational_point(s: int, seed: int) -> CurvePoint:
    """Uniform point with coordinates in the base field."""
    deg = 2 * s + 1
    ctx = field_context(deg)
    rng = random.Random(f"ree-point:{s}:1:{seed}")
    x0, y0, z0 = (ctx.from_code(rng.randrange(3**deg)) for _ in range(3))
    return CurvePoint(s, 1, x0, y0, z0)


# x lands in GF(q) with probability 1/q <= 1/27 per draw
_X_DRAWS = 64


def random_point(s: int, seed: int, extension: int = 1) -> CurvePoint:
    """Seeded point over GF(3^((2s+1)*extension)), extension 1 or 6.

    extension == 1 draws a uniform rational point.  Extensions two
    through five are refused: the numerator of the zeta function is
    (1 + 3*q0*T + q*T^2)^a (1 + q*T^2)^b, the only split consistent with
    q^3 + 1 rational points and the genus, and its power sums make the
    point counts over those four extensions collapse to q^3 + 1 again.
    The smallest non-rational coordinate degree is six, so
    SAMPLE_EXTENSION = 6 is the cheapest source of generic points, and the
    only other extension served.

    For extension 6 a seeded u in GF(q^6) gives x = u + u^(q^2) + u^(q^4),
    the trace of u into GF(q^2); x is redrawn only when x^q = x (x in
    GF(q), probability 1/q).  Then y^q - y = x^q0 (x^q - x) and
    z^q - z = x^q0 (y^q - y) are solved in turn.  Both right-hand sides w
    lie in GF(q^2), so Tr_{q^6/q}(w) = 3 Tr_{q^2/q}(w) = 0 and both
    equations are solvable by additive Hilbert 90 (Lidl-Niederreiter,
    Finite Fields, Thm 2.25); a solver that finds no solution is an
    arithmetic fault, not a reason to redraw.  y and z are the roots
    solve_artin_schreier fixes, so (s, seed) replays the point.
    """
    if extension == 1:
        return rational_point(s, seed)
    if extension != SAMPLE_EXTENSION:
        raise ValueError(
            f"points are sampled over extension 1 (rational) or {SAMPLE_EXTENSION} "
            f"(the least degree with non-rational points), not {extension}"
        )
    q = ree_params(s).q
    e = 2 * s + 1
    ctx = field_context(e * extension)
    rng = random.Random(f"ree-point:{s}:{extension}:{seed}")
    for _ in range(_X_DRAWS):
        u = ctx.from_code(rng.randrange(ctx.order))
        x0 = u + frobenius_power(u, 2 * e) + frobenius_power(u, 4 * e)
        xq = frobenius_power(x0, e)
        if xq == x0:
            continue  # rational x forces a rational point
        xq0 = frobenius_power(x0, s)
        y0 = _hilbert90(xq0 * (xq - x0), q)
        z0 = _hilbert90(xq0 * (frobenius_power(y0, e) - y0), q)
        return CurvePoint(s, extension, x0, y0, z0)
    raise RuntimeError(
        f"no x outside GF(q) in {_X_DRAWS} draws "
        f"(s={s}, seed={seed}, extension={extension})"
    )


def _hilbert90(c: FieldElement, q: int) -> FieldElement:
    """The solution of u^q - u = c for c in GF(q^2); there always is one."""
    u = solve_artin_schreier(c, q)
    if u is None:
        raise ArithmeticError(
            "Artin-Schreier equation with a trace-zero right-hand side has no solution"
        )
    return u


# ---------------------------------------------------------------------------
# expansions


def default_window(p: ReeParams) -> int:
    """Series window wide enough that no catalog term truncates away.

    At rational points ell has valuation one, so a product with ell^(2q+1)
    only shows up from exponent 2q+1 on; the window clears that with room
    for a block of genuinely shared coefficients.
    """
    return 2 * p.q + p.q0 + 32


class PointExpansion(Expansion):
    """The members' expansions at one point or at several points of one field.

    One point's expansion has coefficients in that point's field.  With a
    tuple of points the coefficients lie in Lanes(field, T): lane j of
    every coefficient belongs to points[j], so one series operation
    serves every point, and each lane equals that point's own expansion.
    Its catalog reads keep default_window(p) coefficients.
    """

    kind = "points"

    def __init__(self, points: CurvePoint | tuple[CurvePoint, ...], prec: int):
        if isinstance(points, CurvePoint):
            points = (points,)
        first = points[0]
        self.points = points
        self.field = first.ctx
        self.lanes = len(points)
        if self.lanes == 1:
            self.ctx, coords = self.field, first.coords()
        else:
            self.ctx = Lanes(self.field, self.lanes)
            coords = (self.ctx.pack(cs) for cs in zip(*(P.coords() for P in points)))
        super().__init__(first.params, self.ctx.one(), *coords, prec)
        self.window = default_window(self.p)

    def split(self, c: FieldElement) -> list[FieldElement]:
        """A coefficient's lanes, one element of the field per point."""
        return [c] if self.lanes == 1 else self.ctx.split(c)

    def describe(self, v: Series, lane: int) -> str | None:
        """The lowest exponent at which the lane is nonzero, with its point's
        codes to replay it at; None when the lane of v is zero."""
        low = [e for e, c in v.items() if not self.split(c)[lane].is_zero()]
        if not low:
            return None
        x, y, z = (c.code() for c in self.points[lane].coords())
        return f"t^{min(low)} coefficient nonzero at point codes ({x},{y},{z})"
