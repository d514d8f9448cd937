"""Vanishing profiles at points and the ramification-degree bookkeeping.

The profile of a family at a point P lists the orders of vanishing
achievable by linear combinations of the family members at P.  An exponent
i is one of them exactly when the row of i-th Hasse derivatives at P grows
the rank of the rows below it (Stöhr-Voloch), so the profile is the greedy
scan of orders.py run on the rows of P's expansion, one per point in a
process, shared by the profiles of every family there.  Away from finitely
many points the profile is the order sequence; the excess weight
sum(j_i - eps_i) is positive exactly at the special points, and the
rational points carry all of it: the degree of the ramification divisor,
(2g-2)*sum(eps) + (r+1)*m, equals the shared rational-point weight times
the number of rational points, with nothing left over.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .orders import _family_names, _scan, order_sequence
from .params import ReeParams, indices, ree_params
from .series import CurvePoint, PointExpansion
from .support import order_values

__all__ = [
    "VanishingProfile",
    "vanishing_orders",
    "divisor_degree_audit",
    "expected_rational_profile",
    "rational_weight",
]


class VanishingProfile(
    namedtuple("VanishingProfile", "series s extension jorders epsilons weight")
):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if list(self.jorders) != sorted(set(self.jorders)):
            raise ValueError("profile must be strictly increasing")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: send both through the checks above
        return cls(*iterable)


# the profile shared by the rational points: these indices, then m
_RATIONAL_PROFILES = {
    "D": indices(
        "0 1 q0+1 2q0+1 3q0+1 q+2q0+1 q+3q0+1 2q+3q0+1 qq0+q+2q0+1 qq0+q+3q0+1 "
        "qq0+2q+3q0+1 2qq0+2q+3q0+1 3qq0+2q+3q0+1"
    ),
    "E": indices("0 1 3q0+1 q+3q0+1 2q+3q0+1 3qq0+2q+3q0+1"),
}


def expected_rational_profile(p: ReeParams, series: str = "D") -> list[int]:
    """The profile shared by every rational point (automorphism-uniform)."""
    if series not in _RATIONAL_PROFILES:
        raise ValueError(f"unknown series {series!r}")
    return [ix.value(p) for ix in _RATIONAL_PROFILES[series]] + [p.m_value]


@lru_cache(maxsize=None)
def _profile_backend(point: CurvePoint) -> PointExpansion:
    """The point's expansion to m + 1, built once per point.

    Every family's profile at the point reads it: E's members are D's, and
    D's recipes build on each other, so the expansion serves both.
    """
    return PointExpansion(point, point.params.m_value + 1)


def vanishing_orders(series="D", point: CurvePoint | None = None) -> VanishingProfile:
    """Profile of the family at one point by the greedy scan of its rows.

    A section of D vanishes at a point to order at most deg D = m, so rows
    stop at m.
    """
    if point is None:
        raise ValueError("a point is required")
    names = _family_names(series)
    p = point.params
    K = _profile_backend(point)
    js = [i for i, _, _ in _scan(K, names, want=len(names))]
    if len(js) != len(names):
        raise ArithmeticError(
            f"precision shortfall: only {len(js)} of {len(names)} pivots "
            f"below precision {K.prec}"
        )
    if isinstance(series, str):
        eps = order_values(p, series)
    else:
        eps = list(order_sequence(names, s=p.s, backend="symbolic").orders)
    return VanishingProfile(
        series=series if isinstance(series, str) else "+".join(series),
        s=p.s,
        extension=point.extension,
        jorders=tuple(js),
        epsilons=tuple(eps),
        weight=sum(j - e for j, e in zip(js, eps)),
    )


def divisor_degree_audit(p, eps="D") -> dict:
    """Cross-check the ramification degree against the per-point weights.

    Accepts a ReeParams or a level s, and either a series tag or a
    computed order sequence.  Raises when the degree fails to split into
    an integer weight shared by the rational points: the two routes to
    deg R must agree exactly.
    """
    if isinstance(p, int):
        p = ree_params(p)
    if isinstance(eps, str):
        series = eps
        orders = order_values(p, series)
    else:
        series = eps.series
        orders = list(eps.orders)
        if len(orders) != len(_family_names(series)):
            raise ArithmeticError("order sequence is incomplete")
    r_plus_1 = len(orders)
    two_g_minus_2 = 2 * p.genus - 2
    degree = two_g_minus_2 * sum(orders) + r_plus_1 * p.m_value
    weight, rem = divmod(degree, p.n_rational)
    if rem:
        raise ArithmeticError(
            f"degree {degree} does not split over {p.n_rational} rational points"
        )
    return {
        "s": p.s,
        "series": series,
        "r_plus_1": r_plus_1,
        "sum_orders": sum(orders),
        "two_g_minus_2": two_g_minus_2,
        "m": p.m_value,
        "degree": degree,
        "n_rational": p.n_rational,
        "weight_per_rational_point": weight,
    }


def rational_weight(p: ReeParams, series: str = "D") -> int:
    """Weight shared by the rational points, from the degree split."""
    return divisor_degree_audit(p, series)["weight_per_rational_point"]
