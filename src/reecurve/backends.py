"""One route object, shared by identity checks, order scans and profiles.

A route is one ``hasse.Expansion``: identities, orders and profiles read
the Hasse derivatives of the family members off it.  Its centre is the
route:

* exact ("symbolic"): ``hasse_calculus(s)``, the generic point, read
  through a window of one coefficient, where series products, sums and
  3^k-th powers are ring operations on normal forms;
* sampled ("points"): one ``series.PointExpansion`` at the seeded points,
  held side by side as the lanes of each coefficient (``gf.Lanes``), so a
  residual is one series whose lane j is its value at the j-th point; its
  window is default_window(p).

The expansion names the route (kind), holds its window and writes the
witnesses (describe), so no read branches on the route, and the exact
route loads neither the field nor the series module.

backends() returns one expansion per route and, with hasse_calculus, is
their only cache, so every caller asking for one route gets one object:
points are sampled, and series expanded, once per process.  Both routes
expand to q^2 + 1; the sampled route reads the catalog at rational points
and the order scans at points over GF(q^SAMPLE_EXTENSION).
"""

from __future__ import annotations

from reecurve.hasse import Expansion, hasse_calculus
from reecurve.params import ReeParams, ree_params

__all__ = [
    "SAMPLE_EXTENSION",
    "backends",
    "default_window",
    "sample_count",
]


def default_window(p: ReeParams) -> int:
    """Series window wide enough that no catalog term truncates away.

    At rational points ell has valuation one, so a product with ell^(2q+1)
    only shows up from exponent 2q+1 on; the window clears that with room
    for a block of genuinely shared coefficients.
    """
    return 2 * p.q + p.q0 + 32


# The curve has no places of degree 2 through 5 (its zeta function forces
# N_k = N_1 for k <= 5): degree 6 is the smallest extension of GF(q) that
# holds non-rational points.  series.random_point builds them directly,
# with x in GF(q^2) but not in GF(q): about 1/q^2 of the degree-6 points.
SAMPLE_EXTENSION = 6

_BACKENDS: dict[tuple, Expansion] = {}


def backends(s: int, backend: str, trials: int, seed: int, extension: int = 1) -> Expansion:
    """The expansion of one route, built on first use and then shared.

    "symbolic" gives the expansion at the generic point, window 1;
    "points" gives one expansion at the points of seeds
    seed .. seed+trials-1 over the given extension, lane j at seed + j,
    window default_window(p).
    """
    if backend == "symbolic":
        return hasse_calculus(s)
    if backend != "points":
        raise ValueError(f"unknown backend {backend!r}")
    if trials < 1:
        raise ValueError("the points backend needs at least one trial")
    key = (s, trials, seed, extension)
    if key not in _BACKENDS:
        from reecurve.series import PointExpansion, random_point

        points = tuple(random_point(s, seed + j, extension) for j in range(trials))
        _BACKENDS[key] = PointExpansion(points, ree_params(s).q**2 + 1)
    return _BACKENDS[key]


def sample_count(K: Expansion) -> int:
    """Sample points behind a route's verdicts: none on the exact route."""
    return 0 if K.kind == "symbolic" else K.lanes
