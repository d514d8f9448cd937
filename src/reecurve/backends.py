"""One backend class, shared by identity checks, order scans and profiles.

A Backend reads the Hasse derivatives of the family members off one
``hasse.Expansion``, through a window of coefficients.  The expansion's
centre is the route:

* exact ("symbolic"): ``Backend(hasse_calculus(s), 1)``, the generic point.
  At window 1, D^i of a series is {0: D^i f}, and series products, sums
  and 3^k-th powers at precision 1 are ring operations on normal forms;
* sampled ("points"): a Backend of ``series.PointExpansion`` at the
  seeded points, held side by side as the lanes of each coefficient
  (``gf.Lanes``), so a residual is one series whose lane j is its value
  at the j-th point.

The expansion names the route (kind) and writes the witnesses (describe),
so no backend method branches on the route, and the exact route loads
neither the field nor the series module.  A backend offers residual
arithmetic for the identity catalog (member_d, shift_d, qpow_d,
virtual_d, ell_power, pow_tag, mul, add, is_zero, describe), on series cut
at the window, and the two row accessors of the rank scans, read at the
centre: value(name, i) is D^i f, and qpow_value(name) is f^q, the seed row
whose place in the order echelons names the omitted Frobenius order.

backends() builds one Backend per route and is their only cache, so every
caller asking for one route gets one object: points are sampled, and
series expanded, once per process.  Both routes expand to q^2 + 1; the
sampled route reads the catalog at rational points with the window
default_window(p), and the order scans at points over
GF(q^SAMPLE_EXTENSION).
"""

from __future__ import annotations

from reecurve.hasse import (
    Expansion,
    hasse_calculus,
    hasse_shift,
    ser_add,
    ser_mul,
    ser_pow3k,
)
from reecurve.params import ReeParams, cube_count, ree_params

__all__ = [
    "SAMPLE_EXTENSION",
    "Backend",
    "backends",
    "default_window",
    "sample_count",
]


class Backend:
    """Evaluates residuals as series over a window of one expansion.

    The expansion is exact below its precision, its depth here: a read
    whose window would reach past the depth raises instead of coming back
    short.
    """

    def __init__(self, exp: Expansion, window: int):
        self.exp = exp
        self.kind = exp.kind
        self.lanes = exp.lanes
        self.p: ReeParams = exp.p
        self.s = exp.s
        self.window = window

    def zero(self):
        return {}

    def _read(self, ser: dict, i: int) -> dict:
        """D^i of a series over the window, refused where the window passes the depth."""
        if i + self.window > self.exp.prec:
            raise ValueError(
                f"D^{i} over a window of {self.window} reads past depth {self.exp.prec}"
            )
        return hasse_shift(ser, i, self.window)

    def member_d(self, name: str, i: int):
        return self._read(self.exp.series(name), i)

    def shift_d(self, name: str, i: int):
        return self._read(self.exp.shift_series(name), i)

    def qpow_d(self, name: str, i: int):
        return self._read(self.exp.qpow_series(name), i)

    def virtual_d(self, f: str, b: str, i: int):
        """D^i t for t^q - t = f^q0 (b^q - b); t itself is never needed."""
        if i <= 0:
            raise ValueError("virtual functions only expose positive indices")
        return self._read(self.exp.lift(f, b), i)

    # -- rows: the i-th coefficient of a series is D^i at the centre

    def row(self, name: str) -> dict:
        """The member's series: where its rows are nonzero."""
        return self.exp.series(name)

    def value(self, name: str, i: int):
        return self.exp.coefficient(name, i)

    def qpow_value(self, name: str):
        return self.value(name, 0).pow3k(2 * self.s + 1)

    def ell_power(self, n: int):
        return self.exp.ell_power(n, self.window)

    def pow_tag(self, v, tag: str):
        return ser_pow3k(v, cube_count(tag, self.s), self.window)

    def mul(self, a, b):
        return ser_mul(a, b, self.window)

    def add(self, a, b, sign: int = 1):
        return ser_add(a, b, sign)

    def is_zero(self, v) -> bool:
        return not v

    def describe(self, v, lane: int) -> str | None:
        """Where the lane of v is nonzero, to replay it; None when it is zero."""
        return self.exp.describe(v, lane)


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

_BACKENDS: dict[tuple, Backend] = {}


def backends(s: int, backend: str, trials: int, seed: int, extension: int = 1) -> Backend:
    """The Backend of one route, built on first use and then shared.

    "symbolic" gives the Backend at the generic point, window 1; "points"
    gives the Backend of one expansion at the points of seeds
    seed .. seed+trials-1 over the given extension, lane j at seed + j,
    with the default series window.
    """
    if backend == "symbolic":
        key: tuple = ("symbolic", s)
    elif backend == "points":
        if trials < 1:
            raise ValueError("the points backend needs at least one trial")
        key = ("points", s, trials, seed, extension)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if key not in _BACKENDS:
        if backend == "symbolic":
            _BACKENDS[key] = Backend(hasse_calculus(s), 1)
        else:
            from reecurve.series import PointExpansion, random_point

            p = ree_params(s)
            points = tuple(random_point(s, seed + j, extension) for j in range(trials))
            _BACKENDS[key] = Backend(PointExpansion(points, p.q**2 + 1), default_window(p))
    return _BACKENDS[key]


def sample_count(K: Backend) -> int:
    """Sample points behind a route's verdicts: none on the exact route."""
    return 0 if K.kind == "symbolic" else K.lanes
