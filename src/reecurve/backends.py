"""One backend object per route, shared by identity checks, order scans and profiles.

A route evaluates Hasse derivatives of the family members in one of two
ways: exactly, as normal forms in the coordinate ring ("symbolic"), or as
truncated power series at seeded sample points ("points").  Both routes
run at every level, and both backend classes expose the same operations
(SymbolicBackend here, PointBackend in series.py beside the series code, so
the exact route never loads the field or series modules):

* residual arithmetic for the identity catalog: member, member_d, shift_d,
  qpow_d, virtual_d, ell_power, pow_tag, mul, add, is_zero, describe;
* row accessors for the rank scans: value(name, i) is D^i of the member,
  shift_value(name, i) is D^i (f^q - f) and qpow_value(name) is f^q, as
  ring elements or as values in the residue field of the sample point.

backends() builds a route's backends and is their only cache, so every
caller asking for one route gets one tuple: points are sampled, and series
and derivative tables expanded, once per process.  A vanishing profile or
the osculating functions at a given point read a PointBackend of that point.

The sampled route has one fixed configuration: the identity catalog runs
at rational points with the series window default_window(p), the order
scans and generic profiles at points over GF(q^SAMPLE_EXTENSION).
"""

from __future__ import annotations

from reecurve.hasse import HasseCalculus, hasse_calculus
from reecurve.params import ReeParams

__all__ = [
    "SAMPLE_EXTENSION",
    "SymbolicBackend",
    "backends",
    "default_window",
    "sample_count",
]


def _pow_count(tag: str, s: int) -> int:
    return {"q0": s, "3q0": s + 1, "q": 2 * s + 1, "q2": 2 * (2 * s + 1)}[tag]


class SymbolicBackend:
    """Evaluates residuals as exact normal forms in the coordinate ring."""

    kind = "symbolic"

    def __init__(self, s: int):
        self.calc: HasseCalculus = hasse_calculus(s)
        self.p: ReeParams = self.calc.p
        self.s = s
        self._ellpow: dict[int, object] = {}

    def zero(self):
        return self.calc.ring.zero()

    def member(self, name: str):
        return self.calc.fam.element(name)

    def member_d(self, name: str, i: int):
        return self.calc.table(name).get(i, self.zero())

    def shift_d(self, name: str, i: int):
        return self.calc.shift_table(name).get(i, self.zero())

    def qpow_d(self, name: str, i: int):
        return self.calc.qpow_series(name).get(i, self.zero())

    def virtual_d(self, f: str, b: str, i: int):
        """D^i t for t^q - t = f^q0 (b^q - b); t itself is never needed."""
        if i <= 0:
            raise ValueError("virtual functions only expose positive indices")
        return self.calc.lift(f, b).get(i, self.zero())

    # the order scans' rows are the same exact derivatives
    value = member_d
    shift_value = shift_d

    def qpow_value(self, name: str):
        return self.member(name).qpow()

    def ell(self):
        return self.ell_power(1)

    def ell_power(self, n: int):
        if n not in self._ellpow:
            if n == 0:
                self._ellpow[n] = self.calc.ring.one()
            elif n == 1:
                self._ellpow[n] = self.calc.ring.ell()
            elif n == 2:
                self._ellpow[n] = self.ell_power(1) * self.ell_power(1)
            else:
                # base-3 digits, as PointExpansion.power: ell^(3a+d) = (ell^a)^3 ell^d
                a, d = divmod(n, 3)
                self._ellpow[n] = self.ell_power(a).pow3k(1) * self.ell_power(d)
        return self._ellpow[n]

    def pow_tag(self, v, tag: str):
        return v.pow3k(_pow_count(tag, self.s))

    def mul(self, a, b):
        return a * b

    def add(self, a, b, sign: int = 1):
        return a + b if sign == 1 else a - b

    def is_zero(self, v) -> bool:
        return v.is_zero()

    def describe(self, v) -> str:
        terms = v.to_sorted_list()
        return f"{len(terms)} monomials, leading {terms[0] if terms else None}"


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

_BACKENDS: dict[tuple, tuple] = {}


def backends(s: int, backend: str, trials: int, seed: int, extension: int = 1) -> tuple:
    """The backends of one route, built on first use and then shared.

    "symbolic" gives (SymbolicBackend(s),); "points" gives one PointBackend
    per seed in seed .. seed+trials-1, at points over the given extension,
    each with the default series window.
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
            _BACKENDS[key] = (SymbolicBackend(s),)
        else:
            from reecurve.series import PointBackend, random_point

            _BACKENDS[key] = tuple(
                PointBackend(random_point(s, seed + j, extension))
                for j in range(trials)
            )
    return _BACKENDS[key]


def sample_count(Ks: tuple) -> int:
    """Sample points behind a route's verdicts: none on the exact route."""
    return 0 if Ks[0].kind == "symbolic" else len(Ks)
