"""Differential identity catalog and its verification backends.

Each identity is stored as a small expression tree over five leaf kinds:

    ("d",      role, idx)   D^idx applied to the function bound to role
    ("dshift", role, idx)   D^idx of (f^q - f) for that function
    ("dqpow",  role, idx)   D^idx of f^q
    ("ell",    idx)         (x^q - x)^idx
    ("pw", expr, tag)       expr ** 3^k, tag in {"q0", "3q0", "q", "q2"}
    ("mul", e...), ("sum", (sign, e)...)

Indices and ell exponents are SymbolicIndex values, so one catalog serves
every parameter level.  Roles: "f" is the function under test (or the
twisted cofactor for the two structured groups), "w" a function whose
q-shift is a twisted multiple of ell, "b" the base of a shifted product,
and "t" a virtual function defined only through t^q - t = f^q0 (b^q - b).
Derivatives of t are obtained from the recursion
D^i t = (D^(i/q) t)^q - D^i(t^q - t), which never needs t itself for
i >= 1, so both backends can evaluate them without leaving the function
field.

A residual must evaluate to exactly zero: a series cut at the backend's
window, one ring element on the exact route, field values at sampled
points.  No tolerances exist in characteristic 3.

Before evaluation a residual is bound to its instance and level: roles
become member names and indices integers (_bind).  Equal bound terms are
one term, so a catalog run evaluates each distinct leaf, ell power and
Frobenius power once per backend.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional

from reecurve.backends import Backend, backends, sample_count
from reecurve.params import SymbolicIndex, index_value, ree_params
from reecurve.ring import FAMILY_NAMES, SUBFAMILY_NAMES, function_family
from reecurve.support import level_uniform, member_support, support_values

if TYPE_CHECKING:
    from reecurve.series import CurvePoint

__all__ = [
    "IdentitySpec",
    "CheckResult",
    "IDENTITY_CATALOG",
    "TYPE1_PAIRS",
    "TYPE2_PAIRS",
    "verify_catalog",
    "osculating_functions",
    "osculating_vanishing",
    "collision_reason",
]


# ---------------------------------------------------------------------------
# catalog


class IdentitySpec(NamedTuple):
    key: str
    group: str  # "base" | "rejection" | "type1" | "type2"
    description: str
    residuals: tuple[tuple[str, tuple], ...]  # (sublabel, expression)


def _ix(a: int = 0, b: int = 0, c: int = 0, d: int = 0) -> SymbolicIndex:
    return SymbolicIndex(a=a, b=b, c=c, d=d)


def _d(role: str, **k) -> tuple:
    return ("d", role, _ix(**k))


def _ds(role: str, **k) -> tuple:
    return ("dshift", role, _ix(**k))


def _dq(role: str, **k) -> tuple:
    return ("dqpow", role, _ix(**k))


def _ell(**k) -> tuple:
    return ("ell", _ix(**k))


def _pw(expr: tuple, tag: str) -> tuple:
    return ("pw", expr, tag)


def _mul(*exprs: tuple) -> tuple:
    return ("mul",) + exprs


def _sum(*terms: tuple) -> tuple:
    return ("sum",) + terms


_ELL_MINUS = _sum((1, _ell(b=1)), (-1, _ell(d=1)))  # ell^q - ell


def _spec(key, group, description, expr, sub="") -> IdentitySpec:
    return IdentitySpec(key, group, description, ((sub, expr),))


IDENTITY_CATALOG: tuple[IdentitySpec, ...] = (
    # -- the base relations every family member satisfies
    _spec(
        "nu1",
        "base",
        "the q-shift of f is ell times the first derivative",
        _sum((1, _ds("f")), (-1, _mul(_ell(d=1), _d("f", d=1)))),
    ),
    _spec(
        "kq0-1",
        "base",
        "derivative at q0 folds into the next index",
        _sum((1, _d("f", c=1)), (1, _mul(_ell(d=1), _d("f", c=1, d=1)))),
    ),
    _spec(
        "kq0-2",
        "base",
        "derivative at 2q0 folds into the next index",
        _sum((1, _d("f", c=2)), (1, _mul(_ell(d=1), _d("f", c=2, d=1)))),
    ),
    _spec(
        "kq0-3",
        "base",
        "derivative at 3q0 folds into the next index",
        _sum((1, _d("f", c=3)), (1, _mul(_ell(d=1), _d("f", c=3, d=1)))),
    ),
    _spec(
        "dq-shift",
        "base",
        "the q-th derivative of the q-shift",
        _sum(
            (1, _ds("f", b=1)),
            (-1, _d("f", d=1)),
            (-1, _mul(_ell(d=1), _d("f", b=1, d=1))),
        ),
    ),
    # -- the ten level-q relations
    _spec(
        "A1",
        "rejection",
        "three twisted low derivatives resolve D^q",
        _sum(
            (1, _mul(_ell(c=1), _d("f", c=1, d=1))),
            (1, _mul(_ell(c=2), _d("f", c=2, d=1))),
            (1, _mul(_ell(c=3), _d("f", c=3, d=1))),
            (-1, _d("f", b=1)),
            (-1, _mul(_ell(d=1), _d("f", b=1, d=1))),
        ),
    ),
    _spec(
        "A2",
        "rejection",
        "pairing of the q+2q0 and 2q0+1 indices",
        _sum(
            (1, _mul(_ell(c=1), _sum((1, _d("f", b=1, c=2)), (1, _d("f", c=2, d=1))))),
            (-1, _d("f", b=1, c=1)),
            (-1, _d("f", c=1, d=1)),
        ),
    ),
    _spec(
        "A3",
        "rejection",
        "the four q-block derivatives sum to zero",
        _sum(
            (1, _d("f", b=1)),
            (1, _mul(_ell(c=1), _d("f", b=1, c=1))),
            (1, _mul(_ell(c=2), _d("f", b=1, c=2))),
            (1, _mul(_ell(c=3), _d("f", b=1, c=3))),
        ),
    ),
    _spec(
        "A4",
        "rejection",
        "D^(2q+q0) reduces to two lower indices",
        _sum(
            (1, _mul(_ell(d=1), _d("f", b=2, c=1))),
            (-1, _d("f", c=1, d=1)),
            (-1, _d("f", b=1, c=1)),
        ),
    ),
    _spec(
        "A5",
        "rejection",
        "D^(3q) reduces to D^(2q) and D^(q+1)",
        _sum(
            (1, _mul(_ell(d=1), _d("f", b=3))),
            (-1, _d("f", b=2)),
            (-1, _d("f", b=1, d=1)),
        ),
    ),
    _spec(
        "A6",
        "rejection",
        "the qq0 pair against the twisted 2q0 pair",
        _sum(
            (1, _mul(_ell(d=1), _d("f", a=1, d=1))),
            (1, _d("f", a=1)),
            (
                -1,
                _mul(
                    _ell(b=1),
                    _sum(
                        (1, _mul(_ell(c=1), _d("f", c=2, d=1))),
                        (-1, _d("f", c=1, d=1)),
                    ),
                ),
            ),
        ),
    ),
    _spec(
        "A7",
        "rejection",
        "twisted difference at qq0+2q0 and qq0+q0",
        _sum(
            (1, _mul(_ell(c=2), _d("f", a=1, c=2))),
            (-1, _mul(_ell(c=1), _d("f", a=1, c=1))),
            (-1, _mul(_ell(b=1), _sum((1, _d("f", c=1, d=1)), (1, _d("f", b=1, c=1))))),
        ),
    ),
    _spec(
        "A8",
        "rejection",
        "three twisted qq0 derivatives resolve D^(qq0+1)",
        _sum(
            (1, _mul(_ell(c=1), _d("f", a=1, c=1))),
            (1, _mul(_ell(c=2), _d("f", a=1, c=2))),
            (1, _mul(_ell(c=3), _d("f", a=1, c=3))),
            (-1, _mul(_ell(d=1), _d("f", a=1, d=1))),
        ),
    ),
    _spec(
        "A9",
        "rejection",
        "the qq0+q+q0 derivative against the Frobenius gap of ell",
        _sum(
            (1, _mul(_ell(b=1, c=1, d=1), _d("f", a=1, b=1, c=1))),
            (-1, _mul(_ELL_MINUS, _ell(c=1), _d("f", a=1, c=1))),
        ),
    ),
    _spec(
        "A10",
        "rejection",
        "the qq0+2q derivative against the Frobenius gap of ell",
        _sum(
            (
                1,
                _mul(
                    _ell(b=2),
                    _sum(
                        (1, _mul(_ell(d=1), _d("f", a=1, b=2))),
                        (-1, _d("f", a=1, d=1)),
                    ),
                ),
            ),
            (
                -1,
                _mul(
                    _ELL_MINUS,
                    _sum((1, _mul(_ell(b=1), _d("f", a=1, b=1))), (1, _d("f", a=1))),
                ),
            ),
        ),
    ),
    # -- closed forms for w with w^q - w = f^(3q0) * ell
    _spec(
        "t1d-3q0+1",
        "type1",
        "closed form at 3q0+1",
        _sum((1, _d("w", c=3, d=1)), (-1, _pw(_d("f", d=1), "3q0"))),
    ),
    _spec(
        "t1d-q",
        "type1",
        "closed form at q",
        _sum(
            (1, _d("w", b=1)),
            (-1, _pw(_ds("f"), "3q0")),
            (1, _mul(_ell(d=1), _pw(_d("f", c=1), "3q0"))),
        ),
    ),
    _spec(
        "t1d-q+1",
        "type1",
        "closed form at q+1",
        _sum((1, _d("w", b=1, d=1)), (-1, _pw(_d("f", c=1), "3q0"))),
    ),
    _spec(
        "t1d-q+3q0",
        "type1",
        "closed form at q+3q0",
        _sum(
            (1, _d("w", b=1, c=3)),
            (1, _pw(_d("f", d=1), "3q0")),
            (1, _mul(_ell(d=1), _pw(_d("f", c=1, d=1), "3q0"))),
        ),
    ),
    _spec(
        "t1d-2q",
        "type1",
        "closed form at 2q",
        _sum(
            (1, _d("w", b=2)),
            (1, _pw(_d("f", c=1), "3q0")),
            (1, _mul(_ell(d=1), _pw(_d("f", c=2), "3q0"))),
        ),
    ),
    _spec(
        "t1d-3q",
        "type1",
        "closed form at 3q",
        _sum((1, _d("w", b=3)), (1, _pw(_d("f", c=2), "3q0"))),
    ),
    _spec(
        "t1d-2q+1",
        "type1",
        "closed form at 2q+1",
        _sum((1, _d("w", b=2, d=1)), (-1, _pw(_d("f", c=2), "3q0"))),
    ),
    _spec(
        "t1sum-2q+1",
        "type1",
        "the 2q+1, 2q, q+1 derivatives cancel",
        _sum(
            (1, _mul(_ell(d=1), _d("w", b=2, d=1))),
            (1, _d("w", b=2)),
            (1, _d("w", b=1, d=1)),
        ),
    ),
    _spec(
        "t1sum-q+1",
        "type1",
        "the q+1 pair telescopes to the twisted 3q0+1 entry",
        _sum(
            (1, _mul(_ell(d=1), _d("w", b=1, d=1))),
            (1, _d("w", b=1)),
            (-1, _mul(_ell(c=3), _d("w", c=3, d=1))),
        ),
    ),
    _spec(
        "t1sum-q+3q0",
        "type1",
        "the twisted q+3q0 entry cancels D^q",
        _sum((1, _mul(_ell(c=3), _d("w", b=1, c=3))), (1, _d("w", b=1))),
    ),
    _spec(
        "t1sum-3q",
        "type1",
        "the 3q ladder closes over 2q and q+1",
        _sum(
            (1, _mul(_ell(d=1), _d("w", b=3))),
            (-1, _d("w", b=2)),
            (-1, _d("w", b=1, d=1)),
        ),
    ),
    # -- closed forms for virtual t with t^q - t = f^q0 (b^q - b)
    IdentitySpec(
        "t2d-kq0+1",
        "type2",
        "shifted-product derivatives along the q0 ladder",
        tuple(
            (
                f"k={k}",
                _sum(
                    (1, _d("t", c=k, d=1)),
                    (-1, _mul(_pw(_d("f"), "q0"), _d("b", c=k, d=1))),
                    (-1, _mul(_pw(_d("f", d=1), "q0"), _d("b", c=k - 1, d=1))),
                ),
            )
            for k in (1, 2, 3)
        ),
    ),
    _spec(
        "t2d-q",
        "type2",
        "shifted-product derivative at q",
        _sum(
            (1, _d("t", b=1)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", b=1))),
            (-1, _mul(_pw(_d("f", d=1), "q0"), _ell(c=1), _dq("b", b=1))),
            (-1, _mul(_pw(_d("f", c=3, d=1), "q0"), _ell(c=1, d=1), _d("b", d=1))),
        ),
    ),
    _spec(
        "t2d-q+1",
        "type2",
        "shifted-product derivative at q+1",
        _sum(
            (1, _d("t", b=1, d=1)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", b=1, d=1))),
            (1, _mul(_pw(_d("f", c=3, d=1), "q0"), _ell(c=1), _d("b", d=1))),
        ),
    ),
    _spec(
        "t2d-q+q0",
        "type2",
        "shifted-product derivative at q+q0",
        _sum(
            (1, _d("t", b=1, c=1)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", b=1, c=1))),
            (1, _mul(_pw(_d("f", d=1), "q0"), _ds("b", b=1))),
            (
                -1,
                _mul(
                    _pw(_d("f", c=3, d=1), "q0"),
                    _sum(
                        (1, _mul(_ell(c=1, d=1), _d("b", c=1, d=1))),
                        (-1, _mul(_ell(d=1), _d("b", d=1))),
                    ),
                ),
            ),
        ),
    ),
    _spec(
        "t2d-q+2q0",
        "type2",
        "shifted-product derivative at q+2q0",
        _sum(
            (1, _d("t", b=1, c=2)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", b=1, c=2))),
            (-1, _mul(_pw(_d("f", d=1), "q0"), _d("b", b=1, c=1))),
            (
                -1,
                _mul(
                    _pw(_d("f", c=3, d=1), "q0"),
                    _sum(
                        (1, _mul(_ell(c=1, d=1), _d("b", c=2, d=1))),
                        (-1, _mul(_ell(d=1), _d("b", c=1, d=1))),
                    ),
                ),
            ),
        ),
    ),
    _spec(
        "t2d-q+3q0",
        "type2",
        "shifted-product derivative at q+3q0",
        _sum(
            (1, _d("t", b=1, c=3)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", b=1, c=3))),
            (-1, _mul(_pw(_d("f", d=1), "q0"), _d("b", b=1, c=2))),
            (1, _mul(_pw(_d("f", c=3, d=1), "q0"), _ell(d=1), _d("b", c=2, d=1))),
        ),
    ),
    _spec(
        "t2d-2q",
        "type2",
        "shifted-product derivative at 2q",
        _sum(
            (1, _d("t", b=2)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", b=2))),
            (-1, _mul(_pw(_d("f", c=3, d=1), "q0"), _ell(c=1), _ds("b", b=1))),
        ),
    ),
    _spec(
        "t2d-2q+q0",
        "type2",
        "shifted-product derivative at 2q+q0",
        _sum(
            (1, _d("t", b=2, c=1)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", b=2, c=1))),
            (-1, _mul(_pw(_d("f", d=1), "q0"), _d("b", b=2))),
            (
                1,
                _mul(
                    _pw(_d("f", c=3, d=1), "q0"),
                    _sum((1, _mul(_ell(c=1), _d("b", b=1, c=1))), (1, _ds("b", b=1))),
                ),
            ),
        ),
    ),
    _spec(
        "t2d-3q",
        "type2",
        "shifted-product derivative at 3q",
        _sum(
            (1, _d("t", b=3)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", b=3))),
            (1, _mul(_pw(_d("f", c=3, d=1), "q0"), _ell(c=1), _d("b", b=2))),
        ),
    ),
    _spec(
        "t2d-qq0",
        "type2",
        "shifted-product derivative at qq0",
        _sum(
            (1, _d("t", a=1)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", a=1))),
            (-1, _mul(_pw(_d("f", d=1), "q0"), _ell(c=1), _dq("b", a=1))),
            (1, _mul(_pw(_d("f", b=1), "q0"), _ell(d=1), _d("b", d=1))),
            (1, _mul(_pw(_dq("f", b=1), "q0"), _ell(b=1), _dq("b", b=1))),
        ),
    ),
    _spec(
        "t2d-qq0+1",
        "type2",
        "shifted-product derivative at qq0+1",
        _sum(
            (1, _d("t", a=1, d=1)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", a=1, d=1))),
            (-1, _mul(_pw(_d("f", b=1), "q0"), _d("b", d=1))),
        ),
    ),
    _spec(
        "t2d-qq0+q0",
        "type2",
        "shifted-product derivative at qq0+q0",
        _sum(
            (1, _d("t", a=1, c=1)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", a=1, c=1))),
            (1, _mul(_pw(_d("f", d=1), "q0"), _ds("b", a=1))),
            (1, _mul(_pw(_d("f", b=1), "q0"), _ell(d=1), _d("b", c=1, d=1))),
            (1, _mul(_pw(_d("f", b=1, d=1), "q0"), _ell(d=1), _d("b", d=1))),
        ),
    ),
    _spec(
        "t2d-qq0+2q0",
        "type2",
        "shifted-product derivative at qq0+2q0",
        _sum(
            (1, _d("t", a=1, c=2)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", a=1, c=2))),
            (-1, _mul(_pw(_d("f", d=1), "q0"), _d("b", a=1, c=1))),
            (1, _mul(_pw(_d("f", b=1), "q0"), _ell(d=1), _d("b", c=2, d=1))),
            (1, _mul(_pw(_d("f", b=1, d=1), "q0"), _ell(d=1), _d("b", c=1, d=1))),
        ),
    ),
    _spec(
        "t2d-qq0+3q0",
        "type2",
        "shifted-product derivative at qq0+3q0",
        _sum(
            (1, _d("t", a=1, c=3)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", a=1, c=3))),
            (1, _mul(_pw(_d("f", b=1, d=1), "q0"), _ell(d=1), _d("b", c=2, d=1))),
        ),
    ),
    _spec(
        "t2d-qq0+q",
        "type2",
        "shifted-product derivative at qq0+q",
        _sum(
            (1, _d("t", a=1, b=1)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", a=1, b=1))),
            (-1, _mul(_pw(_d("f", d=1), "q0"), _ell(c=1), _dq("b", a=1, b=1))),
            (
                1,
                _mul(
                    _pw(_d("f", c=3, d=1), "q0"),
                    _ell(c=1),
                    _sum((1, _d("b", a=1)), (-1, _dq("b", a=1))),
                ),
            ),
            (1, _mul(_pw(_d("f", b=1), "q0"), _ds("b", b=1))),
            (1, _mul(_pw(_d("f", b=1, c=3), "q0"), _ell(d=1), _d("b", d=1))),
            (-1, _mul(_pw(_dq("f", b=1), "q0"), _dq("b", b=1))),
        ),
    ),
    _spec(
        "t2d-qq0+q+q0",
        "type2",
        "shifted-product derivative at qq0+q+q0",
        _sum(
            (1, _d("t", a=1, b=1, c=1)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", a=1, b=1, c=1))),
            (1, _mul(_pw(_d("f", d=1), "q0"), _ds("b", a=1, b=1))),
            (
                1,
                _mul(
                    _pw(_d("f", c=3, d=1), "q0"),
                    _sum((1, _mul(_ell(c=1), _d("b", a=1, c=1))), (1, _ds("b", a=1))),
                ),
            ),
            (-1, _mul(_pw(_d("f", b=1), "q0"), _d("b", b=1, c=1))),
            (1, _mul(_pw(_d("f", b=1, d=1), "q0"), _ds("b", b=1))),
            (-1, _mul(_pw(_d("f", b=1, c=3), "q0"), _d("b", c=1))),
            (1, _mul(_pw(_d("f", b=1, c=3, d=1), "q0"), _ell(d=1), _d("b", d=1))),
        ),
    ),
    _spec(
        "t2d-qq0+2q",
        "type2",
        "shifted-product derivative at qq0+2q",
        _sum(
            (1, _d("t", a=1, b=2)),
            (-1, _mul(_pw(_d("f"), "q0"), _d("b", a=1, b=2))),
            (-1, _mul(_pw(_d("f", c=3, d=1), "q0"), _ell(c=1), _ds("b", a=1, b=1))),
            (1, _mul(_pw(_d("f", b=1), "q0"), _ds("b", b=2))),
            (1, _mul(_pw(_d("f", b=1, c=3), "q0"), _ds("b", b=1))),
        ),
    ),
)

TYPE1_PAIRS: tuple[tuple[str, str], ...] = (
    ("w1", "x"),
    ("w2", "y"),
    ("w3", "z"),
    ("w6", "w4"),
    ("w8", "w7"),
)


def _type2_pairs() -> tuple[tuple[str, str], ...]:
    """(cofactor, base) pairs of the mixed q-power rules, in rule order."""
    rules = function_family(1).rules
    seen: list[tuple[str, str]] = []
    for name in ("w4", "v", "w5", "w7", "w9", "w10"):
        for _sign, cof, _twist, base in rules[name].terms:
            if (cof, base) not in seen:
                seen.append((cof, base))
    return tuple(seen)


TYPE2_PAIRS = _type2_pairs()


def instances_for(spec: IdentitySpec) -> list[dict[str, str]]:
    """Role bindings the identity is asserted for."""
    if spec.group in ("base", "rejection"):
        return [{"f": name} for name in FAMILY_NAMES]
    if spec.group == "type1":
        return [{"w": w, "f": f} for w, f in TYPE1_PAIRS]
    return [{"f": f, "b": b} for f, b in TYPE2_PAIRS]


def _instance_label(roles: dict[str, str]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(roles.items()))


# ---------------------------------------------------------------------------
# applicability at the lowest level
#
# The catalog states identities in symbolic indices whose values are all
# distinct once q > 27.  At the lowest level several slots share a value
# (3q = qq0 = 2q + 3q0 = 81 among them), so D^81 of a function carries
# every colliding support slot at once while a formula names only one of
# them.  An instance is asserted at the lowest level exactly when each of
# its derivative leaves carries the single slot the formula names; the
# remaining instances are reported as skipped rather than checked, since
# no claim is made about them there.  Levels s >= 2 are collision free.


@lru_cache(maxsize=None)
def _t_support(f: str, b: str) -> tuple[SymbolicIndex, ...]:
    """Structural derivative support of the virtual t, level-uniform.

    Follows the recursion D^i t = -D^i h + (D^(i/q) t)^q with
    h = f^q0 (b^q - b): the q0-dilated support of f convolved with the
    shift support of b, closed under multiplication by q, capped at q^2.
    """

    def values(s: int) -> frozenset[int]:
        p = ree_params(s)
        lim = p.q**2
        fs = support_values(f, p)
        bs = support_values(b, p, "shift")
        h = {p.q0 * a + j for a in fs for j in bs if p.q0 * a + j <= lim}
        h.discard(0)
        out: set[int] = set()
        frontier = h
        while frontier:
            out |= frontier
            frontier = {p.q * v for v in frontier if p.q * v <= lim} - out
        return frozenset(out)

    return level_uniform(values(2), values(3), f"virtual support of ({f},{b})")


def _sym_div_q(ix: SymbolicIndex) -> bool:
    return ix.c == 0 and ix.d == 0 and not ix.is_q2


@lru_cache(maxsize=None)
def _valued_support(
    f: str, b: Optional[str] = None
) -> tuple[tuple[int, ...], frozenset[int]]:
    """Support of member f, or of the virtual t(f, b), valued once.

    Returns the value of each support slot at s=1, repeats kept, and the
    set of values at s=2: all that the collision check reads of a support.
    """
    sup = member_support(f) if b is None else _t_support(f, b)
    p1, p2 = ree_params(1), ree_params(2)
    return (
        tuple(index_value(jx, p1) for jx in sup),
        frozenset(index_value(jx, p2) for jx in sup),
    )


def _dirty_values(valued, v1: int, v2: int) -> Optional[str]:
    at1, at2 = valued
    named = 1 if v2 in at2 else 0
    carried = at1.count(v1)
    if carried != named:
        return f"D^{v1} carries {carried} support slots where the formula names {named}"
    return None


def _dirty_leaf(valued, ix: SymbolicIndex, p1, p2) -> Optional[str]:
    return _dirty_values(valued, index_value(ix, p1), index_value(ix, p2))


def collision_reason(spec: IdentitySpec, roles: dict[str, str]) -> Optional[str]:
    """Why the instance is outside the asserted scope at s=1, or None."""
    p1, p2 = ree_params(1), ree_params(2)

    def valued_of(role: str):
        if role == "t":
            return _valued_support(roles["f"], roles["b"])
        return _valued_support(roles[role])

    def label_of(role: str) -> str:
        if role == "t":
            return f"t({roles['f']},{roles['b']})"
        return roles[role]

    stack = [expr for _sub, expr in spec.residuals]
    while stack:
        e = stack.pop()
        op = e[0]
        if op == "d":
            r = _dirty_leaf(valued_of(e[1]), e[2], p1, p2)
            if r:
                return f"{label_of(e[1])}: {r}"
        elif op in ("dshift", "dqpow"):
            ix = e[2]
            valued = valued_of(e[1])
            if op == "dshift":
                r = _dirty_leaf(valued, ix, p1, p2)
                if r:
                    return f"{label_of(e[1])}^q-{label_of(e[1])}: {r}"
            if _sym_div_q(ix):
                r = _dirty_values(
                    valued, index_value(ix, p1) // p1.q, index_value(ix, p2) // p2.q
                )
                if r:
                    return f"{label_of(e[1])} under the q-power route: {r}"
            else:
                v1 = index_value(ix, p1)
                if v1 and v1 % p1.q == 0:
                    return (
                        f"{label_of(e[1])}: D^{v1} gains a q-power route "
                        "that the formula does not name"
                    )
        elif op == "pw":
            stack.append(e[1])
        elif op == "mul":
            stack.extend(e[1:])
        elif op == "sum":
            stack.extend(sub for _sign, sub in e[1:])
    return None


# ---------------------------------------------------------------------------
# evaluation


def _bind(expr: tuple, roles: dict, p) -> tuple:
    """A residual at one instance and level: roles named, indices valued.

    The bound tree is hashable and equal terms bind to equal nodes, so one
    instance binds once for every backend of a route and a term shared by
    residuals and instances is recognised as one.  A derivative of the
    virtual t binds to ("t", f, b, i).
    """
    op = expr[0]
    if op == "d" and expr[1] == "t":
        return ("t", roles["f"], roles["b"], index_value(expr[2], p))
    if op in ("d", "dshift", "dqpow"):
        return (op, roles[expr[1]], index_value(expr[2], p))
    if op == "ell":
        return ("ell", index_value(expr[1], p))
    if op == "pw":
        return ("pw", _bind(expr[1], roles, p), expr[2])
    if op == "mul":
        return ("mul",) + tuple(_bind(sub, roles, p) for sub in expr[1:])
    if op == "sum":
        return ("sum",) + tuple((sign, _bind(sub, roles, p)) for sign, sub in expr[1:])
    raise ValueError(f"unknown expression node {op!r}")


# the backend read of each bound leaf kind
_READS = {"d": "member_d", "t": "virtual_d", "dshift": "shift_d", "dqpow": "qpow_d",
          "ell": "ell_power"}


def _evaluate(node: tuple, K, memo: dict):
    """Value of a bound node on K.

    Leaves, ell powers and Frobenius powers recur across residuals and
    instances, so they are kept in memo; products and sums are almost all
    distinct and are not.  Backend operations never change their
    operands, so a kept value can be shared.
    """
    op = node[0]
    if op == "mul":
        out = _evaluate(node[1], K, memo)
        for sub in node[2:]:
            out = K.mul(out, _evaluate(sub, K, memo))
        return out
    if op == "sum":
        out = K.zero()
        for sign, sub in node[1:]:
            out = K.add(out, _evaluate(sub, K, memo), sign)
        return out
    val = memo.get(node)
    if val is None:
        if op == "pw":
            val = K.pow_tag(_evaluate(node[1], K, memo), node[2])
        else:
            val = getattr(K, _READS[op])(*node[1:])
        memo[node] = val
    return val


class CheckResult(NamedTuple):
    identity: str
    instance: str
    backend: str
    ok: bool
    points: int = 0
    witness: Optional[str] = None
    skipped: bool = False  # outside the asserted scope at this level


def _witness(key: str, bound: tuple, K, memo: dict) -> Optional[str]:
    """None when every bound residual vanishes on K, else a witness string."""
    for sublabel, node in bound:
        val = _evaluate(node, K, memo)
        if not K.is_zero(val):
            where = f" [{sublabel}]" if sublabel else ""
            return f"{key}{where}: {K.describe(val)}"
    return None


def _bind_residuals(spec: IdentitySpec, roles: dict, p) -> tuple:
    return tuple((sub, _bind(expr, roles, p)) for sub, expr in spec.residuals)


def _verdict(spec: IdentitySpec, roles: dict[str, str], Ks: tuple, memos: list) -> CheckResult:
    """One instance on every backend of a route; the first witness wins.

    memos holds one evaluation memo per backend, in the order of Ks.
    """
    label = _instance_label(roles)
    if Ks[0].s == 1:
        reason = collision_reason(spec, roles)
        if reason is not None:
            return CheckResult(spec.key, label, Ks[0].kind, True, 0, reason, skipped=True)
    bound = _bind_residuals(spec, roles, Ks[0].p)
    witness = None
    for K, memo in zip(Ks, memos):
        witness = _witness(spec.key, bound, K, memo)
        if witness is not None:
            break
    return CheckResult(spec.key, label, Ks[0].kind, witness is None, sample_count(Ks), witness)


def verify_catalog(
    s: int,
    backend: str = "symbolic",
    keys: Optional[list[str]] = None,
    trials: int = 3,
    seed: int = 0,
) -> list[CheckResult]:
    """Every catalog identity over its full applicability set.

    The points route checks at `trials` rational points, seeds seed on,
    with the series window default_window(p).
    """
    specs = IDENTITY_CATALOG
    if keys is not None:
        wanted = set(keys)
        specs = [sp for sp in specs if sp.key in wanted]
        missing = wanted - {sp.key for sp in specs}
        if missing:
            raise KeyError(f"unknown identity keys: {sorted(missing)}")
    Ks = backends(s, backend, trials, seed)
    memos = [{} for _ in Ks]  # one per backend, for this call only
    return [
        _verdict(spec, roles, Ks, memos) for spec in specs for roles in instances_for(spec)
    ]


# ---------------------------------------------------------------------------
# osculating family


def osculating_functions(P: CurvePoint):
    """Series at P of g_P and h_P built from the seven-function family.

    g_P fixes the first slot of the two-point pairing at P and is a
    member of the small linear series; h_P fixes the second slot and is
    an exact q^2-th power.  Both vanish at P to order at least q^2; the
    series are exact on exponents up to q^2.
    """
    from reecurve.gf import frobenius_power
    from reecurve.series import PointExpansion, ser_add

    depth = P.params.q**2 + 1
    K = Backend(PointExpansion(P, depth), depth)
    e2 = 2 * (2 * P.s + 1)
    members = [K.member(name) for name in SUBFAMILY_NAMES]
    values = [ser.get(0, P.ctx.zero()) for ser in members]
    g: dict = {}
    h: dict = {}
    for i, ser in enumerate(members):
        cg = frobenius_power(values[i], e2)
        g = ser_add(g, {e: cg * c for e, c in members[6 - i].items()}, 1)
        fq2 = K.pow_tag(ser, "q2")
        cv = values[6 - i]
        h = ser_add(h, {e: cv * c for e, c in fq2.items()}, 1)
    g = {e: c for e, c in g.items() if not c.is_zero()}
    h = {e: c for e, c in h.items() if not c.is_zero()}
    return g, h


def osculating_vanishing(P: CurvePoint) -> int:
    """t-adic vanishing order of g_P at P (q^2 + 1 when it is zero to that order)."""
    g, _ = osculating_functions(P)
    return min(g) if g else P.params.q**2 + 1
