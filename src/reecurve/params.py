"""Numeric invariants of the Ree curve X(q) and symbolic derivative indices.

The curve lives over GF(q) with q = 3^(2s+1) and companion power q0 = 3^s.
Everything downstream (ring arithmetic, derivative supports, order scans)
is parameterised by the single integer s >= 1.

Derivative indices that appear in closed formulas are integer combinations
a*q*q0 + b*q + c*q0 + d together with the isolated top index q^2.  At s = 1
distinct combinations can collide numerically (3q = q*q0 = 81), so the
combination itself is kept as a label-exact quadruple and only evaluated to
an integer on demand.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

__all__ = [
    "ReeParams",
    "SymbolicIndex",
    "ree_params",
    "index_value",
    "Q2",
]


class ReeParams(NamedTuple):
    """Derived constants for one choice of s."""

    s: int
    q0: int
    q: int
    genus: int
    n_rational: int
    m_coeffs: tuple[int, int, int, int, int]
    m_value: int
    l_exp_1: int
    l_exp_2: int


def ree_params(s: int) -> ReeParams:
    """Evaluate all curve invariants for q = 3^(2s+1)."""
    if not isinstance(s, int) or s < 1:
        raise ValueError("s must be an integer >= 1")
    q0 = 3**s
    q = 3 ** (2 * s + 1)
    genus_twice = 3 * q0 * (q - 1) * (q + q0 + 1)
    if genus_twice % 2:
        raise ArithmeticError("genus is not an integer")
    genus = genus_twice // 2
    n_rational = q**3 + 1
    # m(t) = t^4 + 3q0 t^3 + 2q t^2 + 3qq0 t + q^2, coefficients ascending.
    m_coeffs = (q * q, 3 * q * q0, 2 * q, 3 * q0, 1)
    m_value = sum(m_coeffs)
    l_exp_1 = q0 * (q * q - 1)
    l_exp_2 = q0 * (q - 1) * (q + 3 * q0 + 1) // 2
    if 2 * (l_exp_1 + l_exp_2) != 2 * genus:
        raise ArithmeticError("L-polynomial exponents do not sum to 2g")
    return ReeParams(
        s=s,
        q0=q0,
        q=q,
        genus=genus,
        n_rational=n_rational,
        m_coeffs=m_coeffs,
        m_value=m_value,
        l_exp_1=l_exp_1,
        l_exp_2=l_exp_2,
    )


# Bounds of the quadruple grammar a*qq0 + b*q + c*q0 + d.  They cover every
# index used by the derivative formulas and the appendix support tables.
_A_MAX = 6
_B_MAX = 3
_C_MAX = 3
_D_MAX = 1


class SymbolicIndex(namedtuple("SymbolicIndex", "a b c d is_q2")):
    """Label-exact derivative index a*qq0 + b*q + c*q0 + d, or the atom q^2.

    The ordering inherited from the field tuple is only used for stable
    set serialisation; numeric comparisons should go through value().
    """

    __slots__ = ()

    def __new__(cls, a: int = 0, b: int = 0, c: int = 0, d: int = 0, is_q2: bool = False):
        self = super().__new__(cls, a, b, c, d, is_q2)
        if is_q2:
            if (a, b, c, d) != (0, 0, 0, 0):
                raise ValueError("q^2 atom carries no quadruple part")
            return self
        if not (0 <= a <= _A_MAX and 0 <= b <= _B_MAX):
            raise ValueError(f"quadruple out of range: {self}")
        if not (0 <= c <= _C_MAX and 0 <= d <= _D_MAX):
            raise ValueError(f"quadruple out of range: {self}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: send both through the checks above
        return cls(*iterable)

    def value(self, p: ReeParams) -> int:
        if self.is_q2:
            return p.q * p.q
        return self.a * p.q * p.q0 + self.b * p.q + self.c * p.q0 + self.d

    def label(self) -> str:
        if self.is_q2:
            return "q^2"
        parts = []
        if self.a:
            parts.append("qq_0" if self.a == 1 else f"{self.a}qq_0")
        if self.b:
            parts.append("q" if self.b == 1 else f"{self.b}q")
        if self.c:
            parts.append("q_0" if self.c == 1 else f"{self.c}q_0")
        if self.d:
            parts.append(str(self.d))
        return "+".join(parts) if parts else "0"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymbolicIndex({self.label()})"


Q2 = SymbolicIndex(is_q2=True)


def cube_count(tag: str, s: int) -> int:
    """k with 3^k the Frobenius power a tag names: 1, q0, 3q0, q or q2 at level s."""
    return {"1": 0, "q0": s, "3q0": s + 1, "q": 2 * s + 1, "q2": 4 * s + 2}[tag]


def index_value(idx: SymbolicIndex | int, p: ReeParams) -> int:
    """Numeric value of a symbolic index (plain integers pass through)."""
    if isinstance(idx, SymbolicIndex):
        return idx.value(p)
    return int(idx)


def symbolic_from_value(value: int, p: ReeParams) -> SymbolicIndex:
    """Invert index_value on the quadruple grammar.

    Requires the mixed-radix representation to be unique, which holds for
    every s >= 2 (and is checked); use that as the reference scale when
    round-tripping labels.
    """
    if value == p.q * p.q:
        return Q2
    rest = value
    a, rest = divmod(rest, p.q * p.q0)
    b, rest = divmod(rest, p.q)
    c, d = divmod(rest, p.q0)
    idx = SymbolicIndex(a, b, c, d)
    if idx.value(p) != value:
        raise ValueError(f"{value} is not representable as a quadruple at s={p.s}")
    return idx
