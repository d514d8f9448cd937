"""Derivative supports of the spanning functions.

S_f is a set of indices guaranteed to contain every i in [0, q^2] with
D^i f nonzero.  The sets are assembled from the q-power rules:

    S(w^q - w) = union over rule terms of  e * S(cofactor) + S(base^q - base)
    S_w        = S(w^q - w)  union  q * S(w^q - w)

with e the twist exponent (q0 or 3q0), all sums and dilations truncated to
[0, q^2].  The generators are S(x^q - x) = {0, 1, q} and S_x = {0, 1}.

Index sets are level-uniform for s >= 2: each is computed numerically at
s = 2, decoded into the symbolic index grammar, and revalidated at s = 3
(level_uniform, which the identity catalog's virtual supports use too).
The two appendix tables, the candidate sets for the order scans, and the
digitwise-minimal non-order sets are all derived here.
"""

from __future__ import annotations

from functools import lru_cache

from reecurve.hasse import binom_mod3
from reecurve.params import (
    Q2,
    ReeParams,
    SymbolicIndex,
    index_value,
    ree_params,
    symbolic_from_value,
)
from reecurve.ring import FAMILY_NAMES, function_family

PLAIN_COLUMNS = ("x", "w1", "w2", "w3", "w6", "w8")
MIXED_COLUMNS = ("y", "z", "w4", "w7", "w5", "w9", "w10")

# proposed order sequences; the scans in the orders module must reproduce
# exactly these
D_ORDER_INDICES = (
    SymbolicIndex(),
    SymbolicIndex(d=1),
    SymbolicIndex(c=1),
    SymbolicIndex(c=2),
    SymbolicIndex(c=3),
    SymbolicIndex(b=1),
    SymbolicIndex(b=1, c=1),
    SymbolicIndex(b=2),
    SymbolicIndex(a=1),
    SymbolicIndex(a=1, c=1),
    SymbolicIndex(a=1, b=1),
    SymbolicIndex(a=2),
    SymbolicIndex(a=3),
    Q2,
)

E_ORDER_INDICES = (
    SymbolicIndex(),
    SymbolicIndex(d=1),
    SymbolicIndex(c=3),
    SymbolicIndex(b=1),
    SymbolicIndex(b=2),
    SymbolicIndex(a=3),
    Q2,
)


def leq3(i: int, j: int) -> bool:
    """Digitwise base-3 domination, i.e. C(j, i) nonzero mod 3 (Lucas)."""
    return binom_mod3(j, i) != 0


def minimal_elements(values) -> list[int]:
    vs = sorted(set(values))
    out = []
    for v in vs:
        if not any(leq3(u, v) for u in out):
            out.append(v)
    return out


def _qc_digits(v: int, p: ReeParams) -> tuple[int, int]:
    r = v % (p.q * p.q0)
    b, r = divmod(r, p.q)
    return b, r // p.q0


@lru_cache(maxsize=None)
def _ladder_values(base: str, s: int) -> tuple[frozenset[int], frozenset[int]]:
    """Start indices j of cancelling derivative ladders of base^q - base.

    When a type-1 cofactor f multiplies such a shift, the convolution terms
    (D^{w+1}f)^{q0} D^j and (D^w f)^{q0} D^{j+q0} collapse along the ladder
    relation D^w f = -l D^{w+1} f (w = 3q0 or q+3q0), and the surviving
    bracket D^j - l^{q0} D^{j+q0} vanishes on the shift whenever j sits in
    the ladder region: q-digit >= 1 and q0-digit <= 1.  The plain set holds
    the j with both rungs inside the support; the carry set holds the j
    whose bracket instead closes through a qq0 step, which cancels the
    residue left by the ladder one q-level up.
    """
    p = ree_params(s)
    sup = _shift_values(base, s)
    plain, carry = set(), set()
    for j in sup:
        b, c = _qc_digits(j, p)
        if b < 1 or c > 1:
            continue
        if j + p.q0 in sup:
            plain.add(j)
    for j in sup:
        b, c = _qc_digits(j, p)
        if b >= 1 and c <= 1 and j + p.q0 not in sup and j - p.q * p.q0 in plain:
            carry.add(j)
    return frozenset(plain), frozenset(carry)


@lru_cache(maxsize=None)
def _shift_values(name: str, s: int) -> frozenset[int]:
    if s == 1:
        # base level has index collisions; evaluate the uniform symbolic set
        p1 = ree_params(1)
        sym = _symbolic_set(_shift_values(name, 2))
        return frozenset(index_value(ix, p1) for ix in sym)
    p = ree_params(s)
    lim = p.q**2
    if name == "x":
        return frozenset({0, 1, p.q})
    fam = function_family(s)
    rule = fam.rules[name]
    out: set[int] = set()
    for _sign, cof, twist, base in rule.terms:
        e = 3**twist
        cof_sup = _member_values(cof, s)
        base_sup = _shift_values(base, s)
        deep = base in fam.rules and fam.rules[base].kind == "mixed" and all(
            t[1] != "x" for t in fam.rules[base].terms
        )
        if deep:
            plain, carry = _ladder_values(base, s)
            wings = (3 * p.q0, p.q + 3 * p.q0)
        else:
            plain = carry = frozenset()
            wings = ()
        for a in cof_sup:
            ea = e * a
            if ea > lim:
                continue
            for b in base_sup:
                if a - 1 in wings:
                    if b in plain or (a - 1 == wings[0] and b in carry):
                        continue
                elif a in wings and b - p.q0 in plain:
                    continue
                v = ea + b
                if v <= lim:
                    out.add(v)
    return frozenset(out)


def _symbolic_set(values) -> tuple[SymbolicIndex, ...]:
    p2 = ree_params(2)
    return tuple(symbolic_from_value(v, p2) for v in sorted(values))


def level_uniform(values2, values3, what: str) -> tuple[SymbolicIndex, ...]:
    """Decode a value set at s = 2 into symbolic indices, checked at s = 3.

    The indices, in ascending order of their s = 2 values, must value to
    the s = 3 set in ascending order; otherwise what is not level-uniform.
    """
    symbolic = _symbolic_set(values2)
    p3 = ree_params(3)
    if [index_value(ix, p3) for ix in symbolic] != sorted(values3):
        raise ArithmeticError(f"{what} is not level-uniform")
    return symbolic


@lru_cache(maxsize=None)
def _member_values(name: str, s: int) -> frozenset[int]:
    p = ree_params(s)
    lim = p.q**2
    if name == "one":
        return frozenset({0})
    if name == "x":
        return frozenset({0, 1})
    if s == 1:
        sym = _symbolic_set(_member_values(name, 2))
        return frozenset(index_value(ix, p) for ix in sym)
    sh = _shift_values(name, s)
    return frozenset(sh | {p.q * v for v in sh if p.q * v <= lim})


def support_values(name: str, p: ReeParams, kind: str = "member") -> frozenset[int]:
    """Numeric support set at one parameter level."""
    if kind == "member":
        return _member_values(name, p.s)
    if kind == "shift":
        return _shift_values(name, p.s)
    raise ValueError("kind must be 'member' or 'shift'")


@lru_cache(maxsize=None)
def member_support(name: str) -> tuple[SymbolicIndex, ...]:
    """Level-uniform symbolic support, validated at two reference levels."""
    return level_uniform(
        _member_values(name, 2), _member_values(name, 3), f"support of {name}"
    )


def family_candidate_values(p: ReeParams, names=FAMILY_NAMES) -> list[int]:
    """Union of the member supports, the candidate pool for order scans."""
    out: set[int] = set()
    for name in names:
        out |= _member_values(name, p.s)
    return sorted(out)


def order_values(p: ReeParams, series: str) -> list[int]:
    indices = D_ORDER_INDICES if series == "D" else E_ORDER_INDICES
    return [index_value(ix, p) for ix in indices]


def minimal_non_orders(series: str) -> tuple[SymbolicIndex, ...]:
    """Digitwise-minimal candidates that the scans must reject.

    For the full family these are the minimal elements of
    (S \\ I) ∩ [0, 2qq0+3q0+1]; for the subfamily, of S_w8 \\ I.
    Computed at s=2 and revalidated at s=3.
    """
    out = {}
    for s in (2, 3):
        p = ree_params(s)
        if series == "D":
            pool = set(family_candidate_values(p))
            bound = 2 * p.q * p.q0 + 3 * p.q0 + 1
            pool = {v for v in pool if v <= bound}
        else:
            pool = set(_member_values("w8", s))
        pool -= set(order_values(p, series))
        out[s] = minimal_elements(pool)
    return level_uniform(out[2], out[3], "minimal non-orders")


# ---------------------------------------------------------------------------
# appendix tables


def appendix_rows(kind: str) -> list[SymbolicIndex]:
    """Row index list of one appendix table, in canonical order.

    The mixed table only lists indices up to 2qq0+3q0+1, the upper end of
    the candidate window used in the order scans; the plain table runs all
    the way to q^2.
    """
    cols = PLAIN_COLUMNS if kind == "plain" else MIXED_COLUMNS
    union: set[SymbolicIndex] = set()
    for name in cols:
        union |= set(member_support(name))
    p2 = ree_params(2)
    if kind == "mixed":
        bound = 2 * p2.q * p2.q0 + 3 * p2.q0 + 1
        union = {ix for ix in union if index_value(ix, p2) <= bound}
    return sorted(union, key=lambda ix: index_value(ix, p2))


def appendix_table(kind: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of one appendix table; '*' marks i in S_f."""
    cols = PLAIN_COLUMNS if kind == "plain" else MIXED_COLUMNS
    header = ["i"] + list(cols)
    supports = {name: set(member_support(name)) for name in cols}
    rows = []
    for ix in appendix_rows(kind):
        row = [ix.label()]
        for name in cols:
            row.append("*" if ix in supports[name] else "")
        rows.append(row)
    return header, rows


def appendix_csv(kind: str) -> str:
    header, rows = appendix_table(kind)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# soundness against the exact calculus


def support_soundness(calc) -> tuple[int, list[tuple[str, int]]]:
    """Exact check that derivatives vanish off the claimed supports.

    Scans every index in [0, q^2] for every member; returns the number of
    zero checks performed and any violations found.
    """
    p = calc.p
    checked = 0
    violations = []
    for name in FAMILY_NAMES:
        claimed = support_values(name, p)
        table = calc.table(name)
        for i in range(p.q**2 + 1):
            if i in claimed:
                continue
            checked += 1
            if i in table and not table[i].is_zero():
                violations.append((name, i))
    return checked, violations
