"""Derivative supports of the spanning functions.

S_f is a set of indices guaranteed to contain every i in [0, q^2] with
D^i f nonzero.  The sets are assembled from the level-free q-power rules
ring.QPOWER_RULES:

    S(w^q - w) = union over rule terms of  e * S(cofactor) + S(base^q - base)
    S_w        = S(w^q - w)  union  q * S(w^q - w)

with e the twist exponent (q0 or 3q0), all sums and dilations truncated to
[0, q^2].  The generators are S(x^q - x) = {0, 1, q} and S_x = {0, 1}.
Every level, s = 1 included, computes its sets by these same rules.

Index sets are level-uniform: each is computed numerically at s = 2,
decoded into the symbolic index grammar, and rechecked at s = 3 and s = 4,
the first level of the stable regime (level_uniform).  The member
supports, the virtual supports of the identity catalog's shifted
products, the two appendix tables, the candidate sets for the order scans,
and the digitwise-minimal non-order sets are all derived here.
"""

from __future__ import annotations

from functools import lru_cache

from reecurve.hasse import binom_mod3
from reecurve.params import (
    Q2,
    ReeParams,
    SymbolicIndex,
    cube_count,
    index_value,
    ree_params,
    symbolic_from_value,
)
from reecurve.ring import FAMILY_NAMES, QPOWER_RULES, is_deep

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
    p = ree_params(s)
    lim = p.q**2
    if name == "x":
        return frozenset({0, 1, p.q})
    out: set[int] = set()
    for _sign, cof, tag, base in QPOWER_RULES[name]:
        e = 3 ** cube_count(tag, s)
        cof_sup = _member_values(cof, s)
        base_sup = _shift_values(base, s)
        if is_deep(base):
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


@lru_cache(maxsize=None)
def _member_values(name: str, s: int) -> frozenset[int]:
    p = ree_params(s)
    lim = p.q**2
    if name == "one":
        return frozenset({0})
    if name == "x":
        return frozenset({0, 1})
    sh = _shift_values(name, s)
    return frozenset(sh | {p.q * v for v in sh if p.q * v <= lim})


def level_uniform(values, what: str) -> tuple[SymbolicIndex, ...]:
    """Decode values(2), a value set at s = 2, into symbolic indices.

    The indices, in ascending order of their s = 2 values, must value to
    values(3) and values(4) in ascending order; otherwise what is not
    level-uniform.
    """
    p2 = ree_params(2)
    symbolic = tuple(symbolic_from_value(v, p2) for v in sorted(values(2)))
    for s in (3, 4):
        p = ree_params(s)
        if [index_value(ix, p) for ix in symbolic] != sorted(values(s)):
            raise ArithmeticError(f"{what} is not level-uniform")
    return symbolic


@lru_cache(maxsize=None)
def member_support(name: str) -> tuple[SymbolicIndex, ...]:
    """Level-uniform symbolic support of a member."""
    return level_uniform(lambda s: _member_values(name, s), f"support of {name}")


@lru_cache(maxsize=None)
def virtual_support(f: str, b: str) -> tuple[SymbolicIndex, ...]:
    """Level-uniform derivative support of the virtual t with t^q - t = f^q0 (b^q - b).

    Follows the recursion D^i t = -D^i h + (D^(i/q) t)^q with
    h = f^q0 (b^q - b): the q0-dilated support of f convolved with the
    shift support of b, closed under multiplication by q, capped at q^2.
    """

    def values(s: int) -> frozenset[int]:
        p = ree_params(s)
        lim = p.q**2
        bs = _shift_values(b, s)
        h = {p.q0 * a + j for a in _member_values(f, s) for j in bs if p.q0 * a + j <= lim}
        h.discard(0)
        out: set[int] = set()
        frontier = h
        while frontier:
            out |= frontier
            frontier = {p.q * v for v in frontier if p.q * v <= lim} - out
        return frozenset(out)

    return level_uniform(values, f"virtual support of ({f},{b})")


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
    Level-uniform, like the supports.
    """

    def values(s: int) -> list[int]:
        p = ree_params(s)
        if series == "D":
            bound = 2 * p.q * p.q0 + 3 * p.q0 + 1
            pool = {v for v in family_candidate_values(p) if v <= bound}
        else:
            pool = set(_member_values("w8", s))
        return minimal_elements(pool - set(order_values(p, series)))

    return level_uniform(values, "minimal non-orders")


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
        claimed = _member_values(name, p.s)
        table = calc.table(name)
        for i in range(p.q**2 + 1):
            if i in claimed:
                continue
            checked += 1
            if i in table and not table[i].is_zero():
                violations.append((name, i))
    return checked, violations
