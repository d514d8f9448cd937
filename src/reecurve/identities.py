"""Differential identity catalog and its verification on each route.

Each identity is written as text in the paper's notation, one residual
per text:

    Df[q0+1]    D^(q0+1) of the function bound to role f
    Sf[q]       D^q (f^q - f)
    Qb[qq0]     D^(qq0) of b^q
    L[3q0]      ell^(3q0), where ell = x^q - x
    X^q0        the Frobenius power X^(q0); likewise ^3q0, ^q and ^q2
    X Y         a product; + and - join a signed sum; (...) groups

Indices are written as str(SymbolicIndex) prints them (qq0+q+q0, 3q0+1,
0) and read by SymbolicIndex.parse, so one catalog serves every parameter
level.  A1, for example, reads

    L[q0] Df[q0+1] + L[2q0] Df[2q0+1] + L[3q0] Df[3q0+1] - Df[q] - L[1] Df[q+1]

An identity with several residuals separates them by ';', each opening
with its sublabel ("k=1: ...").  At import _parse reads each text into the
internal form, a tuple tree: leaves ("d" | "dshift" | "dqpow", role, idx)
and ("ell", idx), with ("pw", e, tag), ("mul", e...) and
("sum", (sign, e)...) above them.  A malformed text is a ValueError that
names its identity.

Roles: "f" is the function under test (or the
twisted cofactor for the two structured groups), "w" a function whose
q-shift is a twisted multiple of ell, "b" the base of a shifted product,
and "t" a virtual function defined only through t^q - t = f^q0 (b^q - b).
The type-1 bindings (w, f) and the type-2 bindings (f, b) are read off
the q-power rules ring.QPOWER_RULES (TYPE1_PAIRS, TYPE2_PAIRS), and the
derivative support of t is support.virtual_support.
Derivatives of t are obtained from the recursion
D^i t = (D^(i/q) t)^q - D^i(t^q - t), which never needs t itself for
i >= 1, so both routes can evaluate them without leaving the function
field.

A residual must evaluate to exactly zero: a series cut at the route's
window (hasse.Expansion.window), one ring element on the exact route,
field values at sampled points.  No tolerances exist in characteristic 3.

Each residual is evaluated from its tree at every instance.  Leaves, ell
powers and Frobenius powers are kept for one catalog run under keys that
name members and value indices at the route's level (_key), so each
distinct one is evaluated once.  On the sampled route the one expansion's
values hold every sample point as a lane, so each residual is evaluated
once for all points.  A failed instance's witness is its first lane in
seed order with a nonzero residual, at that lane's first nonzero
residual in sublabel order.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple, Optional

from reecurve.hasse import Expansion, route
from reecurve.params import SymbolicIndex, index_value, ree_params
from reecurve.ring import FAMILY_NAMES, QPOWER_RULES, is_deep, is_plain
from reecurve.support import member_support, virtual_support

__all__ = [
    "IdentitySpec",
    "CheckResult",
    "IDENTITY_CATALOG",
    "TYPE1_PAIRS",
    "TYPE2_PAIRS",
    "verify_catalog",
    "collision_reason",
]


# ---------------------------------------------------------------------------
# catalog


class IdentitySpec(NamedTuple):
    key: str
    group: str  # "base" | "rejection" | "type1" | "type2"
    description: str
    residuals: tuple[tuple[str, tuple], ...]  # (sublabel, expression)


# One token: a leaf D<role>[index], S<role>[index], Q<role>[index] or
# L[index]; a Frobenius tag; or one of ( ) + -.
_TOKEN = re.compile(r"\s*(?:([DSQ][a-z]|L)\[([^\]]*)\]|(\^(?:3q0|q0|q2|q)|[()+-]))")
_LEAVES = {"D": "d", "S": "dshift", "Q": "dqpow"}


def _tokens(text: str) -> list:
    """Leaves as tree nodes, everything else as its string."""
    out: list = []
    pos, text = 0, text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"unknown token at {text[pos:pos + 12]!r}")
        leaf, index, other = m.groups()
        if leaf == "L":
            out.append(("ell", SymbolicIndex.parse(index)))
        elif leaf:
            out.append((_LEAVES[leaf[0]], leaf[1], SymbolicIndex.parse(index)))
        else:
            out.append(other)
        pos = m.end()
    return out


def _read(text: str) -> tuple:
    """The expression tree of one residual text, by recursive descent.

    A sum is terms joined by + and -, a term is juxtaposed factors, and a
    factor is a leaf or a parenthesised sum, raised to any Frobenius tags
    that follow it.  A sum or product of one member is that member, so a
    parenthesised single term is the term itself.
    """
    toks = _tokens(text)[::-1]

    def peek():
        return toks[-1] if toks else None

    def total() -> tuple:
        terms = [(1, product())]
        while peek() in ("+", "-"):
            terms.append((1 if toks.pop() == "+" else -1, product()))
        return terms[0][1] if len(terms) == 1 else ("sum",) + tuple(terms)

    def product() -> tuple:
        factors = [factor()]
        while peek() == "(" or isinstance(peek(), tuple):
            factors.append(factor())
        return factors[0] if len(factors) == 1 else ("mul",) + tuple(factors)

    def factor() -> tuple:
        if not toks:
            raise ValueError("a term is missing at the end")
        tok = toks.pop()
        if tok == "(":
            node = total()
            if peek() != ")":
                raise ValueError("unbalanced '('")
            toks.pop()
        elif isinstance(tok, tuple):
            node = tok
        else:
            raise ValueError(f"a term is missing before {tok!r}")
        while isinstance(peek(), str) and peek()[0] == "^":
            node = ("pw", node, toks.pop()[1:])
        return node

    node = total()
    if toks:
        raise ValueError("unbalanced ')'")
    return node


def _parse(key: str, text: str) -> tuple:
    """Residual text to expression tree; a malformed text names its identity."""
    try:
        return _read(text)
    except ValueError as err:
        raise ValueError(f"identity {key}: {err} in {text.strip()!r}") from None


def _residuals(key: str, text: str) -> tuple[tuple[str, tuple], ...]:
    """Residuals separated by ';', each opening with 'sublabel:' when it has one."""
    out = []
    for part in text.split(";"):
        sub, _, body = part.rpartition(":")
        out.append((sub.strip(), _parse(key, body)))
    return tuple(out)


# (key, group, description, residual text)
_CATALOG_ROWS = (
    # -- the base relations every family member satisfies
    ("nu1", "base", "the q-shift of f is ell times the first derivative",
     "Sf[0] - L[1] Df[1]"),
    ("kq0-1", "base", "derivative at q0 folds into the next index",
     "Df[q0] + L[1] Df[q0+1]"),
    ("kq0-2", "base", "derivative at 2q0 folds into the next index",
     "Df[2q0] + L[1] Df[2q0+1]"),
    ("kq0-3", "base", "derivative at 3q0 folds into the next index",
     "Df[3q0] + L[1] Df[3q0+1]"),
    ("dq-shift", "base", "the q-th derivative of the q-shift",
     "Sf[q] - Df[1] - L[1] Df[q+1]"),
    # -- the ten level-q relations
    ("A1", "rejection", "three twisted low derivatives resolve D^q",
     "L[q0] Df[q0+1] + L[2q0] Df[2q0+1] + L[3q0] Df[3q0+1] - Df[q] - L[1] Df[q+1]"),
    ("A2", "rejection", "pairing of the q+2q0 and 2q0+1 indices",
     "L[q0] (Df[q+2q0] + Df[2q0+1]) - Df[q+q0] - Df[q0+1]"),
    ("A3", "rejection", "the four q-block derivatives sum to zero",
     "Df[q] + L[q0] Df[q+q0] + L[2q0] Df[q+2q0] + L[3q0] Df[q+3q0]"),
    ("A4", "rejection", "D^(2q+q0) reduces to two lower indices",
     "L[1] Df[2q+q0] - Df[q0+1] - Df[q+q0]"),
    ("A5", "rejection", "D^(3q) reduces to D^(2q) and D^(q+1)",
     "L[1] Df[3q] - Df[2q] - Df[q+1]"),
    ("A6", "rejection", "the qq0 pair against the twisted 2q0 pair",
     "L[1] Df[qq0+1] + Df[qq0] - L[q] (L[q0] Df[2q0+1] - Df[q0+1])"),
    ("A7", "rejection", "twisted difference at qq0+2q0 and qq0+q0",
     "L[2q0] Df[qq0+2q0] - L[q0] Df[qq0+q0] - L[q] (Df[q0+1] + Df[q+q0])"),
    ("A8", "rejection", "three twisted qq0 derivatives resolve D^(qq0+1)",
     "L[q0] Df[qq0+q0] + L[2q0] Df[qq0+2q0] + L[3q0] Df[qq0+3q0] - L[1] Df[qq0+1]"),
    ("A9", "rejection", "the qq0+q+q0 derivative against the Frobenius gap of ell",
     "L[q+q0+1] Df[qq0+q+q0] - (L[q] - L[1]) L[q0] Df[qq0+q0]"),
    ("A10", "rejection", "the qq0+2q derivative against the Frobenius gap of ell",
     "L[2q] (L[1] Df[qq0+2q] - Df[qq0+1]) - (L[q] - L[1]) (L[q] Df[qq0+q] + Df[qq0])"),
    # -- closed forms for w with w^q - w = f^(3q0) * ell
    ("t1d-3q0+1", "type1", "closed form at 3q0+1",
     "Dw[3q0+1] - Df[1]^3q0"),
    ("t1d-q", "type1", "closed form at q",
     "Dw[q] - Sf[0]^3q0 + L[1] Df[q0]^3q0"),
    ("t1d-q+1", "type1", "closed form at q+1",
     "Dw[q+1] - Df[q0]^3q0"),
    ("t1d-q+3q0", "type1", "closed form at q+3q0",
     "Dw[q+3q0] + Df[1]^3q0 + L[1] Df[q0+1]^3q0"),
    ("t1d-2q", "type1", "closed form at 2q",
     "Dw[2q] + Df[q0]^3q0 + L[1] Df[2q0]^3q0"),
    ("t1d-3q", "type1", "closed form at 3q",
     "Dw[3q] + Df[2q0]^3q0"),
    ("t1d-2q+1", "type1", "closed form at 2q+1",
     "Dw[2q+1] - Df[2q0]^3q0"),
    ("t1sum-2q+1", "type1", "the 2q+1, 2q, q+1 derivatives cancel",
     "L[1] Dw[2q+1] + Dw[2q] + Dw[q+1]"),
    ("t1sum-q+1", "type1", "the q+1 pair telescopes to the twisted 3q0+1 entry",
     "L[1] Dw[q+1] + Dw[q] - L[3q0] Dw[3q0+1]"),
    ("t1sum-q+3q0", "type1", "the twisted q+3q0 entry cancels D^q",
     "L[3q0] Dw[q+3q0] + Dw[q]"),
    ("t1sum-3q", "type1", "the 3q ladder closes over 2q and q+1",
     "L[1] Dw[3q] - Dw[2q] - Dw[q+1]"),
    # -- closed forms for virtual t with t^q - t = f^q0 (b^q - b)
    ("t2d-kq0+1", "type2", "shifted-product derivatives along the q0 ladder",
     "k=1: Dt[q0+1] - Df[0]^q0 Db[q0+1] - Df[1]^q0 Db[1]; "
     "k=2: Dt[2q0+1] - Df[0]^q0 Db[2q0+1] - Df[1]^q0 Db[q0+1]; "
     "k=3: Dt[3q0+1] - Df[0]^q0 Db[3q0+1] - Df[1]^q0 Db[2q0+1]"),
    ("t2d-q", "type2", "shifted-product derivative at q",
     "Dt[q] - Df[0]^q0 Db[q] - Df[1]^q0 L[q0] Qb[q] - Df[3q0+1]^q0 L[q0+1] Db[1]"),
    ("t2d-q+1", "type2", "shifted-product derivative at q+1",
     "Dt[q+1] - Df[0]^q0 Db[q+1] + Df[3q0+1]^q0 L[q0] Db[1]"),
    ("t2d-q+q0", "type2", "shifted-product derivative at q+q0",
     "Dt[q+q0] - Df[0]^q0 Db[q+q0] + Df[1]^q0 Sb[q] "
     "- Df[3q0+1]^q0 (L[q0+1] Db[q0+1] - L[1] Db[1])"),
    ("t2d-q+2q0", "type2", "shifted-product derivative at q+2q0",
     "Dt[q+2q0] - Df[0]^q0 Db[q+2q0] - Df[1]^q0 Db[q+q0] "
     "- Df[3q0+1]^q0 (L[q0+1] Db[2q0+1] - L[1] Db[q0+1])"),
    ("t2d-q+3q0", "type2", "shifted-product derivative at q+3q0",
     "Dt[q+3q0] - Df[0]^q0 Db[q+3q0] - Df[1]^q0 Db[q+2q0] + Df[3q0+1]^q0 L[1] Db[2q0+1]"),
    ("t2d-2q", "type2", "shifted-product derivative at 2q",
     "Dt[2q] - Df[0]^q0 Db[2q] - Df[3q0+1]^q0 L[q0] Sb[q]"),
    ("t2d-2q+q0", "type2", "shifted-product derivative at 2q+q0",
     "Dt[2q+q0] - Df[0]^q0 Db[2q+q0] - Df[1]^q0 Db[2q] "
     "+ Df[3q0+1]^q0 (L[q0] Db[q+q0] + Sb[q])"),
    ("t2d-3q", "type2", "shifted-product derivative at 3q",
     "Dt[3q] - Df[0]^q0 Db[3q] + Df[3q0+1]^q0 L[q0] Db[2q]"),
    ("t2d-qq0", "type2", "shifted-product derivative at qq0",
     "Dt[qq0] - Df[0]^q0 Db[qq0] - Df[1]^q0 L[q0] Qb[qq0] + Df[q]^q0 L[1] Db[1] "
     "+ Qf[q]^q0 L[q] Qb[q]"),
    ("t2d-qq0+1", "type2", "shifted-product derivative at qq0+1",
     "Dt[qq0+1] - Df[0]^q0 Db[qq0+1] - Df[q]^q0 Db[1]"),
    ("t2d-qq0+q0", "type2", "shifted-product derivative at qq0+q0",
     "Dt[qq0+q0] - Df[0]^q0 Db[qq0+q0] + Df[1]^q0 Sb[qq0] + Df[q]^q0 L[1] Db[q0+1] "
     "+ Df[q+1]^q0 L[1] Db[1]"),
    ("t2d-qq0+2q0", "type2", "shifted-product derivative at qq0+2q0",
     "Dt[qq0+2q0] - Df[0]^q0 Db[qq0+2q0] - Df[1]^q0 Db[qq0+q0] + Df[q]^q0 L[1] Db[2q0+1] "
     "+ Df[q+1]^q0 L[1] Db[q0+1]"),
    ("t2d-qq0+3q0", "type2", "shifted-product derivative at qq0+3q0",
     "Dt[qq0+3q0] - Df[0]^q0 Db[qq0+3q0] + Df[q+1]^q0 L[1] Db[2q0+1]"),
    ("t2d-qq0+q", "type2", "shifted-product derivative at qq0+q",
     "Dt[qq0+q] - Df[0]^q0 Db[qq0+q] - Df[1]^q0 L[q0] Qb[qq0+q] "
     "+ Df[3q0+1]^q0 L[q0] (Db[qq0] - Qb[qq0]) + Df[q]^q0 Sb[q] + Df[q+3q0]^q0 L[1] Db[1] "
     "- Qf[q]^q0 Qb[q]"),
    ("t2d-qq0+q+q0", "type2", "shifted-product derivative at qq0+q+q0",
     "Dt[qq0+q+q0] - Df[0]^q0 Db[qq0+q+q0] + Df[1]^q0 Sb[qq0+q] "
     "+ Df[3q0+1]^q0 (L[q0] Db[qq0+q0] + Sb[qq0]) - Df[q]^q0 Db[q+q0] + Df[q+1]^q0 Sb[q] "
     "- Df[q+3q0]^q0 Db[q0] + Df[q+3q0+1]^q0 L[1] Db[1]"),
    ("t2d-qq0+2q", "type2", "shifted-product derivative at qq0+2q",
     "Dt[qq0+2q] - Df[0]^q0 Db[qq0+2q] - Df[3q0+1]^q0 L[q0] Sb[qq0+q] + Df[q]^q0 Sb[2q] "
     "+ Df[q+3q0]^q0 Sb[q]"),
)

IDENTITY_CATALOG: tuple[IdentitySpec, ...] = tuple(
    IdentitySpec(key, group, description, _residuals(key, text))
    for key, group, description, text in _CATALOG_ROWS
)

# (member, cofactor) of each plain q-power rule, and the distinct
# (cofactor, base) of the deep ones, both in rule order
TYPE1_PAIRS: tuple[tuple[str, str], ...] = tuple(
    (name, rule[0][1]) for name, rule in QPOWER_RULES.items() if is_plain(name)
)
TYPE2_PAIRS: tuple[tuple[str, str], ...] = tuple(dict.fromkeys(
    (cof, base)
    for name, rule in QPOWER_RULES.items() if is_deep(name)
    for _sign, cof, _tag, base in rule
))


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
    sup = member_support(f) if b is None else virtual_support(f, b)
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


@lru_cache(maxsize=None)
def _valued_leaves(spec: IdentitySpec) -> tuple[tuple[str, str, int, int, bool], ...]:
    """The derivative leaves of an identity, indices valued once.

    One (op, role, value at s=1, value at s=2, whether the index is a
    symbolic multiple of q) per leaf, in the order collision_reason checks
    them; none of it depends on the instance.
    """
    p1, p2 = ree_params(1), ree_params(2)
    out = []
    stack = [expr for _sub, expr in spec.residuals]
    while stack:
        e = stack.pop()
        op = e[0]
        if op in ("d", "dshift", "dqpow"):
            ix = e[2]
            out.append((op, e[1], index_value(ix, p1), index_value(ix, p2), _sym_div_q(ix)))
        elif op == "pw":
            stack.append(e[1])
        elif op == "mul":
            stack.extend(e[1:])
        elif op == "sum":
            stack.extend(sub for _sign, sub in e[1:])
    return tuple(out)


def collision_reason(spec: IdentitySpec, roles: dict[str, str]) -> Optional[str]:
    """Why the instance is outside the asserted scope at s=1, or None."""
    q1, q2 = ree_params(1).q, ree_params(2).q

    def valued_of(role: str):
        if role == "t":
            return _valued_support(roles["f"], roles["b"])
        return _valued_support(roles[role])

    def label_of(role: str) -> str:
        if role == "t":
            return f"t({roles['f']},{roles['b']})"
        return roles[role]

    for op, role, v1, v2, div_q in _valued_leaves(spec):
        valued = valued_of(role)
        if op != "dqpow":
            r = _dirty_values(valued, v1, v2)
            if r:
                where = label_of(role)
                return f"{where}: {r}" if op == "d" else f"{where}^q-{where}: {r}"
        if op == "d":
            continue
        if div_q:
            r = _dirty_values(valued, v1 // q1, v2 // q2)
            if r:
                return f"{label_of(role)} under the q-power route: {r}"
        elif v1 and v1 % q1 == 0:
            return (
                f"{label_of(role)}: D^{v1} gains a q-power route "
                "that the formula does not name"
            )
    return None


# ---------------------------------------------------------------------------
# evaluation


# the expansion's read of each leaf kind, by the first entry of its memo key
_READS = {"d": "member_d", "t": "virtual_d", "dshift": "shift_d", "dqpow": "qpow_d",
          "ell": "ell_power"}


def _key(expr: tuple, roles: dict, K, memo: dict) -> Optional[tuple]:
    """The memo key of a leaf or of Frobenius powers of one, else None.

    A key names members and values indices at K's level, so equal terms
    share one key, and so do slots whose values collide at s=1.  Each
    index is valued once per run, kept in memo under its SymbolicIndex.
    """
    op = expr[0]
    if op == "pw":
        inner = _key(expr[1], roles, K, memo)
        return None if inner is None else ("pw", inner, expr[2])
    if op not in _READS:  # a product or sum
        return None
    ix = expr[-1]
    i = memo.get(ix)
    if i is None:
        i = memo[ix] = index_value(ix, K.p)
    if op == "ell":
        return ("ell", i)
    if op == "d" and expr[1] == "t":
        return ("t", roles["f"], roles["b"], i)
    return (op, roles[expr[1]], i)


def _evaluate(expr: tuple, roles: dict, K, memo: dict):
    """Value on K of a residual tree at one instance.

    Leaves, ell powers and Frobenius powers recur across residuals and
    instances, so they are kept in memo under their _key; products and
    sums are almost all distinct and are not.  Expansion operations never
    change their operands, so a kept value can be shared.
    """
    op = expr[0]
    if op == "mul":
        out = _evaluate(expr[1], roles, K, memo)
        for sub in expr[2:]:
            out = K.mul(out, _evaluate(sub, roles, K, memo))
        return out
    if op == "sum":
        out = {}
        for sign, sub in expr[1:]:
            out = K.add(out, _evaluate(sub, roles, K, memo), sign)
        return out
    key = _key(expr, roles, K, memo)
    val = memo.get(key)
    if val is None:
        if op == "pw":
            val = K.pow_tag(_evaluate(expr[1], roles, K, memo), expr[2])
        else:
            val = getattr(K, _READS[key[0]])(*key[1:])
        if key is not None:  # a power of a product or sum is not kept
            memo[key] = val
    return val


class CheckResult(NamedTuple):
    identity: str
    instance: str
    backend: str
    ok: bool
    points: int = 0
    witness: Optional[str] = None
    skipped: bool = False  # outside the asserted scope at this level


def _witness(spec: IdentitySpec, roles: dict, K, memo: dict) -> Optional[str]:
    """None when every residual of one instance vanishes on K, else a witness string.

    Each residual is evaluated once, for every lane.  The witness is the
    first lane's, in seed order, whose value of some residual is nonzero,
    at its first such residual in sublabel order.
    """
    values = [(sub, _evaluate(expr, roles, K, memo)) for sub, expr in spec.residuals]
    if all(K.is_zero(val) for _sub, val in values):
        return None
    for lane in range(K.lanes):
        for sublabel, val in values:
            text = K.describe(val, lane)
            if text is not None:
                where = f" [{sublabel}]" if sublabel else ""
                return f"{spec.key}{where}: {text}"
    return None


def _verdict(spec: IdentitySpec, roles: dict[str, str], K: Expansion, memo: dict) -> CheckResult:
    """One instance on the route's expansion, each residual evaluated once."""
    label = _instance_label(roles)
    if K.s == 1:
        reason = collision_reason(spec, roles)
        if reason is not None:
            return CheckResult(spec.key, label, K.kind, True, 0, reason, skipped=True)
    witness = _witness(spec, roles, K, memo)
    return CheckResult(spec.key, label, K.kind, witness is None, len(K.points), witness)


def verify_catalog(
    s: int,
    backend: str = "symbolic",
    keys: Optional[list[str]] = None,
    trials: int = 3,
    seed: int = 0,
) -> list[CheckResult]:
    """Every catalog identity over its full applicability set.

    The points route checks at `trials` rational points, seeds seed on,
    with the series window series.default_window(p).
    """
    specs = IDENTITY_CATALOG
    if keys is not None:
        wanted = set(keys)
        specs = [sp for sp in specs if sp.key in wanted]
        missing = wanted - {sp.key for sp in specs}
        if missing:
            raise KeyError(f"unknown identity keys: {sorted(missing)}")
    K = route(s, backend, trials, seed)
    memo: dict = {}  # for this call only
    return [
        _verdict(spec, roles, K, memo) for spec in specs for roles in instances_for(spec)
    ]
