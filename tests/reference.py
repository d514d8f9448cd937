"""Independent references that the tests compare the package against.

None of this runs in a command.  Each piece computes what the package
computes by another route, so that agreement is evidence:

* ``HasseReference.hasse_derivative`` assembles D^i f of any normal form
  monomial by monomial, from binomials in x and the derivatives of
  y^b z^c, with no recipe fold; ``element_table`` does the same for the
  whole table;
* ``RecipeFold`` builds the members' normal forms by folding the
  recipes in the ring, against which the expansion at the generic point
  is checked;
* ``evaluate`` reads a normal form at a point, for comparing exact
  derivatives with series coefficients, raising coordinates to powers by
  ``power``, the square and multiply that the package itself never needs;
* ``expected_pole_orders`` gives the family's pole orders in closed form;
* ``rule_residual`` checks each member's q-power rule in the ring;
* ``hyper_residuals`` and ``check_hypersurface`` state the hypersurface
  relations of the seven-function family on a backend;
* ``show`` prints a catalog expression tree in the catalog's text
  notation, the inverse of ``identities._parse``.
"""

from __future__ import annotations

from functools import lru_cache

from reecurve.backends import backends, sample_count
from reecurve.hasse import (
    HasseCalculus,
    binom_mod3,
    binom_support,
    hasse_calculus,
    ser_add,
    ser_mul,
)
from reecurve.identities import CheckResult
from reecurve.orders import symbolic_label
from reecurve.params import ReeParams, cube_count
from reecurve.ring import (
    QPOWER_RULES,
    RECIPES,
    SUBFAMILY_NAMES,
    CoordinateRing,
    CurveElement,
    coordinate_ring,
)

Table = dict[int, CurveElement]


def scale(v: CurveElement, c: int) -> CurveElement:
    """c v for c in GF(3)."""
    return (v.ring.zero(), v, -v)[c % 3]


def ell_of(ring: CoordinateRing) -> CurveElement:
    """x^q - x, the separating element."""
    return ring.monomial(ring.q, 0, 0) - ring.x()


# ---------------------------------------------------------------------------
# the members by their recipes


class RecipeFold:
    """The members' normal forms, folding RECIPES with ring products.

    Normal forms are built lazily along the recipes, so small-index members
    stay cheap at higher parameter levels.
    """

    def __init__(self, ring: CoordinateRing):
        self.ring = ring
        self._elems: dict[str, CurveElement] = {
            "one": ring.one(),
            "x": ring.x(),
            "y": ring.y(),
            "z": ring.z(),
        }

    def element(self, name: str) -> CurveElement:
        if name not in self._elems:
            s = self.ring.p.s
            for nm in RECIPES:  # each recipe only uses earlier names
                if nm in self._elems:
                    continue
                total = self.ring.zero()
                for sign, left, right, tag in RECIPES[nm]:
                    piece = self._elems[left] * self._elems[right].pow3k(
                        cube_count(tag, s)
                    )
                    total = total + (piece if sign == 1 else -piece)
                self._elems[nm] = total
                if nm == name:
                    break
        return self._elems[name]


@lru_cache(maxsize=None)
def recipe_fold(s: int) -> RecipeFold:
    return RecipeFold(coordinate_ring(s))


# ---------------------------------------------------------------------------
# Hasse derivatives monomial by monomial


class HasseReference:
    """D^i of arbitrary normal forms at one level, from the y and z tables.

    D^i (x^a y^b z^c) = sum_j C(a, i - j) x^(a - i + j) D^j (y^b z^c), and
    D^j (y^b z^c) is the convolution of the tables of y^b and z^c.  Each
    D^j (y^b z^c) is kept once computed; multiplying it by a power of x
    shifts the x-field of its packed keys, and the sum is reduced mod 3
    once at the end.
    """

    def __init__(self, calc: HasseCalculus):
        self.calc = calc
        self.ring = calc.ring
        self.prec = calc.prec
        self._ypow: dict[int, Table] = {}
        self._zpow: dict[int, Table] = {}
        self._xpow: dict[int, Table] = {}
        self._yz: dict[tuple[int, int, int], dict[int, int]] = {}

    def _x_power_table(self, n: int) -> Table:
        if n not in self._xpow:
            ring = self.ring
            tbl: Table = {}
            for k in binom_support(n):
                tbl[k] = ring.monomial(n - k, 0, 0, binom_mod3(n, k))
            self._xpow[n] = tbl
        return self._xpow[n]

    def _y_power(self, b: int) -> Table:
        if b not in self._ypow:
            if b == 0:
                self._ypow[b] = {0: self.ring.one()}
            else:
                self._ypow[b] = ser_mul(self._y_power(b - 1), self.calc.table("y"), self.prec)
        return self._ypow[b]

    def _z_power(self, c: int) -> Table:
        if c not in self._zpow:
            if c == 0:
                self._zpow[c] = {0: self.ring.one()}
            else:
                self._zpow[c] = ser_mul(self._z_power(c - 1), self.calc.table("z"), self.prec)
        return self._zpow[c]

    def _yz_derivative(self, b: int, c: int, j: int) -> dict[int, int]:
        """Packed terms of D^j (y^b z^c)."""
        key = (b, c, j)
        if key not in self._yz:
            yb, zc = self._y_power(b), self._z_power(c)
            total = self.ring.zero()
            for i2, cy in yb.items():
                cz = zc.get(j - i2)
                if cz is not None:
                    total = total + cy * cz
            self._yz[key] = total.packed
        return self._yz[key]

    def hasse_derivative(self, f: CurveElement, i: int) -> CurveElement:
        """D^i f for an arbitrary normal form, assembled monomial by monomial."""
        if not 0 <= i < self.prec:
            raise ValueError("derivative index out of range")
        ring = self.ring
        x_shift = 2 * ring.width
        raw: dict[int, int] = {}
        get = raw.get
        for (a, b, c), coeff in f.terms.items():
            for i1 in binom_support(a):
                if i1 > i:
                    break
                cb = coeff * binom_mod3(a, i1)
                xk = (a - i1) << x_shift
                for k, v in self._yz_derivative(b, c, i - i1).items():
                    k += xk
                    raw[k] = get(k, 0) + cb * v
        return CurveElement(ring, {k: v % 3 for k, v in raw.items() if v % 3})

    def element_table(self, f: CurveElement) -> Table:
        """Full derivative table of an arbitrary normal form."""
        out: Table = {}
        for (a, b, c), coeff in f.terms.items():
            part = ser_mul(self._x_power_table(a), self._y_power(b), self.prec)
            part = ser_mul(part, self._z_power(c), self.prec)
            if coeff != 1:
                part = {i: scale(v, coeff) for i, v in part.items()}
            out = ser_add(out, part)
        return out


@lru_cache(maxsize=None)
def hasse_reference(s: int) -> HasseReference:
    return HasseReference(hasse_calculus(s))


# ---------------------------------------------------------------------------
# values at points


def power(a, n: int):
    """a^n for n >= 1 by square and multiply, for ring and field elements."""
    if n < 1:
        raise ValueError("power needs an exponent n >= 1")
    result = None
    while True:
        if n & 1:
            result = a if result is None else result * a
        n >>= 1
        if not n:
            return result
        a = a * a


def evaluate(f: CurveElement, vx, vy, vz):
    """Value of a normal form at a point with coordinates in some GF(3^m) context."""
    ctx = vx.ctx
    pw: dict[tuple[int, int], object] = {}

    def cached(base_tag, base, e):
        key = (base_tag, e)
        if key not in pw:
            pw[key] = power(base, e)
        return pw[key]

    total = ctx.zero()
    for (a, b, c), v in f.terms.items():
        term = ctx.from_code(v)
        if a:
            term = term * cached(0, vx, a)
        if b:
            term = term * cached(1, vy, b)
        if c:
            term = term * cached(2, vz, c)
        total = total + term
    return total


# ---------------------------------------------------------------------------
# pole orders and q-power rules


def expected_pole_orders(p: ReeParams) -> dict[str, int]:
    """Closed forms for the family's pole orders at infinity."""
    q, q0 = p.q, p.q0
    qq = q * q
    return {
        "one": 0,
        "x": qq,
        "y": qq + q * q0,
        "z": qq + 2 * q * q0,
        "w1": qq + 3 * q * q0,
        "w2": qq + 3 * q * q0 + q,
        "w3": qq + 3 * q * q0 + 2 * q,
        "w4": qq + 2 * q * q0 + q,
        "w5": qq + 3 * q * q0 + q + q0,
        "w6": qq + 3 * q * q0 + 2 * q + 3 * q0,
        "w7": qq + 2 * q * q0 + q + q0,
        "w8": p.m_value,
        "w9": qq + 3 * q * q0 + 2 * q + q0,
        "w10": qq + 3 * q * q0 + 2 * q + 2 * q0,
    }


def q_shift(s: int, name: str) -> CurveElement:
    """w^q - w assembled from the rule (not by direct q-th powering)."""
    fold = recipe_fold(s)
    if name == "x":
        return ell_of(fold.ring)
    total = fold.ring.zero()
    for sign, cof, tag, base in QPOWER_RULES[name]:
        piece = fold.element(cof).pow3k(cube_count(tag, s)) * q_shift(s, base)
        total = total + (piece if sign == 1 else -piece)
    return total


def rule_residual(s: int, name: str) -> CurveElement:
    """Exact check of the q-power rule: (w^q - w) - rule expansion."""
    w = recipe_fold(s).element(name)
    return (w.qpow() - w) - q_shift(s, name)


# ---------------------------------------------------------------------------
# the hypersurface relations


def hyper_residuals(K):
    """The four grouped pair identities plus the direct full sum."""
    ell, ellq = K.ell_power(1), K.pow_tag(K.ell_power(1), "q")

    def m(name):
        return K.member(name)

    def q2(name):
        return K.pow_tag(K.member(name), "q2")

    def tw(name):  # f^(3q0)
        return K.pow_tag(K.member(name), "3q0")

    def twq(name):  # (f^(3q0))^q
        return K.pow_tag(tw(name), "q")

    out = []
    lhs = K.add(q2("w8"), m("w8"))
    rhs = K.add(
        K.add(K.mul(twq("w7"), ellq), K.mul(tw("w7"), ell)), m("w8"), -1
    )
    out.append(("pair-w8", K.add(lhs, rhs, -1)))

    lhs = K.add(K.mul(m("x"), q2("w6")), K.mul(q2("x"), m("w6")))
    rhs = K.add(
        K.add(
            K.mul(K.add(K.mul(twq("w4"), m("x")), m("w6")), ellq),
            K.mul(K.add(K.mul(tw("w4"), m("x")), m("w6")), ell),
        ),
        K.mul(m("x"), m("w6")),
        -1,
    )
    out.append(("pair-xw6", K.add(lhs, rhs, -1)))

    lhs = K.add(K.mul(m("w1"), q2("w3")), K.mul(q2("w1"), m("w3")))
    rhs = K.add(
        K.add(
            K.mul(K.add(K.mul(twq("z"), m("w1")), K.mul(twq("x"), m("w3"))), ellq),
            K.mul(K.add(K.mul(tw("z"), m("w1")), K.mul(tw("x"), m("w3"))), ell),
        ),
        K.mul(m("w1"), m("w3")),
        -1,
    )
    out.append(("pair-w1w3", K.add(lhs, rhs, -1)))

    lhs = K.mul(q2("w2"), m("w2"))
    rhs = K.add(
        K.add(
            K.mul(K.mul(twq("y"), m("w2")), ellq),
            K.mul(K.mul(tw("y"), m("w2")), ell),
        ),
        K.mul(m("w2"), m("w2")),
    )
    out.append(("pair-w2", K.add(lhs, rhs, -1)))

    total = K.zero()
    names = SUBFAMILY_NAMES
    for i, name in enumerate(names):
        total = K.add(total, K.mul(q2(name), K.member(names[6 - i])))
    out.append(("sum", total))
    return out


def check_hypersurface(
    s: int,
    backend: str = "symbolic",
    trials: int = 3,
    seed: int = 0,
) -> list[CheckResult]:
    Ks = backends(s, backend, trials, seed)
    results: dict[str, CheckResult] = {}
    for K in Ks:
        for label, v in hyper_residuals(K):
            ok = K.is_zero(v)
            prev = results.get(label)
            if prev is None or (prev.ok and not ok):
                results[label] = CheckResult(
                    "hypersurface", label, K.kind, ok, sample_count(Ks),
                    None if ok else K.describe(v),
                )
    return list(results.values())


# ---------------------------------------------------------------------------
# the catalog notation

_LEAF_LETTERS = {"d": "D", "dshift": "S", "dqpow": "Q"}


def show(expr: tuple) -> str:
    """An expression tree of the identity catalog, written as catalog text.

    A sum is parenthesised inside a product or a sum, a product or sum
    under a Frobenius tag; nothing else is, so parsing the text gives the
    tree back.
    """
    op = expr[0]
    if op in _LEAF_LETTERS:
        return f"{_LEAF_LETTERS[op]}{expr[1]}[{symbolic_label(expr[2])}]"
    if op == "ell":
        return f"L[{symbolic_label(expr[1])}]"
    if op == "pw":
        return f"{_grouped(expr[1], ('mul', 'sum'))}^{expr[2]}"
    if op == "mul":
        return " ".join(_grouped(sub, ("sum",)) for sub in expr[1:])
    assert op == "sum", op
    text = ""
    for sign, sub in expr[1:]:
        if text or sign < 0:
            text += " - " if sign < 0 else " + "
        text += _grouped(sub, ("sum",))
    return text.strip()


def _grouped(expr: tuple, ops: tuple[str, ...]) -> str:
    return f"({show(expr)})" if expr[0] in ops else show(expr)
