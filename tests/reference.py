"""Independent references that the tests compare the package against.

None of this runs in a command.  Each piece but the last computes what
the package computes by another route, so that agreement is evidence:

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
  notation, the inverse of ``identities._parse``;
* ``seeded_scan`` and ``morphism_scan`` find the Frobenius orders and
  their part below q by rank scans, where the package reads them off the
  order echelons: the greedy scan seeded with the row (f^q)_f over the
  full pool, and the scan below q of the morphism (f^q - f)_f over the
  members other than ``one``;
* the proof pieces, steps of the paper's proof that no command runs:
  ``proof_matrix``, ``triangular_check``, ``padic_closure_check``,
  ``binom_support``, ``rejection_witnesses``, ``rejection_report``,
  ``pole_order``, ``support_soundness`` and the ``osculating_`` pair.
"""

from __future__ import annotations

from functools import lru_cache

from reecurve.gf import frobenius_power
from reecurve.hasse import (
    HasseCalculus, binom_mod3, hasse_calculus, route, ser_add, ser_mul, ser_pow3k,
)
from reecurve.identities import CheckResult, verify_catalog
from reecurve.orders import _echelons, order_sequence
from reecurve.params import (
    SAMPLE_EXTENSION, ReeParams, SymbolicIndex, cube_count, index_value, indices,
    ree_params,
)
from reecurve.ring import (
    FAMILY_NAMES, PAIRING, QPOWER_RULES, RECIPES, SUBFAMILY_NAMES, CoordinateRing,
    CurveElement, Monomial, coordinate_ring,
)
from reecurve.series import CurvePoint, PointExpansion
from reecurve.support import _member_values, minimal_non_orders, order_values

Table = dict[int, CurveElement]


def scale(v: CurveElement, c: int) -> CurveElement:
    """c v for c in GF(3)."""
    return (v.ring.zero(), v, -v)[c % 3]


def ell_of(ring: CoordinateRing) -> CurveElement:
    """x^q - x, the separating element."""
    return ring.monomial(ring.q, 0, 0) - ring.x()


@lru_cache(maxsize=None)
def binom_support(n: int) -> tuple[int, ...]:
    """All k with C(n, k) nonzero mod 3, ascending."""
    digits = []
    m = n
    while m:
        digits.append(m % 3)
        m //= 3
    supp = [0]
    place = 1
    for d in digits:
        supp = [k + j * place for k in supp for j in range(d + 1)]
        place *= 3
    return tuple(sorted(supp))


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
    return (w.pow3k(2 * s + 1) - w) - q_shift(s, name)


# ---------------------------------------------------------------------------
# the hypersurface relations


def hyper_residuals(K):
    """The four grouped pair identities plus the direct full sum."""
    ell, ellq = K.ell_power(1), K.pow_tag(K.ell_power(1), "q")

    def m(name):
        return K.member_d(name, 0)

    def q2(name):
        return K.pow_tag(K.member_d(name, 0), "q2")

    def tw(name):  # f^(3q0)
        return K.pow_tag(K.member_d(name, 0), "3q0")

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

    total = {}
    names = SUBFAMILY_NAMES
    for i, name in enumerate(names):
        total = K.add(total, K.mul(q2(name), K.member_d(names[6 - i], 0)))
    out.append(("sum", total))
    return out


def check_hypersurface(
    s: int,
    backend: str = "symbolic",
    trials: int = 3,
    seed: int = 0,
) -> list[CheckResult]:
    """Each hypersurface residual on the route's backend.

    A failing residual's witness names the first lane, in seed order,
    where it is nonzero.
    """
    K = route(s, backend, trials, seed)
    results = []
    for label, v in hyper_residuals(K):
        ok = K.is_zero(v)
        witness = None
        if not ok:
            lane = next(j for j in range(K.lanes) if K.describe(v, j) is not None)
            witness = f"lane {lane}: {K.describe(v, lane)}"
        results.append(
            CheckResult("hypersurface", label, K.kind, ok, len(K.points), witness))
    return results


# ---------------------------------------------------------------------------
# the Frobenius orders by scans


def _greedy(K, names, row, pool, seed=None, want=None) -> tuple[int, ...]:
    """The i of pool whose row (row(f, i))_f grows the rank in some lane.

    One echelon per lane, first given the seed row when there is one; no
    closure, no closing, stopping after want acceptances.
    """
    echelons = _echelons(K, len(names))

    def lanes(row):
        return zip(*map(K.split, row))

    if seed is not None:
        for ech, vals in zip(echelons, lanes([seed(f) for f in names])):
            ech.insert(vals)
    found = []
    for i in sorted(pool):
        grew = [ech.insert(vals) is not None
                for ech, vals in zip(echelons, lanes([row(f, i) for f in names]))]
        if any(grew):
            found.append(i)
            if len(found) == want:
                break
    return tuple(found)


def seeded_scan(K, names, pool) -> tuple[int, ...]:
    """The Frobenius orders: the scan seeded with (f^q)_f, n - 1 acceptances."""
    return _greedy(K, names, K.coefficient, pool, seed=K.qpow_value, want=len(names) - 1)


def morphism_scan(K, names, pool) -> tuple[int, ...]:
    """Orders below q of the morphism (f^q - f)_f, the member ``one`` dropped.

    Its row at i is D^i (f^q - f), the i-th coefficient of the expansion's
    shift series; the constant member is left out by name, wherever it sits.
    """
    members = [f for f in names if f != "one"]
    below = [i for i in pool if i < ree_params(K.s).q]
    return _greedy(K, members, lambda f, i: K.shift_series(f).get(i, K.zero), below)


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
        return f"{_LEAF_LETTERS[op]}{expr[1]}[{expr[2]}]"
    if op == "ell":
        return f"L[{expr[1]}]"
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


# ---------------------------------------------------------------------------
# pole orders at the common pole


def _term_pole(p: ReeParams, mono: Monomial) -> int:
    a, b, c = mono
    q, q0 = p.q, p.q0
    return a * q * q + b * (q * q + q * q0) + c * (q * q + 2 * q * q0)


def pole_order(f: CurveElement, depth: int = 8) -> int:
    """Exact pole order at the point at infinity (0 for nonzero constants).

    For a normal form whose largest monomial bound is attained once, the
    bound is exact.  Ties are resolved through f^q - f, whose pole order is
    q times larger and generically untied; the recursion is depth-capped.
    """
    if f.is_zero():
        raise ValueError("zero element has no pole order")
    p = f.ring.p
    best = -1
    count = 0
    for mono in f.terms:
        t = _term_pole(p, mono)
        if t > best:
            best, count = t, 1
        elif t == best:
            count += 1
    if best == 0:
        return 0
    if count == 1:
        return best
    if depth == 0:
        raise ArithmeticError("pole order tie not resolved within depth cap")
    g = f.pow3k(2 * p.s + 1) - f
    if g.is_zero():
        # f is fixed by Frobenius, hence a constant of GF(q); but best > 0
        # means a nonconstant normal form, which cannot happen
        raise ArithmeticError("nonconstant element fixed by q-power map")
    sub = pole_order(g, depth - 1)
    if sub % p.q:
        raise ArithmeticError("recursive pole order not divisible by q")
    return sub // p.q


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


# ---------------------------------------------------------------------------
# osculating family


def osculating_functions(P: CurvePoint):
    """Series at P of g_P and h_P built from the seven-function family.

    g_P fixes the first slot of the two-point pairing at P and is a
    member of the small linear series; h_P fixes the second slot and is
    an exact q^2-th power.  Both vanish at P to order at least q^2; the
    series are exact on exponents up to q^2.
    """
    depth = P.params.q**2 + 1
    exp = PointExpansion(P, depth)
    e2 = 2 * (2 * P.s + 1)
    members = {name: exp.series(name) for name in SUBFAMILY_NAMES}
    values = {name: ser.get(0, P.ctx.zero()) for name, ser in members.items()}
    g: dict = {}
    h: dict = {}
    for name, ser in members.items():
        partner = PAIRING[name]
        cg = frobenius_power(values[name], e2)
        g = ser_add(g, {e: cg * c for e, c in members[partner].items()}, 1)
        fq2 = ser_pow3k(ser, cube_count("q2", P.s), depth)
        cv = values[partner]
        h = ser_add(h, {e: cv * c for e, c in fq2.items()}, 1)
    g = {e: c for e, c in g.items() if not c.is_zero()}
    h = {e: c for e, c in h.items() if not c.is_zero()}
    return g, h


def osculating_vanishing(P: CurvePoint) -> int:
    """t-adic vanishing order of g_P at P (q^2 + 1 when it is zero to that order)."""
    g, _ = osculating_functions(P)
    return min(g) if g else P.params.q**2 + 1


# ---------------------------------------------------------------------------
# triangular proof matrices

D_PROOF_ROWS = indices(
    "0 1 q0+1 2q0+1 3q0+1 q+3q0+1 2q+3q0+1 qq0+2q+q0 qq0+q+2q0+1 qq0+2q+3q0 "
    "qq0+3q+3q0 2qq0+3q0+1"
)
D_PROOF_COLS = ("one", "x", "y", "z", "w1", "w2", "w3", "w4", "w7", "w5", "w9", "w10")

E_PROOF_ROWS = indices("0 1 3q0+1 q+3q0+1 2q+3q0+1")
E_PROOF_COLS = ("one", "x", "w1", "w2", "w3")


def proof_matrix(which: str, p: ReeParams) -> tuple[list[int], tuple[str, ...]]:
    """Numeric row indices and column names of one proof matrix."""
    if which == "D":
        return [index_value(ix, p) for ix in D_PROOF_ROWS], D_PROOF_COLS
    if which == "E":
        return [index_value(ix, p) for ix in E_PROOF_ROWS], E_PROOF_COLS
    raise ValueError(f"unknown matrix {which!r}")


def triangular_check(
    rows,
    cols,
    s: int = 1,
    backend: str = "symbolic",
    trials: int = 3,
    seed: int = 0,
):
    """Assert the matrix [D^rows[i] cols[j]] is upper triangular.

    Returns the diagonal: ring elements for the symbolic backend, one list
    of field values per sample point (per lane) otherwise.  Point checks
    certify the diagonal exactly but can only sample the below-diagonal
    vanishing.
    """
    if len(rows) != len(cols):
        raise ValueError("rows and cols must have equal length")
    K = route(s, backend, trials, seed, SAMPLE_EXTENSION)
    n = len(rows)
    entries = [[K.coefficient(f, i) for f in cols] for i in rows]
    for i in range(n):
        for j in range(i):
            # zero in every lane
            if not entries[i][j].is_zero():
                raise ArithmeticError(
                    f"not triangular: D^{rows[i]} {cols[j]} is nonzero"
                )
    diag = [list(d) for d in zip(*(K.split(entries[i][i]) for i in range(n)))]
    return diag[0] if backend == "symbolic" else diag


# ---------------------------------------------------------------------------
# closure and rejection bookkeeping


def padic_closure_check(orders) -> list[tuple[int, int]]:
    """Digitwise downward-closure violations; empty means closed.

    The mu <=3 e digitwise in base 3 are the k with C(e, k) nonzero mod 3
    (Lucas), so binom_support(e) lists them.
    """
    have = set(orders)
    bad = []
    for e in sorted(have):
        for mu in binom_support(e):
            if mu not in have:
                bad.append((mu, e))
    return sorted(set(bad))


# Minimal non-orders and how the proofs reject each one, as entries "index
# key": the key names the identity catalog entry whose vanishing statement
# kills the index, or is "counting" where the rejection follows from the
# closure property plus the count of orders already certified below the bound.
_D_REJECTIONS = (
    "q0+1 kq0-1, 3q0+1 kq0-3, q+1 A1, q+2q0 A2, q+3q0 A3, 2q+q0 A4, 3q A5, "
    "qq0+1 A6, qq0+2q0 A7, qq0+3q0 A8, qq0+q+q0 A9, qq0+2q A10, 2qq0+q0 counting"
)
_E_REJECTIONS = (
    "3q0+1 kq0-3, q+1 t1sum-q+1, q+3q0 t1sum-q+3q0, 3q t1sum-3q, "
    "3qq0+1 counting, 3qq0+3q0 counting, 3qq0+q counting, 6qq0 counting"
)


def rejection_witnesses(series: str = "D") -> dict[SymbolicIndex, str]:
    table = _D_REJECTIONS if series == "D" else _E_REJECTIONS
    pairs = map(str.split, table.split(", "))
    return {SymbolicIndex.parse(ix): key for ix, key in pairs}


def rejection_report(
    series: str = "D",
    s: int = 1,
    backend: str = "symbolic",
    trials: int = 3,
    seed: int = 0,
) -> list[dict]:
    """Cross-check the scan's rejections against the proof witnesses.

    For every minimal non-order: confirm the scan rejected it, and when a
    differential identity is the stated reason, confirm that identity holds
    on the same backend (skipped base-level collision instances count as
    non-failures; they are vacuous there, not refuted).
    """
    p = ree_params(s)
    scan = set(order_sequence(series, s, backend, trials, seed).orders)
    witnesses = rejection_witnesses(series)
    if set(witnesses) != set(minimal_non_orders(series)):
        raise ArithmeticError("rejection table drifted from the minimal non-orders")
    keys = sorted({key for key in witnesses.values() if key != "counting"})
    results = verify_catalog(s=s, backend=backend, keys=keys, trials=trials, seed=seed)
    key_ok = {}
    for key in keys:
        rows = [r for r in results if r.identity == key]
        key_ok[key] = bool(rows) and all(r.ok for r in rows)
    theory = set(order_values(p, series))
    report = []
    for ix, key in sorted(witnesses.items(), key=lambda kv: index_value(kv[0], p)):
        value = index_value(ix, p)
        row = {
            "index": value,
            "label": str(ix),
            "witness": key,
            "scan_rejected": value not in scan,
            # at s=1 a non-order index can share its value with an order
            # (3q = qq0); the scan then accepts the value, not the index
            "base_collision": value in theory,
            "identity_ok": key_ok.get(key) if key != "counting" else None,
        }
        report.append(row)
    return report
