"""Order sequences of the two linear series by greedy rank growth.

An index i is an order of a function family exactly when the derivative row
(D^i f)_f increases the rank of the rows selected at smaller indices; scanning
candidates in increasing order therefore reproduces the lexicographically
minimal order sequence (the Stöhr-Voloch method).  The candidates are the
exponents at which some member's series is nonzero: a zero row never grows
the rank.  The Frobenius orders are read off the echelons that scan fills
(the Frobenius pool rule below), and the vanishing profile at a point
(weierstrass.vanishing_orders) is the same scan on that point's rows.
Rows are the coefficients of the route's one expansion (hasse.route,
shared with the identity checks):

* symbolic (any s): fraction-free cross-multiplication elimination over the
  coordinate ring, exact; the pivot column of a reduced row is zero by
  construction and is set, never computed, and no product with a zero
  operand is formed;
* points (any s): Gaussian elimination over the residue field of sampled
  points on packed residues, only over the nonzero entries of stored rows,
  one echelon per sample point: lane j of each row (gf.Lanes) goes to
  echelon j, and a row is independent when it grows the rank at any
  sample.
  Rank at a point never exceeds the generic rank, so the scan is biased
  towards rejection and never invents an order; under-selection is guarded
  by seed-stability checks in the test suite.

The exact order scan skips the rank work the theory already settles, by
two rules that leave every result unchanged:

* closure: by the p-adic criterion (Stöhr-Voloch, Proc. LMS 52, 1986,
  Cor. 1.9) every mu <=3 eps (digitwise in base 3) of an order eps is an
  order, so the scan skips i unless each i - 3^k, for each nonzero
  base-3 digit k of i, is already accepted; a skipped i would be
  rejected, and a rejected insert never changes an echelon's state, so
  every accepted index and pivot stays the same;
* closing: once the echelon holds n - 1 rows, n the family's size, the
  scan builds the pairing row c (ring.PAIRING): c[f_(6-i)] = f_i^(q^2)
  over the seven-function family, zero elsewhere, the coefficients of the
  paper's hyperplane osculating at the generic point (for D and E, c
  annihilates the row of every order below the last, q^2, and not the
  last; Stöhr-Voloch for the link between osculation and rank).  When c
  is nonzero and every stored row has dot product zero with it, checked
  exactly, the n - 1 independent rows have a kernel of dimension one,
  spanned by c, so a row lies in their span exactly when its dot product
  with c is zero: each later candidate is one dot product, not a
  reduction through n - 1 rows.  The first that is not zero is the last
  order; its reduced row would be zero at every stored pivot, so its
  pivot is the one column no stored row has.  That row is not stored:
  the echelon is marked full, and a row that survives every stored row
  lies in the span of all n.  A family whose row fails the check keeps
  the reduction; the check alone decides, so the rule holds for any
  family.

The Frobenius orders run no scan on either route, by two more rules:

* Frobenius pool: with V_i the span of the rows D^j f, j <= i, and W_i
  the span of (f^q)_f and the rows the scan seeded with (f^q)_f accepts up
  to i, W_i contains V_i by induction, so that scan rejects every
  non-order and one order (Stöhr-Voloch Prop. 2.1: the Frobenius orders
  are the orders with one left out): eps_j for the least j with (f^q)_f in
  the span of the rows of eps_0..eps_j.  An echelon stores those rows in
  that order, each zero at the pivots of the rows before it, so reducing
  (f^q)_f by rows 0..j leaves a remainder zero at their pivots; a nonzero
  combination of the rows is nonzero at the pivot of its first row, so the
  remainder is zero exactly when (f^q)_f lies in their span (spanned_at).
  So each lane omits one of its orders, and the seeded scan, which accepts
  i when any lane's rank grows, takes the first n - 1 of the union of the
  lanes' orders less the ones they omit, once every lane reached rank n
  (at points with x not in GF(q) the paper's theorem says each does; a
  lane that did not is reported).  The exact route has one lane;
* below q: below_q, the orders below q of the morphism (f^q - f)_f over
  the members other than the constant `one`, is nus below q.  For
  0 < i < q, D^i (f^q) = 0, so the morphism's row at i is -(D^i f)_f.  Its
  row at 0 and every order row past 0 are zero in the `one` column, which
  the morphism leaves out, and (f)_f and (f^q)_f hold 1 there; so for R
  the rows accepted in (0, i), a row zero there lies in span((f^q)_f,
  (f)_f, R) exactly when it lies in span((f^q - f)_f, R) (in
  r = a f^q + b f + ..., a + b = 0).  Lane by lane, the two scans accept
  the same i in (0, q), and both accept 0, as x^q != x.

The criterion is about generic orders, so vanishing profiles at a point
are offered every candidate, and so is the sampled route, which stays an
independent check on the exact one.  The order scan runs once per family,
level and route in a process (_order_scan), and the Frobenius orders name
their omitted order against that route's own order sequence.

Sample points live in the degree-6 extension (params.SAMPLE_EXTENSION),
the smallest that holds non-rational points; at rational points the scan
would return the rational vanishing profile instead of the generic orders.
Rows independent at a point are independent generically, so a sampled
scan proves upper bounds on the generic orders only; the series module
docstring says what the sampled points cover.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .hasse import route
from .params import SAMPLE_EXTENSION, ReeParams, cube_count, ree_params
from .ring import FAMILY_NAMES, PAIRING, SUBFAMILY_NAMES, CurveElement
from .support import order_values

if TYPE_CHECKING:
    from .gf import FieldContext

__all__ = [
    "OrderSequence",
    "FrobeniusOrders",
    "order_sequence",
    "frobenius_orders",
]

def _family_names(series) -> tuple[str, ...]:
    if series == "D":
        return FAMILY_NAMES
    if series == "E":
        return SUBFAMILY_NAMES
    if isinstance(series, (tuple, list)):
        if not series:
            raise ValueError(f"empty family {series!r}: a series needs a member")
        if all(f in FAMILY_NAMES for f in series):
            return tuple(series)
    raise ValueError(f"unknown series {series!r}")


def _order_labels(series, p: ReeParams, orders: tuple[int, ...]) -> tuple[str, ...]:
    """Label scan output against the theory list where it matches."""
    from .support import D_ORDER_INDICES, E_ORDER_INDICES

    if series not in ("D", "E"):
        return tuple(str(v) for v in orders)
    table = D_ORDER_INDICES if series == "D" else E_ORDER_INDICES
    if list(orders) == order_values(p, series):
        return tuple(map(str, table))
    return tuple(str(v) for v in orders)


# ---------------------------------------------------------------------------
# results


class OrderSequence(
    namedtuple("OrderSequence", "series s orders labels backend points witness")
):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if list(self.orders) != sorted(set(self.orders)):
            raise ValueError("orders must be strictly increasing")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: send both through the checks above
        return cls(*iterable)


class FrobeniusOrders(NamedTuple):
    series: str
    s: int
    nus: tuple[int, ...]
    omitted_index: int
    omitted_order: int
    below_q: tuple[int, ...]
    backend: str
    points: int


# ---------------------------------------------------------------------------
# rank engines


def _dot(vec: list[CurveElement], kernel: list[CurveElement]) -> CurveElement:
    """sum_k vec[k] * kernel[k], no product formed with a zero operand."""
    out = vec[0].ring.zero()
    for a, b in zip(vec, kernel):
        if not (a.is_zero() or b.is_zero()):
            out = out + a * b
    return out


class _SymbolicEchelon:
    """Fraction-free echelon of rows of normal-form ring elements.

    Reducing vec by a stored row with pivot p replaces each entry k by
    row[p]*vec[k] - vec[p]*row[k].  At k = p that is zero whatever the
    entries, so the pivot column is set to zero and never multiplied, and
    a product with a zero operand is skipped.  Each stored row is zero at
    the pivots of the rows stored before it.

    Closed by close(kernel), an echelon of ncols - 1 rows decides a row
    by one dot product with the kernel instead; the row that completes
    the rank is not stored, and full is set.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[tuple[int, list[CurveElement]]] = []
        self.kernel: list[CurveElement] | None = None
        self.full = False

    @staticmethod
    def _reduce(vec: list[CurveElement], pivot: int,
                row: list[CurveElement]) -> list[CurveElement]:
        """vec cross-multiplied by one stored row."""
        lead, c = row[pivot], vec[pivot]
        zero = lead.ring.zero()
        out = []
        for k, (a, b) in enumerate(zip(vec, row)):
            if k == pivot or (a.is_zero() and b.is_zero()):
                out.append(zero)
            elif b.is_zero():
                out.append(lead * a)
            elif a.is_zero():
                out.append(-(c * b))
            else:
                out.append(lead * a - c * b)
        return out

    def close(self, kernel: list[CurveElement]) -> bool:
        """Decide later rows by one dot product with kernel, where that is exact.

        It is when kernel is nonzero and has dot product zero with each of
        the ncols - 1 stored rows, which are independent: kernel then spans
        their kernel (the closing rule of the module docstring).  Returns
        whether the echelon closed.
        """
        if (len(self.rows) != self.ncols - 1
                or all(a.is_zero() for a in kernel)
                or any(not _dot(row, kernel).is_zero() for _, row in self.rows)):
            return False
        self.kernel = kernel
        return True

    def insert(self, vec: list[CurveElement]) -> int | None:
        """Reduce against stored rows; keep and return pivot if independent."""
        if self.kernel is not None:
            if self.full or _dot(vec, self.kernel).is_zero():
                return None
            # the reduced row would be zero at every stored pivot: its pivot
            # is the one column left
            self.full = True
            taken = {pivot for pivot, _ in self.rows}
            return next(k for k in range(self.ncols) if k not in taken)
        for pivot, row in self.rows:
            if not vec[pivot].is_zero():
                vec = self._reduce(vec, pivot, row)
        live = [k for k in range(self.ncols) if not vec[k].is_zero()]
        if not live:
            return None
        # smallest pivot entry keeps later cross-multiplications cheap
        pivot = min(live, key=lambda k: (len(vec[k]), k))
        self.rows.append((pivot, list(vec)))
        return pivot

    def spanned_at(self, vec: list[CurveElement]) -> int | None:
        """The least j with vec in the span of rows 0..j, or None.

        vec is reduced by the stored rows in order, as insert reduces it;
        as each row is zero at the pivots of the rows before it, the
        remainder after rows 0..j is zero exactly when vec lies in their
        span (the Frobenius pool rule of the module docstring).  A full
        echelon has one row more than it stores, and every vec lies in the
        span of all its rows.
        """
        for j, (pivot, row) in enumerate(self.rows):
            if not vec[pivot].is_zero():
                vec = self._reduce(vec, pivot, row)
            if all(a.is_zero() for a in vec):
                return j
        return len(self.rows) if self.full else None


class _PointEchelon:
    """Plain Gaussian elimination over one sample point's field.

    Rows come in as elements of the field and are reduced as their packed
    residues.  A stored row is scaled to 1 at its pivot, its first nonzero
    column, and kept as its later nonzero entries, (column, packed int)
    pairs, so a reduction touches only those columns and sets the pivot
    column to zero.
    """

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.rows: list[tuple[int, list[tuple[int, int]]]] = []

    def _reduce(self, vals: list[int], rows) -> None:
        """Reduce vals in place by the given stored rows, in order."""
        from .gf import _mod3

        ctx = self.ctx
        mulmod, threes, m = ctx._mulmod, ctx._threes, ctx.m
        for pivot, row in rows:
            c = vals[pivot]
            if not c:
                continue
            vals[pivot] = 0
            for k, b in row:
                # adding 3 to every byte keeps each byte of the difference >= 0
                vals[k] = _mod3(vals[k] + threes - mulmod(c, b), m)

    def insert(self, vals) -> int | None:
        """Reduce against stored rows; keep and return pivot if independent."""
        ctx = self.ctx
        mulmod = ctx._mulmod
        vals = [a.packed for a in vals]
        self._reduce(vals, self.rows)
        for k, a in enumerate(vals):
            if a:
                from .gf import FieldElement

                inv = ctx.inv(FieldElement(ctx, a)).packed
                tail = enumerate(vals[k + 1:], k + 1)
                self.rows.append((k, [(j, mulmod(v, inv)) for j, v in tail if v]))
                return k
        return None

    def spanned_at(self, vals) -> int | None:
        """As _SymbolicEchelon.spanned_at, by the same rule."""
        vals = [a.packed for a in vals]
        for j, stored in enumerate(self.rows):
            self._reduce(vals, (stored,))
            if not any(vals):
                return j
        return None


def _echelons(K, ncols: int) -> list:
    """One echelon on the exact route, else one per lane."""
    if K.kind == "symbolic":
        return [_SymbolicEchelon(ncols)]
    return [_PointEchelon(K.field) for _ in range(K.lanes)]


def _pairing_row(K, names) -> list[CurveElement]:
    """The osculating pairing as a row over names, at the generic point.

    A member g of the seven-function family gets PAIRING[g]^(q^2)
    (ring.PAIRING), every other member zero.
    """
    zero = K.coefficient(names[0], 0).ring.zero()
    row = []
    for f in names:
        if f in PAIRING:
            v = K.coefficient(PAIRING[f], 0)
            row.append(v.pow3k(cube_count("q2", v.ring.p.s)))
        else:
            row.append(zero)
    return row


def _closure_admits(i: int, accepted: set[int]) -> bool:
    """Whether every i - 3^k, for each nonzero base-3 digit k of i, is accepted."""
    v, power = i, 1
    while v:
        if v % 3 and i - power not in accepted:
            return False
        v //= 3
        power *= 3
    return True


class _Scan(tuple):
    """The (i, hits, pivot) entries a scan accepted, hits a tuple, in order.

    echelons holds the scan's echelons, one per lane; each stores its
    accepted rows in the order of acceptance.
    """

    echelons: list


def _scan(K, names, want=None, closure=False) -> _Scan:
    """The greedy rank scan, the one loop behind order sequences and profiles.

    The candidates are the exponents of the members' series, where some
    member's row is nonzero.  Offers the row (K.coefficient(f, i))_f of
    each candidate i, in increasing order, its lane j (K.split) to echelon
    j of K; i is accepted when the rank grows in any lane, that is when
    some echelon's insert returns a pivot rather than None.  Stops after
    want acceptances.  Returns (i, hits, pivot) per accepted i, the lanes
    whose rank grew and the first pivot taken, with the echelons the scan
    filled, which the Frobenius orders read.

    The exact route cuts the candidates by the closure rule of the module
    docstring, and after n - 1 acceptances closes its echelon on the
    pairing row (the closing rule there); _order_scan sets closure
    exactly on that route.  With closure set, i is offered only when
    _closure_admits it; that is sound for the generic orders, where the
    accepted set is the order set below i: closed under digitwise base-3
    domination (Stöhr-Voloch Cor. 1.9), it stays a down-set by induction,
    a skipped i is a non-order the echelon would have rejected, and a
    rejected insert leaves the echelon as it was.  The minimal non-orders
    have every proper submask an order, so they still reach the echelon
    and are rejected by it.  Profiles at a point and the sampled route
    offer every candidate, since the criterion is about generic orders and
    the sampled scan must stay an independent check on the exact one.
    """
    echelons = _echelons(K, len(names))
    found = []
    accepted: set[int] = set()
    for i in sorted(set().union(*(K.series(f) for f in names))):
        if closure and not _closure_admits(i, accepted):
            continue
        hits = []
        pivot = None
        row = [K.coefficient(f, i) for f in names]
        for j, (ech, vals) in enumerate(zip(echelons, zip(*map(K.split, row)))):
            got = ech.insert(vals)
            if got is not None:
                hits.append(j)
                if pivot is None:
                    pivot = got
        if hits:
            found.append((i, tuple(hits), pivot))
            accepted.add(i)
            if len(found) == want:
                break
            if closure and len(found) == len(names) - 1:
                echelons[0].close(_pairing_row(K, names))
    scan = _Scan(found)
    scan.echelons = echelons
    return scan


@lru_cache(maxsize=None)
def _order_scan(names: tuple[str, ...], K) -> _Scan:
    """The order scan of one family on one route.

    Keyed on the route's expansion, which hasse.route builds once, so the
    scan runs once per family, level and route in a process:
    order_sequence, frobenius_orders and the epsilons of a tuple-series
    profile all read it, and the Frobenius orders its echelons.  Closure
    is set exactly on the exact route.  Callers share the scan, so they
    only read it and never insert.
    """
    return _scan(K, names, want=len(names), closure=K.kind == "symbolic")


# ---------------------------------------------------------------------------
# scans


def order_sequence(
    series: str = "D",
    s: int = 1,
    backend: str = "symbolic",
    trials: int = 3,
    seed: int = 0,
) -> OrderSequence:
    """Greedy lexicographic order scan of the family on one route."""
    names = _family_names(series)
    p = ree_params(s)
    K = route(s, backend, trials, seed, SAMPLE_EXTENSION)
    found = _order_scan(names, K)
    orders = [i for i, _, _ in found]
    witness = [
        f"pivot-col={pivot}" if K.kind == "symbolic"
        else "points=" + ",".join(str(h) for h in hits)
        for _, hits, pivot in found
    ]
    if len(orders) != len(names):
        raise ArithmeticError(
            f"rank deficiency not resolved: found {len(orders)} of {len(names)} "
            f"orders for {series} at s={s} ({backend})"
        )
    return OrderSequence(
        series=series,
        s=s,
        orders=tuple(orders),
        labels=_order_labels(series, p, tuple(orders)),
        backend=backend,
        points=len(K.points),
        witness=tuple(witness),
    )


def frobenius_orders(
    series: str = "D",
    s: int = 1,
    backend: str = "symbolic",
    trials: int = 3,
    seed: int = 0,
) -> FrobeniusOrders:
    """Orders of the scan seeded with the row (f^q)_f; one order drops out.

    Read off the route's order echelons by the Frobenius pool and below-q
    rules of the module docstring, with no scan of its own; the omitted
    order is named against the route's own order sequence.
    """
    names = _family_names(series)
    if "one" not in names:
        raise ValueError(
            f"{series} lacks the constant member 'one', whose column below_q reads")
    p = ree_params(s)
    K = route(s, backend, trials, seed, SAMPLE_EXTENSION)
    eps = list(order_sequence(series, s, backend, trials, seed).orders)
    scan = _order_scan(names, K)
    seed_rows = zip(*map(K.split, [K.qpow_value(f) for f in names]))
    union: set[int] = set()
    for j, (echelon, vals) in enumerate(zip(scan.echelons, seed_rows)):
        lane = [i for i, hits, _ in scan if j in hits]
        if len(lane) != len(names):
            raise ArithmeticError(
                f"lane {j} (seed {seed + j}) reached rank {len(lane)} of {len(names)}, "
                f"so its echelon names no Frobenius orders of {series} at s={s}")
        # a full echelon spans every row, so spanned_at names an order
        k = echelon.spanned_at(vals)
        union.update(lane[:k] + lane[k + 1:])
    nus = sorted(union)[:len(names) - 1]
    # every lane is full, so each lane's orders are eps, and nus is eps less one
    omitted = next(k for k, e in enumerate(eps) if e not in nus)
    return FrobeniusOrders(
        series=series,
        s=s,
        nus=tuple(nus),
        omitted_index=omitted,
        omitted_order=eps[omitted],
        below_q=tuple(v for v in nus if v < p.q),
        backend=backend,
        points=len(K.points),
    )
