"""Acceptance gate: one test per shipping criterion.

Each test prints a single verdict line; run with

    pytest tests/test_acceptance.py -v -s

to see them.  A failed assert is the corresponding FAIL line.
"""

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

from reecurve.cli import main
from reecurve.gf import field_context
from reecurve.hasse import binom_mod3, hasse_calculus
from reecurve.identities import IDENTITY_CATALOG, osculating_vanishing, verify_catalog
from reecurve.orders import frobenius_orders, order_sequence, proof_matrix, triangular_check
from reecurve.params import ree_params
from reecurve.ring import FAMILY_NAMES, coordinate_ring
from reecurve.series import (
    PointExpansion,
    origin_point,
    random_point,
    rational_point,
)
from reecurve.support import appendix_csv, order_values, support_soundness
from reecurve.weierstrass import divisor_degree_audit, vanishing_orders

from reference import check_hypersurface, ell_of, evaluate, hasse_reference, power, scale

GOLDEN = Path(__file__).parent / "golden"


def _verdict(n: int, text: str) -> None:
    print(f"criterion {n:02d} PASS: {text}")


def test_criterion_01_d_orders_exact():
    t0 = time.time()
    seq = order_sequence("D", s=1, backend="symbolic")
    dt = time.time() - t0
    assert seq.orders == (0, 1, 3, 6, 9, 27, 30, 54, 81, 84, 108, 162, 243, 729)
    assert dt < 900
    _verdict(1, f"14 generic orders of the big family, exact, {dt:.2f}s")


def test_criterion_02_e_orders_exact():
    t0 = time.time()
    seq = order_sequence("E", s=1, backend="symbolic")
    dt = time.time() - t0
    assert seq.orders == (0, 1, 9, 27, 54, 243, 729)
    assert dt < 300
    _verdict(2, f"7 generic orders of the subfamily, exact, {dt:.2f}s")


def test_criterion_03_identity_suite():
    t0 = time.time()
    res1 = verify_catalog(1, "symbolic")
    dt1 = time.time() - t0
    failed = [r for r in res1 if not r.ok]
    assert not failed
    skips = [r for r in res1 if r.skipped]
    # at s=1 a handful of instances are skipped because distinct symbolic
    # indices collide numerically; every skip carries its reason
    assert all(r.witness for r in skips)
    assert dt1 < 600
    t0 = time.time()
    res2 = verify_catalog(2, "points", trials=3, seed=0)
    dt2 = time.time() - t0
    assert all(r.ok and not r.skipped for r in res2)
    assert all(r.points == 3 for r in res2)
    assert dt2 < 600
    assert len({r.identity for r in res1}) == len(IDENTITY_CATALOG) == 43
    _verdict(
        3,
        f"{len(res1)} instances exact at s=1 ({len(skips)} collision skips), "
        f"{len(res2)} at 3 points each at s=2, {dt1 + dt2:.2f}s",
    )


def test_criterion_04_hypersurface_and_osculation():
    res1 = check_hypersurface(1, "symbolic")
    assert len(res1) == 5 and all(r.ok for r in res1)
    res2 = check_hypersurface(2, "points", trials=3, seed=0)
    assert all(r.ok for r in res2)
    orders = [
        osculating_vanishing(random_point(1, seed=seed, extension=6))
        for seed in (0, 1, 2)
    ]
    assert all(v >= 729 for v in orders)
    _verdict(
        4,
        f"hypersurface residual zero at s=1 and s=2; osculation orders {orders}",
    )


def test_criterion_05_support_soundness():
    t0 = time.time()
    checks, failures = support_soundness(hasse_calculus(1))
    dt = time.time() - t0
    assert failures == []
    assert checks >= 9000
    assert dt < 600
    _verdict(5, f"{checks} off-support derivatives are zero, {dt:.2f}s")


def test_criterion_06_appendix_tables():
    for kind, name in (("plain", "appendix_plain.csv"), ("mixed", "appendix_mixed.csv")):
        assert appendix_csv(kind) == (GOLDEN / name).read_text()
    _verdict(6, "both emitted support tables match the golden files cell-for-cell")


def test_criterion_07_tabulated_derivatives():
    keys = [s.key for s in IDENTITY_CATALOG if s.key.startswith(("t1d", "t2d"))]
    assert len(keys) == 24
    res1 = verify_catalog(1, "symbolic", keys=keys)
    assert all(r.ok for r in res1)
    res2 = verify_catalog(2, "points", keys=keys, trials=3, seed=0)
    assert all(r.ok and not r.skipped for r in res2)
    _verdict(
        7,
        f"all {len(keys)} tabulated derivative formulas hold exactly at s=1 "
        f"and at 3 points at s=2",
    )


def test_criterion_08_triangularity():
    p = ree_params(1)
    ring = coordinate_ring(1)
    one = ring.one()
    rows, cols = proof_matrix("D", p)
    diag = triangular_check(rows, cols, s=1, backend="symbolic")
    assert len(diag) == 12
    assert all(d == one for d in diag[:11])
    # the last diagonal entry is ell^{2q}; its lowest monomial is x^{2q}
    assert diag[11] == power(ell_of(ring), 2 * p.q)
    assert diag[11].to_sorted_list()[0] == (2 * p.q, 0, 0, 1)
    rows2, cols2 = proof_matrix("E", p)
    diag2 = triangular_check(rows2, cols2, s=1, backend="symbolic")
    assert len(diag2) == 5 and all(d == one for d in diag2)
    _verdict(
        8,
        "12x12 proof matrix triangular with diagonal (1,...,1, ell^{2q}), "
        "5x5 diagonal all ones",
    )


def test_criterion_09_weierstrass_bookkeeping():
    prof = vanishing_orders("D", origin_point(1))
    assert prof.jorders == (0, 1, 4, 7, 10, 34, 37, 64, 115, 118, 145, 226, 307, 1036)
    assert prof.weight == 567
    eprof = vanishing_orders("E", origin_point(1))
    assert eprof.weight == 392
    aud = divisor_degree_audit(1, "D")
    assert aud["degree"] == 7252 * 1537 + 14 * 1036 == 567 * 19684 == 11160828
    aude = divisor_degree_audit(1, "E")
    assert aude["degree"] == 7252 * 1063 + 7 * 1036 == 392 * 19684 == 7716128
    for s in (2, 3):
        for fam in ("D", "E"):
            divisor_degree_audit(s, fam)
    _verdict(9, "origin profile, weights 567/392, degree audits exact at s=1,2,3")


def _random_element(ring, rng, max_a, max_bc, terms):
    f = ring.zero()
    for _ in range(rng.randint(1, terms)):
        f = f + ring.monomial(
            rng.randrange(max_a), rng.randrange(max_bc), rng.randrange(max_bc),
            rng.randint(1, 2),
        )
    return f


def test_criterion_10_property_suites():
    cases = 1000
    rng = random.Random("acceptance:properties")
    ctx = field_context(6)
    zero, one = ctx.zero(), ctx.one()
    for _ in range(cases):
        a, b, c = (ctx.from_code(rng.randrange(3**6)) for _ in range(3))
        assert (a + b) + c == a + (b + c) and a + b == b + a
        assert (a * b) * c == a * (b * c) and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == zero and a + zero == a and a * one == a
        if not a.is_zero():
            assert a * a.inverse() == one

    ring = coordinate_ring(1)
    calc = hasse_calculus(1)
    ref = hasse_reference(1)
    for _ in range(cases):
        f = _random_element(ring, rng, 20, 10, 2)
        g = _random_element(ring, rng, 20, 10, 2)
        i = rng.randrange(25)
        rhs = ring.zero()
        for j in range(i + 1):
            rhs = rhs + ref.hasse_derivative(f, j) * ref.hasse_derivative(g, i - j)
        assert ref.hasse_derivative(f * g, i) == rhs

    for _ in range(cases):
        f = _random_element(ring, rng, 25, 12, 2)
        i, j = rng.randrange(41), rng.randrange(41)
        lhs = ref.hasse_derivative(ref.hasse_derivative(f, j), i)
        assert lhs == scale(ref.hasse_derivative(f, i + j), binom_mod3(i + j, i))

    for _ in range(cases):
        f = _random_element(ring, rng, 25, 12, 2)
        i = rng.randrange(101)
        lhs = ref.hasse_derivative(f.pow3(), i)
        if i % 3:
            assert lhs.is_zero()
        else:
            assert lhs == ref.hasse_derivative(f, i // 3).pow3()

    for _ in range(cases):
        n, k = rng.randrange(3001), rng.randrange(3001)
        assert binom_mod3(n, k) == math.comb(n, k) % 3 if k <= n else True

    for _ in range(cases):
        f = ring.monomial(
            rng.randrange(201), rng.randrange(121), rng.randrange(121),
            rng.randint(1, 2),
        )
        rebuilt = ring.zero()
        for (ea, eb, ec, v) in f.to_sorted_list():
            assert eb < ring.q and ec < ring.q
            rebuilt = rebuilt + ring.monomial(ea, eb, ec, v)
        assert rebuilt == f

    # cross-backend: symbolic derivative value vs series coefficient
    p = ree_params(1)
    points = [rational_point(1, seed=k) for k in range(3)]
    points.append(origin_point(1))
    points.append(random_point(1, seed=2, extension=6))
    expansions = [PointExpansion(P, p.q**2 + 1) for P in points]
    names = [n for n in FAMILY_NAMES if n != "one"]
    special = [0, 1, p.q0, p.q0 + 1, 3 * p.q0 + 1, p.q, p.q + 1, p.q * p.q0, p.q**2]
    triples = 100
    for _ in range(triples):
        name = rng.choice(names)
        i = rng.choice(special) if rng.random() < 0.4 else rng.randrange(p.q**2 + 1)
        k = rng.randrange(len(points))
        sym = evaluate(calc.coefficient(name, i), *points[k].coords())
        assert expansions[k].coefficient(name, i) == sym
    _verdict(
        10,
        f"6 property suites x {cases} seeded cases and {triples} cross-backend "
        f"triples, zero failures",
    )


def test_criterion_11_byte_identical_reports(tmp_path):
    configs = [
        ["orders", "--s", "1", "--series", "D"],
        ["orders", "--s", "1", "--series", "E", "--backend", "series",
         "--seed", "5", "--trials", "2"],
        ["verify", "--s", "1", "--identity", "A9"],
        ["weierstrass", "--s", "1", "--point", "rational", "--seed", "3"],
    ]
    for n, argv in enumerate(configs):
        a, b = tmp_path / f"{n}a.json", tmp_path / f"{n}b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    # strongest form: two separate processes
    argv = [sys.executable, "-m", "reecurve", "orders", "--s", "1", "--series", "D"]
    out1 = subprocess.run(argv, capture_output=True).stdout
    out2 = subprocess.run(argv, capture_output=True).stdout
    assert out1 == out2 and json.loads(out1)["schema"] == 1
    _verdict(11, "repeated runs give byte-identical JSON, in and across processes")


def test_criterion_12_exact_route_above_s1():
    t0 = time.time()
    for s in (2, 3):
        res = verify_catalog(s, "symbolic")
        assert len(res) == 452 and all(r.ok and not r.skipped for r in res)
    for s, series in ((2, "E"), (3, "E"), (2, "D"), (3, "D")):
        seq = order_sequence(series, s=s, backend="symbolic")
        assert list(seq.orders) == order_values(ree_params(s), series)
    fr = frobenius_orders("E", s=3, backend="symbolic")
    assert fr.omitted_order == 1 and fr.omitted_index == 1
    for s in (2, 3):
        fr = frobenius_orders("D", s=s, backend="symbolic")
        assert fr.omitted_order == 1 and fr.omitted_index == 1
        assert list(fr.nus) == [v for v in order_values(ree_params(s), "D") if v != 1]
    # an ad hoc subfamily's generic orders come from the exact scan
    prof = vanishing_orders(("one", "x", "w1"), rational_point(2, seed=0))
    assert prof.jorders == (0, 1, 28) and prof.epsilons == (0, 1, 27)
    dt = time.time() - t0
    _verdict(
        12,
        f"exact route above s=1: catalog 452/452 at s=2,3, E and D orders at "
        f"s=2,3, Frobenius E at s=3 and D at s=2,3 omit 1, {dt:.2f}s",
    )


def test_criterion_13_sampled_route_above_s1():
    # points over GF(q^6) built directly (a trace into GF(q^2), two
    # Artin-Schreier solves), so the sampled route runs at s = 2 and 3 too
    t0 = time.time()
    for s in (2, 3):
        for series in ("D", "E"):
            seq = order_sequence(series, s=s, backend="points", trials=2, seed=0)
            assert list(seq.orders) == order_values(ree_params(s), series)
            prof = vanishing_orders(series, random_point(s, seed=5, extension=6))
            assert prof.weight == 0 and prof.jorders == prof.epsilons
        sampled = frobenius_orders("D", s=s, backend="points", trials=2, seed=0)
        exact = frobenius_orders("D", s=s, backend="symbolic")
        assert sampled.nus == exact.nus and sampled.omitted_order == exact.omitted_order
    dt = time.time() - t0
    assert dt < 120
    _verdict(
        13,
        f"sampled route above s=1: D and E orders at 2 points, generic weight 0, "
        f"Frobenius D equal to the exact ones at s=2,3, {dt:.2f}s",
    )
