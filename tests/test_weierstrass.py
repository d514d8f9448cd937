"""Vanishing profiles, point weights, and the degree audit."""

from functools import lru_cache

import pytest

import reecurve.weierstrass as weierstrass
from reecurve.gf import field_context, frobenius_power
from reecurve.orders import OrderSequence, order_sequence
from reecurve.params import SymbolicIndex, ree_params
from reecurve.series import CurvePoint, origin_point, random_point, rational_point
from reecurve.support import order_values
from reecurve.weierstrass import (
    VanishingProfile,
    divisor_degree_audit,
    expected_rational_profile,
    rational_weight,
    vanishing_orders,
)

# Profiles at the origin for s = 1, frozen from the first run and
# matching expected_rational_profile evaluated by hand.
D_PROFILE_S1 = (0, 1, 4, 7, 10, 34, 37, 64, 115, 118, 145, 226, 307, 1036)
E_PROFILE_S1 = (0, 1, 10, 37, 64, 307, 1036)

D_WEIGHT_S1 = 567
E_WEIGHT_S1 = 392


def test_origin_profile_d():
    prof = vanishing_orders("D", origin_point(1))
    assert prof.jorders == D_PROFILE_S1
    assert prof.weight == D_WEIGHT_S1
    assert prof.series == "D" and prof.s == 1 and prof.extension == 1
    assert prof.epsilons == tuple(order_values(ree_params(1), "D"))


def test_empty_family_has_no_profile_and_no_audit():
    # all() over no members is true, so () once gave a weight-0 profile and
    # a degree-0 audit
    with pytest.raises(ValueError, match="empty family"):
        vanishing_orders((), origin_point(1))
    with pytest.raises(ValueError, match="empty family"):
        divisor_degree_audit(1, order_sequence((), 1))
    empty = OrderSequence((), 1, (), (), "symbolic", 0, ())
    with pytest.raises(ValueError, match="empty family"):
        divisor_degree_audit(1, empty)


def test_origin_profile_e():
    prof = vanishing_orders("E", origin_point(1))
    assert prof.jorders == E_PROFILE_S1
    assert prof.weight == E_WEIGHT_S1


@pytest.mark.parametrize("fam", ["D", "E"])
def test_origin_over_gf3_matches_the_origin_over_gf_q(fam):
    # origin_point holds the origin over GF(3); held over GF(q), q = 3^5,
    # the same point has the same profile
    s = 2
    assert origin_point(s).ctx.m == 1
    zero = field_context(2 * s + 1).zero()
    over_q = CurvePoint(s, 1, zero, zero, zero)
    assert vanishing_orders(fam, origin_point(s)) == vanishing_orders(fam, over_q)


@pytest.mark.parametrize("fam,frozen", [("D", D_PROFILE_S1), ("E", E_PROFILE_S1)])
def test_expected_rational_profile_formula(fam, frozen):
    assert tuple(expected_rational_profile(ree_params(1), fam)) == frozen


def test_expected_rational_profile_unknown():
    with pytest.raises(ValueError):
        expected_rational_profile(ree_params(1), "F")


@pytest.mark.parametrize("seed", [7, 11])
def test_rational_points_share_the_profile(seed):
    # the automorphism group is transitive on rational points, so every
    # one of them must repeat the origin profile
    pt = rational_point(1, seed=seed)
    assert frobenius_power(pt.x, 2 * pt.s + 1) == pt.x  # x lies in GF(q)
    for fam, frozen in (("D", D_PROFILE_S1), ("E", E_PROFILE_S1)):
        prof = vanishing_orders(fam, pt)
        assert prof.jorders == frozen
        assert prof.weight > 0


def test_generic_point_matches_order_sequence():
    pt = random_point(1, seed=3, extension=6)
    p = ree_params(1)
    for fam in ("D", "E"):
        prof = vanishing_orders(fam, pt)
        assert list(prof.jorders) == order_values(p, fam)
        assert prof.weight == 0


def test_profile_dominates_orders_everywhere():
    # j_i >= eps_i at every point, term by term
    for pt in (origin_point(1), rational_point(1, seed=2), random_point(1, seed=5, extension=6)):
        for fam in ("D", "E"):
            prof = vanishing_orders(fam, pt)
            assert all(j >= e for j, e in zip(prof.jorders, prof.epsilons))


def test_subfamily_profile_is_contained():
    # E spans a subspace of D, so every E vanishing order is a D one
    for pt in (origin_point(1), random_point(1, seed=9, extension=6)):
        jd = set(vanishing_orders("D", pt).jorders)
        je = set(vanishing_orders("E", pt).jorders)
        assert je <= jd


def test_precision_preconditions():
    with pytest.raises(ValueError, match="point"):
        vanishing_orders("D", None)


def test_precision_shortfall_reported():
    # a repeated member makes the matrix singular at any precision, and
    # the scan must say so rather than return a short profile
    with pytest.raises(ArithmeticError, match="precision shortfall"):
        vanishing_orders(("x", "x"), origin_point(1))


def test_profile_must_increase():
    with pytest.raises(ValueError):
        VanishingProfile("D", 1, 1, (0, 0, 1), (0, 1, 3), 0)


def test_replace_runs_the_record_checks():
    assert SymbolicIndex(a=1)._replace(b=2) == SymbolicIndex(a=1, b=2)
    with pytest.raises(ValueError):
        SymbolicIndex(a=1)._replace(a=99)
    P = random_point(1, seed=9, extension=6)
    assert P._replace() == P
    with pytest.raises(ValueError, match="defining equation"):
        P._replace(y=P.z, z=P.y)
    seq = OrderSequence("D", 1, (0, 1), (), "synthetic", 0, ())
    with pytest.raises(ValueError):
        seq._replace(orders=(1, 0))
    prof = VanishingProfile("D", 1, 1, (0, 1, 3), (0, 1, 3), 0)
    with pytest.raises(ValueError):
        prof._replace(jorders=(0, 0, 1))


def test_audit_s1_exact():
    aud = divisor_degree_audit(1, "D")
    assert aud["degree"] == 11160828
    assert aud["degree"] == 567 * 19684
    assert aud["weight_per_rational_point"] == D_WEIGHT_S1
    assert aud["sum_orders"] == 1537 and aud["r_plus_1"] == 14
    aud = divisor_degree_audit(1, "E")
    assert aud["degree"] == 7716128 == 392 * 19684
    assert aud["weight_per_rational_point"] == E_WEIGHT_S1


@pytest.mark.parametrize("s", [1, 2, 3])
def test_audit_splits_exactly(s):
    p = ree_params(s)
    q0, q = p.q0, p.q
    d = divisor_degree_audit(p, "D")
    assert d["weight_per_rational_point"] == 3 * q * q0 + 9 * q + 23 * q0 + 12
    e = divisor_degree_audit(p, "E")
    assert e["weight_per_rational_point"] == 3 * q * q0 + 4 * q + 12 * q0 + 5
    assert rational_weight(p, "D") == d["weight_per_rational_point"]


def test_audit_accepts_computed_sequence():
    seq = order_sequence("D", s=1, backend="symbolic")
    assert divisor_degree_audit(1, seq) == divisor_degree_audit(1, "D")


def test_audit_rejects_tampered_sequence():
    fake = OrderSequence("D", 1, tuple(range(14)), (), "synthetic", 0, ())
    with pytest.raises(ArithmeticError, match="split"):
        divisor_degree_audit(1, fake)
    short = OrderSequence("D", 1, (0, 1), (), "synthetic", 0, ())
    with pytest.raises(ArithmeticError, match="incomplete"):
        divisor_degree_audit(1, short)


def test_audit_rejects_an_unknown_series_tag():
    # only D and E have a proposed order sequence; no other tag reads E's
    with pytest.raises(ValueError, match="unknown series 'F'"):
        divisor_degree_audit(1, "F")


def test_s2_rational_profile():
    p2 = ree_params(2)
    prof = vanishing_orders("D", rational_point(2, seed=0))
    assert prof.jorders == tuple(expected_rational_profile(p2, "D"))
    assert prof.weight == rational_weight(p2, "D") == 8967
    eprof = vanishing_orders("E", rational_point(2, seed=1))
    assert eprof.jorders == tuple(expected_rational_profile(p2, "E"))
    assert eprof.weight == rational_weight(p2, "E")


def test_profiles_at_one_point_share_one_expansion(monkeypatch):
    # D and E at a point, and D again at an equal point built afresh, read
    # one expansion, and give the profiles a warm cache gives
    built = []

    class Counted(weierstrass.PointExpansion):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    separate = [vanishing_orders(name, rational_point(2, seed=41)) for name in ("D", "E")]
    monkeypatch.setattr(weierstrass, "PointExpansion", Counted)
    monkeypatch.setattr(weierstrass, "_profile_backend",
                        lru_cache(maxsize=None)(weierstrass._profile_backend.__wrapped__))
    shared = [vanishing_orders(name, rational_point(2, seed=41)) for name in ("D", "E", "D")]
    assert len(built) == 1
    assert shared == separate + separate[:1]
