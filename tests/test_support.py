"""Support sets, minimal non-orders, and the two index tables."""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reecurve.hasse import hasse_calculus
from reecurve.params import SymbolicIndex, index_value, ree_params
from reecurve.ring import FAMILY_NAMES, QPOWER_RULES, is_plain
from reecurve.support import (
    D_ORDER_INDICES,
    E_ORDER_INDICES,
    MIXED_COLUMNS,
    PLAIN_COLUMNS,
    _member_values,
    _shift_values,
    appendix_csv,
    appendix_rows,
    leq3,
    level_uniform,
    member_support,
    minimal_elements,
    minimal_non_orders,
    support_soundness,
)

GOLDEN = Path(__file__).parent / "golden"


def labels(indices) -> set[str]:
    return {ix.label() for ix in indices}


# ---------------------------------------------------------------------------
# digitwise order


@given(st.integers(0, 3**10), st.integers(0, 3**10))
@settings(max_examples=1000, deadline=None)
def test_leq3_is_lucas_criterion(i, j):
    assert leq3(i, j) == (math.comb(j, i) % 3 != 0)


def test_minimal_elements():
    # 4 <=_3 13 (digits 011 vs 111) and 9 <=_3 13, so both absorb 13
    assert minimal_elements([13, 4, 9]) == [4, 9]
    assert minimal_elements([5]) == [5]
    assert minimal_elements([]) == []
    assert minimal_elements([0, 7, 12]) == [0]


# ---------------------------------------------------------------------------
# individual supports


def test_support_of_x():
    p = ree_params(2)
    assert _shift_values("x", p.s) == {0, 1, p.q}
    assert _member_values("x", p.s) == {0, 1}
    assert labels(member_support("x")) == {"0", "1"}


def test_support_of_y():
    p = ree_params(2)
    q0, q = p.q0, p.q
    assert _shift_values("y", p.s) == {0, 1, q0, q0 + 1, q, q + q0}
    assert labels(member_support("y")) == {
        "0", "1", "q_0", "q_0+1", "q", "q+q_0", "qq_0", "qq_0+q", "q^2",
    }


def test_support_of_z():
    p = ree_params(2)
    q0, q = p.q0, p.q
    shift = {0, 1, q0, q0 + 1, 2 * q0, 2 * q0 + 1, q, q + q0, q + 2 * q0}
    assert _shift_values("z", p.s) == shift
    assert labels(member_support("z")) == {
        "0", "1", "q_0", "q_0+1", "2q_0", "2q_0+1", "q", "q+q_0", "q+2q_0",
        "qq_0", "qq_0+q", "2qq_0", "2qq_0+q", "q^2",
    }
    assert len(member_support("z")) == 14


def test_support_of_w1():
    assert labels(member_support("w1")) == {
        "0", "1", "3q_0", "3q_0+1", "q", "q+3q_0", "3qq_0", "3qq_0+q", "q^2",
    }


def test_supports_are_level_uniform():
    # member_support raises if the s=2 decode fails to re-evaluate at s=3 or 4
    for name in PLAIN_COLUMNS + MIXED_COLUMNS:
        assert member_support(name)


def test_level_uniform_rechecks_the_first_stable_level():
    def values(s):
        return {1, ree_params(s).q0}

    assert level_uniform(values, "probe") == (SymbolicIndex(d=1), SymbolicIndex(c=1))
    # agrees at s = 3, not at s = 4
    with pytest.raises(ArithmeticError, match="probe is not level-uniform"):
        level_uniform(lambda s: values(s) | ({5} if s == 4 else set()), "probe")


@pytest.mark.parametrize("kind", ["member", "shift"])
def test_base_level_sets_are_the_uniform_supports_valued(kind):
    # s = 1 runs the same rules as every other level; its sets are the
    # level-uniform symbolic supports valued at s = 1
    values = _member_values if kind == "member" else _shift_values
    names = (FAMILY_NAMES if kind == "member" else ("x",)) + tuple(QPOWER_RULES)
    p1 = ree_params(1)
    for name in dict.fromkeys(names):
        symbolic = level_uniform(lambda s: values(name, s), name)
        assert values(name, 1) == {index_value(ix, p1) for ix in symbolic}, name


def test_table_columns_follow_the_rule_shapes():
    plain = {name for name in QPOWER_RULES if is_plain(name)}
    assert set(PLAIN_COLUMNS) == {"x"} | plain
    assert set(MIXED_COLUMNS) == set(QPOWER_RULES) - plain - {"v"}


def test_inclusion_chains():
    # the two support towers reported alongside the appendix tables
    chain1 = ("x", "w1", "w2", "w3", "w6")
    chain2 = ("y", "z", "w4", "w7", "w5", "w9", "w10")
    for chain in (chain1, chain2):
        for a, b in zip(chain, chain[1:]):
            assert set(member_support(a)) <= set(member_support(b)), (a, b)
    assert set(member_support("w6")) == set(member_support("w8"))


def test_index_collisions_at_base_level():
    all_rows = set(appendix_rows("plain")) | set(appendix_rows("mixed"))
    assert len({index_value(ix, ree_params(1)) for ix in all_rows}) < len(all_rows)
    assert len({index_value(ix, ree_params(2)) for ix in all_rows}) == len(all_rows)


# ---------------------------------------------------------------------------
# the two tables, against transcribed golden files


def test_table_shapes():
    assert len(appendix_rows("plain")) == 36
    assert len(appendix_rows("mixed")) == 56


@pytest.mark.parametrize("kind,fname", [
    ("plain", "appendix_plain.csv"),
    ("mixed", "appendix_mixed.csv"),
])
def test_tables_match_golden(kind, fname):
    golden = (GOLDEN / fname).read_text()
    assert appendix_csv(kind) == golden


def test_mixed_table_last_row_is_w10_only():
    rows = appendix_rows("mixed")
    last = rows[-1]
    assert last.label() == "2qq_0+3q_0+1"
    for name in MIXED_COLUMNS:
        hit = last in set(member_support(name))
        assert hit == (name == "w10")


# ---------------------------------------------------------------------------
# candidate rejection sets for the order scans


def test_minimal_non_orders_full_family():
    assert labels(minimal_non_orders("D")) == {
        "q_0+1", "3q_0+1", "q+1", "q+2q_0", "q+3q_0", "2q+q_0", "3q",
        "qq_0+1", "qq_0+2q_0", "qq_0+3q_0", "qq_0+q+q_0", "qq_0+2q",
        "2qq_0+q_0",
    }


def test_minimal_non_orders_subfamily():
    assert labels(minimal_non_orders("E")) == {
        "3q_0+1", "q+1", "q+3q_0", "3q",
        "3qq_0+1", "3qq_0+3q_0", "3qq_0+q", "6qq_0",
    }


def test_proposed_orders_downward_closed():
    """Each candidate order dominates only other candidate orders."""
    p = ree_params(2)
    orders = {index_value(ix, p) for ix in D_ORDER_INDICES}
    for eps in orders:
        digits = []
        v = eps
        while v:
            digits.append(v % 3)
            v //= 3
        below = {0}
        for pos, d in enumerate(digits):
            below = {b + c * 3**pos for b in below for c in range(d + 1)}
        assert below <= orders, f"{eps} dominates a non-order"


def test_subfamily_orders_inside_full_orders():
    p = ree_params(3)
    sub = {index_value(ix, p) for ix in E_ORDER_INDICES}
    full = {index_value(ix, p) for ix in D_ORDER_INDICES}
    assert sub <= full


# ---------------------------------------------------------------------------
# soundness against the exact derivative engine


def test_support_soundness_exact():
    """Every index off the claimed support differentiates to zero."""
    checked, violations = support_soundness(hasse_calculus(1))
    assert violations == []
    assert checked >= 9000


def test_support_soundness_exact_s2():
    """The off-support zero sweep at the first level without index collisions."""
    checked, violations = support_soundness(hasse_calculus(2))
    assert violations == []
    assert checked == 826202


def test_claimed_supports_exact_in_window():
    """Within the table window the claims are attained, not just sound.

    This pins down the ladder pruning for w9/w10: the pruned indices
    really differentiate to zero, and nothing that survives pruning is
    spurious at the base level.
    """
    calc = hasse_calculus(1)
    p1 = ree_params(1)
    bound = 2 * p1.q * p1.q0 + 3 * p1.q0 + 1
    for name in ("w4", "w5", "w9", "w10"):
        table = calc.table(name)
        true_sup = {i for i, v in table.items() if i <= bound and not v.is_zero()}
        claimed = {v for v in _member_values(name, p1.s) if v <= bound}
        assert claimed == true_sup, name
