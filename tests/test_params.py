import pytest

from reecurve.params import (
    _A_MAX,
    _B_MAX,
    _C_MAX,
    _D_MAX,
    Q2,
    SymbolicIndex,
    cube_count,
    index_value,
    indices,
    ree_params,
    symbolic_from_value,
)

# every index of the grammar: a*qq0 + b*q + c*q0 + d within the bounds, and q2
GRAMMAR = [Q2] + [
    SymbolicIndex(a, b, c, d)
    for a in range(_A_MAX + 1) for b in range(_B_MAX + 1)
    for c in range(_C_MAX + 1) for d in range(_D_MAX + 1)
]


# Invariants for the two smallest parameter levels, computed by hand from
# q0 = 3^s, q = 3*q0^2, g = (3/2)q0(q-1)(q+q0+1), N = q^3 + 1,
# m = 1 + 3q0 + 2q + 3qq0 + q^2.
CASES = [
    (1, 3, 27, 3627, 19684, 1036),
    (2, 9, 243, 826551, 14348908, 66124),
    (3, 27, 2187, 196100595, 10460353204, 4964572),
]


@pytest.mark.parametrize("s,q0,q,genus,n_rat,m", CASES)
def test_invariants(s, q0, q, genus, n_rat, m):
    p = ree_params(s)
    assert p.q0 == q0
    assert p.q == q
    assert p.genus == genus
    assert p.n_rational == n_rat
    assert p.m_value == m


def test_q_is_3q0_squared():
    for s in range(1, 6):
        p = ree_params(s)
        assert p.q == 3 * p.q0**2
        assert p.q0 == 3**s


@pytest.mark.parametrize("s", [1, 2, 3])
def test_cube_count_names_the_frobenius_powers(s):
    p = ree_params(s)
    powers = {tag: 3 ** cube_count(tag, s) for tag in ("1", "q0", "3q0", "q", "q2")}
    assert powers == {"1": 1, "q0": p.q0, "3q0": 3 * p.q0, "q": p.q, "q2": p.q**2}


def test_l_exponents_sum_to_genus():
    for s in range(1, 5):
        p = ree_params(s)
        assert p.l_exp_1 == p.q0 * (p.q**2 - 1)
        assert 2 * p.l_exp_2 == p.q0 * (p.q - 1) * (p.q + 3 * p.q0 + 1)
        assert p.l_exp_1 + p.l_exp_2 == p.genus


def test_invalid_s():
    with pytest.raises(ValueError):
        ree_params(0)
    with pytest.raises(ValueError):
        ree_params(-2)


def test_index_values_s1():
    p = ree_params(1)
    assert index_value(SymbolicIndex(), p) == 0
    assert index_value(SymbolicIndex(d=1), p) == 1
    assert index_value(SymbolicIndex(c=1), p) == 3
    assert index_value(SymbolicIndex(b=1), p) == 27
    assert index_value(SymbolicIndex(a=1), p) == 81
    assert index_value(Q2, p) == 729
    assert index_value(SymbolicIndex(a=3, b=2, c=3, d=1), p) == 307


def test_labels():
    assert SymbolicIndex().label() == "0"
    assert SymbolicIndex(d=1).label() == "1"
    assert SymbolicIndex(c=1).label() == "q_0"
    assert SymbolicIndex(c=2).label() == "2q_0"
    assert SymbolicIndex(b=1).label() == "q"
    assert SymbolicIndex(a=1).label() == "qq_0"
    assert SymbolicIndex(a=3, b=2, c=3, d=1).label() == "3qq_0+2q+3q_0+1"
    assert Q2.label() == "q^2"


def test_str_and_repr():
    assert str(SymbolicIndex(3, 2, 3, 1)) == "3qq0+2q+3q0+1"
    # the debugging form, which the support report's collision warning quotes
    assert repr(SymbolicIndex(b=3)) == "SymbolicIndex(3q)"


def test_parse_inverts_str():
    assert len(GRAMMAR) == 225
    for ix in GRAMMAR:
        assert SymbolicIndex.parse(str(ix)) == ix
        assert ix.label() == str(ix).replace("q0", "q_0").replace("q2", "q^2")


@pytest.mark.parametrize("text", ["q0+q0", "+q", "q3", "2", ""])
def test_parse_rejects_off_grammar_text(text):
    with pytest.raises(ValueError):
        SymbolicIndex.parse(text)


def test_indices_reads_a_row():
    assert indices("0 1 q0 qq0+q q2") == (
        SymbolicIndex(), SymbolicIndex(d=1), SymbolicIndex(c=1), SymbolicIndex(a=1, b=1), Q2,
    )
    assert indices("") == ()


def test_symbolic_round_trip():
    # every grammar point decodes back to itself at s >= 2
    p = ree_params(2)
    for a in range(7):
        for b in range(4):
            for c in range(4):
                for d in range(2):
                    idx = SymbolicIndex(a=a, b=b, c=c, d=d)
                    v = index_value(idx, p)
                    assert symbolic_from_value(v, p) == idx
    assert symbolic_from_value(p.q**2, p) == Q2


def test_symbolic_decode_rejects_off_grammar():
    p = ree_params(2)
    with pytest.raises(ValueError):
        symbolic_from_value(2, p)  # d <= 1, so plain 2 is not in the grammar


def test_injectivity_check():
    p1 = ree_params(1)
    # at s=1 the values qq_0 and 3q coincide (81 = 81)
    pair = [SymbolicIndex(a=1), SymbolicIndex(b=3)]
    assert len({index_value(ix, p1) for ix in pair}) == 1
    p2 = ree_params(2)
    assert len({index_value(ix, p2) for ix in pair}) == 2


def test_bounds_enforced():
    with pytest.raises(ValueError):
        SymbolicIndex(a=7)
    with pytest.raises(ValueError):
        SymbolicIndex(d=2)
    with pytest.raises(ValueError):
        SymbolicIndex(a=1, is_q2=True)
