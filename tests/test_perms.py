"""Permutation arithmetic sanity, with randomized algebraic laws."""

from hypothesis import given
from hypothesis import strategies as st

from oracle_product import direct_sum
from fusionkit import perms


def perm_st(degree=6):
    return st.permutations(range(degree)).map(tuple)


@given(perm_st(), perm_st(), perm_st())
def test_mul_associative(a, b, c):
    assert perms.mul(perms.mul(a, b), c) == perms.mul(a, perms.mul(b, c))


@given(perm_st())
def test_identity_and_inverse(p):
    e = perms.identity(6)
    assert perms.mul(p, e) == p
    assert perms.mul(e, p) == p
    assert perms.mul(p, perms.inverse(p)) == e
    assert perms.mul(perms.inverse(p), p) == e


@given(perm_st())
def test_power_order(p):
    n = perms.order(p)
    assert n >= 1
    assert perms.power(p, n) == perms.identity(6)
    for k in range(1, n):
        assert perms.power(p, k) != perms.identity(6)


@given(perm_st(), perm_st(), perm_st())
def test_conjugate_is_right_action(x, g, h):
    gh = perms.mul(g, h)
    assert perms.conjugate(x, gh) == perms.conjugate(perms.conjugate(x, g), h)


@given(perm_st())
def test_power_negative_is_inverse_power(p):
    assert perms.power(p, -1) == perms.inverse(p)
    assert perms.power(p, -3) == perms.inverse(perms.power(p, 3))


def test_from_cycles_and_string():
    p = perms.from_cycles(4, [(0, 1, 2, 3)])
    assert p == (1, 2, 3, 0)
    assert perms.order(p) == 4


@given(perm_st(4), perm_st(3))
def test_direct_sum_blocks(a, b):
    s = direct_sum(a, b)
    assert len(s) == 7
    assert s[:4] == a
    assert tuple(x - 4 for x in s[4:]) == b


def test_is_perm_rejects():
    assert perms.is_perm((0, 1, 2))
    assert not perms.is_perm((0, 0, 2))
    assert not perms.is_perm((0, 1, 3))


def _reference_mul(a, b):
    return tuple(b[x] for x in a)


@given(st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.tuples(perm_st(n), perm_st(n))))
def test_mul_and_left_mul_match_the_reference(pair):
    a, b = pair
    want = _reference_mul(a, b)
    for got in (perms.mul(a, b), perms.left_mul(a)(b),
                perms.mul(list(a), list(b)), perms.left_mul(list(a))(list(b))):
        assert type(got) is tuple
        assert got == want


def test_mul_at_degrees_0_1_and_2():
    # a getter of one point returns an entry, not a tuple
    for a, b in [((), ()), ((0,), (0,)), ((0, 1), (1, 0)), ((1, 0), (1, 0))]:
        assert perms.mul(a, b) == _reference_mul(a, b)
        assert perms.left_mul(a)(b) == _reference_mul(a, b)
        assert perms.mul(list(a), list(b)) == _reference_mul(a, b)
        assert perms.left_mul(list(a))(list(b)) == _reference_mul(a, b)
    assert perms.mul((), ()) == ()
    assert perms.mul((0,), (0,)) == (0,)
