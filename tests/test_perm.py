import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from basekit import Perm

import bruteforce as bf

perms_of_5 = st.permutations(range(5)).map(Perm)
perms = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.permutations(range(n)).map(Perm)
)


def test_compose_example():
    assert (Perm([1, 0, 2]) * Perm([0, 2, 1])).to_list() == [2, 0, 1]


def test_compose_identity_and_inverse():
    p = Perm([3, 1, 0, 2])
    e = Perm.identity(4)
    assert p * e == p
    assert e * p == p
    assert p * p.inverse() == e
    assert p.inverse() * p == e


def test_inverse_examples():
    assert Perm([1, 2, 0]).inverse().to_list() == [2, 0, 1]
    assert Perm.identity(5).inverse() == Perm.identity(5)
    t = Perm.from_cycles(4, (1, 3))
    assert t.inverse() == t


def test_act():
    p = Perm([1, 0, 2])
    assert p[0] == 1
    assert p[2] == 2
    with pytest.raises(IndexError):
        p[3]
    with pytest.raises(IndexError):
        p[-1]
    assert p[np.int64(0)] == 1 and p[np.uint8(2)] == 2
    with pytest.raises(IndexError):
        p[np.int32(3)]


@pytest.mark.parametrize(
    "point,named",
    [(True, "point True"), (1.0, "point 1.0"), ("1", "point '1'")],
    ids=["bool", "integral-float", "string"],
)
def test_act_rejects_non_integer_points(point, named):
    # True passed the range check and indexed numpy as a mask; 1.0 raised
    # numpy's IndexError
    with pytest.raises(ValueError, match=f"{re.escape(named)} is not an integer"):
        Perm([1, 2, 0])[point]


def test_degree_mismatch():
    with pytest.raises(ValueError):
        Perm([1, 0]) * Perm([1, 0, 2])


def test_not_a_permutation():
    for bad in ([0, 0], [1, 2], [0, -1], []):
        with pytest.raises(ValueError):
            Perm(bad)


def test_images_must_be_integers():
    # no silent truncation or parsing: each of these once became a valid Perm
    for bad in ([1.5, 0.2, 2], [1.0, 0.0], ["1", "0", "2"], [True, False], [2**70, 0]):
        with pytest.raises(ValueError):
            Perm(bad)
    # numpy reads a bool among ints as 0 or 1, so the array's dtype alone
    # would take this one as [1, 0, 2]
    for bad in ([True, False, 2], (2, 0, False), [True, False]):
        with pytest.raises(ValueError, match=re.escape(f"images must be integers, not bool: {bad!r}")):
            Perm(bad)
    assert Perm(np.array([1, 0, 2], dtype=np.uint8)).to_list() == [1, 0, 2]
    assert Perm(np.array([1, 0, 2], dtype=np.int64)).images.dtype == np.int32


def test_images_are_copied():
    source = np.array([1, 0, 2])
    p = Perm(source)
    source[0] = 0
    assert p.to_list() == [1, 0, 2]


@given(perms_of_5, perms_of_5)
def test_compose_matches_reference(p, q):
    assert (p * q).to_list() == list(bf.compose(p.to_list(), q.to_list()))


@pytest.mark.parametrize("degree", [1, 2, 2400])
def test_compose_matches_reference_at_every_degree(degree):
    # the product is a fresh read-only int32 array, and neither operand changes
    rng = np.random.default_rng(degree)
    a, b = rng.permutation(degree).tolist(), rng.permutation(degree).tolist()
    p, q = Perm(a), Perm(b)
    for x, y, want in ((p, q, bf.compose(a, b)), (q, p, bf.compose(b, a)), (p, p, bf.compose(a, a))):
        r = x * y
        assert r.to_list() == list(want)
        assert r.images.dtype == np.int32
        assert not r.images.flags.writeable and r.images.flags.owndata
    assert p.images.tolist() == a and q.images.tolist() == b


@given(perms)
def test_inverse_law(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(perms_of_5, perms_of_5, perms_of_5)
def test_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(perms_of_5, perms_of_5, st.integers(min_value=0, max_value=4))
def test_composition_acts_pointwise(p, q, i):
    assert (p * q)[i] == q[p[i]]


@given(perms)
def test_support_empty_iff_identity(p):
    assert (p.support() == ()) == p.is_identity()


def test_cycles_roundtrip():
    p = Perm.from_cycles(6, (0, 1, 2), (4, 5))
    assert p.cycles() == [(0, 1, 2), (4, 5)]
    assert p.to_list() == [1, 2, 0, 3, 5, 4]
    with pytest.raises(ValueError):
        Perm.from_cycles(3, (0, 1), (1, 2))
    assert Perm.from_cycles(np.int64(3), (np.int32(0), np.uint8(2))).to_list() == [2, 1, 0]


FROM_CYCLES_NON_INTEGERS = {
    # True indexed numpy as a mask, giving images [2, 2, 1] and a repr that never returns
    "bool-point": ((3, (True, 2)), "point True"),
    # the float point was silently dropped
    "float-point": ((3, (1.5,)), "point 1.5"),
    # numpy's IndexError
    "integral-float-point": ((4, (0, 1.0)), "point 1.0"),
    "float-degree": ((3.0, (0, 1)), "degree 3.0"),
    "bool-degree": ((True,), "degree True"),
}


@pytest.mark.parametrize("args,named", FROM_CYCLES_NON_INTEGERS.values(),
                         ids=FROM_CYCLES_NON_INTEGERS.keys())
def test_from_cycles_rejects_non_integers(args, named):
    with pytest.raises(ValueError, match=f"{re.escape(named)} is not an integer"):
        Perm.from_cycles(*args)


def test_from_cycles_needs_a_point():
    with pytest.raises(ValueError, match="degree must be positive"):
        Perm.from_cycles(0)


def test_identity_rejects_a_non_integer_degree():
    # identity(2.5) used to be the identity on 3 points
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError, match=f"degree {re.escape(repr(bad))} is not an integer"):
            Perm.identity(bad)
    assert Perm.identity(np.int64(3)).to_list() == [0, 1, 2]


def test_hash_eq():
    assert hash(Perm([1, 0, 2])) == hash(Perm((1, 0, 2)))
    assert Perm([1, 0, 2]) != Perm([1, 0, 2, 3])
    assert len({Perm([0, 1]), Perm.identity(2)}) == 1


def test_immutable_images():
    p = Perm([1, 0])
    with pytest.raises(ValueError):
        p.images[0] = 0
