"""Signed permutations, roots, lengths and dominance."""

import itertools

import pytest

import parabolic_oracle
import weyl_oracle as oracle
from bgg import weyl
from bgg.weyl import Root


def test_positive_root_count():
    for n in range(2, 7):
        roots = weyl.positive_roots(n)
        assert len(roots) == n * n
        assert len(set(roots)) == n * n
        assert len(weyl.simple_roots(n)) == n


def test_root_vectors():
    assert Root("a", 1, 3).vector(4) == (1, 0, -1, 0)
    assert Root("b", 2).vector(4) == (0, 2, 0, 0)
    assert Root("c", 1, 3).vector(4) == (1, 0, 1, 0)
    with pytest.raises(ValueError):
        Root("x", 1, 2).vector(3)


def test_root_labels():
    assert Root("a", 2, 3).label() == "a23"
    assert Root("b", 1).label() == "b1"
    assert Root("c", 10, 12).label() == "c10,12"


def test_simple_expansion():
    """Every positive root is a nonnegative combination of the simples."""
    for n in (3, 4):
        simples = weyl.simple_roots(n)
        for root in weyl.positive_roots(n):
            coeffs = [oracle.simple_coefficient(root, m, n) for m in range(1, n + 1)]
            assert all(c >= 0 for c in coeffs)
            recon = [0] * n
            for c, s in zip(coeffs, simples):
                recon = [a + c * b for a, b in zip(recon, s.vector(n))]
            assert tuple(recon) == root.vector(n)


def test_pairing_with_rho():
    """rho pairs to 1 with every simple coroot."""
    for n in (2, 3, 5):
        r = weyl.rho(n)
        for s in weyl.simple_roots(n):
            assert oracle.pairing(r, s) == 1


def test_coweights_read_simple_coefficients():
    """A root's dot product with omega_m^vee is its coefficient on the
    m-th simple root, and each simple root pairs to 1 with its own
    coweight and 0 with the others."""
    for n in (2, 3, 5):
        simples = weyl.simple_roots(n)
        for m in range(1, n + 1):
            omega = oracle.coweight(m, n)
            for root in weyl.positive_roots(n):
                dot = sum(a * b for a, b in zip(root.vector(n), omega))
                assert dot == oracle.simple_coefficient(root, m, n), (root, m)
            assert [sum(a * b for a, b in zip(s.vector(n), omega)) for s in simples] == [
                int(i == m) for i in range(1, n + 1)
            ]


def test_reflection_examples():
    lam = (3, 2, 1)
    act = lambda root: oracle.standard_action(oracle.reflection(root, 3), lam)
    assert act(Root("a", 1, 2)) == (2, 3, 1)
    assert act(Root("b", 1)) == (-3, 2, 1)
    assert act(Root("c", 1, 2)) == (-2, -3, 1)
    assert act(Root("c", 1, 3)) == (-1, 2, -3)


def test_reflections_are_involutions():
    n = 4
    for root in weyl.positive_roots(n):
        s = oracle.reflection(root, n)
        assert oracle.compose(s, s) == oracle.identity(n)
        assert oracle.as_reflection(s) == root


def test_as_reflection_rejects_non_reflections():
    n = 3
    assert oracle.as_reflection(oracle.identity(n)) is None
    two_flips = oracle.compose(
        oracle.reflection(Root("b", 1), n), oracle.reflection(Root("b", 2), n)
    )
    assert oracle.as_reflection(two_flips) is None
    three_cycle = oracle.compose(
        oracle.reflection(Root("a", 1, 2), n), oracle.reflection(Root("a", 2, 3), n)
    )
    assert oracle.as_reflection(three_cycle) is None


def test_group_order():
    assert sum(1 for _ in oracle.all_elements(2)) == 8
    assert sum(1 for _ in oracle.all_elements(3)) == 48


def test_compose_inverse_action_exhaustive_n2():
    lam = (5, 2)
    elems = list(oracle.all_elements(2))
    for w1 in elems:
        assert oracle.compose(w1, oracle.inverse(w1)) == oracle.identity(2)
        for w2 in elems:
            assert oracle.standard_action(
                oracle.compose(w1, w2), lam
            ) == oracle.standard_action(w1, oracle.standard_action(w2, lam))


def test_action_composition_sampled_n3():
    elems = list(oracle.all_elements(3))
    lam = (7, 4, 2)
    for w1 in elems[::5]:
        assert oracle.compose(oracle.inverse(w1), w1) == oracle.identity(3)
        for w2 in elems[::7]:
            assert oracle.standard_action(
                oracle.compose(w1, w2), lam
            ) == oracle.standard_action(w1, oracle.standard_action(w2, lam))


def test_from_regular_image_roundtrip():
    for w in oracle.all_elements(3):
        assert oracle.from_regular_image(oracle.standard_action(w, weyl.rho(3))) == w
    with pytest.raises(ValueError):
        oracle.from_regular_image((1, 1, 2))


def _bfs_lengths(n):
    """Word length over the simple reflections, by breadth-first search."""
    gens = [oracle.reflection(r, n) for r in weyl.simple_roots(n)]
    dist = {oracle.identity(n): 0}
    frontier = [oracle.identity(n)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                c = oracle.compose(g, w)
                if c not in dist:
                    dist[c] = dist[w] + 1
                    nxt.append(c)
        frontier = nxt
    return dist


@pytest.mark.parametrize("n", [2, 3])
def test_length_matches_bfs_word_length(n):
    dist = _bfs_lengths(n)
    assert len(dist) == 2**n * __import__("math").factorial(n)
    for w, d in dist.items():
        assert oracle.length(w) == d


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inversion_length_matches_length(n):
    """The all-pairs inversion count of mu = w(rho) against the
    root-counting length of w, over all of W(C_n)."""
    for w in oracle.all_elements(n):
        mu = oracle.standard_action(w, weyl.rho(n))
        assert parabolic_oracle.inversion_length(mu) == oracle.length(w)


def test_reflect_matches_reflection_action():
    n, lam = 4, (7, -3, 2, 5)
    for r in weyl.positive_roots(n):
        assert oracle.reflect(lam, r) == oracle.standard_action(oracle.reflection(r, n), lam)


def test_longest_element():
    w0 = oracle.WeylElement((1, 2, 3), (-1, -1, -1))
    assert oracle.length(w0) == 9
    assert max(oracle.length(w) for w in oracle.all_elements(2)) == 4


def test_arrow():
    n = 3
    e = oracle.identity(n)
    s = oracle.reflection(Root("a", 2, 3), n)
    assert oracle.arrow(e, s) == Root("a", 2, 3)
    assert oracle.arrow(s, e) is None
    assert oracle.arrow(e, e) is None
    # a reflection of length 5 is not arrow-related to the identity
    far = oracle.reflection(Root("b", 1), n)
    assert oracle.length(far) == 5
    assert oracle.arrow(e, far) is None


def test_affine_action():
    n = 3
    assert oracle.affine_action(oracle.identity(n), (4, 1, 0)) == (4, 1, 0)
    s = oracle.reflection(Root("a", 1, 2), n)
    assert oracle.affine_action(s, (0, 0, 0)) == (-1, 1, 0)


def test_dominance_for_levi():
    # crossed {2}: groups (x1, x2 | x3, ..., xn), last group positive
    assert oracle.is_dominant((3, 1, 2), (2,), oracle.STRICTLY_FOR_LEVI)
    assert not oracle.is_dominant((1, 3, 2), (2,), oracle.STRICTLY_FOR_LEVI)
    assert not oracle.is_dominant((3, 1, -2), (2,), oracle.STRICTLY_FOR_LEVI)
    assert not oracle.is_dominant((2, 2, 1), (2,), oracle.STRICTLY_FOR_LEVI)
    assert oracle.is_dominant((2, 2, 1), (2,), oracle.FOR_LEVI)
    assert oracle.is_dominant((2, 2, 0), (2,), oracle.FOR_LEVI)
    assert not oracle.is_dominant((2, 2, -1), (2,), oracle.FOR_LEVI)


def test_dominance_trailing_bar_drops_positivity():
    assert oracle.is_dominant((3, 2, -1), (3,), oracle.STRICTLY_FOR_LEVI)
    assert not oracle.is_dominant((3, 2, -1), (2,), oracle.STRICTLY_FOR_LEVI)
    assert oracle.is_dominant((-1, 3, 2), (1, 3), oracle.STRICTLY_FOR_LEVI)


def test_dominance_validation():
    with pytest.raises(ValueError):
        oracle.is_dominant((1, 2), (5,), oracle.FOR_LEVI)
    with pytest.raises(ValueError):
        oracle.is_dominant((1, 2), (1,), "nonsense")
