"""Parabolics, grading elements and Hasse diagrams."""

import functools
import itertools
from fractions import Fraction

import pytest

import parabolic_oracle
import weyl_oracle as oracle
from bgg import cosets, weyl
from bgg import parabolic as pmod
from bgg.weyl import Root


def test_parabolic_validation():
    with pytest.raises(ValueError):
        pmod.parabolic(1, (1,))
    with pytest.raises(ValueError):
        pmod.parabolic(3, ())
    with pytest.raises(ValueError):
        pmod.parabolic(3, (0,))
    with pytest.raises(ValueError):
        pmod.parabolic(3, (4,))
    assert pmod.parabolic(4, (2, 2, 1)).crossed == (1, 2)


def _by_label(root):
    """Roots are not ordered: sort them by (kind, i, j)."""
    return root.kind, root.i, root.j


def test_levi_nilradical_partition():
    for n in (3, 4, 5):
        p = pmod.parabolic(n, (2,))
        levi = parabolic_oracle.levi_roots(p)
        nil = parabolic_oracle.nilradical_roots(p)
        assert len(nil) == 4 * (n - 2) + 3
        assert sorted(levi + nil, key=_by_label) == sorted(weyl.positive_roots(n), key=_by_label)
        assert not set(levi) & set(nil)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def test_grading_element():
    """2E, the integer grading `cosets` orders the Hasse arrows with, is
    twice the oracle's E, the sum of the crossed fundamental coweights,
    for every nonempty crossed set at n = 2..6."""
    assert cosets._twice_grading(5, (2,)) == (2, 2, 0, 0, 0)
    assert cosets._twice_grading(5, (1,)) == (2, 0, 0, 0, 0)
    assert cosets._twice_grading(4, (1, 3)) == (4, 2, 2, 0)
    assert cosets._twice_grading(3, (3,)) == (1, 1, 1)
    half = Fraction(1, 2)
    assert parabolic_oracle.grading_element(pmod.parabolic(3, (3,))) == (half, half, half)
    for n in range(2, 7):
        for size in range(1, n + 1):
            for crossed in itertools.combinations(range(1, n + 1), size):
                e = parabolic_oracle.grading_element(pmod.parabolic(n, crossed))
                assert cosets._twice_grading(n, crossed) == tuple(2 * x for x in e), crossed


@pytest.mark.parametrize("crossed", [(1,), (2,), (3,), (1, 2), (2, 4), (4,)])
def test_grading_element_defining_property(crossed):
    """alpha(E) is 1 on crossed simple roots and 0 on the others, for the
    oracle's E and for half of `cosets`' 2E."""
    n = 4
    p = pmod.parabolic(n, crossed)
    e = parabolic_oracle.grading_element(p)
    twice = cosets._twice_grading(n, p.crossed)
    for m, s in enumerate(weyl.simple_roots(n), start=1):
        want = 1 if m in p.crossed else 0
        assert _dot(s.vector(n), e) == want
        assert _dot(s.vector(n), twice) == 2 * want


def test_nilradical_grading_degrees():
    """For crossed {2} the nilradical has degrees 1 and 2, read off 2E;
    degree 2 is spanned by b_1, b_2 and c_12."""
    for n in (3, 5):
        p = pmod.parabolic(n, (2,))
        twice = cosets._twice_grading(n, p.crossed)
        degrees = {}
        for r in parabolic_oracle.nilradical_roots(p):
            degrees.setdefault(_dot(r.vector(n), twice) // 2, []).append(r)
        assert set(degrees) == {1, 2}
        assert sorted(degrees[2], key=_by_label) == [Root("b", 1), Root("b", 2), Root("c", 1, 2)]
        assert len(degrees[1]) == 4 * (n - 2)


def test_conformal_weight_and_order_bound():
    """`order_bound` reads 2E and halves once: an int when the drop is
    whole, equal to the oracle's drop, which pairs with the coweights."""
    p = pmod.parabolic(4, (2,))
    assert parabolic_oracle.conformal_weight(weyl.rho(4), p) == 7
    assert pmod.order_bound((3, 2, 1, 0), (2, 1, 1, 0), p) == 2
    # half-integer grading element still produces exact values
    p3 = pmod.parabolic(3, (3,))
    assert parabolic_oracle.conformal_weight((1, 1, 1), p3) == Fraction(3, 2)
    assert pmod.order_bound((1, 1, 1), (0, 0, 0), p3) == Fraction(3, 2)
    drop = pmod.order_bound((2, 2, 2), (2, 2, 0), p3)
    assert drop == 1 and isinstance(drop, int)
    with pytest.raises(ValueError):
        pmod.order_bound((1, 2), (1, 2), p)
    with pytest.raises(ValueError):
        parabolic_oracle.conformal_weight((1, 2), p)
    weights = list(itertools.product(range(-2, 3), repeat=3))
    for crossed in ((1,), (2,), (3,), (1, 3), (2, 3)):
        q = pmod.parabolic(3, crossed)
        for source in weights[::7]:
            for target in weights[::11]:
                want = parabolic_oracle.order_bound(source, target, q)
                assert pmod.order_bound(source, target, q) == want, (crossed, source, target)


@pytest.mark.parametrize("n", range(2, 9))
def test_root_grade_matches_simple_coefficients(n):
    """alpha(E) read off `cosets`' integer 2E, (alpha, 2E) / 2, is an
    integer equal to alpha's coefficient sum on the crossed simple roots
    (the oracle's grade), for every nonempty crossed set (those
    containing node n, where E is half-integral, included)."""
    for size in range(1, n + 1):
        for crossed in itertools.combinations(range(1, n + 1), size):
            p = pmod.parabolic(n, crossed)
            twice = cosets._twice_grading(n, crossed)
            for r in weyl.positive_roots(n):
                doubled = _dot(r.vector(n), twice)
                coeffs = [oracle.simple_coefficient(r, m, n) for m in crossed]
                assert doubled == 2 * sum(coeffs), (r, crossed)
                assert parabolic_oracle.root_grade(r, p) == sum(coeffs), (r, crossed)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_node_count_crossed2(n):
    hd = pmod.hasse_diagram(pmod.parabolic(n, (2,)))
    assert len(hd.nodes) == 2 * n * (n - 1)
    assert len({nd.weight for nd in hd.nodes}) == len(hd.nodes)


def test_node_count_crossed1():
    for n in (3, 4, 5):
        hd = pmod.hasse_diagram(pmod.parabolic(n, (1,)))
        assert len(hd.nodes) == 2 * n
        firsts = [nd.weight[0] for nd in hd.nodes]
        assert sorted(firsts) == sorted(
            list(range(1, n + 1)) + list(range(-n, 0))
        )


def test_full_flag_count():
    hd = pmod.hasse_diagram(pmod.parabolic(3, (1, 2, 3)))
    assert len(hd.nodes) == 48


def _levi_subgroup(n, crossed):
    p = pmod.parabolic(n, crossed)
    gens = [
        oracle.reflection(r, n)
        for r in weyl.simple_roots(n)
        if all(oracle.simple_coefficient(r, m, n) == 0 for m in p.crossed)
    ]
    group = {oracle.identity(n)}
    frontier = list(group)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                c = oracle.compose(w, g)
                if c not in group:
                    group.add(c)
                    nxt.append(c)
        frontier = nxt
    return group


# every n <= 5 with the crossed sets {1}, {2}, {n} and (for n >= 3) {1, 3};
# the five cases checked first keep their places, and so their test ids
_FIRST_CASES = [(3, (2,)), (4, (2,)), (4, (1,)), (3, (3,)), (4, (1, 3))]
ORACLE_GRID = _FIRST_CASES + sorted(
    {
        (n, crossed)
        for n in (2, 3, 4, 5)
        for crossed in ((1,), (2,), (n,), (1, 3))
        if max(crossed) <= n
    }
    - set(_FIRST_CASES)
)


@pytest.mark.parametrize("n,crossed", ORACLE_GRID)
def test_nodes_are_minimal_coset_representatives(n, crossed):
    """Oracle: enumerate the full Weyl group, cut it into cosets under left
    multiplication by the Levi subgroup, and check that the diagram nodes
    are exactly the unique minimal-length coset members."""
    wl = _levi_subgroup(n, crossed)
    hd = pmod.hasse_diagram(pmod.parabolic(n, crossed))
    reps = {oracle.from_regular_image(nd.weight) for nd in hd.nodes}
    seen = set()
    cosets = 0
    for w in oracle.all_elements(n):
        if w in seen:
            continue
        coset = {oracle.compose(u, w) for u in wl}
        seen |= coset
        cosets += 1
        lengths = {v: oracle.length(v) for v in coset}
        lmin = min(lengths.values())
        mins = [u for u in coset if lengths[u] == lmin]
        assert len(mins) == 1
        assert set(coset) & reps == set(mins)
    assert cosets == len(hd.nodes)


def test_node_order_and_weights():
    hd = pmod.hasse_diagram(pmod.parabolic(4, (2,)))
    lengths = [nd.length for nd in hd.nodes]
    assert lengths == sorted(lengths)
    assert oracle.from_regular_image(hd.nodes[0].weight) == oracle.identity(4)
    for nd in hd.nodes:
        w = oracle.from_regular_image(nd.weight)
        assert nd.weight == oracle.standard_action(w, weyl.rho(4))
        assert oracle.length(w) == nd.length
        assert oracle.is_dominant(nd.weight, (2,))


def test_edges_match_arrow_oracle():
    """Oracle, over the whole grid: every ordered pair of nodes tested with
    weyl_oracle.arrow, which recognizes w2 w^-1 as a reflection and
    compares weyl_oracle.length."""
    for n, crossed in ORACLE_GRID:
        p = pmod.parabolic(n, crossed)
        hd = pmod.hasse_diagram(p)
        edges = {(e.source, e.target, e.root) for e in hd.edges}
        elements = [oracle.from_regular_image(nd.weight) for nd in hd.nodes]
        arrows = set()
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                r = oracle.arrow(a, b)
                if r is not None:
                    arrows.add((i, j, r))
        assert edges == arrows, (n, crossed)
        pairs = [(e.source, e.target) for e in hd.edges]
        assert pairs == sorted(pairs), (n, crossed)
        for e in hd.edges:
            drop = pmod.order_bound(hd.nodes[e.source].weight, hd.nodes[e.target].weight, p)
            assert e.order == drop, (n, crossed, e)
        if (n, crossed) == (3, (2,)):
            assert len(edges) == 16


def test_hasse_diagram_returns_fresh_objects():
    p = pmod.parabolic(4, (2,))
    hd = pmod.hasse_diagram(p)
    count, edges = len(hd.nodes), list(hd.edges)
    hd.nodes.clear()
    hd.edges.clear()
    again = pmod.hasse_diagram(p)
    assert len(again.nodes) == count and again.edges == edges


@pytest.mark.parametrize("crossed", [(2,), (1,), (1, 3)])
def test_edge_orders_from_pairing(crossed):
    """The conformal drop along an edge factors as
    <source weight, alpha^vee> * alpha(E), both from the oracle."""
    p = pmod.parabolic(4, crossed)
    hd = pmod.hasse_diagram(p)
    for edge in hd.edges:
        mu = hd.nodes[edge.source].weight
        grading = parabolic_oracle.root_grade(edge.root, p)
        assert edge.order == oracle.pairing(mu, edge.root) * grading
        assert isinstance(edge.order, int) and edge.order >= 1
        assert (
            hd.nodes[edge.target].length == hd.nodes[edge.source].length + 1
        )



@pytest.mark.parametrize("n", range(2, 8))
def test_sort_key_matches_oracle(n):
    """The node order is (length, perm, signs) of the signed permutation
    w with w(rho) = mu, and each node's length is w's root-counting
    length."""
    for crossed in sorted({(2,), (1,), (n,), (1, n)}):
        hd = pmod.hasse_diagram(pmod.parabolic(n, crossed))
        keys = []
        for nd in hd.nodes:
            w = oracle.from_regular_image(nd.weight)
            keys.append((oracle.length(w), w.perm, w.signs))
            assert nd.length == keys[-1][0] == parabolic_oracle.sort_key(nd.weight)[0]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), (n, crossed)


# the grid on which the edge search and the writers are checked against the
# all-pairs oracle: n = 2..9 with the crossed sets {1}, {2}, {n}, {1,3},
# {2,n} and {1,n}; {3}, {2,4} and {1,2,3} (one, two or three barred groups
# before the open one) for n <= 8; every node crossed for n <= 5, and {2}
# at n = 14 and 20
ALL_PAIRS_GRID = sorted(
    {
        (n, crossed)
        for n in range(2, 10)
        for crossed in ((1,), (2,), (n,), (1, 3), (2, n), (1, n))
        if max(crossed) <= n
    }
    | {
        (n, crossed)
        for n in range(3, 9)
        for crossed in ((3,), (2, 4), (1, 2, 3))
        if max(crossed) <= n
    }
    | {(n, tuple(range(1, n + 1))) for n in range(2, 6)}
    | {(14, (2,)), (20, (2,))}
)
_GRID_IDS = [f"{n}-" + ",".join(map(str, crossed)) for n, crossed in ALL_PAIRS_GRID]


@functools.lru_cache(maxsize=None)
def _diagram(n, crossed):
    return pmod.hasse_diagram(pmod.parabolic(n, crossed))


@pytest.mark.parametrize("n,crossed", ALL_PAIRS_GRID, ids=_GRID_IDS)
def test_hasse_diagram_matches_all_pairs_oracle(n, crossed):
    """Whole diagrams agree with the all-pairs search: node order,
    weights, lengths, every edge with its root and order, and the types
    of the records and of their fields."""
    got = _diagram(n, crossed)
    want = parabolic_oracle.hasse_diagram(pmod.parabolic(n, crossed))
    assert got.parabolic == want.parabolic and got.base == want.base
    assert got.nodes == want.nodes
    assert got.edges == want.edges
    for nd in got.nodes:
        assert type(nd) is pmod.HasseNode and type(nd.length) is int
        assert type(nd.weight) is tuple and all(type(x) is int for x in nd.weight)
    for e in got.edges:
        assert type(e) is pmod.HasseEdge and type(e.root) is Root
        assert all(type(x) is int for x in (e.source, e.target, e.order))
    assert type(got.nodes) is list and type(got.edges) is list


@pytest.mark.parametrize("n,crossed", ALL_PAIRS_GRID, ids=_GRID_IDS)
def test_writers_match_the_old_listing(n, crossed):
    """to_text is the listing `bgg hasse` printed, and to_json is
    json.dumps(to_dict, indent=1), byte for byte."""
    hd = _diagram(n, crossed)
    assert parabolic_oracle.first_difference(hd.to_text(), parabolic_oracle.text(hd)) is None
    assert parabolic_oracle.first_difference(hd.to_json(), parabolic_oracle.json_text(hd)) is None


def test_to_json_of_an_empty_edge_list():
    """A diagram without edges (not one hasse_diagram makes) still writes
    what json writes, [] included."""
    p = pmod.parabolic(3, (2,))
    hd = pmod.HasseDiagram(p, weyl.rho(3), _diagram(3, (2,)).nodes[:2], [])
    assert hd.to_json() == parabolic_oracle.json_text(hd)
    assert hd.to_text() == parabolic_oracle.text(hd)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_element_is_a_node_when_every_node_is_crossed(n):
    """With every node crossed W^p is all of W(C_n): the diagram has one
    node per signed permutation, with the root-counting length."""
    hd = _diagram(n, tuple(range(1, n + 1)))
    lengths = {nd.weight: nd.length for nd in hd.nodes}
    elements = list(oracle.all_elements(n))
    assert len(lengths) == len(elements) == len(hd.nodes)
    for w in elements:
        assert lengths[oracle.standard_action(w, weyl.rho(n))] == oracle.length(w)
