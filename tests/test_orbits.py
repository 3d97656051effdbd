"""Orbit diagrams, singular weight families and frozen figure fixtures."""

import copy

import pytest

import orbits_oracle
import parabolic_oracle
import weyl_oracle as oracle
from bgg import cosets, orbits, parabolic, weyl
from bgg.weyl import Root


def test_lambda_k():
    assert orbits.lambda_k(8, 7) == (7, 7, 6, 5, 4, 3, 2, 1)
    assert orbits.lambda_k(5, 2) == (4, 3, 2, 2, 1)
    assert orbits.lambda_k(5, 0) == (4, 3, 2, 1, 0)
    for n in (3, 6):
        for k in range(n):
            lam = orbits.lambda_k(n, k)
            assert oracle.is_dominant(lam, (), oracle.FOR_LEVI)  # g-dominant
            # semi-regular: one repeated pair, at |x| = k, or one 0 and no pair
            assert sorted(map(abs, lam)) == sorted([*range(1, n), k])
    with pytest.raises(ValueError):
        orbits.lambda_k(5, 5)
    with pytest.raises(ValueError):
        orbits.lambda_k(5, -1)


def test_tilde_lambda():
    assert orbits.tilde_lambda(8, 7) == (7, 7, 6, 5, 4, 3, 2, 1)
    assert orbits.tilde_lambda(5, 2, "-") == (-2, 4, 3, 2, 1)
    assert orbits.tilde_lambda(5, 0) == (0, 4, 3, 2, 1)
    with pytest.raises(ValueError):
        orbits.tilde_lambda(5, 0, "-")
    with pytest.raises(ValueError):
        orbits.tilde_lambda(5, 5)
    with pytest.raises(ValueError):
        orbits.tilde_lambda(5, 1, "x")


def test_igr1_bgg():
    chain = orbits_oracle.igr1_bgg(3)
    assert chain.terms == (
        (3, 2, 1),
        (2, 3, 1),
        (1, 3, 2),
        (-1, 3, 2),
        (-2, 3, 1),
        (-3, 2, 1),
    )
    assert chain.orders == (1, 1, 2, 1, 1)
    for n in (2, 5):
        chain = orbits_oracle.igr1_bgg(n)
        assert len(chain.terms) == 2 * n
        assert chain.orders.count(2) == 1
        assert sum(chain.orders) == 2 * n
        # terms are exactly the length-1 Hasse images for crossed {1}
        from bgg import parabolic as pmod

        hd = pmod.hasse_diagram(pmod.parabolic(n, (1,)))
        assert sorted(chain.terms) == sorted(nd.weight for nd in hd.nodes)


def test_placement_to_weight():
    assert orbits_oracle.placement_to_weight((8, 3), 7) == (7, 3)
    assert orbits_oracle.placement_to_weight((8, -8), 7) == (7, -7)
    assert orbits_oracle.placement_to_weight((2, 1), 1) == (1, 1)
    assert orbits_oracle.placement_to_weight((1, -1), 1) == (1, -1)
    assert orbits_oracle.placement_to_weight((2, -1), 0) == (1, 0)
    with pytest.raises(ValueError):
        orbits_oracle.placement_to_weight((2, 0), 1)


def test_regular_placements():
    """The placement table holds the regular placements in the order of
    their definition, and they are the regular orbit's placements."""
    for n in (3, 5, 8):
        pts = orbits_oracle.regular_placements(n)
        assert len(pts) == 2 * n * (n - 1)
        assert len(set(pts)) == len(pts)
        for a, b in pts:
            assert 1 <= abs(a) <= n and 1 <= abs(b) <= n
        assert list(orbits._placements(n)) == pts
        assert sorted(orbits.regular_orbit_projection(n).placements()) == sorted(pts)
    assert sorted(orbits._placements(2)) == [(-1, -2), (1, -2), (2, -1), (2, 1)]


def test_callers_cannot_corrupt_the_placement_table():
    """The placements of a rank are built once; the lists that
    cross_placements returns are the caller's, and changing them changes
    neither the table nor the next answer."""
    orbits._placements.cache_clear()
    expected = orbits_oracle.regular_placements(5)
    assert len(expected) == 2 * 5 * 4
    d = orbits.singular_orbit(5, 2)
    crosses = d.cross_placements()
    assert crosses == [p for p in expected if p not in set(d.placements())]
    assert crosses and len(crosses) + len(d.nodes) == len(expected)
    d.cross_placements().clear()
    got = d.cross_placements()
    got.reverse()
    got.append((0, 0))
    assert list(orbits._placements(5)) == expected
    assert d.cross_placements() == crosses
    assert orbits._placements.cache_info().misses == 1
    _assert_immutable(orbits._placements(5))


def _visible(placement, skips):
    return all(abs(c) not in skips for c in placement)


def test_regular_orbit_structure():
    d = orbits.regular_orbit_projection(4)
    assert sorted(d.placements()) == sorted(orbits_oracle.regular_placements(4))
    assert d.cross_placements() == []
    assert d.coincidences == []
    for nd in d.nodes:
        assert nd.placement == nd.weight[:2]
    for a in d.arrows:
        assert a.kind == orbits.STANDARD
        assert a.order in (1, 2)
    hasse = parabolic.hasse_diagram(parabolic.parabolic(4, (2,)))
    assert [nd.weight for nd in d.nodes] == [nd.weight for nd in hasse.nodes]


def test_regular_orbit_against_figure(figure_regular_n8):
    fx = figure_regular_n8
    d = orbits.regular_orbit_projection(fx["n"])
    skips = set(fx["skips"])
    visible = [nd.placement for nd in d.nodes if _visible(nd.placement, skips)]
    assert len(visible) == fx["visible_node_count"]
    quads = sorted(
        d.nodes[a.source].placement + d.nodes[a.target].placement
        for a in d.arrows
        if _visible(d.nodes[a.source].placement, skips)
        and _visible(d.nodes[a.target].placement, skips)
    )
    assert quads == sorted(tuple(q) for q in fx["arrows"])


def test_regular_orbit_labels_against_figure(figure_regular_n8):
    fx = figure_regular_n8
    d = orbits.regular_orbit_projection(fx["n"])
    by_pair = {
        (d.nodes[a.source].placement, d.nodes[a.target].placement): a.root
        for a in d.arrows
    }
    assert len(fx["labels"]) == 19
    for src, tgt, (kind, i, j) in fx["labels"]:
        root = by_pair[(tuple(src), tuple(tgt))]
        assert root == Root(kind, i, j)


_SINGULAR_FIXTURES = [
    ("figure_singular_n8_k7", 8, 7),
    ("figure_singular_n14_k7", 14, 7),
    ("figure_singular_n8_k1", 8, 1),
    ("figure_singular_n8_k0", 8, 0),
]


@pytest.mark.parametrize("name,n,k", _SINGULAR_FIXTURES)
def test_singular_orbit_against_figure(name, n, k, load):
    fx = load(name)
    assert (fx["n"], fx["k"]) == (n, k)
    d = orbits.singular_orbit(n, k)
    skips = set(fx["skips"])

    assert len(d.nodes) == fx["all_node_count"]
    visible = sorted(nd.placement for nd in d.nodes if _visible(nd.placement, skips))
    assert visible == sorted(tuple(p) for p in fx["nodes"])

    crosses = [p for p in d.cross_placements() if _visible(p, skips)]
    assert len(crosses) == fx["trivial_count"]

    def vis_quads(kind):
        return sorted(
            d.nodes[a.source].placement + d.nodes[a.target].placement
            for a in d.arrows
            if a.kind == kind
            and _visible(d.nodes[a.source].placement, skips)
            and _visible(d.nodes[a.target].placement, skips)
        )

    assert vis_quads(orbits.STANDARD) == sorted(tuple(q) for q in fx["arrows"])
    mine = {
        frozenset((q[0:2], q[2:4])) for q in vis_quads(orbits.IDENTITY)
    }
    theirs = {
        frozenset(((q[0], q[1]), (q[2], q[3]))) for q in fx["equals"]
    }
    assert mine == theirs


@pytest.mark.parametrize("n,k", [(4, 0), (4, 1), (4, 2), (4, 3), (5, 2)])
def test_singular_orbit_against_brute_force(n, k):
    """Oracle: enumerate the whole Weyl group and keep the elements whose
    images of both rho and the singular weight are strictly Levi-dominant."""
    d = orbits.singular_orbit(n, k)
    lam = orbits.lambda_k(n, k)
    expected = set()
    for w in oracle.all_elements(n):
        reg = oracle.standard_action(w, weyl.rho(n))
        img = oracle.standard_action(w, lam)
        if oracle.is_dominant(reg, (2,)) and oracle.is_dominant(img, (2,)):
            expected.add((reg[:2], img))
    assert {(nd.placement, nd.weight) for nd in d.nodes} == expected
    assert len(d.nodes) == len(expected)


def test_arrow_orders_match_order_bound():
    """Oracle: each non-identity arrow's order is the conformal-weight drop
    between its end weights, for n = 2..10 and every k."""
    checked = 0
    for n in range(2, 11):
        p = parabolic.parabolic(n, (2,))
        for k in range(n):
            d = orbits.singular_orbit(n, k)
            for a in d.arrows:
                if a.kind == orbits.IDENTITY:
                    assert a.order is None
                    continue
                source, target = d.nodes[a.source].weight, d.nodes[a.target].weight
                bound = parabolic_oracle.order_bound(source, target, p)
                assert type(a.order) is int and a.order == bound, (n, k, a)
                checked += 1
    assert checked == 2073  # 2072 of them at n = 3..10


def _assert_same_diagram(got, want, label):
    """Equal diagrams with the same record types: a NamedTuple equals a
    plain tuple of its values, so == alone does not check the types."""
    assert got == want, label
    for d in (got, want):
        assert type(d) is orbits.OrbitDiagram, label
        assert all(type(nd) is orbits.OrbitNode for nd in d.nodes), label
        assert all(type(a) is orbits.OrbitArrow for a in d.arrows), label
        assert all(type(c) is tuple for c in d.coincidences), label


def test_placement_rule_matches_full_scan():
    """Oracle: the diagram built from the placements of the collision set
    and the rank table equals the one from the placement rule over every
    Hasse node and edge, and the one from the full scan (w(lambda_k) of
    every node tested for Levi dominance), for n = 2..14 and every k.
    The oracle reads its collision set off lambda_k, so this checks the
    closed form {k, k + 1} (or {1}) too."""
    for n in range(2, 15):
        for k in range(n):
            d = orbits.singular_orbit(n, k)
            _assert_same_diagram(d, orbits_oracle.singular_orbit(n, k), (n, k))
            _assert_same_diagram(d, orbits_oracle.full_scan_orbit(n, k), (n, k))
            assert len(d.nodes) == 2 * (2 * (n - 1) if k == 0 else 4 * n - 7), (n, k)


def test_oracles_catch_a_doubled_grading(monkeypatch):
    """The oracles grade roots by the crossed coweights, not by the 2E
    that `cosets` orders the arrows with: with every entry of 2E doubled,
    the all-pairs Hasse comparison and both orbit-oracle comparisons
    fail."""
    twice = cosets._twice_grading
    monkeypatch.setattr(
        cosets, "_twice_grading", lambda n, crossed: tuple(2 * x for x in twice(n, crossed))
    )
    caches = (orbits._rank_table, orbits_oracle._hasse)
    for cache in caches:
        cache.cache_clear()
    try:
        for n in (4, 5, 6):
            for crossed in ((2,), (1, 3), (2, 5), (4,)):
                if max(crossed) <= n:
                    p = parabolic.parabolic(n, crossed)
                    want = parabolic_oracle.hasse_diagram(p)
                    assert parabolic.hasse_diagram(p).edges != want.edges, (n, crossed)
        for n, k in ((4, 1), (5, 2), (6, 0), (6, 5)):
            d = orbits.singular_orbit(n, k)
            for build in (orbits_oracle.singular_orbit, orbits_oracle.full_scan_orbit):
                with pytest.raises(AssertionError):
                    _assert_same_diagram(d, build(n, k), (n, k))
    finally:
        for cache in caches:
            cache.cache_clear()


def test_sliced_images_match_act_from_image():
    """Each kept node's weight, sliced out of lambda_k, is w(lambda_k) as
    weyl.act_from_image computes it for the Hasse node at its placement
    (a crossed-{2} node is fixed by (mu_1, mu_2)), for n = 2..14 and
    every k."""
    checked = 0
    for n in range(2, 15):
        hd = parabolic.hasse_diagram(parabolic.parabolic(n, (2,)))
        mus = {mu[:2]: mu for mu, _ in hd.nodes}
        assert len(mus) == 2 * n * (n - 1)
        for k in range(n):
            lam = orbits.lambda_k(n, k)
            for nd in orbits.singular_orbit(n, k).nodes:
                assert nd.weight == weyl.act_from_image(mus[nd.placement], lam), (n, k, nd)
                checked += 1
    cases = [(n, k) for n in range(2, 15) for k in range(n)]
    assert checked == sum(2 * (2 * (n - 1) if k == 0 else 4 * n - 7) for n, k in cases)


def test_rank_table_matches_hasse_diagram():
    """The rank table is the crossed-{2} Hasse diagram keyed by placement:
    its rows come in node order, each with the node's weight, and its
    arrows are the Hasse edges from that node, in edge order, with their
    roots and orders.  Each arrow's form (i, j, a, b) is the linear form
    <w, root^vee> * grade of its root: checked on every unit vector, so
    it holds for every w.  n = 2..12, 16, 24 and 30, where the tails are
    long; at n = 2 every grade is halved."""
    for n in (*range(2, 13), 16, 24, 30):
        p = parabolic.parabolic(n, (2,))
        hd = parabolic.hasse_diagram(p)
        table = orbits._rank_table(n)
        assert list(table) == [mu[:2] for mu, _ in hd.nodes], n
        assert [node.index for node in table.values()] == list(range(len(hd.nodes)))
        assert [node.weight for node in table.values()] == [mu for mu, _ in hd.nodes]
        assert [
            (node.index, target, root, order)
            for node in table.values()
            for target, root, order, _ in node.arrows
        ] == [tuple(e) for e in hd.edges], n
        units = [tuple(int(c == m) for c in range(n)) for m in range(n)]
        for node in table.values():
            for _, root, order, (ci, cj, a, b) in node.arrows:
                grade = parabolic_oracle.root_grade(root, p)
                for w in units:
                    assert a * w[ci] + b * w[cj] == oracle.pairing(w, root) * grade, (n, root)
                assert a * node.weight[ci] + b * node.weight[cj] == order, (n, root)
        d = orbits.regular_orbit_projection(n)
        assert [(nd.placement, nd.weight) for nd in d.nodes] == [
            (mu[:2], mu) for mu, _ in hd.nodes
        ]
        assert [(a.source, a.target, a.root, a.order) for a in d.arrows] == [
            tuple(e) for e in hd.edges
        ]
        assert {a.kind for a in d.arrows} == {orbits.STANDARD}


# one or two barred groups before an open group, and node n crossed
_ENGINE_CASES = sorted(
    {
        (n, tuple(sorted(set(crossed))))
        for n in range(2, 8)
        for crossed in ((1,), (2,), (3,), (1, 3), (2, 4), (1, 2), (n,), (1, n), (2, n))
        if max(crossed) <= n
    }
)


@pytest.mark.parametrize("n,crossed", _ENGINE_CASES)
def test_engine_keys_match_brute_force(n, crossed):
    """Every node of W^p, with its length and sort key read off its
    barred entries alone, against brute force: the nodes are the
    strictly Levi-dominant images of rho, each length is the all-pairs
    inversion count of the whole weight and the root-counting length of
    w, the mask holds the barred absolute values, and the
    keys order the nodes by (length, perm, signs) of w, with no tie."""
    groups = weyl._groups(n, crossed)
    barred = groups[:-1] if crossed[-1] != n else groups
    b = barred[-1][1]
    nodes, shift = cosets._keyed_nodes(n, barred)
    want = set(parabolic_oracle.ldominant_rho_images(parabolic.parabolic(n, crossed)))
    assert len(nodes) == len(want) and {mu for _, _, mu, _ in nodes} == want
    by_key = []
    for key, barred_entries, mu, mask in nodes:
        w = oracle.from_regular_image(mu)
        assert key >> shift == parabolic_oracle.inversion_length(mu) == oracle.length(w), mu
        assert barred_entries == mu[:b] and mu[b:] == tuple(sorted(mu[b:], reverse=True))
        assert mask == sum(1 << abs(v) for v in barred_entries)
        by_key.append((key, (oracle.length(w), w.perm, w.signs)))
    by_key.sort()
    assert [k for _, k in by_key] == sorted(k for _, k in by_key)
    assert len({key for key, _ in by_key}) == len(by_key)


def test_rank_table_refuses_rank_below_two():
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="^rank must be at least 2$"):
            orbits.regular_orbit_projection(n)
    with pytest.raises(ValueError, match="^rank must be at least 2$"):
        orbits.singular_orbit(1, 0)


@pytest.mark.parametrize("n", [5, 6])
def test_weight_multiplicities_and_coincidences(n):
    for k in range(n):
        d = orbits.singular_orbit(n, k)
        counts = {}
        for nd in d.nodes:
            counts[nd.weight] = counts.get(nd.weight, 0) + 1
        assert set(counts.values()) == {2}
        expected_pairs = 2 * (n - 1) if k == 0 else 4 * n - 7
        assert len(counts) == expected_pairs
        assert len(d.coincidences) == expected_pairs
        idpairs = {
            frozenset((a.source, a.target))
            for a in d.arrows
            if a.kind == orbits.IDENTITY
        }
        assert idpairs == {frozenset(c) for c in d.coincidences}


def test_placement_projection_consistency():
    for n, k in [(5, 2), (6, 1), (6, 0)]:
        d = orbits.singular_orbit(n, k)
        for nd in d.nodes:
            assert nd.weight[:2] == orbits_oracle.placement_to_weight(nd.placement, k)


def test_suppressed_rules():
    d = orbits.singular_orbit(8, 1)
    sup = sorted(
        (d.nodes[a.source].placement, d.nodes[a.target].placement)
        for a in d.arrows
        if a.kind == orbits.SUPPRESSED
    )
    expected = sorted(
        [((x, 1), (x, -1)) for x in range(3, 9)]
        + [((1, -y), (-1, -y)) for y in range(3, 9)]
    )
    assert sup == expected

    d0 = orbits.singular_orbit(8, 0)
    sup0 = [
        (d0.nodes[a.source].placement, d0.nodes[a.target].placement)
        for a in d0.arrows
        if a.kind == orbits.SUPPRESSED
    ]
    assert sup0 == [((2, -1), (1, -2))]

    for k in (2, 3, 7):
        dk = orbits.singular_orbit(8, k)
        assert all(a.kind != orbits.SUPPRESSED for a in dk.arrows)


def test_arrow_kind_census():
    d = orbits.singular_orbit(4, 1)
    kinds = {}
    for a in d.arrows:
        kinds[a.kind] = kinds.get(a.kind, 0) + 1
    assert kinds == {"standard": 13, "identity": 9, "suppressed": 4}


def test_conjectural_flag():
    assert orbits.singular_orbit(5, 0).conjectural
    assert not orbits.singular_orbit(5, 2).conjectural


def test_singular_conjugates_crossed2_match_orbit():
    for n, k in [(4, 1), (4, 2), (5, 0)]:
        conj = oracle.singular_conjugates(orbits.lambda_k(n, k), (2,))
        assert conj == {nd.weight for nd in orbits.singular_orbit(n, k).nodes}


def test_singular_conjugates_crossed1():
    for n in (3, 4, 5):
        for k in range(1, n):
            conj = oracle.singular_conjugates(orbits.tilde_lambda(n, k), (1,))
            assert conj == {
                orbits.tilde_lambda(n, k, "+"),
                orbits.tilde_lambda(n, k, "-"),
            }
        assert oracle.singular_conjugates(orbits.tilde_lambda(n, 0), (1,)) == {
            orbits.tilde_lambda(n, 0)
        }


@pytest.mark.parametrize(
    "build", [lambda: orbits.singular_orbit(5, 2), lambda: orbits.regular_orbit_projection(5)]
)
def test_callers_cannot_corrupt_the_memo(build):
    """The rank table is built once per n, as a read-only mapping of
    tuples; changing what one call returned must not change what the
    next call returns."""
    orbits._rank_table.cache_clear()
    fresh = copy.deepcopy(build())
    table = orbits._rank_table(5)
    memo = copy.deepcopy(dict(table))
    d = build()
    d.nodes.reverse()
    d.arrows.clear()
    again = build()
    assert again == fresh
    assert orbits._rank_table(5) is table and dict(table) == memo
    assert orbits._rank_table.cache_info().misses == 1
    with pytest.raises(TypeError):
        table[(2, 1)] = table[(2, -1)]
    for placement, node in table.items():
        _assert_immutable(placement)
        _assert_immutable(node)


def _assert_immutable(x):
    """Every container inside x is a tuple (a NamedTuple record counts)."""
    assert not isinstance(x, (list, dict, set)), type(x)
    if isinstance(x, tuple):
        for item in x:
            _assert_immutable(item)


def test_records_are_immutable():
    """Nodes, arrows and the rank table's rows refuse assignment, and
    keep their field order, defaults and repr."""
    d = orbits.singular_orbit(5, 2)
    row = orbits._rank_table(5)[(5, 4)]
    for record, field in [
        (d.nodes[0], "weight"),
        (d.arrows[0], "order"),
        (row, "index"),
        (row, "arrows"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert orbits.OrbitNode._fields == ("placement", "weight")
    assert orbits.OrbitArrow._fields == ("source", "target", "kind", "root", "order")
    assert parabolic.HasseNode._fields == ("weight", "length")
    assert parabolic.HasseEdge._fields == ("source", "target", "root", "order")
    assert repr(orbits.OrbitArrow(0, 1, orbits.IDENTITY)) == (
        "OrbitArrow(source=0, target=1, kind='identity', root=None, order=None)"
    )
    assert repr(orbits.OrbitNode((2, 1), (2, 1, 1))) == (
        "OrbitNode(placement=(2, 1), weight=(2, 1, 1))"
    )
    assert orbits._Node._fields == ("index", "weight", "arrows")


def test_diagrams_are_read_only_records():
    """An orbit diagram and a Hasse diagram are NamedTuples: every field
    refuses assignment, and no field defaults to a mutable value."""
    hd = parabolic.hasse_diagram(parabolic.parabolic(4, (1, 3)))
    for d in (orbits.singular_orbit(5, 2), orbits.regular_orbit_projection(4), hd):
        for field in d._fields:
            with pytest.raises(AttributeError):
                setattr(d, field, getattr(d, field))
        for value in d._field_defaults.values():
            _assert_immutable(value)
    assert orbits.OrbitDiagram._fields == (
        "kind", "n", "k", "nodes", "arrows", "coincidences", "conjectural"
    )
    assert parabolic.HasseDiagram._fields == ("parabolic", "base", "nodes", "edges")


def test_returned_diagrams_are_the_callers_own():
    """Changing a diagram's nodes or arrows list leaves the next call's
    diagram as it was."""
    for build in (lambda: orbits.singular_orbit(6, 2), lambda: orbits.regular_orbit_projection(6)):
        d = build()
        nodes, arrows = list(d.nodes), list(d.arrows)
        d.nodes.reverse()
        d.nodes.pop()
        d.nodes[0] = None
        d.arrows.clear()
        again = build()
        assert again.nodes == nodes and again.arrows == arrows
