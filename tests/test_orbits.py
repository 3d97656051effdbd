"""Orbit diagrams, singular weight families and frozen figure fixtures."""

import copy

import pytest

import orbits_oracle
import weyl_oracle as oracle
from bgg import orbits, parabolic, weyl
from bgg.weyl import Root


def test_lambda_k():
    assert orbits.lambda_k(8, 7) == (7, 7, 6, 5, 4, 3, 2, 1)
    assert orbits.lambda_k(5, 2) == (4, 3, 2, 2, 1)
    assert orbits.lambda_k(5, 0) == (4, 3, 2, 1, 0)
    for n in (3, 6):
        for k in range(n):
            lam = orbits.lambda_k(n, k)
            assert weyl.classify(lam) == weyl.SEMIREGULAR
            assert weyl.is_dominant(lam)
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
    between its end weights, for n = 2..10, every k and two scaled bases."""
    cases = [(n, k, None) for n in range(2, 11) for k in range(n)]
    cases += [(5, 3, (9, 7, 7, 3, 1)), (4, 0, (12, 5, 2, 0))]
    checked = 0
    for n, k, base in cases:
        p = parabolic.parabolic(n, (2,))
        d = orbits.singular_orbit(n, k, base)
        for a in d.arrows:
            if a.kind == orbits.IDENTITY:
                assert a.order is None
                continue
            bound = parabolic.order_bound(d.nodes[a.source].weight, d.nodes[a.target].weight, p)
            assert type(a.order) is int and a.order == bound, (n, k, base, a)
            checked += 1
    assert checked == 2104  # 2072 of them at n = 3..10


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
    """Oracle: the diagram built from the per-rank buckets and out-edges
    equals the one from the placement rule over every Hasse node and
    edge, and the one from the full scan (w(base) of every node tested
    for Levi dominance), for n = 2..14, every k and two scaled bases."""
    cases = [(n, k, None) for n in range(2, 15) for k in range(n)]
    cases += [(5, 3, (9, 7, 7, 3, 1)), (4, 0, (12, 5, 2, 0))]
    for n, k, base in cases:
        d = orbits.singular_orbit(n, k, base)
        _assert_same_diagram(d, orbits_oracle.singular_orbit(n, k, base), (n, k, base))
        _assert_same_diagram(d, orbits_oracle.full_scan_orbit(n, k, base), (n, k, base))
        assert len(d.nodes) == 2 * (2 * (n - 1) if k == 0 else 4 * n - 7), (n, k)


def test_sliced_images_match_act_from_image():
    """Each kept node's weight, sliced out of base, is w(base) as
    weyl.act_from_image computes it for the Hasse node at its placement
    (a crossed-{2} node is fixed by (mu_1, mu_2)), for n = 2..14, every k
    and two scaled bases."""
    cases = [(n, k, orbits.lambda_k(n, k)) for n in range(2, 15) for k in range(n)]
    cases += [(5, 3, (9, 7, 7, 3, 1)), (4, 0, (12, 5, 2, 0))]
    checked = 0
    for n, k, base in cases:
        mus = {mu[:2]: mu for mu, _ in orbits._crossed2(n).nodes}
        assert len(mus) == 2 * n * (n - 1)
        for nd in orbits.singular_orbit(n, k, base).nodes:
            assert nd.weight == weyl.act_from_image(mus[nd.placement], base), (n, k, nd)
            checked += 1
    assert checked == sum(2 * (2 * (n - 1) if k == 0 else 4 * n - 7) for n, k, _ in cases)


@pytest.mark.parametrize(
    "n, k, base",
    [
        (5, 1, (5, 3, 3)),  # short bases once raised IndexError
        (3, 0, (1, 0)),
        (2, 1, (5, 3, 3)),  # long ones a rank mismatch or a wrong pattern
        (3, 1, (5, 3, 3, 1)),
    ],
)
def test_base_of_the_wrong_length(n, k, base):
    with pytest.raises(ValueError, match="^base must have length n$"):
        orbits.singular_orbit(n, k, base)


def test_crossed2_index_matches_hasse_diagram():
    """The per-rank buckets hold exactly the nodes with |mu_1| or |mu_2|
    equal to r, and the out-edges are the Hasse edges from each node,
    in edge order, each with the linear form <w, root^vee> * grade of
    its root: checked on every unit vector, so it holds for every w."""
    for n in range(2, 9):
        p = parabolic.parabolic(n, (2,))
        hd = parabolic.hasse_diagram(p)
        memo = orbits._crossed2(n)
        assert memo.nodes == tuple(hd.nodes) and memo.edges == tuple(hd.edges)
        assert len(memo.by_abs) == n + 1
        for r in range(n + 1):
            want = [i for i, (mu, _) in enumerate(hd.nodes) if r in (abs(mu[0]), abs(mu[1]))]
            assert list(memo.by_abs[r]) == want, (n, r)
        units = [tuple(int(c == m) for c in range(n)) for m in range(n)]
        for i in range(len(hd.nodes)):
            edges = [e for e in hd.edges if e.source == i]
            assert [o[:2] for o in memo.out[i]] == [(e.target, e.root) for e in edges], (n, i)
            for e, (_, _, (ci, cj, a, b)) in zip(edges, memo.out[i]):
                grade = parabolic.root_grade(e.root, p)
                for w in units:
                    assert a * w[ci] + b * w[cj] == weyl.pairing(w, e.root) * grade, (n, e)


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


def test_infer_k():
    for n in (4, 6):
        for k in range(n):
            assert orbits.infer_k(orbits.lambda_k(n, k)) == k
    assert orbits.infer_k((9, 7, 7, 3, 1)) == 3
    with pytest.raises(ValueError):
        orbits.infer_k((4, 3, 2, 1))  # regular
    with pytest.raises(ValueError):
        orbits.infer_k((1, 2, 2))  # not dominant


def test_singular_orbit_from_base_invariance():
    """The diagram structure depends only on the ordering pattern of the
    base, not its values."""
    ref = orbits.singular_orbit(5, 3)
    base = (9, 7, 7, 3, 1)
    d = orbits.singular_orbit(len(base), orbits.infer_k(base), base)
    assert d.placements() == ref.placements()
    # arrow kinds and roots agree; order bounds depend on the actual values
    assert [(a.source, a.target, a.kind, a.root) for a in d.arrows] == [
        (a.source, a.target, a.kind, a.root) for a in ref.arrows
    ]
    assert all(
        isinstance(a.order, int) and a.order >= 1
        for a in d.arrows
        if a.kind != orbits.IDENTITY
    )
    assert d.coincidences == ref.coincidences
    with pytest.raises(ValueError):
        orbits.singular_orbit(5, 2, base=(9, 7, 7, 3, 1))


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
    """The crossed-{2} diagram is built once per n; changing what one call
    returned must not change what the next call returns."""
    orbits._crossed2.cache_clear()
    fresh = copy.deepcopy(build())
    memo = copy.deepcopy(orbits._crossed2(5))
    d = build()
    d.nodes.reverse()
    d.arrows.clear()
    again = build()
    assert again == fresh
    assert orbits._crossed2(5) == memo
    _assert_immutable(orbits._crossed2(5))


def _assert_immutable(x):
    """Every container inside x is a tuple (a NamedTuple record counts)."""
    assert not isinstance(x, (list, dict, set)), type(x)
    if isinstance(x, tuple):
        for item in x:
            _assert_immutable(item)


def test_records_are_immutable():
    """Nodes, arrows and the memo's Hasse records refuse assignment, and
    keep their field order, defaults and repr."""
    d = orbits.singular_orbit(5, 2)
    memo = orbits._crossed2(5)
    for record, field in [
        (d.nodes[0], "weight"),
        (d.arrows[0], "order"),
        (memo.nodes[0], "length"),
        (memo.edges[0], "root"),
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
    assert memo.nodes[0].window == weyl.act_from_image(memo.nodes[0].weight, range(1, 6))
