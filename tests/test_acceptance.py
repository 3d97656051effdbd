"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single PASS/FAIL
line with its runtime, and enforces a wall-clock budget.
"""

import itertools
import math
import random
import time

import weyl_oracle as oracle
from conftest import jacobi_holds
from bgg import geometry, orbits, penrose, verma, weyl
from bgg import parabolic as pmod


def _finish(num, desc, t0, budget):
    dt = time.perf_counter() - t0
    ok = dt < budget
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc} ({dt:.2f}s, budget {budget}s)")
    assert ok, f"criterion {num} exceeded its {budget}s budget ({dt:.2f}s)"


def test_criterion_01_hasse_counts_and_oracle():
    t0 = time.perf_counter()
    for n in range(3, 9):
        hd = pmod.hasse_diagram(pmod.parabolic(n, (2,)))
        assert len(hd.nodes) == 2 * n * (n - 1)
        levi_order = 2 * 2 ** (n - 2) * math.factorial(n - 2)
        assert len(hd.nodes) * levi_order == 2**n * math.factorial(n)
    for n in (3, 4):
        hd = pmod.hasse_diagram(pmod.parabolic(n, (2,)))
        brute = {
            oracle.standard_action(w, weyl.rho(n))
            for w in oracle.all_elements(n)
            if oracle.is_dominant(oracle.standard_action(w, weyl.rho(n)), (2,))
        }
        assert brute == {nd.weight for nd in hd.nodes}
    _finish(1, "Hasse node counts n=3..8 with full-enumeration oracle", t0, 5)


def test_criterion_02_regular_figure(load):
    t0 = time.perf_counter()
    fx = load("figure_regular_n8")
    d = orbits.regular_orbit_projection(fx["n"])
    skips = set(fx["skips"])

    def visible(pl):
        return all(abs(c) not in skips for c in pl)

    assert sum(1 for nd in d.nodes if visible(nd.placement)) == fx["visible_node_count"]
    quads = sorted(
        d.nodes[a.source].placement + d.nodes[a.target].placement
        for a in d.arrows
        if visible(d.nodes[a.source].placement) and visible(d.nodes[a.target].placement)
    )
    assert quads == sorted(tuple(q) for q in fx["arrows"])
    by_pair = {
        (d.nodes[a.source].placement, d.nodes[a.target].placement): a.root
        for a in d.arrows
    }
    for src, tgt, (kind, i, j) in fx["labels"]:
        assert by_pair[(tuple(src), tuple(tgt))] == weyl.Root(kind, i, j)
    _finish(2, "regular orbit diagram matches the frozen figure (incl. labels)", t0, 5)


def test_criterion_03_singular_figures(load):
    t0 = time.perf_counter()
    for name in (
        "figure_singular_n8_k7",
        "figure_singular_n14_k7",
        "figure_singular_n8_k1",
        "figure_singular_n8_k0",
    ):
        fx = load(name)
        d = orbits.singular_orbit(fx["n"], fx["k"])
        skips = set(fx["skips"])

        def visible(pl):
            return all(abs(c) not in skips for c in pl)

        assert len(d.nodes) == fx["all_node_count"]
        assert sorted(
            nd.placement for nd in d.nodes if visible(nd.placement)
        ) == sorted(tuple(p) for p in fx["nodes"])
        assert (
            sum(1 for p in d.cross_placements() if visible(p)) == fx["trivial_count"]
        )
        std = sorted(
            d.nodes[a.source].placement + d.nodes[a.target].placement
            for a in d.arrows
            if a.kind == orbits.STANDARD
            and visible(d.nodes[a.source].placement)
            and visible(d.nodes[a.target].placement)
        )
        assert std == sorted(tuple(q) for q in fx["arrows"])
        eq = {
            frozenset(
                (d.nodes[a.source].placement, d.nodes[a.target].placement)
            )
            for a in d.arrows
            if a.kind == orbits.IDENTITY
            and visible(d.nodes[a.source].placement)
            and visible(d.nodes[a.target].placement)
        }
        assert eq == {
            frozenset(((q[0], q[1]), (q[2], q[3]))) for q in fx["equals"]
        }
    _finish(3, "singular orbit diagrams match all four frozen figures", t0, 10)


def test_criterion_04_complexes_all_ranks():
    t0 = time.perf_counter()
    for n in range(3, 9):
        orbit_weights = {
            k: {nd.weight for nd in orbits.singular_orbit(n, k).nodes}
            for k in range(1, n)
        }
        for k in range(1, n):
            plus = penrose.assemble_singular_bgg(n, k, "+")
            minus = penrose.assemble_singular_bgg(n, k, "-")
            for cx in (plus, minus):
                assert len(cx.terms) == 2 * n - 3
                assert len(cx.maps) == 2 * n - 4
                nonstd = [m for m in cx.maps if m.kind == penrose.NONSTANDARD]
                if k == n - 1:
                    assert nonstd == []
                else:
                    assert len(nonstd) == 1
                    assert nonstd[0].order == (3 if k == 1 else 2)
            shared = (k, -k) + tuple(v for v in range(n - 1, 0, -1) if v != k)
            assert set(plus.terms) | set(minus.terms) == orbit_weights[k]
            assert set(plus.terms) & set(minus.terms) == {shared}
    _finish(
        4,
        "assembled complexes n=3..8: lengths, bridge orders, orbit coverage",
        t0,
        5,
    )


def test_criterion_05_direct_image_grid():
    """At n = 11 the relative resolutions of (±k | 10, ..., 1), k = 1..10,
    have (first, middle) on every pair of [-10,10]^2 with neither 0, and
    each term's E1 cell follows the swap rule."""
    t0 = time.perf_counter()
    pairs = set()
    for first in [*range(-10, 0), *range(1, 11)]:
        cells = penrose.e1_entries(11, abs(first), "+" if first > 0 else "-")
        for t in penrose.relative_bgg(11, first):
            middle = t.middle
            pairs.add((first, middle))
            if first == middle:
                assert (t.p, 0) not in cells and (t.p, 1) not in cells
            elif first > middle:
                assert cells[(t.p, 0)] == (first, middle) + t.tail
            else:
                assert cells[(t.p, 1)] == (middle, first) + t.tail
    assert len(pairs) == 20 * 20
    _finish(5, "fiberwise direct-image rule on the [-10,10]^2 grid", t0, 1)


def test_criterion_06_spectral_pages_rank8():
    t0 = time.perf_counter()
    n = 8
    for k in range(2, 7):
        for sign in "+-":
            page = penrose.e1_page(n, k, sign)
            first = k if sign == "+" else -k
            middles = list(range(n - 1, 0, -1)) + list(range(-1, -n, -1))
            expected = {}
            for p, m in enumerate(middles):
                if m == first:
                    continue
                tail = tuple(v for v in range(n - 1, 0, -1) if v != abs(m))
                if first > m:
                    expected[(p, 0)] = (first, m) + tail
                else:
                    expected[(p, 1)] = (m, first) + tail
            assert page.entries == expected
            e2 = penrose.e2_page(n, k, sign)
            (d2,) = e2.differentials
            if sign == "+":
                assert (d2.source, d2.target) == ((n - k - 2, 1), (n - k, 0))
            else:
                assert (d2.source, d2.target) == ((n + k - 3, 1), (n + k - 1, 0))
            assert d2.order == 2
    _finish(6, "E1 entries and E2 differential at n=8, k=2..6, both signs", t0, 2)


def test_criterion_07_singular_vector_catalogue():
    t0 = time.perf_counter()
    for n in range(3, 11):
        for r in verma.verify_first_operators(n):
            assert r.ok, (r.row.name, r.failures, r.kernel_dim)
    lie3 = verma.LieData(3)
    for k in (1, 2):
        for sign in "+-":
            r = verma.verify_row(
                verma.singular_vector_row(3, k, sign), lie3, perturb=True, kernel=False
            )
            assert not r.maximal_ok
    r5 = verma.verify_row(
        verma.singular_vector_row(5, 2, "+"), verma.LieData(5), perturb=True, kernel=False
    )
    assert not r5.maximal_ok
    _finish(
        7,
        "first-operator vectors n=3..10: weight, maximality, uniqueness; perturbed fail",
        t0,
        60,
    )


def test_criterion_08_structure_constant_jacobi():
    t0 = time.perf_counter()
    lie = verma.LieData(3)
    labels = sorted(lie.tables.matrices, key=repr)
    assert len(labels) == 21
    for x, y, z in itertools.product(labels, repeat=3):
        assert jacobi_holds(lie, x, y, z)
    for n in (4, 5):
        lie = verma.LieData(n)
        labels = sorted(lie.tables.matrices, key=repr)
        assert len(labels) == n * (2 * n + 1)
        rng = random.Random(n)
        for _ in range(10_000):
            x, y, z = (rng.choice(labels) for _ in range(3))
            assert jacobi_holds(lie, x, y, z)
    _finish(
        8,
        "Jacobi identity: sp(6) exhaustive, sp(8)/sp(10) 10^4 sampled triples",
        t0,
        30,
    )


def test_criterion_09_big_cell_geometry():
    t0 = time.perf_counter()
    for n in range(3, 7):
        rng = random.Random(100 + n)
        for _ in range(1000):
            assert geometry.isotropy_check(geometry.random_point(n, rng))
            pt = geometry.twistor_cover_solve(geometry.random_line(n, rng))
            assert geometry.isotropy_check(pt)
    _finish(9, "10^3 exact isotropy and twistor-cover checks for n=3..6", t0, 10)


def test_criterion_10_twistor_weight_conjugates():
    t0 = time.perf_counter()
    for n in range(3, 7):
        for k in range(1, n):
            conj = oracle.singular_conjugates(orbits.tilde_lambda(n, k), (1,))
            assert conj == {
                orbits.tilde_lambda(n, k, "+"),
                orbits.tilde_lambda(n, k, "-"),
            }
        assert oracle.singular_conjugates(orbits.tilde_lambda(n, 0), (1,)) == {
            orbits.tilde_lambda(n, 0)
        }
    _finish(
        10,
        "twistor weights have exactly the two expected dominant conjugates",
        t0,
        5,
    )
