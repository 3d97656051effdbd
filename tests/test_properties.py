"""Property tests, with hypothesis (a declared test dependency)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

import parabolic_oracle
import weyl_oracle as oracle
from bgg import geometry, orbits, parabolic, penrose, render, weyl


@st.composite
def signed_permutations(draw, n):
    perm = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return oracle.WeylElement(tuple(perm), tuple(signs))


@settings(deadline=None, database=None)
@given(st.integers(1, 10).flatmap(signed_permutations), st.data())
def test_inversion_length_of_rho_image_is_length(w, data):
    mu = oracle.standard_action(w, weyl.rho(w.n))
    assert weyl.inversion_length(mu) == oracle.length(w)
    assert oracle.from_regular_image(mu) == w
    lam = data.draw(st.tuples(*[st.integers(-20, 20)] * w.n))
    assert weyl.act_from_image(mu, lam) == oracle.standard_action(w, lam)
    window = parabolic.HasseNode(mu, weyl.inversion_length(mu)).window
    assert window == oracle.standard_action(w, tuple(range(1, w.n + 1)))


@settings(deadline=None, database=None)
@given(st.integers(-8, 8), st.integers(-8, 8), st.lists(st.integers(-8, 8), max_size=5))
def test_bbw_direct_image_is_the_a12_reflection(first, middle, tail):
    """The direct image of (first, middle, *tail) vanishes iff the weight
    is singular for a12; degree 0 keeps the weight, and degree 1, which
    happens iff the a12 pairing is negative, reflects it in a12."""
    w = (first, middle, *tail)
    a12 = weyl.Root("a", 1, 2)
    pairing = weyl.pairing(w, a12)
    result = penrose.bbw_direct_image(first, middle, tail)
    assert (result is None) == (pairing == 0)
    if result is None:
        return
    image, degree = result
    assert degree == (1 if pairing < 0 else 0)
    assert image == (w if degree == 0 else oracle.reflect(w, a12))


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12)


@st.composite
def big_cell_points(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    row = st.tuples(*[rationals] * (n - 2))
    return geometry.BigCellPoint(
        n, draw(row), draw(row), draw(row), draw(row),
        draw(rationals), draw(rationals), draw(rationals),
    )


@settings(deadline=None, database=None)
@given(big_cell_points())
def test_big_cell_points_are_isotropic(pt):
    """Every point is isotropic; with and without S, omega of the scaled
    integer columns is zero exactly when omega of the Fraction columns is."""
    assert geometry.isotropy_check(pt)
    assert geometry.omega(*pt.columns()) == 0
    x, y, m, s = geometry._layout(pt.n, pt.numerators, pt.denominator)
    assert m > 0
    uncorrected = list(x), list(y)
    uncorrected[1][pt.n] += s
    uncorrected[0][pt.n + 1] -= s
    for ints in ((x, y), uncorrected):
        fracs = [[Fraction(v, m) for v in col] for col in ints]
        assert (geometry.omega(*ints) == 0) == (geometry.omega(*fracs) == 0)
        assert geometry.omega(*fracs) == Fraction(geometry.omega(*ints), m * m)


@settings(deadline=None, database=None)
@given(st.integers(2, 6).flatmap(lambda n: st.lists(rationals, min_size=2 * n, max_size=2 * n)))
def test_solved_plane_contains_the_line(gamma):
    if gamma[0] == 0:
        with pytest.raises(ValueError):
            geometry.twistor_cover_solve(gamma)
        return
    pt = geometry.twistor_cover_solve(gamma)
    assert geometry.isotropy_check(pt)
    c1, c2 = pt.columns()
    g = [x / gamma[0] for x in gamma]
    assert [x + g[1] * y for x, y in zip(c1, c2)] == g


@st.composite
def two_elements_and_a_weight(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    lam = draw(st.tuples(*[st.integers(-20, 20)] * n))
    return draw(signed_permutations(n)), draw(signed_permutations(n)), lam


@settings(deadline=None, database=None)
@given(two_elements_and_a_weight())
def test_weyl_action_laws(case):
    """standard_action is a group action, inverse undoes it, and
    affine_action is the same action shifted by rho."""
    w1, w2, lam = case
    n = w1.n
    act, dot = oracle.standard_action, oracle.affine_action
    assert act(oracle.compose(w1, w2), lam) == act(w1, act(w2, lam))
    assert act(oracle.inverse(w1), act(w1, lam)) == lam
    assert oracle.compose(w1, oracle.inverse(w1)) == oracle.identity(n)
    assert oracle.compose(oracle.inverse(w1), w1) == oracle.identity(n)
    r = weyl.rho(n)
    shifted = tuple(x + y for x, y in zip(lam, r))
    assert dot(w1, lam) == tuple(x - y for x, y in zip(act(w1, shifted), r))
    assert dot(oracle.compose(w1, w2), lam) == dot(w1, dot(w2, lam))
    minus_rho = tuple(-x for x in r)
    assert dot(w1, minus_rho) == minus_rho


@settings(deadline=None, database=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.none() | st.integers(0, n - 1))))
def test_orbit_json_roundtrip_is_exact(case):
    """An orbit diagram is its JSON: every field survives the round trip,
    the record's type too (a NamedTuple's == compares fields alone), and
    the text is stable."""
    n, k = case
    d = orbits.regular_orbit_projection(n) if k is None else orbits.singular_orbit(n, k)
    for indent in (None, 1):
        text = render.to_json(d, indent=indent)
        back = render.from_json(text)
        assert type(back) is orbits.OrbitDiagram
        assert back == d
        assert render.to_json(back, indent=indent) == text
        assert render.to_json(d, indent=indent) == text


@st.composite
def parabolics(draw, max_n=5):
    n = draw(st.integers(2, max_n))
    crossed = draw(st.sets(st.integers(1, n), min_size=1))
    return parabolic.parabolic(n, sorted(crossed))


@settings(deadline=None, database=None, max_examples=25)
@given(parabolics())
def test_hasse_diagram_matches_the_all_pairs_oracle(p):
    """Any crossed set: the same nodes and edges as the all-pairs search,
    and the listings the old code printed."""
    hd = parabolic.hasse_diagram(p)
    want = parabolic_oracle.hasse_diagram(p)
    assert hd.nodes == want.nodes and hd.edges == want.edges
    assert parabolic_oracle.first_difference(hd.to_text(), parabolic_oracle.text(hd)) is None
    assert parabolic_oracle.first_difference(hd.to_json(), parabolic_oracle.json_text(hd)) is None
