"""Property tests, with hypothesis (a declared test dependency)."""

import dataclasses
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from bgg import geometry, orbits, render, weyl


@st.composite
def signed_permutations(draw, n):
    perm = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return weyl.WeylElement(tuple(perm), tuple(signs))


@settings(deadline=None, database=None)
@given(st.integers(1, 10).flatmap(signed_permutations))
def test_inversion_length_of_rho_image_is_length(w):
    mu = weyl.standard_action(w, weyl.rho(w.n))
    assert weyl.inversion_length(mu) == weyl.length(w)
    assert weyl.from_regular_image(mu) == w


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
    rows, m, s = geometry._scaled_matrix(pt)
    assert m > 0
    uncorrected = [list(r) for r in rows]
    uncorrected[pt.n][1] += s
    uncorrected[pt.n + 1][0] -= s
    for scaled in (rows, uncorrected):
        ints = [r[0] for r in scaled], [r[1] for r in scaled]
        fracs = [[Fraction(x, m) for x in col] for col in ints]
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
    act, dot = weyl.standard_action, weyl.affine_action
    assert act(weyl.compose(w1, w2), lam) == act(w1, act(w2, lam))
    assert act(weyl.inverse(w1), act(w1, lam)) == lam
    assert weyl.compose(w1, weyl.inverse(w1)) == weyl.identity(n)
    assert weyl.compose(weyl.inverse(w1), w1) == weyl.identity(n)
    r = weyl.rho(n)
    shifted = tuple(x + y for x, y in zip(lam, r))
    assert dot(w1, lam) == tuple(x - y for x, y in zip(act(w1, shifted), r))
    assert dot(weyl.compose(w1, w2), lam) == dot(w1, dot(w2, lam))
    minus_rho = tuple(-x for x in r)
    assert dot(w1, minus_rho) == minus_rho


@settings(deadline=None, database=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.none() | st.integers(0, n - 1))))
def test_orbit_json_roundtrip_is_exact(case):
    """An orbit diagram is its JSON: every field survives the round trip
    and the text is stable."""
    n, k = case
    d = orbits.regular_orbit_projection(n) if k is None else orbits.singular_orbit(n, k)
    assert all(f.compare for f in dataclasses.fields(d))
    for indent in (None, 1):
        text = render.to_json(d, indent=indent)
        back = render.from_json(text)
        assert back == d
        assert render.to_json(back, indent=indent) == text
        assert render.to_json(d, indent=indent) == text
