"""Property tests, with hypothesis (a declared test dependency)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from bgg import weyl


@st.composite
def signed_permutations(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    perm = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return weyl.WeylElement(tuple(perm), tuple(signs))


@settings(deadline=None, database=None)
@given(signed_permutations())
def test_inversion_length_of_rho_image_is_length(w):
    mu = weyl.standard_action(w, weyl.rho(w.n))
    assert weyl.inversion_length(mu) == weyl.length(w)
    assert weyl.from_regular_image(mu) == w
