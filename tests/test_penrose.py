"""Relative resolutions, direct-image pages and assembled complexes."""

import pytest

from bgg import orbits, penrose
from bgg import parabolic as pmod


def _tail(n, m):
    return tuple(v for v in range(n - 1, 0, -1) if v != abs(m))


def test_relative_bgg_shape():
    terms = penrose.relative_bgg(5, 2)
    assert len(terms) == 8
    assert [t.middle for t in terms] == [4, 3, 2, 1, -1, -2, -3, -4]
    for t in terms:
        assert t.first == 2
        assert t.tail == _tail(5, t.middle)
        assert t.weight == (t.first, t.middle) + t.tail
    assert [t.p for t in terms] == list(range(8))


def test_relative_bgg_signed_and_errors():
    terms = penrose.relative_bgg(4, -3)
    assert all(t.first == -3 for t in terms)
    assert len(terms) == 6
    with pytest.raises(ValueError):
        penrose.relative_bgg(4, 4)


def test_bbw_direct_image():
    assert penrose.bbw_direct_image(3, 1) == ((3, 1), 0)
    assert penrose.bbw_direct_image(1, 3) == ((3, 1), 1)
    assert penrose.bbw_direct_image(2, 2) is None
    assert penrose.bbw_direct_image(-1, -4, (3, 2)) == ((-1, -4, 3, 2), 0)
    assert penrose.bbw_direct_image(-4, -1, (3, 2)) == ((-1, -4, 3, 2), 1)


def _expected_e1(n, k, sign):
    """Independent reconstruction of the first page from the swap rule."""
    first = k if sign == "+" else -k
    middles = list(range(n - 1, 0, -1)) + list(range(-1, -n, -1))
    entries = {}
    for p, m in enumerate(middles):
        if m == first:
            continue
        if first > m:
            entries[(p, 0)] = (first, m) + _tail(n, m)
        else:
            entries[(p, 1)] = (m, first) + _tail(n, m)
    return entries


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_e1_entries_match_swap_rule(n):
    for k in range(1, n):
        for sign in "+-":
            page = penrose.e1_page(n, k, sign)
            assert page.entries == _expected_e1(n, k, sign)
            assert len(page.entries) == 2 * n - 3
            assert page.p_max == 2 * n - 3


def test_e1_row_layout():
    n = 7
    for k in range(1, n - 1):
        plus = penrose.e1_page(n, k, "+")
        assert plus.row(1) == list(range(0, n - k - 1))
        assert plus.row(0) == list(range(n - k, 2 * n - 2))
        minus = penrose.e1_page(n, k, "-")
        assert minus.row(1) == list(range(0, n + k - 2))
        assert minus.row(0) == list(range(n + k - 1, 2 * n - 2))
    assert penrose.e1_page(n, n - 1, "+").row(1) == []
    assert penrose.e1_page(n, n - 1, "-").row(0) == []


def test_e1_differentials_stay_in_rows():
    page = penrose.e1_page(6, 2, "+")
    for d in page.differentials:
        assert d.source[1] == d.target[1]
        assert d.target[0] == d.source[0] + 1
        assert d.kind == penrose.STANDARD


def test_e1_validation():
    with pytest.raises(ValueError):
        penrose.e1_page(5, 0)
    with pytest.raises(ValueError):
        penrose.e1_page(5, 5)
    with pytest.raises(ValueError):
        penrose.e1_page(5, 2, "?")


@pytest.mark.parametrize("n", [4, 5, 8])
def test_bridge_positions_and_orders(n):
    for k in range(1, n - 1):
        plus = penrose.nonstandard_descriptor(n, k, "+")
        assert plus.source_position == (n - k - 2, 1)
        assert plus.target_position == (n - k, 0)
        minus = penrose.nonstandard_descriptor(n, k, "-")
        assert minus.source_position == (n + k - 3, 1)
        assert minus.target_position == (n + k - 1, 0)
        expected_order = 3 if k == 1 else 2
        assert plus.order == expected_order
        assert minus.order == expected_order
        if k >= 2:
            assert plus.source == (k + 1, k) + _tail(n, k + 1)
            assert plus.target == (k, k - 1) + _tail(n, k - 1)
            assert minus.source == (-k + 1, -k) + _tail(n, k - 1)
            assert minus.target == (-k, -k - 1) + _tail(n, k + 1)
        else:
            assert plus.source == (2, 1) + _tail(n, 2)
            assert plus.target == (1, -1) + _tail(n, 1)
            assert minus.source == (1, -1) + _tail(n, 1)
            assert minus.target == (-1, -2) + _tail(n, 2)
    assert penrose.nonstandard_descriptor(n, n - 1, "+") is None
    assert penrose.nonstandard_descriptor(n, n - 1, "-") is None


@pytest.mark.parametrize("n", [3, 4, 6])
def test_assembled_complex_shape(n):
    p2 = pmod.parabolic(n, (2,))
    for k in range(1, n):
        for sign in "+-":
            cx = penrose.assemble_singular_bgg(n, k, sign)
            assert len(cx.terms) == 2 * n - 3
            assert len(cx.maps) == 2 * n - 4
            assert not cx.conjectural
            assert "H^1" in cx.resolved_object
            nonstd = [m for m in cx.maps if m.kind == penrose.NONSTANDARD]
            if k == n - 1:
                assert nonstd == []
            else:
                assert len(nonstd) == 1
                assert nonstd[0].order == (3 if k == 1 else 2)
                expected_src = n - k - 2 if sign == "+" else n + k - 3
                assert (nonstd[0].source, nonstd[0].target) == (
                    expected_src,
                    expected_src + 1,
                )
            # orders telescope to the total conformal drop
            total = pmod.conformal_weight(cx.terms[0], p2) - pmod.conformal_weight(
                cx.terms[-1], p2
            )
            assert sum(m.order for m in cx.maps) == total
            assert total == (2 * n - 3 if k == n - 1 else 2 * n - 2)


def test_axis_crossing_order_two_census():
    for n in (4, 6):
        for k in range(1, n):
            for sign in "+-":
                cx = penrose.assemble_singular_bgg(n, k, sign)
                order2_std = [
                    m
                    for m in cx.maps
                    if m.kind == penrose.STANDARD and m.order == 2
                ]
                assert len(order2_std) == (0 if k == 1 else 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_terms_cover_orbit_weights(n):
    for k in range(1, n):
        plus = set(penrose.assemble_singular_bgg(n, k, "+").terms)
        minus = set(penrose.assemble_singular_bgg(n, k, "-").terms)
        orbit = {nd.weight for nd in orbits.singular_orbit(n, k).nodes}
        assert plus | minus == orbit
        shared = (k, -k) + tuple(v for v in range(n - 1, 0, -1) if v != k)
        assert plus & minus == {shared}


def test_e2_entries():
    page = penrose.e2_page(6, 2, "+")
    for q in (0, 1):
        ps = page.row(q)
        assert page.entry(ps[0], q).kind == penrose.KERNEL
        assert page.entry(ps[0], q).text == f"Ker d_{ps[0] + 1}"
        assert page.entry(ps[-1], q).kind == penrose.COKERNEL
        assert page.entry(ps[-1], q).text == f"Coker d_{ps[-1]}"
        for p in ps[1:-1]:
            assert page.entry(p, q).kind == penrose.BULLET
            assert page.entry(p, q).text == "0"
    assert len(page.differentials) == 1
    d2 = page.differentials[0]
    assert d2.kind == penrose.NONSTANDARD
    assert (d2.source, d2.target) == ((2, 1), (4, 0))
    assert d2.order == 2
    assert "isomorphism" in d2.note


def test_e2_minus_and_single_row():
    page = penrose.e2_page(6, 3, "-")
    assert page.differentials[0].source == (6, 1)
    assert page.differentials[0].target == (8, 0)
    single = penrose.e2_page(6, 5, "+")
    assert single.differentials == []
    assert sum(1 for e in single.entries.values() if e.kind == penrose.BULLET) == len(
        single.entries
    ) - 2


def test_e2_page_builds_e1_once(monkeypatch):
    real, calls = penrose.e1_page, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(penrose, "e1_page", counting)
    page = penrose.e2_page(6, 2, "+")
    assert len(calls) == 1
    bridge = penrose.nonstandard_descriptor(6, 2, "+")
    d2 = page.differentials[0]
    assert (d2.source, d2.target, d2.order) == (
        bridge.source_position,
        bridge.target_position,
        bridge.order,
    )


def test_format_twistor_weight():
    assert penrose.format_twistor_weight(5, 2, "-") == "(-2 | 4, 3, 2, 1)"


def test_k0_requires_conjectural_flag():
    with pytest.raises(ValueError, match="conjectural"):
        penrose.assemble_singular_bgg(5, 0)


def test_conjectural_k0_structure():
    cx = penrose.assemble_singular_bgg(4, 0, conjectural=True)
    assert cx.conjectural
    assert cx.terms == [
        (3, 0, 2, 1),
        (2, 0, 3, 1),
        (1, 0, 3, 2),
        (0, -1, 3, 2),
        (0, -2, 3, 1),
        (0, -3, 2, 1),
    ]
    assert cx.branch == (2, 3)
    got = {(m.source, m.target): (m.kind, m.order) for m in cx.maps}
    assert got == {
        (0, 1): (penrose.STANDARD, 1),
        (1, 2): (penrose.STANDARD, 1),
        (1, 3): (penrose.NONSTANDARD, 3),
        (2, 4): (penrose.NONSTANDARD, 3),
        (3, 4): (penrose.STANDARD, 1),
        (4, 5): (penrose.STANDARD, 1),
    }
    assert (2, 3) not in got  # no map between the two branch columns


@pytest.mark.parametrize("n", [3, 5, 6])
def test_conjectural_k0_terms_cover_orbit(n):
    cx = penrose.assemble_singular_bgg(n, 0, conjectural=True)
    assert len(cx.terms) == 2 * n - 2
    orbit = {nd.weight for nd in orbits.singular_orbit(n, 0).nodes}
    assert set(cx.terms) == orbit
    assert cx.branch == (n - 2, n - 1)
    bridges = [m for m in cx.maps if m.kind == penrose.NONSTANDARD]
    assert [(m.source, m.target, m.order) for m in bridges] == [
        (n - 3, n - 1, 3),
        (n - 2, n, 3),
    ]


@pytest.mark.parametrize("n", [3, 4, 6])
def test_every_complex_is_one_bgg_complex(n):
    """One class for every k: branch is None for k >= 1 and the direct-sum
    column pair (n-2, n-1) for the conjectural k = 0 complex."""
    for k in range(n):
        for sign in ("+", "-") if k else ("+",):
            cx = penrose.assemble_singular_bgg(n, k, sign, conjectural=True)
            assert type(cx) is penrose.BggComplex
            assert cx.branch == ((n - 2, n - 1) if k == 0 else None)
            assert cx.to_dict()["branch"] == (None if cx.branch is None else list(cx.branch))
