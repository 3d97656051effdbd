"""Relative resolutions, direct-image pages and assembled complexes."""

import dataclasses

import pytest

import parabolic_oracle
import penrose_oracle as oracle
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
    """The oracle's copy of the rule `penrose` applies inline."""
    assert oracle.bbw_direct_image(3, 1) == ((3, 1), 0)
    assert oracle.bbw_direct_image(1, 3) == ((3, 1), 1)
    assert oracle.bbw_direct_image(2, 2) is None
    assert oracle.bbw_direct_image(-1, -4, (3, 2)) == ((-1, -4, 3, 2), 0)
    assert oracle.bbw_direct_image(-4, -1, (3, 2)) == ((-1, -4, 3, 2), 1)


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


def _bridge(n, k, sign):
    """The non-standard differential of the E2 page and the E1 weights of
    its two ends, or None when the page has no differential."""
    diffs = penrose.e2_page(n, k, sign).differentials
    if not diffs:
        return None
    (d,) = diffs
    e1 = penrose.e1_entries(n, k, sign)
    return d, e1[d.source], e1[d.target]


@pytest.mark.parametrize("n", [4, 5, 8])
def test_bridge_positions_and_orders(n):
    for k in range(1, n - 1):
        plus, plus_src, plus_tgt = _bridge(n, k, "+")
        assert plus.source == (n - k - 2, 1)
        assert plus.target == (n - k, 0)
        minus, minus_src, minus_tgt = _bridge(n, k, "-")
        assert minus.source == (n + k - 3, 1)
        assert minus.target == (n + k - 1, 0)
        assert plus.kind == minus.kind == penrose.NONSTANDARD
        expected_order = 3 if k == 1 else 2
        assert plus.order == expected_order
        assert minus.order == expected_order
        if k >= 2:
            assert plus_src == (k + 1, k) + _tail(n, k + 1)
            assert plus_tgt == (k, k - 1) + _tail(n, k - 1)
            assert minus_src == (-k + 1, -k) + _tail(n, k - 1)
            assert minus_tgt == (-k, -k - 1) + _tail(n, k + 1)
        else:
            assert plus_src == (2, 1) + _tail(n, 2)
            assert plus_tgt == (1, -1) + _tail(n, 1)
            assert minus_src == (1, -1) + _tail(n, 1)
            assert minus_tgt == (-1, -2) + _tail(n, 2)
    assert _bridge(n, n - 1, "+") is None
    assert _bridge(n, n - 1, "-") is None


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
            total = parabolic_oracle.order_bound(cx.terms[0], cx.terms[-1], p2)
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
        assert page.entries[ps[0], q].kind == penrose.KERNEL
        assert page.entries[ps[0], q].text == f"Ker d_{ps[0] + 1}"
        assert page.entries[ps[-1], q].kind == penrose.COKERNEL
        assert page.entries[ps[-1], q].text == f"Coker d_{ps[-1]}"
        for p in ps[1:-1]:
            assert page.entries[p, q].kind == penrose.BULLET
            assert page.entries[p, q].text == "0"
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


def test_e2_pages_share_one_frozen_bullet():
    """Every vanishing E2 entry is the one module-level bullet record, which
    stays frozen; the entries come in the oracle's order."""
    bullet = penrose._BULLET_ENTRY
    assert bullet == penrose.E2Entry(penrose.BULLET, "0")
    with pytest.raises(dataclasses.FrozenInstanceError):
        bullet.text = "1"
    shared = 0
    for n in range(2, 10):
        for k in range(1, n):
            for sign in "+-":
                page = penrose.e2_page(n, k, sign)
                assert list(page.entries) == list(oracle.e2_page(n, k, sign).entries)
                for entry in page.entries.values():
                    assert (entry.kind == penrose.BULLET) == (entry is bullet)
                    shared += entry is bullet
    assert shared > 0 and bullet.text == "0"


def _records(n, k, sign):
    """The leaf records of the E1 and E2 pages and the complex of (n, k,
    sign): page maps, E2 entries and complex maps."""
    e1, e2 = penrose.e1_page(n, k, sign), penrose.e2_page(n, k, sign)
    cx = penrose.assemble_singular_bgg(n, k, sign)
    return e1.differentials + e2.differentials + list(e2.entries.values()) + cx.maps


@pytest.mark.parametrize("n", [3, 6, 9])
def test_calls_share_their_frozen_records(n):
    """Two calls hand out the same PageMap, BggMap and E2Entry objects,
    each still frozen, and the pages and complexes still equal the
    oracle's."""
    for k in range(1, n):
        for sign in "+-":
            first, again = _records(n, k, sign), _records(n, k, sign)
            assert first and all(a is b for a, b in zip(first, again))
            assert len(first) == len(again)
            for record in first:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    record.kind = "x"
            assert penrose.e1_page(n, k, sign).to_dict() == oracle.e1_page(n, k, sign).to_dict()
            assert penrose.e2_page(n, k, sign).to_dict() == oracle.e2_page(n, k, sign).to_dict()
            got = penrose.assemble_singular_bgg(n, k, sign).to_dict()
            assert got == oracle.assemble_singular_bgg(n, k, sign).to_dict()
    k0 = [penrose.assemble_singular_bgg(n, 0, conjectural=True) for _ in range(2)]
    assert all(a is b for a, b in zip(k0[0].maps, k0[1].maps))
    assert k0[0].to_dict() == oracle.conjectural_k0(n).to_dict()
    # the complexes themselves stay the caller's own
    assert k0[0] is not k0[1] and k0[0].maps is not k0[1].maps


def test_record_tables_are_bounded_typed_and_hold_the_bullet():
    """Each record factory has a constant, finite bound and keeps keys of
    other types apart; the bullet is the factory's (bullet, "0") record."""
    for table in (penrose._page_map, penrose._bgg_map, penrose._e2_entry):
        params = table.cache_parameters()
        assert type(params["maxsize"]) is int and params["maxsize"] > 0
        assert params["typed"] is True
    assert penrose._e2_entry(penrose.BULLET, "0") is penrose._BULLET_ENTRY
    one, true = penrose._bgg_map(0, 1, "standard", 1), penrose._bgg_map(0, 1, "standard", True)
    assert one == true and one is not true and type(true.order) is bool


def test_e2_page_builds_e1_once(monkeypatch):
    """The E2 page reads its rows and bridge off one e1_entries call and
    builds no E1 page."""
    calls = []

    def counting(name):
        real = getattr(penrose, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    for name in ("e1_page", "e1_entries"):
        monkeypatch.setattr(penrose, name, counting(name))
    page = penrose.e2_page(6, 2, "+")
    assert calls == ["e1_entries"]  # no e1_page call
    d2 = page.differentials[0]
    assert (d2.source, d2.target, d2.order) == ((2, 1), (4, 0), 2)


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


@pytest.mark.parametrize("n", range(2, 15))
def test_pages_and_complexes_match_oracle(n):
    """Every page and complex equals the one built the long way: a fresh
    E1 page per builder and one order_bound call per map, with the
    general grading of `parabolic` (E = (1/2, 1/2) at n = 2)."""
    for k in range(1, n):
        for sign in "+-":
            e1 = oracle.e1_page(n, k, sign)
            assert penrose.e1_entries(n, k, sign) == oracle.e1_entries(n, k, sign)
            assert penrose.e1_page(n, k, sign).to_dict() == e1.to_dict()
            assert penrose.e2_page(n, k, sign).to_dict() == oracle.e2_page(n, k, sign).to_dict()
            got = penrose.assemble_singular_bgg(n, k, sign)
            assert got.to_dict() == oracle.assemble_singular_bgg(n, k, sign).to_dict()
            assert all(type(m.order) is int for m in got.maps)
    if n >= 3:
        got = penrose.assemble_singular_bgg(n, 0, conjectural=True)
        assert got.to_dict() == oracle.conjectural_k0(n).to_dict()


@pytest.mark.parametrize("n", range(2, 17))
def test_relative_bgg_and_e1_entries_match_oracle(n):
    """The resolution read off the per-rank table, and the E1 entries read
    off it, equal the ones built term by term, for every signed k."""
    for ks in range(-(n - 1), n):
        got = penrose.relative_bgg(n, ks)
        assert got == oracle.relative_bgg(n, ks)
        assert all(type(t) is penrose.RelativeBggTerm for t in got)
        assert [t.to_dict() for t in got] == [t.to_dict() for t in oracle.relative_bgg(n, ks)]
    for k in range(1, n):
        for sign in "+-":
            assert penrose.e1_entries(n, k, sign) == oracle.e1_entries(n, k, sign)


def test_relative_terms_check_every_call():
    """(n, k) is checked on every call, also once the rank's terms, or
    those of an invalid rank, are kept."""
    assert penrose._relative_terms(5, 0) is penrose._relative_terms(5, 4)
    for ks in (5, -5, 9):
        with pytest.raises(ValueError):
            penrose._relative_terms(5, ks)
    for n in (1, 0, -1):
        penrose._rank_terms(n)
        with pytest.raises(ValueError):
            penrose._relative_terms(n, 0)


def test_returned_results_are_the_callers_own():
    """Changing a returned E1 dict or resolution list leaves the next
    call's result as it was: only the rank's tuple of terms is kept."""
    e1 = penrose.e1_entries(6, 2, "-")
    want = dict(e1)
    e1.pop(next(iter(e1)))
    e1[(0, 0)] = (0,) * 6
    assert penrose.e1_entries(6, 2, "-") == want
    terms = penrose.relative_bgg(6, -2)
    want = list(terms)
    terms.reverse()
    terms.append(terms[0])
    terms[1] = None
    assert penrose.relative_bgg(6, -2) == want
    assert penrose.relative_bgg(6, 3) == oracle.relative_bgg(6, 3)


def _count_calls(monkeypatch, owner, name):
    real, calls = getattr(owner, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_builders_compute_each_cell_once(monkeypatch):
    """An assembled complex builds no E1 page and asks for no PageMap, and
    reads the conformal weights of its cells once.  The E1 entries build
    no RelativeBggTerm and read no conformal weight, and a page reads them
    once and asks the PageMap factory once per differential.  The conjectural k = 0
    complex reads the conformal weights of its cells once too."""
    e1 = _count_calls(monkeypatch, penrose, "e1_page")
    page_maps = _count_calls(monkeypatch, penrose, "_page_map")
    terms = _count_calls(monkeypatch, penrose, "RelativeBggTerm")
    weights = _count_calls(monkeypatch, penrose, "_conformal_weights")
    n = 7
    for k in range(1, n):
        for sign in "+-":
            cx = penrose.assemble_singular_bgg(n, k, sign)
            assert len(cx.terms) == 2 * n - 3
            assert len(weights) == 2 * (k - 1) + (sign == "-") + 1
    cx = penrose.assemble_singular_bgg(n, 0, conjectural=True)
    assert len(cx.terms) == 2 * n - 2
    assert e1 == page_maps == []
    assert len(weights) == 2 * (n - 1) + 1
    assert len(penrose.e1_entries(n, 2, "-")) == 2 * n - 3
    assert terms == []
    page = penrose.e1_page(n, 2, "+")
    assert len(page_maps) == len(page.differentials)
    assert len(weights) == 2 * (n - 1) + 2
    assert terms == []
    assert len(penrose.relative_bgg(n, 2)) == len(terms) == 2 * n - 2
    assert len(weights) == 2 * (n - 1) + 2
