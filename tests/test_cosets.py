"""The W^p search: its signing table, and that it leaves no reference
cycle behind (a `bgg` process runs with the cyclic collector off)."""

import gc
import itertools

import pytest

from bgg import cosets, parabolic


@pytest.mark.parametrize("size", range(1, 11))
def test_signing_counts_match_brute_force(size):
    """Per choice of negative positions N, in the table's order: the
    pairs of a positive a_p and a later -a_q with a_q > a_p, that is q < p
    with p not in N and q in N, counted pair by pair."""
    want = [
        sum(q < p for p in range(size) if p not in negative for q in negative)
        for k in range(size + 1)
        for negative in itertools.combinations(range(size), k)
    ]
    assert [count for _, count in cosets._signings(size)] == want


@pytest.mark.parametrize("n,crossed", [(8, (2,)), (8, (1, 3)), (8, (8,)), (7, (1, 2, 5))])
def test_search_and_writers_leave_no_cycle(collector_off, n, crossed):
    """With the collector off, the search and the Hasse diagram with both
    writers are freed by reference counting alone: the collector then
    finds nothing."""
    cosets.hasse_rows(n, crossed)
    assert gc.collect() == 0
    hd = parabolic.hasse_diagram(parabolic.parabolic(n, crossed))
    hd.to_text()
    hd.to_json()
    del hd
    assert gc.collect() == 0
