"""Matrix realization of sp(2n), PBW straightening and singular vectors."""

import dataclasses
import itertools
import math
import operator
import random
import re
from fractions import Fraction
from types import MappingProxyType

import pytest

import parabolic_oracle
import verma_oracle
from conftest import jacobi_holds
from bgg import parabolic as parabolic_mod
from bgg import penrose, verma, weyl
from bgg.weyl import Root


@pytest.fixture(scope="module")
def lie3():
    return verma.LieData(3)


@pytest.fixture(scope="module")
def lie4():
    return verma.LieData(4)


def test_basis_size(lie3, lie4):
    assert len(lie3.tables.matrices) == 21  # dim sp(6)
    assert len(lie4.tables.matrices) == 36  # dim sp(8)


# sparse integer matrices {(row, col): int}, zero entries dropped


def _mul(x, y):
    out = {}
    for (r, k), u in x.items():
        for (k2, c), v in y.items():
            if k == k2:
                out[r, c] = out.get((r, c), 0) + u * v
    return {key: v for key, v in out.items() if v}


def _lin(*terms):
    """The sum of coeff * matrix over (coeff, matrix) pairs."""
    out = {}
    for coeff, m in terms:
        for key, v in m.items():
            out[key] = out.get(key, 0) + coeff * v
    return {key: v for key, v in out.items() if v}


def _transpose(m):
    return {(c, r): v for (r, c), v in m.items()}


def test_matrices_lie_in_sp(lie3):
    n = 3
    j = {(i, n + i): 1 for i in range(n)} | {(n + i, i): -1 for i in range(n)}
    for lab, m in lie3.tables.matrices.items():
        assert m and all(type(v) is int and v for v in m.values()), lab
        assert _lin((1, _mul(_transpose(m), j)), (1, _mul(j, m))) == {}, lab


def test_e_y_h_triples(lie3):
    """[e_alpha, y_alpha] is the coroot, and alpha takes value 2 on it."""
    n = 3
    for root in weyl.positive_roots(n):
        e = lie3.matrix(("e", root))
        y = lie3.matrix(("y", root))
        h = _lin((1, _mul(e, y)), (-1, _mul(y, e)))
        terms = lie3.bracket(("e", root), ("y", root))
        assert all(lab[0] == "h" for lab, _ in terms)
        recon = _lin(*((c, lie3.matrix(lab)) for lab, c in terms))
        assert recon == h
        # alpha(h_alpha) = 2, read off from [h_alpha, e_alpha] = alpha(h_alpha) e_alpha
        assert _lin((1, _mul(h, e)), (-1, _mul(e, h))) == _lin((2, e))


def test_specific_brackets(lie3):
    a13, a23, c23, b2 = Root("a", 1, 3), Root("a", 2, 3), Root("c", 2, 3), Root("b", 2)
    assert lie3.bracket(("y", c23), ("y", a23)) == ((("y", b2), 2),)
    assert lie3.bracket(("e", Root("a", 1, 2)), ("e", a23)) == ((("e", a13), 1),)
    assert lie3.bracket(("e", a13), ("e", Root("a", 1, 2))) == ()
    assert lie3.bracket(("h", 1), ("e", a13)) == ((("e", a13), 1),)
    assert lie3.bracket(("h", 3), ("e", a13)) == ((("e", a13), -1),)


def test_bracket_closure_exhaustive_sp6(lie3):
    """decompose() raises if a commutator ever leaves the span."""
    labels = sorted(lie3.tables.matrices, key=repr)
    for x in labels:
        for y in labels:
            lie3.bracket(x, y)


def test_jacobi_sampled(lie4):
    labels = sorted(lie4.tables.matrices, key=repr)
    rng = random.Random(11)
    for _ in range(500):
        x, y, z = (rng.choice(labels) for _ in range(3))
        assert jacobi_holds(lie4, x, y, z)


@pytest.mark.parametrize("n", range(2, 9))
def test_leading_entries_decompose(n):
    """Each basis matrix holds 1 at its least key, which no other basis
    matrix has; decompose reads a random combination back exactly."""
    lie = verma.LieData(n)
    keys = [key for m in lie.tables.matrices.values() for key in m]
    for lab, m in lie.tables.matrices.items():
        lead = min(m)
        assert m[lead] == 1, lab
        assert keys.count(lead) == 1, lab
    rng = random.Random(n)
    coeffs = {
        lab: rng.choice([-3, -2, -1, 1, 2, 3])
        for lab in lie.tables.matrices
        if rng.random() < 0.6
    }
    x = _lin(*((c, lie.matrix(lab)) for lab, c in coeffs.items()))
    assert dict(lie.decompose(x)) == coeffs


def test_decompose_rejects_outside_sp(lie3):
    bad = {(0, 0): 1}  # E_11 alone is not in sp(6)
    with pytest.raises(AssertionError):
        lie3.decompose(bad)


def test_lie_data_validation():
    with pytest.raises(ValueError):
        verma.LieData(1)


def _clear_rank_tables():
    """Drop the per-rank tables, and with them the word memo, the Levi
    modules with their rows and the shifted first arrows kept in them."""
    verma._rank.cache_clear()


def _scratch_matrix(n, label):
    """The basis matrix of label in sp(2n), from the definitions in the
    verma module docstring."""
    kind, x = label
    if kind == "h":
        return {(x - 1, x - 1): 1, (n + x - 1, n + x - 1): -1}
    i, j = x.i - 1, x.j - 1
    e = {
        "a": {(i, j): 1, (n + j, n + i): -1},
        "b": {(i, n + i): 1},
        "c": {(i, n + j): 1, (j, n + i): 1},
    }[x.kind]
    return e if kind == "e" else _transpose(e)


def test_shared_tables_are_kept_per_rank():
    """Ranks interleaved on cold tables: every bracket at n = 3 and 4 is
    the commutator of the basis matrices built from scratch.  A table
    shared across ranks fails here, since Root("a", 1, 2) has another
    matrix at each rank."""
    _clear_rank_tables()
    for n in (4, 3, 4):
        lie = verma.LieData(n)
        labels = [("h", i) for i in range(1, n + 1)] + [
            (kind, r) for r in weyl.positive_roots(n) for kind in ("e", "y")
        ]
        assert sorted(lie.tables.matrices, key=repr) == sorted(labels, key=repr)
        for x in labels:
            assert lie.matrix(x) == _scratch_matrix(n, x), x
            for y in labels:
                mx, my = _scratch_matrix(n, x), _scratch_matrix(n, y)
                want = _lin((1, _mul(mx, my)), (-1, _mul(my, mx)))
                got = _lin(*((c, _scratch_matrix(n, z)) for z, c in lie.bracket(x, y)))
                assert got == want, (n, x, y)


def test_shared_tables_are_read_only(lie3):
    """Every field of the rank's record other than its memos (the Levi
    modules with their rows and the shifted first arrows among them) is
    a tuple, a frozenset or a read-only mapping, and so are the basis
    matrices inside it.  The word memo holds tuples of (first
    coordinate, tuple of word tuples) pairs."""
    label = ("e", Root("a", 1, 2))
    with pytest.raises(TypeError):
        lie3.matrix(label)[0, 0] = 1
    with pytest.raises(TypeError):
        lie3.tables.matrices[label] = {}
    mp = verma.GeneralizedVerma(3, (0, 0, 0))
    tables = mp.tables
    assert tables is verma._rank(3)
    memos = {
        "brackets", "straightening", "needs", "modules", "arrows",
        "normal_forms",
    }
    assert memos <= set(tables._fields)
    for name in tables._fields:
        field = getattr(tables, name)
        if name in memos:
            assert type(field) is dict, name
        else:
            assert type(field) in (tuple, frozenset, MappingProxyType), name
    assert type(mp.letters) is tuple
    assert type(tables.vectors) is tuple
    assert type(tables.labels) is tuple and type(tables.raising) is tuple
    assert all(type(m) is MappingProxyType for m in tables.matrices.values())
    with pytest.raises(TypeError):
        tables.code[("y", Root("a", 1, 2))] = 0
    groups = tables.words(2, (0,))
    assert tables.needs[2, (0,)] is groups and _read_only_groups(groups)


def _top(mp):
    """The key of the highest vector of F: a = 0 and S = {e_3, ..., e_{j+2}}."""
    return sum(1 << r for r in range(2, 2 + mp.module.j))


def test_rank_tables_hold_eight_ranks():
    """The per-rank tables are held in a bounded cache of 8 ranks, and the
    word memo, the per-lam records (the Levi module and its rows) and
    the shifted first arrows are held in the tables of their rank: they
    go when it is evicted, so at most 8 ranks hold any."""
    _clear_rank_tables()
    built, rows, arrows, needs = {}, {}, {}, {}
    for n in range(3, 12):
        row = verma.singular_vector_row(n, 1, "-")
        for lam in ((0,) * n, (1, 0, 1) + (0,) * (n - 3), row.lam):
            mp = verma.GeneralizedVerma(n, lam)
            mp.weight_space((-1, -1) + lam[2:])
            assert mp.check_maximal({((), _top(mp)): 1}) == (True, [])
            built[n, lam], rows[n, lam] = mp.module, mp._rows
        assert verma.verify_row(row, kernel=False).ok
        arrows[n] = verma._rank(n).arrows[1, "-"]
        needs[n] = dict(verma._rank(n).needs)
        assert {grade for grade, _ in needs[n]} == {0, 1, 2}
    assert verma._rank.cache_info().currsize <= 8
    assert verma._rank.cache_info().maxsize == 8
    # ranks 11 down to 4 are the 8 kept, so reading them evicts none
    for n in range(11, 3, -1):
        lams = ((0,) * n, (1, 0, 1) + (0,) * (n - 3), verma.singular_vector_row(n, 1, "-").lam)
        tables = verma._rank(n)
        assert tables.modules.keys() == set(lams)
        for lam in lams:
            module, kept = tables.modules[lam]
            assert module is built[n, lam] and kept is rows[n, lam] and kept
        assert tables.arrows == {(1, "-"): arrows[n]}
        assert tables.needs.keys() == needs[n].keys()
        assert all(tables.needs[key] is groups for key, groups in needs[n].items())
    # rank 3 was evicted, and its word memo, per-lam records and
    # arrows with it
    tables = verma._rank(3)
    assert tables.modules == {} and tables.arrows == {}
    assert tables.needs == {}
    mp = verma.GeneralizedVerma(3, (0, 0, 0))
    assert mp.module is not built[3, (0, 0, 0)]
    assert mp._rows == {} and mp._rows is not rows[3, (0, 0, 0)]


def test_evicted_ranks_are_rebuilt():
    """Ranks 3..12 and then 3 again on cold caches: rank 3 has been
    evicted by then, its tables are rebuilt, and every row verifies."""
    _clear_rank_tables()
    first = verma._rank(3)
    for n in list(range(3, 13)) + [3]:
        results = verma.verify_first_operators(n)
        assert len(results) == 2 * (n - 1)
        assert all(r.ok and r.kernel_dim == 1 for r in results), n
    assert verma._rank(3) is not first


def test_a_cold_module_builds_no_lie_data(monkeypatch):
    """A GeneralizedVerma on a cold (n, lam), its Levi module and a row's
    verification read the tables of the rank and build no LieData."""
    real, calls = verma.LieData.__init__, []

    def counting(self, n):
        calls.append(n)
        real(self, n)

    monkeypatch.setattr(verma.LieData, "__init__", counting)
    _clear_rank_tables()
    mp = verma.GeneralizedVerma(5, (0, -2, 1, 0, 0))
    assert mp.maximal_vector_dimension((-1, -3, 1, 1, 0)) >= 0
    assert verma.verify_row(verma.singular_vector_row(5, 2, "-")).ok
    assert calls == []
    verma.LieData(5)
    assert calls == [5]


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_letters_are_the_crossed2_nilradical(n):
    """The letters, checked in verma against the roots of weyl whose first
    two coordinates sum to more than 0, are the nilradical of the
    crossed-{2} parabolic's general grading.  Each letter's code by its
    root's (kind, i, j) is its code by label."""
    tables = verma._rank(n)
    nil = parabolic_oracle.nilradical_roots(parabolic_mod.parabolic(n, (2,)))
    assert sorted(root for _, root in tables.letters) == sorted(nil)
    assert dict(tables.letter_codes) == {
        (r.kind, r.i, r.j): tables.code["y", r] for _, r in tables.letters
    }


def test_letter_list_check_can_fail(monkeypatch):
    """With a reference nilradical missing one root, the letter list is
    out of sync and the per-rank tables refuse to build."""
    real = weyl.positive_roots
    monkeypatch.setattr(weyl, "positive_roots", lambda n: [r for r in real(n) if r != Root("b", 1)])
    with pytest.raises(AssertionError, match="out of sync"):
        verma._rank.__wrapped__(4)


def test_simple_raising_labels(m3):
    labels = [m3.tables.labels[x] for x in m3.tables.raising]
    assert labels == [
        ("e", Root("a", 1, 2)),
        ("e", Root("a", 2, 3)),
        ("e", Root("b", 3)),
    ]


# ---------------------------------------------------------------------------
# Levi modules


def _levi_action(mp, label, f):
    """label . f in F through the module's one left action at the empty
    word, as sorted (key, coeff) pairs, asserted equal to the action of
    every entry of the label's matrix (the oracle).  A letter acts on F
    by no entry: act gives Y tensor f, and its action on F is empty."""
    x = mp.tables.code[label]
    out = mp.act(x, {((), f): 1})
    want = verma_oracle.levi_act(mp.module, label, f)
    if x < len(mp.letters):
        assert out == {((x,), f): 1} and want == [], (mp.lam, label, f)
        return []
    assert all(word == () for word, _ in out), (mp.lam, label, f)
    got = sorted((f2, c) for (_, f2), c in out.items())
    assert got == want, (mp.lam, label, f)
    return got


def test_levi_gl2_factor():
    """Trivial tail, m = 2: Sym^2 C^2 tensor det, with h_1, h_2 and the
    a12 root acting as derivations and every sp(4) label as zero."""
    mp = verma.GeneralizedVerma(4, (3, 1, 0, 0))
    mod = mp.module
    assert mod.m == 2 and mod.j == 0
    k0, k1, k2 = 0, 1 << 8, 2 << 8  # x_0^{2-a} x_1^a is a << 2n
    assert verma_oracle.keys(mod) == [k0, k1, k2]
    assert mod.weight(k0) == (3, 1, 0, 0)
    assert mod.weight(k1) == (2, 2, 0, 0)
    assert mod.weight(k2) == (1, 3, 0, 0)
    a12 = ("e", Root("a", 1, 2))
    ya12 = ("y", Root("a", 1, 2))

    def act(label, f):
        return _levi_action(mp, label, f)

    assert act(a12, k0) == []
    assert act(a12, k1) == [(k0, 1)]
    assert act(a12, k2) == [(k1, 2)]
    assert act(ya12, k0) == [(k1, 2)]
    assert act(ya12, k1) == [(k2, 1)]
    assert act(ya12, k2) == []
    assert act(("h", 1), k0) == [(k0, 3)]
    assert act(("h", 1), k1) == [(k1, 2)]
    assert act(("h", 2), k1) == [(k1, 2)]
    assert act(("h", 2), k2) == [(k2, 3)]
    sp4 = [("h", 3), ("h", 4)] + [
        (kind, r) for r in (Root("a", 3, 4), Root("b", 3), Root("b", 4), Root("c", 3, 4))
        for kind in "ey"
    ]
    for label in sp4:
        assert all(act(label, f) == [] for f in (k0, k1, k2)), label


def test_levi_standard_factor():
    """Standard tail, m = 1: C^2 tensor det tensor C^4, slots t = 0..3
    being e_3, e_4, f_3, f_4."""
    mp = verma.GeneralizedVerma(4, (2, 1, 1, 0))
    mod = mp.module

    def key(j, t):
        return verma_oracle.key(4, (j, t))

    assert verma_oracle.keys(mod) == [key(j, t) for j in (0, 1) for t in range(4)]
    assert [mod.weight(f) for f in verma_oracle.keys(mod)] == [
        (2, 1, 1, 0), (2, 1, 0, 1), (2, 1, -1, 0), (2, 1, 0, -1),
        (1, 2, 1, 0), (1, 2, 0, 1), (1, 2, -1, 0), (1, 2, 0, -1),
    ]
    i_e3 = key(0, 0)
    i_e4 = key(0, 1)
    i_f3 = key(0, 2)
    i_f4 = key(0, 3)
    a34 = ("e", Root("a", 3, 4))

    def act(label, f):
        return _levi_action(mp, label, f)

    assert act(a34, i_e4) == [(i_e3, 1)]
    assert act(a34, i_e3) == []
    assert act(a34, i_f3) == [(i_f4, -1)]
    assert act(("e", Root("b", 3)), i_f3) == [(i_e3, 1)]
    assert act(("y", Root("b", 3)), i_e3) == [(i_f3, 1)]
    assert act(("e", Root("c", 3, 4)), i_f4) == [(i_e3, 1)]
    assert act(("e", Root("c", 3, 4)), i_f3) == [(i_e4, 1)]
    assert act(("h", 3), i_e3) == [(i_e3, 1)]
    assert act(("h", 4), i_f4) == [(i_f4, -1)]
    # the gl(2) factor acts on the same slot
    assert act(("y", Root("a", 1, 2)), i_f4) == [(key(1, 3), 1)]
    assert act(("e", Root("a", 1, 2)), key(1, 2)) == [(i_f3, 1)]
    assert act(("h", 1), key(1, 1)) == [(key(1, 1), 1)]
    assert act(("h", 2), key(1, 1)) == [(key(1, 1), 2)]


@pytest.mark.parametrize("n", range(3, 9))
def test_u_plus_kills_the_levi_module(n):
    """Every u^+ label acts as zero on every basis vector of F, for both
    tails, through the left action and through the entries of its
    matrix alike.  The Levi's raising labels that act on F (a12, and
    those of sp(2n-4) when V is standard) are nonzero on it, so the
    check is not vacuous."""
    nil = set(parabolic_oracle.nilradical_roots(parabolic_mod.parabolic(n, (2,))))
    assert len(nil) == 4 * (n - 2) + 3
    for tail in ((0,) * (n - 2), (1,) + (0,) * (n - 3)):
        mp = verma.GeneralizedVerma(n, (2, -1) + tail)
        size = 4 * (2 * (n - 2) if any(tail) else 1)
        keys = verma_oracle.keys(mp.module)
        assert len(keys) == size
        for root in weyl.positive_roots(n):
            images = [_levi_action(mp, ("e", root), f) for f in keys]
            if root in nil:
                assert not any(images), (tail, root)
            elif any(tail) or root == Root("a", 1, 2):
                assert any(images), (tail, root)


@pytest.mark.parametrize("n", range(3, 7))
def test_levi_act_matches_entry_oracle(n):
    """The left action at the empty word, read off the straightening
    table and the rank's Levi table, against the action of every entry
    of each label's matrix, on every label and basis vector of both
    tails and m = 0, 1, 2.  h_i acts by the weight's i-th coordinate, a
    u^+ or u^- label by zero, and every other Levi label moves a basis
    vector to at most one other."""
    nil = set(parabolic_oracle.nilradical_roots(parabolic_mod.parabolic(n, (2,))))
    for tail in ((0,) * (n - 2), (1,) + (0,) * (n - 3)):
        for lam in ((0, 0) + tail, (1, 0) + tail, (0, -2) + tail):
            mp = verma.GeneralizedVerma(n, lam)
            mod = mp.module
            moved = 0
            keys = verma_oracle.keys(mod)
            for label in mp.tables.matrices:
                for f in keys:
                    got = _levi_action(mp, label, f)
                    if label[0] == "h":
                        c = mod.weight(f)[label[1] - 1]
                        assert got == ([(f, c)] if c else []), (lam, label, f)
                    elif label[1] in nil:
                        assert got == [], (lam, label, f)
                    else:
                        assert len(got) <= 1 and all(f2 != f for f2, _ in got)
                        moved += bool(got)
            assert moved or len(keys) == 1, lam


@pytest.mark.parametrize("n", range(3, 7))
def test_cartan_labels_act_through_their_matrix_entries(n):
    """Every Levi label's table entry is (gl2, moves), h_i included, and
    LeviModule._move gives each h_i its weight coordinate: (f, wt_i),
    or nothing when wt_i = 0, on both tails and m = 0, 1, 2.  After the
    catalogue rows of the rank are checked, every straightening entry is
    ((w2, z), c) with z None or a Levi label code and c a nonzero int."""
    tables = verma._rank(n)
    for gl2, moves in tables.levi.values():
        assert gl2 is None or len(gl2) == 3
        assert type(moves) is tuple and len(moves) <= 2
    cartan = [(tables.code["h", i], i) for i in range(1, n + 1)]
    for tail in ((0,) * (n - 2), (1,) + (0,) * (n - 3)):
        for lam in ((0, 0) + tail, (1, 0) + tail, (0, -2) + tail):
            mod = verma.GeneralizedVerma(n, lam).module
            for f in verma_oracle.keys(mod):
                wt = mod.weight(f)
                for x, i in cartan:
                    want = ((f, wt[i - 1]),) if wt[i - 1] else ()
                    assert mod._move(x, f) == want, (lam, i, f)
    for row in _catalogue([n]):
        verma.verify_row(row)
    tables = verma._rank(n)
    kinds = set()
    for entries in tables.straightening.values():
        assert type(entries) is tuple
        for (w2, z), c in entries:
            assert type(w2) is tuple and (z is None or z in tables.levi)
            assert type(c) is int and c
            kinds.add(None if z is None else tables.labels[z][0])
    assert kinds == {None, "h", "e", "y"}


def test_levi_module_rejects_lie_data_of_another_rank():
    """A LieData of another rank, larger or smaller, is refused by
    verify_row, the one function that still takes one."""
    for row, other in ((verma.singular_vector_row(3, 2), 4), (verma.singular_vector_row(4, 1), 3)):
        with pytest.raises(ValueError, match="rank mismatch"):
            verma.verify_row(row, verma.LieData(other))
        assert verma.verify_row(row, verma.LieData(row.n)).ok


def test_levi_module_validation():
    """A gl(2) part with lam_1 < lam_2 and a tail that is not a
    fundamental weight omega_j are refused with ValueError."""
    with pytest.raises(ValueError):
        verma.LeviModule(4, (1, 2, 0, 0))
    with pytest.raises(ValueError, match="fundamental weight"):
        verma.LeviModule(4, (3, 1, 2, 0))
    with pytest.raises(ValueError, match="fundamental weight"):
        verma.LeviModule(5, (3, 1, 1, 0, 1))


# ---------------------------------------------------------------------------
# every tail omega_j: Lambda^j and its contraction


def _omega(n, j, first=(1, -1)):
    """(first | omega_j): the gl(2) part, then j ones and n - 2 - j zeros."""
    return tuple(first) + (1,) * j + (0,) * (n - 2 - j)


def _levi_codes(n):
    return list(verma._rank(n).levi)


def _apply(mod, z, vec):
    """z . vec for a dict {key: coeff}, through LeviModule._move."""
    out = {}
    for f, c in vec.items():
        for f2, c2 in mod._move(z, f):
            verma_oracle._add(out, f2, c * c2)
    return out


@pytest.mark.parametrize("n", [4, 5])
def test_levi_module_law_on_every_key(n):
    """x.(y.f) - y.(x.f) = [x, y].f for every ordered pair of Levi labels,
    h_i included, and every key f of Sym^2 tensor det tensor Lambda^j,
    for every j."""
    tables, codes = verma._rank(n), _levi_codes(n)
    bad = []
    for j in range(n - 1):
        mod = verma.LeviModule(n, _omega(n, j))
        for f in verma_oracle.keys(mod):
            acted = {x: _apply(mod, x, {f: 1}) for x in codes}
            for x in codes:
                for y in codes:
                    lhs = _apply(mod, x, acted[y])
                    for key, c in _apply(mod, y, acted[x]).items():
                        verma_oracle._add(lhs, key, -c)
                    rhs = {}
                    for z, zc in tables.bracket(x, y):
                        for key, c in acted[z].items():
                            verma_oracle._add(rhs, key, zc * c)
                    if lhs != rhs:
                        bad.append((j, f, x, y))
    assert bad == []


@pytest.mark.parametrize("n", [4, 5])
def test_contraction_is_equivariant(n):
    """contract(x.f) = x.contract(f) for every Levi label x and every key
    f of Lambda^j, j >= 2, x acting on the right through the module of
    (lam_1, lam_2 | omega_{j-2}); and contract is the oracle's pairing
    by the symplectic form."""
    bad = []
    for j in range(2, n - 1):
        mod, low = verma.LeviModule(n, _omega(n, j)), verma.LeviModule(n, _omega(n, j - 2))
        for f in verma_oracle.keys(mod):
            if sorted(mod.contract(f)) != verma_oracle.contract(mod, f):
                bad.append((j, f))
            for x in _levi_codes(n):
                left = {}
                for f2, c in _apply(mod, x, {f: 1}).items():
                    for f3, c3 in mod.contract(f2):
                        verma_oracle._add(left, f3, c * c3)
                if left != _apply(low, x, dict(mod.contract(f))):
                    bad.append((j, f, x))
    assert bad == []


def _matrix_rank(rows):
    """The rank of a list of rows {column: int}, by Fraction elimination."""
    pivots = {}
    for row in rows:
        row = {k: Fraction(c) for k, c in row.items() if c}
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = row
                break
            piv, factor = pivots[lead], row[lead] / pivots[lead][lead]
            for k, c in piv.items():
                verma_oracle._add(row, k, -factor * c)
    return len(pivots)


def test_contraction_kernel_is_the_fundamental_module():
    """On Lambda^j C^{2n-4} the contraction's kernel has dimension
    dim V(omega_j) = C(2n-4, j) - C(2n-4, j-2), for n = 3..7 and every
    j."""
    got, want = [], []
    for n in range(3, 8):
        for j in range(n - 1):
            mod = verma.LeviModule(n, _omega(n, j, (0, 0)))
            keys = verma_oracle.keys(mod)
            got.append(len(keys) - _matrix_rank([dict(mod.contract(f)) for f in keys]))
            want.append(math.comb(2 * n - 4, j) - (math.comb(2 * n - 4, j - 2) if j >= 2 else 0))
    assert got == want


def test_check_maximal_sees_a_nonzero_contraction():
    """The symplectic form e_3 ^ f_3 + e_4 ^ f_4 in Lambda^2 C^4 is killed
    by every simple raising operator, but not by the contraction: it is
    not maximal, and no raising operator is named."""
    mp = verma.GeneralizedVerma(4, _omega(4, 2, (0, 0)))
    form = {((), 1 << 2 | 1 << 6): 1, ((), 1 << 3 | 1 << 7): 1}
    assert mp.check_maximal(form) == (False, [])


def test_contraction_is_load_bearing(monkeypatch):
    """At mu = (lam_1, lam_2 | omega_{j-2}), below lam = (lam_1, lam_2 |
    omega_j), Lambda^j has a maximal vector (the form wedge the highest
    vector of Lambda^{j-2}) and F(lam) has none: dimension 0 with the
    contraction and 1 with contract stubbed out, for n = 4..6 and
    j = 2..n-2.  No map of a complex tells the two apart."""
    cases = [(n, j) for n in range(4, 7) for j in range(2, n - 1)]

    def dims():
        _clear_rank_tables()
        return [
            verma.GeneralizedVerma(n, _omega(n, j)).maximal_vector_dimension(_omega(n, j - 2))
            for n, j in cases
        ]

    genuine = dims()
    with monkeypatch.context() as patch:
        patch.setattr(verma.LeviModule, "contract", lambda self, f: [])
        stubbed = dims()
        _clear_rank_tables()
    assert (genuine, stubbed) == ([0] * len(cases), [1] * len(cases))


def _complex_maps(n):
    """(source - rho, target - rho) of every map of every complex of rank
    n: k = 1..n-1 with both signs, and the conjectural k = 0."""
    rho = weyl.rho(n)
    complexes = [penrose.assemble_singular_bgg(n, 0, "+", conjectural=True)] + [
        penrose.assemble_singular_bgg(n, k, sign) for k in range(1, n) for sign in "+-"
    ]
    for cx in complexes:
        shifted = [tuple(a - b for a, b in zip(t, rho)) for t in cx.terms]
        for m in cx.maps:
            yield shifted[m.source], shifted[m.target]


def test_one_elimination_equals_the_subtraction(monkeypatch):
    """On every map of every complex for n = 3..6 the one elimination,
    with the contraction's columns, gives the dimension of Lambda^j less
    that of Lambda^{j-2} under lam' = (lam_1, lam_2 | omega_{j-2}), both
    with contract stubbed out; rank tables are cleared around the stubbed
    run, whose rows would mix with the genuine ones."""
    maps = [(n, lam, mu) for n in range(3, 7) for lam, mu in _complex_maps(n)]
    _clear_rank_tables()
    genuine = [verma.GeneralizedVerma(n, lam).maximal_vector_dimension(mu) for n, lam, mu in maps]
    with monkeypatch.context() as patch:
        patch.setattr(verma.LeviModule, "contract", lambda self, f: [])
        _clear_rank_tables()
        subtracted = []
        for n, lam, mu in maps:
            j = sum(lam[2:])
            dim = verma.GeneralizedVerma(n, lam).maximal_vector_dimension(mu)
            if j >= 2:
                low = _omega(n, j - 2, lam[:2])
                dim -= verma.GeneralizedVerma(n, low).maximal_vector_dimension(mu)
            subtracted.append(dim)
        _clear_rank_tables()
    assert genuine == subtracted and len(maps) == 12 + 30 + 56 + 90


@pytest.mark.parametrize("n", range(3, 8))
def test_word_first_listing_matches_a_filter_of_all_keys(n):
    """On every map of every complex, at its target and 1-3 grade steps
    below, the weight space, listed F-first from the tails of Lambda^j,
    equals every key of Sym^m tensor det tensor Lambda^j kept when the
    word memo has words for its need wt(f) - mu, in order of f and then
    (length, word)."""
    tables, bad = verma._rank(n), []
    for lam, target in _complex_maps(n):
        mp = verma.GeneralizedVerma(n, lam)
        for mu in _grade_steps(target):
            grade = lam[0] + lam[1] - mu[0] - mu[1]
            want = []
            for f in verma_oracle.keys(mp.module):
                need = tuple(a - b for a, b in zip(mp.module.weight(f), mu))
                want += [(word, f) for word in dict(tables.words(grade, need[2:])).get(need[0], ())]
            if mp.weight_space(mu) != want:
                bad.append((lam, mu))
    assert bad == []


@pytest.mark.parametrize("n", range(3, 7))
def test_int_keys_agree_with_the_two_case_class(n):
    """On j <= 1 the int-keyed module is the old two-case class (the
    oracle): the same vectors, weights and moves of every Levi label,
    with the label (j, t) read as its key."""
    bad = []
    for tail in ((0,) * (n - 2), (1,) + (0,) * (n - 3)):
        for lam in ((0, 0) + tail, (1, 0) + tail, (0, -2) + tail):
            old, new = verma_oracle.LeviModule(n, lam), verma.LeviModule(n, lam)
            keys = [verma_oracle.key(n, label) for label in old.basis]
            if keys != verma_oracle.keys(new):
                bad.append(lam)
            for idx, f in enumerate(keys):
                if new.weight(f) != old.weight(idx):
                    bad.append((lam, f))
                for z in verma._rank(n).levi:
                    if new._move(z, f) != tuple((keys[i2], c) for i2, c in old._move(z, idx)):
                        bad.append((lam, f, z))
    assert bad == []


# ---------------------------------------------------------------------------
# PBW straightening


@pytest.fixture(scope="module")
def m3():
    return verma.GeneralizedVerma(3, (0, 0, 0))


def test_letter_order(m3):
    names = [lab[1].label() for lab in m3.letters]
    assert names == ["a13", "a23", "c13", "c23", "b1", "b2", "c12"]


def test_highest_weight(m3):
    assert verma_oracle.weight_of(m3, {((), 0): 1}) == (0, 0, 0)
    assert m3.act(("e", Root("c", 1, 2)), {((), 0): 1}) == {}
    assert m3.act(("e", Root("a", 1, 3)), {((), 0): 1}) == {}


def test_pbw_commutator_identity(m3):
    """Y_c23 Y_a23 - Y_a23 Y_c23 = 2 Y_b2 as operators on the module."""
    c23, a23, b2 = Root("c", 2, 3), Root("a", 2, 3), Root("b", 2)
    lhs = m3.combine(
        [(1, (c23, a23), (0, None)), (-1, (a23, c23), (0, None))]
    )
    assert lhs == m3.combine([(2, (b2,), (0, None))])


def test_monomials_are_normal_ordered(m3):
    """Integer input straightens to int coefficients; a Fraction
    coefficient stays an exact Fraction."""
    c23, a13 = Root("c", 2, 3), Root("a", 1, 3)
    elem = m3.combine([(1, (c23, a13), (0, None))])
    assert len(elem) == 2
    for (word, _), coeff in elem.items():
        assert list(word) == sorted(word)
        assert type(coeff) is int
    third = m3.combine([(Fraction(1, 3), (c23, a13), (0, None))])
    assert third == {key: Fraction(c, 3) for key, c in elem.items()}
    assert all(type(coeff) is Fraction for coeff in third.values())


def test_act_respects_brackets(m3, lie3):
    """x.(y.v) - y.(x.v) = [x, y].v for mixed raising and lowering letters."""
    v = m3.combine([(1, (Root("a", 2, 3), Root("b", 2)), (0, None))])
    pairs = [
        (("e", Root("a", 2, 3)), ("y", Root("c", 2, 3))),
        (("e", Root("b", 3)), ("y", Root("c", 1, 3))),
        (("y", Root("a", 1, 3)), ("y", Root("c", 1, 2))),
        (("h", 2), ("y", Root("a", 2, 3))),
    ]
    for x, y in pairs:
        lhs = m3.act(x, m3.act(y, v))
        for key, c in m3.act(y, m3.act(x, v)).items():
            verma_oracle._add(lhs, key, -c)
        rhs = {}
        for z, zc in lie3.bracket(x, y):
            for key, c in m3.act(z, v).items():
                verma_oracle._add(rhs, key, zc * c)
        assert lhs == rhs


def test_module_law_standard_levi_factor(lie4):
    """x.(y.v) - y.(x.v) = [x, y].v for every ordered pair of the 36
    labels of sp(8), in a module whose Levi factor has the standard
    sp(4) part, and in one with a trivial sp(4) part and m = 2."""
    a13, a24, b2, c14 = Root("a", 1, 3), Root("a", 2, 4), Root("b", 2), Root("c", 1, 4)
    labels = list(lie4.tables.matrices)
    assert len(labels) == 36
    for lam, (f1, f2, f3) in (
        ((2, 1, 1, 0), ((1, 2), (0, 3), (1, 1))),
        ((3, 1, 0, 0), ((1, None), (2, None), (1, None))),
    ):
        mp = verma.GeneralizedVerma(4, lam)
        vectors = [
            {((), _top(mp)): 1},
            mp.combine([(1, (a24, b2), f1)]),
            mp.combine([(1, (c14,), f2), (2, (a13, a24), f3)]),
        ]
        for v in vectors:
            assert v
            acted = {x: mp.act(x, v) for x in labels}
            for x in labels:
                for y in labels:
                    lhs = mp.act(x, acted[y])
                    for key, c in mp.act(y, acted[x]).items():
                        verma_oracle._add(lhs, key, -c)
                    rhs = {}
                    for z, zc in lie4.bracket(x, y):
                        for key, c in acted[z].items():
                            verma_oracle._add(rhs, key, zc * c)
                    assert lhs == rhs, (lam, x, y)


def test_act_results_do_not_alias_the_memo():
    """Elements returned by act and combine are the caller's: mutating
    them leaves a repeated act or combine unchanged."""
    mp = verma.GeneralizedVerma(3, (0, 0, 0))
    a23, b2 = Root("a", 2, 3), Root("b", 2)
    parts = [(1, (a23, b2), (0, None)), (3, (Root("c", 2, 3), a23), (0, None))]
    v = mp.combine(parts)
    want_v = dict(v)
    for label in (("e", a23), ("e", Root("b", 3)), ("y", Root("a", 1, 3)), ("h", 2)):
        got = mp.act(label, v)
        want = dict(got)
        assert want, label
        for key, c in list(got.items()):
            verma_oracle._add(got, key, -c)
        got[(0,), 0] = 99
        assert mp.act(label, v) == want, label
        single = mp.act(label, {key: 1 for key in list(v)[:1]})
        single.clear()
        assert mp.act(label, v) == want, label
    v.clear()
    assert mp.combine(parts) == want_v


def test_modules_of_a_rank_share_read_only_tables():
    """Modules of one rank share the straightening table, letters
    included, whatever lam and V, and the word memo, and modules of
    one (n, lam) share their per-lam record: the Levi module and its
    rows.  Every value the straightening table and the word memo hold is
    a tuple of tuples, and mutating an element returned by act or
    combine leaves the next call unchanged."""
    _clear_rank_tables()
    a, b = verma.GeneralizedVerma(3, (0, 0, 0)), verma.GeneralizedVerma(3, (1, 0, 1))
    c = verma.GeneralizedVerma(3, (2, -1, 0))
    assert a.tables.straightening is b.tables.straightening is c.tables.straightening
    assert a.tables.needs is b.tables.needs
    assert a.tables.brackets is b.tables.brackets
    assert a.module is not b.module
    again = verma.GeneralizedVerma(3, [1, 0, 1])
    assert again.module is b.module and again._rows is b._rows
    assert a._rows is not b._rows
    parts = [(1, (Root("a", 2, 3), Root("b", 2)), (0, None))]
    parts_b = [(1, ys, (0, 0)) for _, ys, _ in parts]
    label = ("e", Root("a", 2, 3))
    got = a.act(label, a.combine(parts))
    assert got
    size = len(a.tables.straightening)
    want_c = verma_oracle.act(c, label, verma_oracle.combine(c, parts))
    assert want_c and c.act(label, c.combine(parts)) == want_c
    assert len(c.tables.straightening) == size  # c read what a straightened
    v = b.combine(parts_b)
    assert b.act(label, v)
    # V is standard for b, and b read what a straightened all the same
    pairs = [(x, word) for x, word in b.tables.straightening]
    assert len(pairs) == size
    assert a.weight_space((-1, -2, 1)) and b.weight_space(verma_oracle.weight_of(b, v))
    # c23 sorts after a13, so it does not simply extend the word
    assert a.combine([(1, (Root("c", 2, 3), Root("a", 1, 3)), (0, None))])
    memo = a.tables.straightening
    assert any(x < len(a.letters) for x, _ in memo)
    assert all(type(val) is tuple for val in memo.values())
    assert all(type(term) is tuple for val in memo.values() for term in val)
    for mp in (a, b):
        module, rows = mp.tables.modules[mp.lam]
        assert module is mp.module and rows is mp._rows
        assert mp.tables.needs
        assert all(map(_read_only_groups, mp.tables.needs.values()))
    assert {lam: module for lam, (module, _) in a.tables.modules.items()} == {
        (0, 0, 0): a.module, (1, 0, 1): b.module, (2, -1, 0): c.module
    }
    want = dict(got)
    got.clear()
    v[(0,), 0] = 5
    assert a.act(label, a.combine(parts)) == want
    want_b = verma_oracle.act(b, label, verma_oracle.combine(b, parts_b))
    assert b.act(label, b.combine(parts_b)) == want_b


@pytest.mark.parametrize("n", [4, 6])
def test_trivial_and_standard_tails_share_one_straightening_table(n):
    """A trivial-tail module and then a standard-tail module of one rank,
    each checking its catalogue row's kernel: the second adds no
    straightening entry for a (code, word) pair that the first already
    holds, though on cold tables it straightens some of those pairs."""
    trivial = verma.singular_vector_row(n, n - 2, "+")
    standard = verma.singular_vector_row(n, n - 1, "+")
    assert not any(trivial.lam[2:]) and any(standard.lam[2:])

    def pairs():
        return {key[:2] for key in verma._rank(n).straightening}

    _clear_rank_tables()
    verma.GeneralizedVerma(n, standard.lam).maximal_vector_dimension(standard.mu)
    alone = pairs()
    _clear_rank_tables()
    verma.GeneralizedVerma(n, trivial.lam).maximal_vector_dimension(trivial.mu)
    first = pairs()
    size = len(verma._rank(n).straightening)
    verma.GeneralizedVerma(n, standard.lam).maximal_vector_dimension(standard.mu)
    added = list(verma._rank(n).straightening)[size:]
    assert alone & first
    assert not {key[:2] for key in added} & first
    assert {key[:2] for key in added} == alone - first


def _graded_words(grades, top):
    """Every normal-ordered word whose letters' grades sum to at most top."""
    words = [()]
    for word in words:
        for i in range(word[-1] if word else 0, len(grades)):
            if sum(grades[j] for j in word) + grades[i] <= top:
                words.append(word + (i,))
    return words


def _straightening_mismatches(mp, words):
    """The (label, word, f) for which label . (Y^word tensor f), through
    the straightening table and the Levi action, differs from the
    work-list straightening: every label code, letters included, every
    word given and every basis vector of F."""
    bad = []
    for x, label in enumerate(mp.tables.labels):
        for word in words:
            for f in verma_oracle.keys(mp.module):
                want = {}
                verma_oracle.normal_form(
                    mp, (label,) + tuple(mp.letters[i] for i in word), f, 1, want
                )
                if mp.act(x, {(word, f): 1}) != want:
                    bad.append((label, word, f))
    return bad


@pytest.mark.parametrize("n, top", [(3, 3), (4, 2)])
def test_straightening_table_matches_oracle(n, top):
    """Every label code, letters included, on every normal-ordered word of
    grade at most top and every basis vector of a trivial-tail and a
    standard-tail module, through the straightening table and the Levi
    action, against the work-list straightening.  Afterwards the one
    table holds every pair a label does not simply extend."""
    _clear_rank_tables()
    grades = [sum(root.vector(n)[:2]) for _, root in verma._rank(n).letters]
    words = _graded_words(grades, top)
    assert max(map(len, words)) == top
    for lam in ((1, -1) + (0,) * (n - 2), (1, 0, 1) + (0,) * (n - 3)):
        mp = verma.GeneralizedVerma(n, lam)
        bad = _straightening_mismatches(mp, words)
        assert not bad, (lam, bad[:3])
        simple = {(x, w) for x in range(len(mp.letters)) for w in words if not w or x <= w[0]}
        pairs = {(x, w) for x in range(len(mp.tables.labels)) for w in words} - simple
        kept = {(x, w) for x, w in mp.tables.straightening}
        assert pairs <= kept


def test_straightening_table_check_can_fail():
    """One wrong coefficient seeded into a letter's entry of a fresh
    rank's table, for a pair that the letter does not simply extend
    (Y_c12 Y_a13 = Y_a13 Y_c12), is caught by the comparison with the
    work-list straightening.  The oracle's brackets come from the same
    memo, so the straightening entry is corrupted, not a bracket."""
    n = 3
    _clear_rank_tables()
    try:
        tables = verma._rank(n)
        x, word = tables.code["y", Root("c", 1, 2)], (tables.code["y", Root("a", 1, 3)],)
        assert x > word[0]
        ((key, c), *rest) = tables.straighten(x, word)
        assert key == ((word[0], x), None)
        tables.straightening[x, word] = ((key, c + 1), *rest)
        mp = verma.GeneralizedVerma(n, (1, -1, 0))
        bad = _straightening_mismatches(mp, [(), word])
        assert {(tables.labels[x], word, f) for f in verma_oracle.keys(mp.module)} <= set(bad)
    finally:
        _clear_rank_tables()


def _multisets(m, k):
    """M(m, k) = C(m + k - 1, k), the multisets of size k from m letters;
    M(m, 0) = 1 even for m = 0."""
    return math.comb(m + k - 1, k) if k else 1


def _grade_count(n, grade):
    """The words of a grade: b letters of grade 2 (b1, b2, c12) and
    grade - 2b of grade 1 (the 4(n - 2) others)."""
    return sum(
        _multisets(4 * (n - 2), grade - 2 * b) * _multisets(3, b) for b in range(grade // 2 + 1)
    )


def _tails(size, top):
    """Every integer tuple of the size with |d|_1 <= top."""
    tails = [()]
    for _ in range(size):
        tails = [
            t + (x,) for t in tails for x in range(-top, top + 1) if sum(map(abs, t)) + abs(x) <= top
        ]
    return tails


def _read_only_groups(groups):
    """A value of the word memo: a tuple of (first coordinate, words)
    pairs, the words a tuple of word tuples."""
    return type(groups) is tuple and all(
        type(pair) is tuple and type(pair[0]) is int and type(pair[1]) is tuple
        and all(type(w) is tuple for w in pair[1])
        for pair in groups
    )


@pytest.mark.parametrize("n", range(2, 8))
def test_grade_tables_match_oracle_and_count(n):
    """The word memo on every need of grade G <= 5 (G <= 3 at n = 7):
    each tail d with |d|_1 <= G and each first coordinate 0..G, against
    the tuple-walk listing sorted by (length, word), and the grade's
    total over its needs against the closed count, so a memo that drops,
    repeats or misfiles a word fails.  Every value it holds is a tuple
    of tuples and has words."""
    _clear_rank_tables()
    mp = verma.GeneralizedVerma(n, (0,) * n)
    tables, checked = mp.tables, 0
    for grade in range(0, (3 if n == 7 else 5) + 1):
        total = 0
        for tail in _tails(n - 2, grade):
            groups = dict(tables.words(grade, tail))
            for first in range(grade + 1):
                need = (first, grade - first) + tail
                want = sorted(verma_oracle.words_for(mp, need), key=lambda w: (len(w), w))
                assert groups.get(first, ()) == tuple(want), (n, need)
                checked += 1
            assert groups.keys() <= set(range(grade + 1)), (n, grade, tail)
            total += sum(map(len, groups.values()))
        assert total == _grade_count(n, grade), (n, grade)
    assert checked == {3: 161, 4: 721, 5: 2373, 6: 6349}.get(n, checked)
    assert tables.needs and all(map(_read_only_groups, tables.needs.values()))
    assert all(tables.needs.values())


def test_words_of_no_need_are_not_kept():
    """A negative grade, a tail with |tail|_1 above the grade and a tail
    of the other parity have no words, and the memo keeps no state for
    them."""
    _clear_rank_tables()
    tables = verma._rank(4)
    for grade, tail in [(-1, (0, 0)), (-2, (1, 0)), (0, (1, 0)), (2, (2, -1)), (1, (0, 0)), (3, (1, 1))]:
        assert tables.words(grade, tail) == (), (grade, tail)
    assert tables.needs == {}
    assert tables.words(2, (1, -1)) and (2, (1, -1)) in tables.needs


def test_grade_table_counts_at_higher_rank():
    """The closed count at n = 6, G = 3 and at n = 10, G = 4, where the
    words are too many to walk against the oracle: the word memo's total
    over every need tail of the grade, with no word repeated."""
    assert _grade_count(6, 3) == 864
    assert _grade_count(10, 4) == 53950
    tables = verma._rank(10)
    groups = [tables.words(4, tail) for tail in _tails(8, 4)]
    assert sum(len(words) for pairs in groups for _, words in pairs) == 53950
    assert all(len(set(words)) == len(words) for pairs in groups for _, words in pairs)


def test_a_high_grade_space_builds_no_whole_grade_table():
    """The 646-monomial grade-4 space at n = 16 (lam = 0, mu = (-2, -2,
    0, ...)), listed from a cold rank, leaves at most 1,000 states in
    the word memo: the whole grade spans 26,265 need tails."""
    _clear_rank_tables()
    try:
        space = verma.GeneralizedVerma(16, (0,) * 16).weight_space((-2, -2) + (0,) * 14)
        assert len(space) == 646
        assert len(verma._rank(16).needs) <= 1000
    finally:
        _clear_rank_tables()


def test_term_weight(m3):
    a13 = Root("a", 1, 3)
    elem = m3.combine([(1, (a13,), (0, None))])
    assert verma_oracle.weight_of(m3, elem) == (-1, 0, 1)
    mixed = m3.combine([(1, (a13,), (0, None)), (1, (Root("b", 1),), (0, None))])
    with pytest.raises(ValueError):
        verma_oracle.weight_of(m3, mixed)


def test_weight_space_consistency(m3):
    mu = (-2, -1, 1)
    space = m3.weight_space(mu)
    assert space
    assert len(space) == len(set(space))
    for key in space:
        assert m3.term_weight(key) == mu


def _brute_force_weight_space(mp, mu):
    """Every non-decreasing word of degree up to the grade drop E(need),
    kept when its weight is mu: the enumeration weight_space replaced."""
    space = []
    for f in verma_oracle.keys(mp.module):
        need = [a - b for a, b in zip(mp.module.weight(f), mu)]
        for d in range(need[0] + need[1] + 1):
            for word in itertools.combinations_with_replacement(range(len(mp.letters)), d):
                total = [0] * mp.n
                for i in word:
                    total = [a + b for a, b in zip(total, mp.letters[i][1].vector(mp.n))]
                if total == need:
                    space.append((word, f))
    return space


def _catalogue(ranks):
    for n in ranks:
        for k in range(1, n):
            for sign in "+-":
                yield verma.singular_vector_row(n, k, sign)


def test_weight_space_matches_brute_force():
    for row in _catalogue(range(3, 7)):
        mp = verma.GeneralizedVerma(row.n, row.lam)
        space = mp.weight_space(row.mu)
        assert space, row.name
        assert space == _brute_force_weight_space(mp, row.mu), (row.n, row.k, row.sign)
    # grade drop 3 with a zero tail: an odd number of grade-one letters,
    # each moving the tail, cannot cancel, so this space is empty
    lam = (-1, -4, 0, 0)
    mp = verma.GeneralizedVerma(4, lam)
    mu = (-4, -4, 0, 0)
    assert len(verma_oracle.keys(mp.module)) == 4
    assert mp.weight_space(mu) == _brute_force_weight_space(mp, mu) == []


def _grade_steps(mu):
    """mu and three weights below it, 1, 2 and 3 grade steps further down."""
    for s in range(4):
        yield (mu[0] - (s + 1) // 2, mu[1] - s // 2) + tuple(mu[2:])


def test_weight_space_matches_oracle():
    """Every row for n = 3..8 at mu and 1-3 further grade steps, against
    the tuple-walk listing that weight_space replaced."""
    sizes = []
    for row in _catalogue(range(3, 9)):
        mp = verma.GeneralizedVerma(row.n, row.lam)
        for mu in _grade_steps(row.mu):
            space = mp.weight_space(mu)
            assert space == verma_oracle.weight_space(mp, mu), (row.n, row.k, row.sign, mu)
            sizes.append(len(space))
    assert len(sizes) == 4 * 2 * sum(range(2, 8))
    assert all(sizes[::4]) and max(sizes) > 50


def test_pruned_pass_lists_what_every_prefix_listed():
    """Every map of every complex for n = 3..8, and the grade-4 space at
    n = 16 (lam = 0, mu = (-2, -2, 0, ...)), list the same space as the
    pass that built every prefix of every tail."""
    count = 0
    for n in range(3, 9):
        rho = weyl.rho(n)
        complexes = [penrose.assemble_singular_bgg(n, 0, "+", conjectural=True)]
        complexes += [penrose.assemble_singular_bgg(n, k, s) for k in range(1, n) for s in "+-"]
        for cx in complexes:
            shifted = [tuple(map(operator.sub, t, rho)) for t in cx.terms]
            for m in cx.maps:
                mp = verma.GeneralizedVerma(n, shifted[m.source])
                mu = shifted[m.target]
                assert mp.weight_space(mu) == verma_oracle.prefix_weight_space(mp, mu), (n, m)
                count += 1
    assert count > 500
    mp = verma.GeneralizedVerma(16, (0,) * 16)
    mu = (-2, -2) + (0,) * 14
    space = mp.weight_space(mu)
    assert space == verma_oracle.prefix_weight_space(mp, mu) and len(space) == 646


@pytest.mark.parametrize(
    "lam",
    [(0, 0), (1, -1), (0, -1, 0), (-1, -1, 1), (1, 0, 1, 0), (0, -2, 0, 0), (-1, -1, 1, 0, 0)],
)
def test_weight_space_matches_oracle_on_a_grid(lam):
    """Every mu with grade drop at most 4 and tail entries in -1..1 (the
    first two tail entries), for n = 2 and for both tails: nonempty and
    empty spaces alike agree with the tuple-walk listing."""
    n = len(lam)
    mp = verma.GeneralizedVerma(n, lam)
    sizes = []
    for d0, d1 in itertools.product(range(5), repeat=2):
        for tail in itertools.product((-1, 0, 1), repeat=min(n - 2, 2)):
            if d0 + d1 <= 4:
                mu = (lam[0] - d0, lam[1] - d1) + tail + (0,) * (n - 2 - len(tail))
                space = mp.weight_space(mu)
                assert space == verma_oracle.weight_space(mp, mu), mu
                sizes.append(len(space))
    assert 0 in sizes and max(sizes) > 1


def test_weights_of_the_wrong_length_are_refused():
    """A short or long mu used to be cut to the shorter length by zip,
    giving a space of monomials of another weight and a made-up kernel."""
    mp = verma.GeneralizedVerma(4, (-1, -1, 0, 0))
    for mu in ((-2, -2), (-2, -2, 1), (-2, -2, 1, 1, 0)):
        with pytest.raises(ValueError, match="rank mismatch"):
            mp.weight_space(mu)
        with pytest.raises(ValueError, match="rank mismatch"):
            mp.maximal_vector_dimension(mu)
    assert len(mp.weight_space((-2, -2, 1, 1))) == 2
    assert mp.maximal_vector_dimension((-2, -2, 1, 1)) == 1


@pytest.mark.parametrize("n", range(2, 7))
def test_label_code_action_matches_levi_act(n):
    """At the empty word each label code acts on Sym^2 tensor det tensor
    Lambda^j through the straightening table and its Levi moves, as
    every entry of the label's matrix acts on the wedge, for every
    label, every key and every tail omega_j; the raising codes are those
    of the simple raising labels."""
    for j in range(n - 1):
        mp = verma.GeneralizedVerma(n, _omega(n, j))
        tables = mp.tables
        assert [tables.labels[x] for x in tables.raising] == verma_oracle.simple_raising_labels(n)
        labels = list(tables.matrices)
        assert sorted(tables.labels, key=repr) == sorted(labels, key=repr)
        acted = 0
        keys = verma_oracle.keys(mp.module)
        for label in labels:
            for f in keys:
                acted += bool(_levi_action(mp, label, f))
        assert acted > len(keys)


def test_degree_bound_is_order_bound():
    """A monomial's degree is at most the grade drop E(lam - mu), which is
    the order of the first map of the singular BGG complex."""
    for row in _catalogue(range(3, 9)):
        drop = (row.lam[0] - row.mu[0]) + (row.lam[1] - row.mu[1])
        cx = penrose.assemble_singular_bgg(row.n, row.k, row.sign)
        assert drop == cx.maps[0].order, (row.n, row.k, row.sign)
        mp = verma.GeneralizedVerma(row.n, row.lam)
        space = mp.weight_space(row.mu)
        assert space
        assert max(len(word) for word, _ in space) <= drop
        assert all(len(ys) <= drop for _, ys, _ in row.terms)


# ---------------------------------------------------------------------------
# the memoised straightening and the integer elimination against the oracle


def _with_perturbations(row):
    terms = list(row.terms)
    yield terms
    coeff, ys, f = terms[-1]
    yield terms[:-1] + [(-coeff, ys, f)]


def test_combine_matches_oracle():
    for row in _catalogue(range(3, 7)):
        mp = verma.GeneralizedVerma(row.n, row.lam)
        for terms in _with_perturbations(row):
            got = mp.combine(terms)
            assert got and got == verma_oracle.combine(mp, terms), (row.n, row.k, row.sign)
            assert all(type(c) is int for c in got.values())


def _codes(n, ys):
    codes = verma._rank(n).letter_codes
    return tuple(codes[r.kind, r.i, r.j] for r in ys)


def _oracle_normal_form(mp, word):
    """{w2: c} for the letter word by the work-list straightening, on the
    key 0 of a trivial-tail module."""
    want = {}
    verma_oracle.normal_form(mp, tuple(mp.letters[i] for i in word), 0, Fraction(1), want)
    assert all(f == 0 for _, f in want)
    return {w2: c for (w2, _), c in want.items()}


@pytest.mark.parametrize("n", [3, 4])
def test_letter_word_normal_forms_match_oracle(n):
    """Every letter word of length at most 3, in every order, against the
    work-list straightening; each memoised form is a tuple of int pairs
    with normal-ordered words, and a second read returns the same tuple."""
    _clear_rank_tables()
    mp = verma.GeneralizedVerma(n, (0,) * n)
    tables = mp.tables
    letters = range(len(mp.letters))
    words = [w for length in range(4) for w in itertools.product(letters, repeat=length)]
    for word in words:
        got = tables.normal_form(word)
        assert type(got) is tuple and tables.normal_form(word) is got
        assert all(type(c) is int and list(w2) == sorted(w2) for w2, c in got)
        assert dict(got) == _oracle_normal_form(mp, word), word
    assert len(tables.normal_forms) == len(words)
    assert dict(tables.normal_form(())) == {(): 1}


def test_catalogue_word_normal_forms_match_oracle():
    """Every word of every catalogue term for n = 3..8, against the
    work-list straightening."""
    for n in range(3, 9):
        mp = verma.GeneralizedVerma(n, (0,) * n)
        words = {_codes(n, ys) for row in _catalogue([n]) for _, ys, _ in row.terms}
        for word in words:
            assert dict(mp.tables.normal_form(word)) == _oracle_normal_form(mp, word), (n, word)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_word_weights_are_sums_of_letter_weights(n):
    """term_weight of every monomial of every catalogue vector of rank n
    (a perturbed vector has the same monomials) is wt(f), read off (a, S)
    by the oracle, less its word's weight, the sum of its letters' root
    vectors; and that is the row's mu."""
    checked = 0
    for row in _catalogue([n]):
        mp = verma.GeneralizedVerma(n, row.lam)
        for word, f in mp.combine(row.terms):
            want = list(verma_oracle.weight(mp.module, f))
            for i in word:
                want = [a - b for a, b in zip(want, mp.letters[i][1].vector(n))]
            got = mp.term_weight((word, f))
            assert type(got) is tuple and got == tuple(want) == row.mu, (row.name, word, f)
            checked += 1
    assert checked == {3: 11, 4: 12, 5: 16, 6: 20, 8: 28}[n]


def test_normal_form_check_can_fail():
    """Negating any one coefficient of a memoised normal form of the
    n = 3, k = 1, + row (the order-three splice, one word out of PBW
    order) makes its genuine check fail, though the kernel still reads 1."""
    row = verma.singular_vector_row(3, 1, "+")
    words = [_codes(3, ys) for _, ys, _ in row.terms]
    assert any(list(w) != sorted(w) for w in words)
    try:
        for word in words:
            for i in range(len(verma._rank(3).normal_form(word))):
                _clear_rank_tables()
                tables = verma._rank(3)
                entries = list(tables.normal_form(word))
                w2, c = entries[i]
                entries[i] = (w2, -c)
                tables.normal_forms[word] = tuple(entries)
                r = verma.verify_row(row)
                assert r.kernel_dim == 1 and not r.maximal_ok and not r.ok, (word, i)
    finally:
        _clear_rank_tables()
    assert verma.verify_row(row).ok


def test_a_perturbed_check_adds_no_normal_form():
    """A perturbed check run after its genuine twin, for every row with
    n = 3..6, adds no normal form and replaces none: both read the
    genuine check's entries."""
    _clear_rank_tables()
    for row in _catalogue(range(3, 7)):
        assert verma.verify_row(row).ok
        tables = verma._rank(row.n)
        forms = dict(tables.normal_forms)
        assert forms
        assert not verma.verify_row(row, perturb=True, kernel=False).maximal_ok
        assert tables.normal_forms == forms
        assert all(tables.normal_forms[w] is v for w, v in forms.items())


@pytest.mark.parametrize(
    "lam, label",
    [
        ((-1, -1, 0), (7, None)),  # m = 0 allows a = 0 only
        ((-1, -1, 0), (-1, None)),
        ((-1, -1, 0), (0, 0)),  # j = 0 takes no slot
        ((-1, -1, 1, 0), (0, None)),  # j = 1 needs a slot
        ((-1, -1, 1, 0), (0, -1)),
        ((-1, -1, 1, 0), (0, 4)),  # 2(n - 2) = 4 slots
        ((-1, -1, 1, 1), (0, None)),  # j = 2: no label names a key
        ((-1, -1, 1, 1), (0, 0)),
    ],
)
def test_combine_refuses_a_label_that_names_no_key(lam, label):
    mp = verma.GeneralizedVerma(len(lam), lam)
    with pytest.raises(ValueError, match=re.escape(repr(label))):
        mp.combine([(1, (Root("a", 1, 3),), label)])


def test_combine_refuses_a_root_that_is_not_a_letter():
    mp = verma.GeneralizedVerma(3, (-1, -1, 0))
    with pytest.raises(ValueError, match="a12"):
        mp.combine([(1, (Root("a", 2, 3), Root("a", 1, 2)), (0, None))])
    with pytest.raises(ValueError, match="b3"):
        mp.combine([(1, (Root("b", 3),), (0, None))])


def test_combine_takes_every_label_that_names_a_key():
    """Every (a, t) with 0 <= a <= m, t None on a trivial tail and every
    slot on the standard tail, against the work-list straightening."""
    for lam in ((1, -1, 0, 0), (2, 0, 1, 0)):
        mp = verma.GeneralizedVerma(4, lam)
        ts = range(4) if mp.module.j else [None]
        for a in range(mp.module.m + 1):
            for t in ts:
                parts = [(3, (Root("c", 2, 3), Root("a", 1, 4)), (a, t))]
                assert mp.combine(parts) == verma_oracle.combine(mp, parts), (lam, a, t)


def test_act_matches_oracle():
    """Every simple raising label on every basis monomial of each row's
    weight space, on one module per row, so later acts read the memo."""
    for row in _catalogue(range(3, 7)):
        mp = verma.GeneralizedVerma(row.n, row.lam)
        for key in mp.weight_space(row.mu):
            for lab in verma_oracle.simple_raising_labels(row.n):
                want = verma_oracle.act(mp, lab, {key: Fraction(1)})
                assert mp.act(lab, {key: 1}) == want, (row.n, row.k, row.sign, key, lab)


def test_kernel_dimension_matches_oracle_on_catalogue():
    for row in _catalogue(range(3, 7)):
        mp = verma.GeneralizedVerma(row.n, row.lam)
        dim = mp.maximal_vector_dimension(row.mu)
        assert dim == 1, (row.n, row.k, row.sign)
        assert dim == verma_oracle.maximal_vector_dimension(mp, row.mu)


@pytest.mark.parametrize(
    "lam, mu, size",
    [
        ((0, -2, 0, 0, 0, 0), (-3, -4, 1, 0, 0, 0), 251),
        ((-1, -1, 1, 0, 0, 0, 0, 0), (-3, -3, 1, 1, 1, 0, 0, 0), 156),
    ],
)
def test_kernel_dimension_matches_oracle_on_large_spaces(lam, mu, size):
    n = len(lam)
    mp = verma.GeneralizedVerma(n, lam)
    assert len(mp.weight_space(mu)) == size
    want = verma_oracle.maximal_vector_dimension(verma.GeneralizedVerma(n, lam), mu)
    assert mp.maximal_vector_dimension(mu) == want


def test_check_maximal_matches_oracle_on_catalogue():
    """Every row for n = 3..7, genuine and perturbed, on a fresh module:
    the check read off the rows gives the verdict and the failing
    labels, in order, of straightening each simple raising operator
    times the vector through the work-list oracle."""
    failures = 0
    for row in _catalogue(range(3, 8)):
        for perturbed, terms in enumerate(_with_perturbations(row)):
            mp = verma.GeneralizedVerma(row.n, row.lam)
            v = mp.combine(terms)
            got = mp.check_maximal(v)
            assert got == verma_oracle.check_maximal(mp, v), (row.n, row.k, row.sign, perturbed)
            assert got[0] != bool(perturbed), (row.n, row.k, row.sign)
            failures += len(got[1])
    assert failures > 2 * sum(range(2, 7))


@pytest.mark.parametrize("n", [6, 10])
def test_a_sweep_builds_each_levi_module_once(monkeypatch, n):
    """verify_first_operators(n) and then the perturbed check of every row
    build each Levi module once: the modules are kept with their rank,
    not in a cache of fewer highest weights than a sweep uses."""
    real, built = verma.LeviModule.__init__, []

    def counting(self, n, lam):
        built.append((n, tuple(lam)))
        real(self, n, lam)

    monkeypatch.setattr(verma.LeviModule, "__init__", counting)
    _clear_rank_tables()
    results = verma.verify_first_operators(n)
    assert all(r.ok for r in results)
    for r in results:
        assert not verma.verify_row(r.row, perturb=True, kernel=False).maximal_ok
    lams = {r.row.lam for r in results}
    assert len(lams) == 2 * (n - 1) > 8
    assert sorted(built) == sorted((n, lam) for lam in lams)


def test_records_per_rank_are_capped():
    """A rank keeps at most _MODULES_PER_RANK per-lam records and evicts
    the oldest first; a GeneralizedVerma keeps its own record, and one of
    an evicted lam builds a new record.  The cap exceeds the 2(n - 1)
    highest weights of the first-operator catalogue at n = 30."""
    cap = verma._MODULES_PER_RANK
    assert len({row.lam for row in _catalogue([30])}) <= cap
    _clear_rank_tables()
    try:
        lams = [(a, 0, 0) for a in range(cap + 2)]
        first = verma.GeneralizedVerma(3, lams[0])
        for lam in lams[1:]:
            verma.GeneralizedVerma(3, lam)
        modules = verma._rank(3).modules
        assert list(modules) == lams[2:]
        assert first.maximal_vector_dimension((0, 0, 0)) == 1
        again = verma.GeneralizedVerma(3, lams[0])
        assert again.module is not first.module and again._rows is not first._rows
        assert list(modules) == lams[3:] + lams[:1]
    finally:
        _clear_rank_tables()


def _oracle_row(mp, key):
    """The row of a monomial, {(operator, w2, f2): coeff}, by the work-list
    straightening of each simple raising operator times it."""
    out = {}
    for si, lab in enumerate(verma_oracle.simple_raising_labels(mp.n)):
        for (w2, f2), c in verma_oracle.act(mp, lab, {key: Fraction(1)}).items():
            out[si, w2, f2] = c
    return out


def _assert_rows_match_oracle(n):
    """Every row kept in the tables of rank n is the oracle's, for a
    module of its lam, and is a tuple of pairs with int coefficients."""
    tables = verma._rank(n)
    assert any(rows for _, rows in tables.modules.values())
    for lam, (module, rows) in tables.modules.items():
        mp = verma.GeneralizedVerma(n, lam)
        assert mp.module is module and mp._rows is rows
        for key, row in rows.items():
            assert type(row) is tuple and all(type(c) is int for _, c in row)
            assert dict(row) == _oracle_row(mp, key), (lam, key)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_shared_rows_cannot_change_a_verdict(n):
    """verify_first_operators(n) on cold tables, then again after the
    perturbed check of every row, and again after other highest weights
    of the rank (trivial and standard tails, every catalogue lam in the
    reverse order) were warmed: the same results and failures each time.
    Every row the runs leave in the rank's tables is the oracle's."""

    def run():
        return [(r.to_dict(), r.failures) for r in verma.verify_first_operators(n)]

    _clear_rank_tables()
    cold = run()
    _assert_rows_match_oracle(n)
    catalogue = [verma.singular_vector_row(n, k, sign) for k in range(1, n) for sign in "+-"]

    _clear_rank_tables()
    for row in catalogue:
        assert verma.verify_row(row, perturb=True).refuted
    assert run() == cold
    _assert_rows_match_oracle(n)

    _clear_rank_tables()
    zeros = (0,) * (n - 3)
    for lam, mu in (((0, 0, 0) + zeros, (-2, -2, 0) + zeros), ((1, 0, 1) + zeros, (-1, -2, 1) + zeros)):
        assert verma.GeneralizedVerma(n, lam).weight_space(mu)
        verma.GeneralizedVerma(n, lam).maximal_vector_dimension(mu)
    for row in reversed(catalogue):
        verma.GeneralizedVerma(n, row.lam).maximal_vector_dimension(row.mu)
    assert run() == cold
    _assert_rows_match_oracle(n)
    assert all(d["ok"] and d["kernel_dim"] == 1 and not f for d, f in cold)


def test_a_row_pair_builds_each_row_once(monkeypatch):
    """A genuine check of every row for n = 3..6, then its perturbed twin:
    no monomial's row is built twice, the twin reads the genuine check's
    rows, and every row built is kept in the tables of its rank."""
    real, built = verma.GeneralizedVerma._row, []

    def counting(self, key):
        if key not in self._rows:
            built.append((self.n, self.lam, key))
        return real(self, key)

    monkeypatch.setattr(verma.GeneralizedVerma, "_row", counting)
    _clear_rank_tables()
    for row in _catalogue(range(3, 7)):
        assert verma.verify_row(row).ok
        mark = len(built)
        _, rows = verma._rank(row.n).modules[row.lam]
        kept = dict(rows)
        assert not verma.verify_row(row, perturb=True, kernel=False).maximal_ok
        # the perturbed vector's monomials lie in the weight space, whose
        # rows the genuine check's kernel built
        assert built[mark:] == []
        assert verma._rank(row.n).modules[row.lam][1] is rows
        assert all(rows[key] is r for key, r in kept.items())
    assert len(built) == len(set(built)) > 0
    assert sorted(built) == sorted(
        (n, lam, key)
        for n in range(3, 7)
        for lam, (_, rows) in verma._rank(n).modules.items()
        for key in rows
    )


def test_highest_vector_is_maximal(m3):
    ok, failures = m3.check_maximal({((), 0): 1})
    assert ok and failures == []
    assert m3.check_maximal({}) == (False, [])


# ---------------------------------------------------------------------------
# the singular-vector catalogue


def test_rows_exist_for_all_cases():
    for n in (3, 4, 5, 6):
        for k in range(1, n):
            for sign in "+-":
                row = verma.singular_vector_row(n, k, sign)
                assert row.n == n and row.k == k and row.sign == sign
                assert len(row.lam) == n and len(row.mu) == n
    with pytest.raises(ValueError):
        verma.singular_vector_row(5, 0)
    with pytest.raises(ValueError):
        verma.singular_vector_row(5, 5)
    with pytest.raises(ValueError):
        verma.singular_vector_row(5, 2, "x")
    for sign in "+-":
        with pytest.raises(ValueError, match="n >= 3"):
            verma.singular_vector_row(2, 1, sign)


@pytest.mark.parametrize("n", [3, 4])
def test_verify_first_operators(n):
    results = verma.verify_first_operators(n)
    assert len(results) == 2 * (n - 1)
    for r in results:
        assert r.d1_match, r.row.name
        assert r.weight_ok, r.row.name
        assert r.maximal_ok, (r.row.name, r.failures)
        assert r.kernel_dim == 1, r.row.name
        assert r.ok


@pytest.mark.parametrize("n", [2, 1, 0, -3])
def test_verify_first_operators_refuses_small_ranks(n):
    """A rank with no first operator is refused, not passed with no case
    checked."""
    with pytest.raises(ValueError, match="n >= 3"):
        verma.verify_first_operators(n)


def _cli_loop(n, k, sign, perturb, kernel):
    """The catalogue loop `bgg verify-maximal` ran itself before
    verify_first_operators took its selection."""
    if k is not None:
        rows = [verma.singular_vector_row(n, k, sign or "+")]
    else:
        signs = (sign,) if sign else ("+", "-")
        rows = [verma.singular_vector_row(n, kk, s) for kk in range(1, n) for s in signs]
    return [verma.verify_row(row, perturb=perturb, kernel=kernel) for row in rows]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_verify_first_operators_selects_like_the_cli(n):
    """Every selection of --k, --sign, --perturb and --no-kernel gives the
    results of the CLI's old loop, in its order, each marked perturbed
    as it was checked."""
    for k, sign, perturb, kernel in itertools.product(
        [None, *range(1, n)], [None, "+", "-"], [False, True], [True, False]
    ):
        got = verma.verify_first_operators(n, k=k, sign=sign, perturb=perturb, kernel=kernel)
        assert got == _cli_loop(n, k, sign, perturb, kernel), (k, sign, perturb, kernel)
        assert len(got) == (1 if k else (n - 1) * (1 if sign else 2))
        assert all(r.perturbed is perturb for r in got)
        assert all(r.passed is (r.refuted if perturb else r.ok) for r in got)


@pytest.mark.parametrize(
    "k, sign, message",
    [
        (0, None, "1 <= k"),
        (4, "+", "1 <= k"),
        (-1, "-", "1 <= k"),
        (2, "x", "sign must be"),
        (None, "x", "sign must be"),
        (2, "", "sign must be"),
    ],
)
def test_verify_first_operators_refuses_what_has_no_row(k, sign, message):
    with pytest.raises(ValueError, match=message):
        verma.verify_first_operators(4, k=k, sign=sign)


@pytest.mark.parametrize("n", [8, 10])
def test_verify_first_operators_at_scale(n):
    results = verma.verify_first_operators(n)
    assert len(results) == 2 * (n - 1)
    for r in results:
        assert r.ok and r.kernel_dim == 1, (r.row.name, r.row.k, r.row.sign, r.failures)


@pytest.mark.parametrize("n", range(3, 9))
def test_first_arrow_is_that_of_the_assembled_complex(n):
    for k in range(1, n):
        for sign in "+-":
            cx = penrose.assemble_singular_bgg(n, k, sign)
            assert verma.first_arrow(n, k, sign) == tuple(cx.terms[:2]), (n, k, sign)


def test_a_row_pair_reads_the_e1_entries_once(monkeypatch):
    """A genuine and a perturbed check of the same row read the E1
    entries once between them: the first arrow, shifted by rho, is kept
    in the tables of its rank, the one memo of it.  first_arrow itself
    keeps none, and gives a pair of tuples."""
    real, calls = penrose.e1_entries, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(penrose, "e1_entries", counting)
    _clear_rank_tables()
    row = verma.singular_vector_row(5, 2, "-")
    assert verma.verify_row(row).ok
    assert not verma.verify_row(row, perturb=True, kernel=False).maximal_ok
    assert calls == [(5, 2, "-")]
    arrow = verma.first_arrow(5, 2, "-")
    assert type(arrow) is tuple and all(type(t) is tuple for t in arrow)
    assert len(calls) == 2
    rho = weyl.rho(5)
    assert verma._rank(5).arrows == {
        (2, "-"): tuple(tuple(a - b for a, b in zip(t, rho)) for t in arrow)
    }
    assert verma.verify_row(row, kernel=False).d1_match
    assert len(calls) == 2
    _clear_rank_tables()
    assert verma.verify_row(row, kernel=False).d1_match
    assert len(calls) == 3


def test_perturbed_rows_fail(lie4):
    for k in range(1, 4):
        for sign in "+-":
            row = verma.singular_vector_row(4, k, sign)
            r = verma.verify_row(row, lie4, perturb=True, kernel=False)
            assert not r.maximal_ok, row.name
            assert r.failures and r.refuted


def test_vanishing_perturbation_refutes_nothing(lie4):
    """A perturbation that straightens to zero is not maximal, but it
    refutes nothing: no weight, no failing raising operator."""
    row = verma.singular_vector_row(4, 1, "-")
    (c0, ys0, f0), _ = row.terms
    cancelling = dataclasses.replace(row, terms=((c0, ys0, f0), (c0, ys0, f0)))
    r = verma.verify_row(cancelling, lie4, perturb=True, kernel=False)
    assert not r.maximal_ok and not r.weight_ok
    assert r.failures == [] and not r.refuted


def test_mixed_weight_vector_is_a_failed_weight_check():
    """A row whose terms have two weights is recorded as failing its
    weight check, not raised: it is not ok, and refutes nothing, whether
    perturbed or not."""
    cat = verma.singular_vector_row(4, 1, "-")
    terms = ((1, (Root("a", 1, 3),), (0, None)), (1, (Root("b", 2),), (0, None)))
    row = verma.SingularVectorRow("mixed weights", 4, 1, "-", cat.lam, cat.mu, terms)
    for perturb in (False, True):
        r = verma.verify_row(row, perturb=perturb)
        assert r.d1_match and not r.weight_ok
        assert not r.ok and not r.refuted
        assert r.to_dict()["weight_ok"] is False and r.to_dict()["ok"] is False


def test_verification_result_flags(lie3):
    r = verma.verify_row(verma.singular_vector_row(3, 2, "+"), lie3)
    assert r.ok
    assert not r._replace(kernel_dim=2).ok
    # an unchecked kernel is None, and is not a failure
    unchecked = verma.verify_row(r.row, lie3, kernel=False)
    assert unchecked.kernel_dim is None and unchecked.ok
    assert not verma.verify_row(r.row, lie3, perturb=True, kernel=False).ok


def test_rows_do_not_depend_on_warm_tables():
    """Every row for n = 3..6, genuine and perturbed, verifies the same
    with the per-rank tables cleared before each row as with them warm
    and the ranks in reverse order."""

    def run(ranks, cold):
        out = {}
        for n in ranks:
            for k in range(1, n):
                for sign in "+-":
                    row = verma.singular_vector_row(n, k, sign)
                    for perturb in (False, True):
                        if cold:
                            _clear_rank_tables()
                        result = verma.verify_row(row, perturb=perturb, kernel=not perturb)
                        out[n, k, sign, perturb] = result.to_dict()
                        out[n, k, sign, perturb]["failures"] = result.failures
        return out

    cold = run((3, 4, 5, 6), cold=True)
    warm = run((6, 5, 4, 3), cold=False)
    assert cold == warm
    assert len(cold) == 2 * 2 * (2 + 3 + 4 + 5)
    assert all(d["ok"] for (_, _, _, perturb), d in cold.items() if not perturb)
    assert not any(d["maximal_ok"] for (_, _, _, perturb), d in cold.items() if perturb)
