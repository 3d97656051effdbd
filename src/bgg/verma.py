"""Generalized Verma modules for sp(2n,C) with the crossed-{2} parabolic.

Works with the matrix realization sp(2n) = {X : X^T J + J X = 0},
J = [[0, I], [-I, 0]], in the root basis

    e_{a_ij} = E_ij - E_{n+j,n+i}      (i < j)
    e_{b_i}  = E_{i,n+i}
    e_{c_ij} = E_{i,n+j} + E_{j,n+i}   (i < j)

with lowering operators the transposes and h_i = E_ii - E_{n+i,n+i}.
Each basis matrix holds 1 at its least (row, col) key, its leading
entry, and no other basis matrix has that key.  So a matrix of sp(2n)
is decomposed by reading its value at each leading entry, and structure
constants come out exact from sparse integer matrices.

A generalized Verma module M_p(lam) = U(g) tensor_{U(p)} F(lam) is
realized inside U(u^-) tensor W, W = Sym^m C^2 tensor det^{lam_2}
tensor Lambda^j C^{2n-4} for the Levi gl(2) + sp(2n-4), m = lam_1 -
lam_2 and the tail of lam the fundamental weight omega_j.  F(lam) is the
kernel in W of the contraction Lambda^j -> Lambda^{j-2} by the
symplectic form, and the action on W is read off the same matrices (see
LeviModule).  A vector of W is an int key, x_0^{m-a} x_1^a tensor e_S
being (a << 2n) | the bits of the rows of C^{2n} in S.  An element is a
dict {(word, f): coeff}: a word is a non-decreasing tuple of indices of
the 4(n-2)+3 lowering letters of the nilradical, the PBW normal order,
and f a key.  Coefficients are exact: the structure constants and the
Levi action are integers, so integer input straightens to int
coefficients, and a Fraction input stays a Fraction.

Straightening is per rank, with no vector of F in it, in one table for
every label code x, letters included:

    x Y^w = sum over (w2, z) of c Y^w2 z

in U(g), one entry ((w2, z), c) per term: z a Levi label, the h_i
included, or None for the scalar 1.  A letter's entries stay in U(u^-),
z None, since the brackets of two letters are letters.  The table is
computed by x Y_y rest = Y_y (x rest) + [x, Y_y] rest, and a letter
that sorts first just extends the word, unmemoised.  At the empty word
a u^+ label, which kills F, is dropped.  The table is keyed by (code,
word) alone and serves every Levi module of the rank, whatever its tail:
on Lambda^0 a label of sp(2n-4), h_i with i >= 3 included, finds no row
of S to move.  A suffix shared by many words is thus straightened once,
whatever lam.

Every Levi label, the h_i included, moves a key to at most two others,
as a per-rank table of its matrix entries says, so a LeviModule keeps
no memo.  act is the one left action, one loop for every code: each
entry of the table gives c Y^w2 tensor f for z None and moves f through
the Levi module otherwise.  Each monomial's row is its images under the
simple raising operators, through act, and then its contraction.  The
Levi module of lam and its rows are one record, kept in the rank's
tables by lam, so every GeneralizedVerma of one (n, lam) reads the same
rows.  Inducing from p is exact, so the maximal vectors of M_p(lam) are
those of U(u^-) tensor W that the contraction kills: check_maximal sums
the rows of an element, and maximal_vector_dimension eliminates the
rows of a weight space fraction-free over the integers, sparsest
columns first, in one elimination, with no module of Lambda^{j-2}
built.  combine reads each root's letter code once, by (kind, i, j),
maps each catalogue label (a, t) to its key, refusing a label that
names none, and adds the normal form of the term's letter word tensor
that key.  A word of letters stays in U(u^-), so its normal form
depends on n alone (PBW): RankTables.normal_form folds the word's
letters through the straightening table once per rank, and the
genuine check of a row, its perturbed twin and every later check read
the same entries.  term_weight subtracts the weight vectors of the
monomial's letters from wt(f).  verify_first_operators is the one loop
over the catalogue; a VerificationResult writes its line and its JSON.

Whatever depends on n alone is one record, RankTables, built once per
rank and process for the last 8 ranks used (_rank) and read by field
name: the basis matrices and their leading entries, the letters, the
integer tables the hot paths read instead of hashing a Root, four memos
(brackets, straightening, the words of each need and the normal forms
of letter words) and two that go with their rank: the records of the
last _MODULES_PER_RANK lam built and the first arrows shifted by rho
(verify_row).  Every other field is a tuple or a read-only mapping, and
every value a memo holds is a tuple.  A bracket is kept once, by label
code, computed through decompose with its reconstruction check.
LieData is a view of the record by label, and no module takes one.
The nilradical letters are checked against `weyl` alone (see _rank), so
this module, like `penrose`, loads no Hasse code.

A weight space is listed F-first: the tails of the weights of Lambda^j
near mu's come first, each reads its need's words off one memo, and W
is never listed.  A letter of root v has grade E(v) = v_1 + v_2, which
is 1 or 2, and the gl(2) part of every weight of W sums to lam_1 +
lam_2, so the need wt(f) - mu of every f has the one grade E(lam - mu).
The memo (RankTables.words) is keyed by (grade, tail of the need) and
holds the normal-ordered words of that state grouped by first
coordinate, built from the states one letter below and kept per rank,
so it holds only the states a listing reaches and never a whole grade.
mu's tail plus the need's must be the tail t of the weight of some e_S:
entries 0 or +-1, at most j of them nonzero and j less their count
even.  Such t within |t - mu's tail|_1 <= E(lam - mu) are walked as
changes to the cheapest one (each entry at the sign of mu's), each t
built once and no partial tail kept that cannot finish within the
grade; the +-1 entries of each fix part of S, the rest is pairs
{e_i, f_i} (LeviModule.subsets), and the first coordinate of each
group of its need's words gives a.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from operator import itemgetter, sub
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from bgg import penrose, weyl
from bgg.weyl import Root, Weight

Label = tuple  # ("e", Root) | ("y", Root) | ("h", int)
Matrix = dict  # {(row, col): int}, nonzero entries only
_MODULES_PER_RANK = 64  # per-lam records kept; verify-maximal --n 30 has 58 lam


# ---------------------------------------------------------------------------
# the Lie algebra and the tables of a rank


def _add(elem: dict, key, coeff) -> None:
    """elem[key] += coeff, keeping only nonzero values."""
    if not coeff:
        return
    cur = elem.get(key, 0) + coeff
    if cur:
        elem[key] = cur
    else:
        elem.pop(key, None)


class RankTables(NamedTuple):
    """What the Verma layer reads that depends on n alone (see _rank): the
    basis matrices by label and the label of each leading entry by key;
    the nilradical letters in normal order and their weight vectors; the
    labels with their codes (a letter's is its index), each letter's code
    by its root's (kind, i, j) and the simple raising codes; the slots,
    the rows of C^{2n} that span the standard module of sp(2n-4); and
    each Levi label's action by code as (gl2, moves): the label's (row,
    col, value) entry in the gl(2) block or None, and its entries (r, c,
    v) among the slots, each by its rows as the bit masks (1 << c, 1 << r
    or 0 when r = c, the bits that swap c for r, the bits strictly
    between r and c) and v (LeviModule._move).  Then the six memos:
    the brackets by code pair, the one straightening table by (code,
    word), letters included, for every Levi module of the rank (see
    straighten), the words of each need by (grade, tail) (needs, see
    words), each lam's record (modules), for the last
    _MODULES_PER_RANK lam built, oldest evicted first: the pair of its
    LeviModule and its rows by monomial (GeneralizedVerma._row), the
    first arrows of the rank by (k, sign), shifted by rho (verify_row),
    and the normal form of each letter word (normal_form)."""

    matrices: Mapping
    leads: Mapping
    letters: tuple
    vectors: tuple
    labels: tuple
    code: Mapping
    letter_codes: Mapping
    raising: tuple
    slots: tuple
    levi: Mapping
    brackets: dict
    straightening: dict
    needs: dict
    modules: dict
    arrows: dict
    normal_forms: dict

    def decompose(self, x: Matrix) -> list[tuple[Label, int]]:
        """Exact expansion of x over the basis, read off the leading
        entries, with reconstruction check."""
        leads = self.leads
        terms = [(leads[key], v) for key, v in sorted(x.items()) if v and key in leads]
        recon: Matrix = {}
        for lab, coeff in terms:
            for key, v in self.matrices[lab].items():
                _add(recon, key, coeff * v)
        if recon != {key: v for key, v in x.items() if v}:
            raise AssertionError("matrix does not lie in sp(2n)")
        return terms

    def bracket(self, x: int, y: int) -> tuple[tuple[int, int], ...]:
        """[x, y] by label code: the commutator of the basis matrices,
        through decompose the first time, read off the memo after."""
        got = self.brackets.get((x, y))
        if got is None:
            mx, my = self.matrices[self.labels[x]], self.matrices[self.labels[y]]
            m = _product(mx, my)
            for key, v in _product(my, mx).items():
                _add(m, key, -v)
            got = self.brackets[x, y] = tuple(
                (self.code[lab], c) for lab, c in self.decompose(m)
            )
        return got

    def words(self, grade: int, tail: tuple) -> tuple:
        """The normal-ordered words of the grade whose weight has the tail,
        as the pairs (first coordinate, words), the words sorted by
        (length, word): letter i prepended to each word of (grade -
        E(letter i), tail - its tail) that starts at i or later; built into
        the memo the first time.  A letter's |tail|_1 is at most its grade
        and of its parity, so a state with |tail|_1 > grade (a negative
        grade among them) or of the other parity has no words: it gives ()
        and is not kept."""
        got = self.needs.get((grade, tail))
        if got is None:
            size = sum(map(abs, tail))
            if size > grade or (grade - size) & 1:
                return ()
            groups: dict = {0: [()]} if grade == 0 else {}
            for i, v in enumerate(self.vectors):
                for first, words in self.words(grade - v[0] - v[1], tuple(map(sub, tail, v[2:]))):
                    words = [(i,) + w for w in words if not w or i <= w[0]]
                    if words:
                        groups.setdefault(first + v[0], []).extend(words)
            got = self.needs[grade, tail] = tuple(
                (first, tuple(sorted(words, key=lambda w: (len(w), w))))
                for first, words in groups.items()
            )
        return got

    def straighten(self, x: int, word: tuple) -> tuple:
        """x Y^word for any label code x and a normal-ordered word, as the
        pairs ((w2, z), c): c Y^w2 z, z a Levi label code, h_i included,
        or None for the scalar 1.  A letter that sorts first just extends
        the word, and any other pair is read off the table, computed into
        it the first time (see the module docstring).  A letter's product
        stays in U(u^-), since the brackets of two letters are letters,
        so its every z is None.  No vector of F is in it, so one table
        serves every Levi module of the rank: on Lambda^0 a label of
        sp(2n-4), h_i with i >= 3 included, finds no row to move in
        LeviModule._move."""
        if x < len(self.letters) and (not word or x <= word[0]):
            return ((((x,) + word, None), 1),)
        got = self.straightening.get((x, word))
        if got is not None:
            return got
        # (w2, z) -> c; at the empty word a u^+ label, not in levi, kills F
        out: dict = {((), x): 1} if not word and x in self.levi else {}
        if word:
            y, rest = word[0], word[1:]
            for (w2, z), c in self.straighten(x, rest):
                for (w3, _), c3 in self.straighten(y, w2):
                    out[w3, z] = out.get((w3, z), 0) + c * c3
            for z, zc in self.bracket(x, y):
                for key, c in self.straighten(z, rest):
                    out[key] = out.get(key, 0) + zc * c
        if 0 in out.values():
            out = {key: c for key, c in out.items() if c}
        got = self.straightening[x, word] = tuple(out.items())
        return got

    def normal_form(self, word: tuple) -> tuple:
        """The product of the letters of a word of letter codes, in any
        order, as the pairs (w2, c): c Y^w2, w2 normal-ordered.  The
        letters are folded in from the right through straighten, whose
        letter entries all have z None, so the product stays in U(u^-)
        and depends on n alone; computed into the memo the first time."""
        got = self.normal_forms.get(word)
        if got is None:
            elem: dict = {(): 1}
            for x in reversed(word):
                out: dict = {}
                for w, c in elem.items():
                    for (w2, _), c2 in self.straighten(x, w):
                        _add(out, w2, c * c2)
                elem = out
            got = self.normal_forms[word] = tuple(elem.items())
        return got


@functools.lru_cache(maxsize=8)
def _rank(n: int) -> RankTables:
    """The tables of rank n, built once per n for the 8 ranks used last.
    The letters are checked against the nilradical read off `weyl`: the
    positive roots alpha with alpha(E) > 0 for E = (1, 1, 0, ..., 0)."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    m: dict[Label, Matrix] = {}
    # the insertion order is the order of decompose's terms
    for i in range(n):
        m[("h", i + 1)] = {(i, i): 1, (n + i, n + i): -1}
        raising = [(Root("b", i + 1), {(i, n + i): 1})]
        for j in range(i + 1, n):
            raising.append((Root("a", i + 1, j + 1), {(i, j): 1, (n + j, n + i): -1}))
            raising.append((Root("c", i + 1, j + 1), {(i, n + j): 1, (j, n + i): 1}))
        for root, e in raising:
            m[("e", root)] = e
            m[("y", root)] = {(c, r): v for (r, c), v in e.items()}
    nil = {r for r in weyl.positive_roots(n) if sum(r.vector(n)[:2]) > 0}
    order = (
        [Root("a", 1, j) for j in range(3, n + 1)]
        + [Root("a", 2, j) for j in range(3, n + 1)]
        + [Root("c", 1, j) for j in range(3, n + 1)]
        + [Root("c", 2, j) for j in range(3, n + 1)]
        + [Root("b", 1), Root("b", 2), Root("c", 1, 2)]
    )
    if set(order) != nil:
        raise AssertionError("nilradical letter list out of sync")
    letters = tuple(("y", r) for r in order)
    labels = letters + tuple(lab for lab in m if lab not in letters)
    code = MappingProxyType({lab: i for i, lab in enumerate(labels)})
    vectors = tuple(r.vector(n) for r in order)
    entries = tuple(tuple((r, c, v) for (r, c), v in m[lab].items()) for lab in labels)
    slots = tuple(range(2, n)) + tuple(range(n + 2, 2 * n))
    upper = {("e", r) for r in order}
    levi = {}
    for x in range(len(letters), len(labels)):
        if labels[x] not in upper:
            gl2 = next(((r, c, v) for r, c, v in entries[x] if r < 2 and c < 2), None)
            moves = tuple(
                (1 << c, 0 if r == c else 1 << r, (1 << r) ^ (1 << c),
                 sum(1 << s for s in range(min(r, c) + 1, max(r, c))), v)
                for r, c, v in entries[x] if r in slots and c in slots
            )
            levi[x] = (gl2, moves)
    return RankTables(
        matrices=MappingProxyType({lab: MappingProxyType(mat) for lab, mat in m.items()}),
        # the least key of each matrix holds 1 and is a key of no other
        leads=MappingProxyType({min(mat): lab for lab, mat in m.items()}),
        letters=letters, vectors=vectors,
        labels=labels, code=code,
        letter_codes=MappingProxyType({(r.kind, r.i, r.j): i for i, r in enumerate(order)}),
        raising=tuple(code["e", r] for r in weyl.simple_roots(n)),
        slots=slots, levi=MappingProxyType(levi),
        brackets={}, straightening={}, needs={}, modules={}, arrows={},
        normal_forms={},
    )


class LieData:
    """Sparse integer matrices and exact structure constants for sp(2n).

    A matrix is a dict {(row, col): int} holding its nonzero entries;
    every basis element has at most two.  A LieData is a view by label
    of the tables of its rank (_rank), shared by every reader of that
    rank: a basis matrix is read-only, and a bracket is kept by code."""

    def __init__(self, n: int):
        self.n = n
        self.tables = _rank(n)

    def matrix(self, label: Label) -> Mapping:
        return self.tables.matrices[label]

    def decompose(self, x: Matrix) -> list[tuple[Label, int]]:
        return self.tables.decompose(x)

    def bracket(self, x: Label, y: Label) -> tuple[tuple[Label, int], ...]:
        t = self.tables
        return tuple((t.labels[z], c) for z, c in t.bracket(t.code[x], t.code[y]))


def _product(x: Matrix, y: Matrix) -> Matrix:
    out: Matrix = {}
    for (r, k), u in x.items():
        for (k2, c), v in y.items():
            if k == k2:
                out[r, c] = out.get((r, c), 0) + u * v
    return {key: v for key, v in out.items() if v}


# ---------------------------------------------------------------------------
# Levi modules


class LeviModule:
    """F(lam) for the Levi gl(2) x sp(2n-4), the tail of lam a fundamental
    weight omega_j = (1, ..., 1, 0, ..., 0), 0 <= j <= n - 2 (any other
    tail is refused with ValueError): the kernel of the contraction by
    the symplectic form, Lambda^j -> Lambda^{j-2}, inside

        W = Sym^m C^2 tensor det^{lam_2} tensor Lambda^j C^{2n-4},

    m = lam_1 - lam_2.  Lambda^0 is trivial, Lambda^1 the standard
    module, and the contraction vanishes on both.  A basis vector
    x_0^{m-a} x_1^a tensor e_S of W is the int key (a << 2n) | the sum of
    1 << r over the rows r of C^{2n} in S, a j-subset of the slots
    (RankTables.slots), the rows e_3..e_n, f_3..f_n that span C^{2n-4};
    its weight is read off its bits, and subsets lists the S of one
    weight.  The module holds no table of its vectors.

    Every label acts through its matrix in sp(2n), rows and columns
    counted from 0, as the rank's table `levi` holds it.  A Levi label
    has one entry (r, c, v) in the gl(2) block, rows 0-1, or its entries
    among the slots.  The first acts on the gl(2) factor as the
    derivation x_r d/dx_c, which gives v a or v (m - a), plus v lam_2
    from det^{lam_2} for a diagonal entry: h_1 gives lam_1 - a and h_2
    gives lam_2 + a.  A slot entry acts on e_S as on a wedge: 0 if c is
    not in S, or if r is, r != c; v on the diagonal; otherwise v times
    (-1)^(the rows of S strictly between r and c) on the key with c
    replaced by r.  A root vector of sp(2n-4) has at most two slot
    entries, so _move gives at most two (key, coeff) pairs, and h_i with
    i >= 3 sums its two diagonal entries to wt_i.  No other label acts:
    the grading element splits C^{2n} into rows 0-1, the slots and rows
    n, n+1 (grades 1, 0, -1), and a u^+ or u^- matrix only moves that
    grade, so it has no entry inside a block and acts as zero (a u^+
    matrix kills F).

    GeneralizedVerma works on the whole of W and cuts F out of it by the
    contraction (contract), one more set of columns in each monomial's
    row.  The modules of a rank are kept in its tables by lam, each with
    its rows (GeneralizedVerma), and go when the rank does."""

    def __init__(self, n: int, lam: Sequence[int]):
        lam = tuple(lam)
        self.tables = _rank(n)
        if len(lam) != n:
            raise ValueError("rank mismatch")
        if lam[0] < lam[1]:
            raise ValueError("gl(2) highest weight needs lam_1 >= lam_2")
        j = sum(lam[2:])
        if lam[2:] != (1,) * j + (0,) * (n - 2 - j):
            raise ValueError("tail must be a fundamental weight (1, ..., 1, 0, ..., 0)")
        self.n = n
        self.lam = lam
        self.m = lam[0] - lam[1]
        self.j = j
        self.shift = 2 * n

    def weight(self, f: int) -> Weight:
        n, shift = self.n, self.shift
        w, a, rows = [0] * n, f >> shift, f & ((1 << shift) - 1)
        while rows:
            r = (rows & -rows).bit_length() - 1
            w[r % n] += 1 if r < n else -1
            rows &= rows - 1
        w[0], w[1] = self.lam[0] - a, self.lam[1] + a
        return tuple(w)

    def subsets(self, tail: Sequence[int]) -> list[int]:
        """The j-subsets S of the slots whose weight has the given tail,
        as bit masks, for the tail of a weight of Lambda^j: entries 0 or
        +-1, with j less the nonzero entries even and not negative.  A
        +-1 entry fixes e_i or f_i, and the rest of S is (j - #nonzero) / 2
        pairs {e_i, f_i} over the zero entries."""
        n, fixed, free = self.n, 0, []
        for r, t in enumerate(tail, 2):
            if t:
                fixed |= 1 << (r if t > 0 else n + r)
            else:
                free.append(1 << r | 1 << (n + r))
        pairs = (self.j - len(tail) + len(free)) // 2
        if not pairs:
            return [fixed]
        return [fixed + sum(c) for c in combinations(free, pairs)]

    def _move(self, z: int, f: int) -> tuple[tuple[int, int], ...]:
        """The action of a Levi label code z on the key f, read off its
        matrix entries: at most two (key, coeff) pairs (see the class)."""
        gl2, moves = self.tables.levi[z]
        if gl2 is not None:
            r, c, v = gl2
            a = f >> self.shift
            coeff = v * ((a if c else self.m - a) + (self.lam[1] if r == c else 0))
            return ((f + ((r - c) << self.shift), coeff),) if coeff else ()
        return tuple(
            (f ^ flip, -v if (f & between).bit_count() & 1 else v)
            for col, row, flip, between, v in moves
            if f & col and not f & row
        )

    def contract(self, f: int) -> list[tuple[int, int]]:
        """The contraction by the symplectic form on the key f:
        e_S goes to the sum over i with e_i, f_i in S of (-1)^(p + q - 1)
        e_{S - {e_i, f_i}}, e_i and f_i at positions p and q of S, since
        omega(e_i, f_i) = 1 for J; p + q - 1 has the parity of the rows
        of S strictly between them.  Empty for j <= 1."""
        n, out = self.n, []
        both = f & (f >> n) & ((1 << n) - 4)
        while both:
            low = both & -both
            between = f & ((low << n) - 1) & ~((low << 1) - 1)
            out.append((f ^ (low | low << n), -1 if between.bit_count() & 1 else 1))
            both ^= low
        return out


# ---------------------------------------------------------------------------
# generalized Verma modules


Element = dict  # {(word, f): coeff}, word a tuple of letter indices, f a key of W


class GeneralizedVerma:
    """M_p(lam) = U(u^-) tensor F(lam) for the crossed-{2} parabolic.

    Every lowering letter has grade 1 or 2 under the grading element
    E = (1, 1, 0, ..., 0), so a monomial of weight mu has degree at most
    the grade drop E(lam - mu): weight spaces are finite and are listed
    in full.

    Straightening and the words of weight spaces depend on n alone and
    are read off `tables`, the record of the rank (_rank): one
    straightening table for every label code, letters included, and for
    every Levi module of the rank (on Lambda^0 the labels of sp(2n-4)
    find no row to move in LeviModule._move).  `module`, the LeviModule
    F(lam), and the rows (_row) are one record, kept in the rank's tables
    by lam, so every GeneralizedVerma of one (n, lam) shares them and
    they go when the rank does, or when _MODULES_PER_RANK later lam of
    the rank have been built.  act is the one left action on elements,
    for every code: _row lists each monomial's images under the simple
    raising operators through it and then its contraction, while
    combine reads each letter word's normal form off the rank
    (RankTables.normal_form).  check_maximal and
    maximal_vector_dimension both read the rows, so a monomial is
    straightened for them once per process, however many checks share
    its lam.  `letters` is the rank's letter list."""

    def __init__(self, n: int, lam: Sequence[int]):
        self.n = n
        self.lam = tuple(lam)
        self.tables = _rank(n)
        self.letters = self.tables.letters
        modules = self.tables.modules
        record = modules.get(self.lam)
        if record is None:
            if len(modules) >= _MODULES_PER_RANK:
                del modules[next(iter(modules))]  # the oldest
            record = modules[self.lam] = (LeviModule(n, self.lam), {})
        self.module, self._rows = record  # the rows by monomial

    # -- element arithmetic

    def combine(self, parts: Iterable[tuple[int, Sequence[Root], tuple]]) -> Element:
        """The sum of coeff * Y_{ys[0]} ... Y_{ys[-1]} tensor f over parts,
        f the key of the label (a, t): x_0^{m-a} x_1^a tensor the t-th
        slot, or tensor 1 for t None.  Each root is read once as its
        letter's code, and each entry (w2, c) of the word's normal form
        (RankTables.normal_form) adds coeff * c Y^w2 tensor f.  A label
        names a key only for 0 <= a <= m, with t None when j = 0 and
        0 <= t < 2(n - 2) when j = 1, so no label names one when j >= 2;
        any other label, and a root that is not a letter, is refused with
        ValueError."""
        out: Element = {}
        tables, module = self.tables, self.module
        codes, slots = tables.letter_codes, tables.slots
        for coeff, ys, label in parts:
            a, t = label
            if t is None:
                names_key = module.j == 0
            else:
                names_key = module.j == 1 and 0 <= t < len(slots)
            if not (names_key and 0 <= a <= module.m):
                raise ValueError(f"label {label!r} names no key of M_p{self.lam}")
            f = a << module.shift | (0 if t is None else 1 << slots[t])
            word = tuple(codes.get((r.kind, r.i, r.j), -1) for r in ys)
            if -1 in word:
                root = ys[word.index(-1)]
                raise ValueError(f"root {root.label()} is not a letter of the nilradical")
            for w2, c in tables.normal_form(word):
                _add(out, (w2, f), coeff * c)
        return out

    # -- module structure

    def act(self, label: Label | int, elem: Element) -> Element:
        """label . elem as a new element, for a label or its integer code,
        letter or not: each entry ((w2, z), c) of the straightened
        label Y^word (RankTables.straighten) gives c Y^w2 tensor f for z
        None, and moves f through the Levi module otherwise."""
        x = label if type(label) is int else self.tables.code[label]
        out: Element = {}
        straighten, move = self.tables.straighten, self.module._move
        for (word, f), c in elem.items():
            for (w2, z), a in straighten(x, word):
                if z is None:
                    _add(out, (w2, f), c * a)
                    continue
                for f2, c2 in move(z, f):
                    _add(out, (w2, f2), c * a * c2)
        return out

    def _row(self, key) -> tuple:
        """The images of the monomial key under the simple raising
        operators by act, as the pairs ((operator, w2, f2), coeff), then
        its contraction (LeviModule.contract) as the pairs ((-1, word,
        f2), coeff): -1 marks no raising operator.  Built the first time
        for the lam."""
        got = self._rows.get(key)
        if got is None:
            word, f = key
            got = self._rows[key] = tuple(
                ((si, w2, f2), c)
                for si, x in enumerate(self.tables.raising)
                for (w2, f2), c in self.act(x, {key: 1}).items()
            ) + tuple(((-1, word, f2), c) for f2, c in self.module.contract(f))
        return got

    def term_weight(self, key) -> Weight:
        """wt(f) less the weight vectors of the monomial's letters."""
        word, f = key
        weight, vectors = self.module.weight(f), self.tables.vectors
        for i in word:
            weight = tuple(map(sub, weight, vectors[i]))
        return weight

    def check_maximal(self, elem: Element) -> tuple[bool, list[Label]]:
        """An element is maximal iff every simple raising operator and the
        contraction kill it: the sum of its monomials' rows, times their
        coefficients, is zero.  The failures are the raising operators
        left nonzero, in order; a nonzero contraction names none."""
        if not elem:
            return False, []
        total: dict = {}
        for key, c in elem.items():
            for col, c2 in self._row(key):
                total[col] = total.get(col, 0) + c * c2
        failed = {si for (si, _, _), c in total.items() if c}
        tables = self.tables
        failures = [tables.labels[x] for si, x in enumerate(tables.raising) if si in failed]
        return not failed, failures

    # -- weight spaces and uniqueness

    def weight_space(self, mu: Sequence[int]) -> list[tuple[tuple, int]]:
        """All basis monomials Y^word tensor f of weight mu, f a key of
        Sym^m tensor det tensor Lambda^j: by f, then by degree and then by
        word in lexicographic order.  Listed F-first (see the module
        docstring): each tail t of a weight of Lambda^j within
        |t - mu's tail|_1 <= E(lam - mu) gives the need tail d = t - mu's
        tail, whose words come grouped by first coordinate from the rank
        (RankTables.words); a group's first coordinate nu_1 gives a =
        lam_1 - mu_1 - nu_1, which must lie in [0, m], and t the subsets S
        (LeviModule.subsets)."""
        if len(mu) != self.n:
            raise ValueError("rank mismatch")
        module, words = self.module, self.tables.words
        j, m, shift = module.j, module.m, module.shift
        grade = self.lam[0] + self.lam[1] - mu[0] - mu[1]
        top, mu_tail = self.lam[0] - mu[0], tuple(mu[2:])
        # the tails t of weights of Lambda^j (entries 0 or +-1, k <= j
        # nonzero, j - k even) with |d|_1 <= grade, d = t - mu_tail.  |d|_1
        # is sum mu_tail + k mod 2 and words needs grade's parity, so j - k
        # is even iff the grade left is.  Tails are walked as changes, in
        # position order, to the cheapest one (each entry at the sign of
        # x), made only while k can still come down to j in the grade left.
        k = len(mu_tail) - mu_tail.count(0)
        left = grade - sum(map(abs, mu_tail)) + k
        if left < 0 or k - left > j or (sum(mu_tail) + j - grade) & 1:
            return []
        if j:
            walk = [(tuple([(x > 0) - (x < 0) for x in mu_tail]), left, k, 0)]
        else:  # Lambda^0: the zero tail alone
            walk = [((0,) * len(mu_tail), left - k, 0, len(mu_tail))]
        found = {}
        for t, left, k, start in walk:
            if left:
                wide = k + 2 - left <= j  # may a change not lower k?
                for i in range(start, len(t)):
                    y = t[i]
                    if y:
                        walk.append((t[:i] + (0,) + t[i + 1 :], left - 1, k - 1, i + 1))
                        if wide and left > 1:
                            walk.append((t[:i] + (-y,) + t[i + 1 :], left - 2, k, i + 1))
                    elif wide:
                        walk.append((t[:i] + (1,) + t[i + 1 :], left - 1, k + 1, i + 1))
                        walk.append((t[:i] + (-1,) + t[i + 1 :], left - 1, k + 1, i + 1))
            if left & 1 or k > j:
                continue
            groups = words(grade, tuple(map(sub, t, mu_tail)))
            for s in module.subsets(t):
                for first, listed in groups:
                    a = top - first
                    if 0 <= a <= m:
                        found[a << shift | s] = listed
        return [(word, f) for f in sorted(found) for word in found[f]]

    def maximal_vector_dimension(self, mu: Sequence[int]) -> int:
        """Dimension of the space of maximal vectors of weight mu: the size
        of the weight space less the rank of its monomials' rows (_row),
        eliminated fraction-free over the integers.  Columns are numbered
        by the number of rows they appear in, fewest first, and a row's
        least column is reduced by the pivot row of that column: as it is
        if the pivot divides it, and otherwise after cross-multiplying,
        with the result divided by the gcd of its entries."""
        basis = self.weight_space(mu)
        rows = [self._row(key) for key in basis]
        count = Counter(map(itemgetter(0), chain.from_iterable(rows)))
        columns = {k: i for i, k in enumerate(sorted(count, key=count.__getitem__))}
        pivots: dict = {}
        for image in rows:
            row = {columns[k]: c for k, c in image}
            while row:
                lead = min(row)
                piv = pivots.get(lead)
                if piv is None:
                    pivots[lead] = row
                    break
                p, r = piv[lead], row[lead]
                if r % p == 0:
                    b, scaled = r // p, False
                else:
                    g = math.gcd(p, r)
                    a, b, scaled = p // g, r // g, True
                    row = {col: a * c for col, c in row.items()}
                for col, c in piv.items():
                    v = row.get(col, 0) - b * c
                    if v:
                        row[col] = v
                    else:
                        del row[col]
                if scaled and row:
                    g = math.gcd(*row.values())
                    if g > 1:
                        row = {col: c // g for col, c in row.items()}
        return len(basis) - len(pivots)


# ---------------------------------------------------------------------------
# the catalogue of first-operator singular vectors


@dataclass(frozen=True)
class SingularVectorRow:
    """One first-operator case: M_p(mu) -> M_p(lam) generated by v."""

    name: str
    n: int
    k: int
    sign: str
    lam: Weight
    mu: Weight
    terms: tuple[tuple[int, tuple[Root, ...], tuple[int, Optional[int]]], ...]


# The roots the catalogue's vectors are written in (frozen, and the same
# for every n; a_14 and a_24 appear only in rows with n >= 4).
_A13, _A14, _A23, _A24 = Root("a", 1, 3), Root("a", 1, 4), Root("a", 2, 3), Root("a", 2, 4)
_C13, _C23, _B2 = Root("c", 1, 3), Root("c", 2, 3), Root("b", 2)


def _zeros(n: int, lead: Sequence[int]) -> Weight:
    return tuple(lead) + (0,) * (n - len(lead))


def singular_vector_row(n: int, k: int, sign: str = "+") -> SingularVectorRow:
    """The maximal vector generating the first operator of the singular
    BGG complex for (n, k, sign).  The catalogue starts at n = 3: for
    n = 2 the complex has a single term and no first operator."""
    if n < 3:
        raise ValueError("the first-operator catalogue needs n >= 3")
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    if sign == "-":
        lam = _zeros(n, (-1, -n - k + 1))
        mu = (-2, -n - k + 1, 1) + (0,) * (n - 3)
        terms = ((1, (_A13,), (0, None)), (1, (_A23,), (1, None)))
        return SingularVectorRow("first operator, negative side", n, k, sign, lam, mu, terms)
    if sign != "+":
        raise ValueError("sign must be '+' or '-'")
    if n == 3 and k == 1:
        return SingularVectorRow(
            "first operator (order-three splice), n=3 k=1",
            n, k, sign,
            (-1, -1, 0),
            (-2, -3, 1),
            (
                (1, (_A23, _A23, _C13), (0, None)),
                (-1, (_C23, _A23, _A13), (0, None)),
                (4, (_A13, _B2), (0, None)),
            ),
        )
    if n == 3 and k == 2:
        return SingularVectorRow(
            "first operator (axis crossing), n=3 k=2",
            n, k, sign,
            (-1, -1, 1),
            (-1, -3, 1),
            (
                (1, (_C23, _A23), (0, 0)),
                (-4, (_B2,), (0, 0)),
                (-1, (_A23, _A23), (0, 1)),
            ),
        )
    if k <= n - 3:
        lam = _zeros(n, (-1, k - n + 1))
        mu = (-2, k - n + 1, 1) + (0,) * (n - 3)
        terms = ((1, (_A13,), (0, None)), (1, (_A23,), (1, None)))
        return SingularVectorRow("first operator, generic k", n, k, sign, lam, mu, terms)
    if k == n - 2:
        lam = _zeros(n, (-1, -1))
        mu = (-2, -2, 1, 1) + (0,) * (n - 4)
        terms = ((1, (_A13, _A24), (0, None)), (-1, (_A14, _A23), (0, None)))
        return SingularVectorRow(
            "first operator (order-two splice), k=n-2", n, k, sign, lam, mu, terms
        )
    lam = (-1, -1, 1) + (0,) * (n - 3)
    mu = (-1, -2, 1, 1) + (0,) * (n - 4)
    terms = ((1, (_A24,), (0, 0)), (-1, (_A23,), (0, 1)))
    return SingularVectorRow(
        "first operator (axis crossing), k=n-1", n, k, sign, lam, mu, terms
    )


class VerificationResult(NamedTuple):
    row: SingularVectorRow
    d1_match: bool
    weight_ok: bool
    maximal_ok: bool
    kernel_dim: Optional[int]  # None: the kernel was not checked
    failures: list
    perturbed: bool  # the last coefficient of the row's vector was flipped

    @property
    def ok(self) -> bool:
        return (
            self.d1_match
            and self.weight_ok
            and self.maximal_ok
            and self.kernel_dim in (None, 1)
        )

    @property
    def refuted(self) -> bool:
        """The vector is shown not maximal: it is a nonzero element of
        weight mu, and a named simple raising operator does not kill it.
        A zero vector is not maximal either, but refutes nothing."""
        return self.weight_ok and bool(self.failures)

    @property
    def passed(self) -> bool:
        """A genuine vector is ok, a perturbed one refuted."""
        return self.refuted if self.perturbed else self.ok

    def to_dict(self) -> dict:
        return {
            "name": self.row.name,
            "k": self.row.k,
            "sign": self.row.sign,
            "lam": list(self.row.lam),
            "mu": list(self.row.mu),
            "d1_match": self.d1_match,
            "weight_ok": self.weight_ok,
            "maximal_ok": self.maximal_ok,
            "kernel_dim": self.kernel_dim,
            "ok": self.ok,
        }

    def to_text(self) -> str:
        """The `bgg verify-maximal` line of this check, followed by a
        newline: PASS if passed, the case, and what each check found."""
        if not self.perturbed:
            kernel = "not checked" if self.kernel_dim is None else self.kernel_dim
            note = (
                f"d1={self.d1_match} weight={self.weight_ok} maximal={self.maximal_ok}"
                f" kernel_dim={kernel}"
            )
        elif self.refuted:
            note = "perturbed vector correctly fails"
        elif self.maximal_ok:
            note = "perturbed vector is unexpectedly maximal"
        else:
            note = "perturbed vector is zero or off weight; nothing was tested"
        row = self.row
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} n={row.n} k={row.k} sign={row.sign}  {note}  ({row.name})\n"


def first_arrow(n: int, k: int, sign: str = "+") -> tuple[Weight, Weight]:
    """The first two terms of the singular BGG complex for (n, k, sign),
    read off the E1 entries: the complex's terms are the E1 cells, which
    e1_entries lists in order of p, so no order bound of a map or
    differential is needed.  Not memoised: verify_row keeps each arrow,
    shifted by rho, in the tables of its rank."""
    first, second, *_ = penrose.e1_entries(n, k, sign).values()
    return first, second


def verify_row(
    row: SingularVectorRow,
    lie: Optional[LieData] = None,
    perturb: bool = False,
    kernel: bool = True,
) -> VerificationResult:
    """Check one catalogue entry: the weights match the first arrow of the
    assembled complex, v is maximal of weight mu, and (optionally) the
    maximal vectors of weight mu form a line.  With perturb=True the last
    coefficient of v is flipped, which must break maximality.  The first
    arrow, shifted by rho, is kept in the rank's tables by (k, sign), so
    a genuine and a perturbed check shift it once.  `lie` is only checked
    against row.n ("rank mismatch") and not used otherwise; it can go
    once the benchmark harness is mended and stops passing it (ROADMAP
    item 3a, mend perfbench/)."""
    n = row.n
    if lie is not None and lie.n != n:
        raise ValueError("rank mismatch")
    arrows = _rank(n).arrows
    d1 = arrows.get((row.k, row.sign))
    if d1 is None:
        r = weyl.rho(n)
        d1 = arrows[row.k, row.sign] = tuple(
            tuple(map(sub, t, r)) for t in first_arrow(n, row.k, row.sign)
        )
    d1_match = d1 == (row.lam, row.mu)
    mp = GeneralizedVerma(n, row.lam)
    terms = list(row.terms)
    if perturb:
        coeff, ys, f = terms[-1]
        terms[-1] = (-coeff, ys, f)
    v = mp.combine(terms)
    weight_ok = {mp.term_weight(key) for key in v} == {row.mu}
    maximal_ok, failures = mp.check_maximal(v)
    dim = mp.maximal_vector_dimension(row.mu) if kernel else None
    return VerificationResult(row, d1_match, weight_ok, maximal_ok, dim, failures, perturb)


def verify_first_operators(
    n: int,
    *,
    k: Optional[int] = None,
    sign: Optional[str] = None,
    perturb: bool = False,
    kernel: bool = True,
) -> list[VerificationResult]:
    """verify_row, with perturb and kernel, of case (k, sign) if k is given
    (sign '+' if None), else of every k in 1..n-1 with sign, or with '+'
    then '-' if sign is None.  A rank below 3 has no case and is refused,
    not passed with no case checked; so are a k or a sign with no row."""
    if n < 3:
        raise ValueError("the first-operator catalogue needs n >= 3")
    signs = ("+", "-") if sign is None else (sign,)
    if k is not None:  # one case, '+' unless sign says otherwise
        cases = [(k, signs[0])]
    else:
        cases = [(j, s) for j in range(1, n) for s in signs]
    return [
        verify_row(singular_vector_row(n, j, s), perturb=perturb, kernel=kernel)
        for j, s in cases
    ]
