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
realized on U(u^-) tensor F with F an irreducible module of the Levi
gl(2) + sp(2n-4), whose action is read off the same matrices (see
LeviModule).  An element is a dict {(word, fidx): coeff}: a word is a
non-decreasing tuple of indices of the 4(n-2)+3 lowering letters of
the nilradical, the PBW normal order.  Coefficients are exact: the
structure constants and the Levi action are integers, so integer input
straightens to int coefficients, and a Fraction input stays a Fraction.

Straightening is per rank, the Levi action per (n, lam), and no memo
is kept per module.  The straightening table of rank n holds, for a
label code x and a normal-ordered word Y_y Y^rest that x does not
simply extend, x Y_y Y^rest = sum of c Y^w z in U(g), with z a Levi
label code or no label.  It is computed once per rank, with no vector
of F in it, by x Y_y rest = Y_y (x rest) + [x, Y_y] rest, with a letter
that sorts before y simply prepended; at the empty word a u^+ label is
dropped, since it kills F, and a Levi label stays as z.  A suffix shared
by many words is thus straightened once, whatever lam.  A module then
applies each z to f through the action of its LeviModule, memoised per
(z, f) and shared by every module of the same (n, lam) (_levi_module).
act, combine, check_maximal and maximal_vector_dimension all read these
tables.

maximal_vector_dimension reads each monomial's images under the simple
raising operators straight off the tables and eliminates fraction-free
over the integers, with sparse rows: a row is cross-multiplied with the
pivot of its least column and divided by the gcd of its entries.

Whatever depends on n alone is one record, RankTables, built once per
rank and process for the last 8 ranks used (_rank) and read by field
name by every reader of that rank: the basis matrices and their
leading entries, the letters, the integer tables that the hot paths
read instead of hashing a Root, and three memos, the brackets, the
straightening table and the word table.  Every other field is a tuple,
a frozenset or a read-only mapping, and every value a memo holds is a
tuple.  A bracket is kept once, by label code: it is computed through
decompose, reconstruction check included, the first time the process
needs it at that rank.  LieData is a view of the record by label, and
no module takes one.  The nilradical letters are checked against
`weyl` alone (see _rank), so this module, like `penrose`, loads no
Hasse code.

A weight space is listed per basis vector f of F from the words of the
need wt(f) - mu, found once per need and rank by a walk over the
letters (_words) and kept in the word table.  A letter is tried only if
the rest keeps its first two coordinates >= 0 and its budget E(rest) =
rest_1 + rest_2 covers sum |rest_3..n|: a letter of grade g has first
two coordinates >= 0 summing to g and moves coordinates 3..n by at most
g.  (At n = 2, E = (1/2, 1/2) and the budget is 2 E(rest), a weaker but
still valid bound.)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from bgg import penrose, weyl
from bgg.weyl import Root, Weight

Label = tuple  # ("e", Root) | ("y", Root) | ("h", int)
Matrix = dict  # {(row, col): int}, nonzero entries only


# ---------------------------------------------------------------------------
# the Lie algebra and the tables of a rank


class RankTables(NamedTuple):
    """What the Verma layer reads that depends on n alone (see _rank): the
    basis matrices by label and their leading entries (key, label) in
    decompose's order; the nilradical letters in normal order, their
    weight vectors and steps (see _words); the labels with their codes (a
    letter's is its index), the simple raising codes, each code's (row,
    col, value) entries and the codes of the Levi labels, which act on F.
    Then three memos, each value a tuple: the brackets by code pair, the
    straightening table (see GeneralizedVerma._straighten) and the word
    table, each need wt(f) - mu to its words by length (weight_space)."""

    matrices: Mapping
    leads: tuple
    letters: tuple
    vectors: tuple
    steps: tuple
    labels: tuple
    code: Mapping
    raising: tuple
    entries: tuple
    levi: frozenset
    brackets: dict
    straightening: dict
    words: dict

    def decompose(self, x: Matrix) -> list[tuple[Label, int]]:
        """Exact expansion of x over the basis, read off the leading
        entries, with reconstruction check."""
        terms = [(lab, x[lead]) for lead, lab in self.leads if x.get(lead)]
        recon: Matrix = {}
        for lab, coeff in terms:
            _accumulate(recon, self.matrices[lab], coeff)
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
            _accumulate(m, _product(my, mx), -1)
            got = self.brackets[x, y] = tuple(
                (self.code[lab], c) for lab, c in self.decompose(m)
            )
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
    steps = []
    for v in vectors:
        t = next((t for t in range(2, n) if v[t]), 0)
        steps.append((v[0], v[1], t, v[t] if t else 0))
    upper = {("e", r) for r in order}
    return RankTables(
        matrices=MappingProxyType({lab: MappingProxyType(mat) for lab, mat in m.items()}),
        # the least key of each matrix holds 1 and is a key of no other
        leads=tuple((min(mat), lab) for lab, mat in m.items()),
        letters=letters, vectors=vectors, steps=tuple(steps),
        labels=labels, code=code,
        raising=tuple(code["e", r] for r in weyl.simple_roots(n)),
        entries=tuple(tuple((r, c, v) for (r, c), v in m[lab].items()) for lab in labels),
        levi=frozenset(code[lab] for lab in labels[len(letters):] if lab not in upper),
        brackets={}, straightening={}, words={},
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


def _accumulate(out: Matrix, x: Matrix, coeff: int) -> None:
    """out += coeff * x, keeping only nonzero entries."""
    for key, v in x.items():
        total = out.get(key, 0) + coeff * v
        if total:
            out[key] = total
        else:
            out.pop(key, None)


def _product(x: Matrix, y: Matrix) -> Matrix:
    out: Matrix = {}
    for (r, k), u in x.items():
        for (k2, c), v in y.items():
            if k == k2:
                out[r, c] = out.get((r, c), 0) + u * v
    return {key: v for key, v in out.items() if v}


# ---------------------------------------------------------------------------
# irreducible Levi modules


class LeviModule:
    """F(lam) = (Sym^m C^2 tensor det^{lam_2}) tensor V for the Levi
    gl(2) x sp(2n-4), m = lam_1 - lam_2, with V trivial for a zero tail
    of lam and the standard C^{2n-4} for the tail (1, 0, ..., 0).  The
    basis labels are (j, t): x_0^{m-j} x_1^j in the gl(2) factor, tensor
    the t-th slot of V (t None for a trivial V).

    Every label acts through its matrix in sp(2n), one term per entry
    (r, c), rows and columns counted from 0.  An entry with r, c < 2 acts
    on the gl(2) factor as the derivation x_r d/dx_c, plus lam_2 times
    its value on the diagonal.  An entry whose row and column are both
    slots, the rows e_3..e_n, f_3..f_n of C^{2n} that span V, moves the
    slot.  No other entry acts.  The grading element splits C^{2n} into
    rows 0-1, the slots and rows n, n+1 (grades 1, 0, -1); a u^+ matrix
    only raises that grade, so it has no entry inside a block and kills
    F.

    The module is read-only: its basis, weights and slots are tuples and
    its index a read-only mapping.  The action of each label code on each
    basis vector is memoised (`_act`), read off the entries of the
    rank's tables; a GeneralizedVerma reads it, and the modules built
    through _levi_module are shared by every GeneralizedVerma of the
    same (n, lam)."""

    def __init__(self, n: int, lam: Sequence[int]):
        lam = tuple(lam)
        self.tables = _rank(n)
        if len(lam) != n:
            raise ValueError("rank mismatch")
        if lam[0] < lam[1]:
            raise ValueError("gl(2) highest weight needs lam_1 >= lam_2")
        tail = lam[2:]
        if tail == (1,) + (0,) * (n - 3):
            self._slots = tuple(range(2, n)) + tuple(range(n + 2, 2 * n))
        elif any(tail):
            raise NotImplementedError("tail must be zero or (1, 0, ..., 0)")
        else:
            self._slots = ()
        self.n = n
        self.lam = lam
        self.m = lam[0] - lam[1]
        self._slot_index = MappingProxyType({s: t for t, s in enumerate(self._slots)})
        ts = range(len(self._slots)) if self._slots else [None]
        self.basis = tuple((j, t) for j in range(self.m + 1) for t in ts)
        self._index = MappingProxyType({b: i for i, b in enumerate(self.basis)})
        self.weights = tuple(map(self.weight, range(len(self.basis))))
        self._memo: dict = {}

    def weight(self, idx: int) -> Weight:
        j, t = self.basis[idx]
        w = [self.lam[0] - j, self.lam[1] + j] + [0] * (self.n - 2)
        if t is not None:
            s = self._slots[t]
            if s < self.n:
                w[s] += 1
            else:
                w[s - self.n] -= 1
        return tuple(w)

    def act(self, label: Label, idx: int) -> list[tuple[int, int]]:
        """The action of label on a basis vector."""
        return list(self._act(self.tables.code[label], idx))

    def _act(self, z: int, idx: int) -> tuple[tuple[int, int], ...]:
        """The action of the label with code z on a basis vector, read off
        its (row, col, value) entries, one term per entry; memoised."""
        got = self._memo.get((z, idx))
        if got is not None:
            return got
        j, t = self.basis[idx]
        out: dict[int, int] = {}
        for r, c, v in self.tables.entries[z]:
            if r < 2 and c < 2:
                power = j if c else self.m - j
                coeff = v * (power + self.lam[1]) if r == c else v * power
                key = (j + r - c, t)
            elif t is not None and c == self._slots[t] and r in self._slot_index:
                coeff, key = v, (j, self._slot_index[r])
            else:
                continue
            if coeff:
                i2 = self._index[key]
                out[i2] = out.get(i2, 0) + coeff
        got = self._memo[z, idx] = tuple((i2, c) for i2, c in sorted(out.items()) if c)
        return got


@functools.lru_cache(maxsize=8)
def _levi_module(n: int, lam: tuple) -> LeviModule:
    """The Levi module F(lam), built once per (n, lam) for the 8 used
    last, so that its memoised action is shared by every
    GeneralizedVerma of that highest weight."""
    return LeviModule(n, lam)


# ---------------------------------------------------------------------------
# generalized Verma modules


Element = dict  # {(word, fidx): coeff} with word a tuple of letter indices


def _words(steps: tuple, need: list) -> list[tuple]:
    """Non-decreasing letter-index words whose roots sum to need, in
    lexicographic order, pruned as the module docstring says; need is
    changed in place and restored.  steps[i] = (a, b, t, d): letter i
    moves coordinates 1, 2 by a, b and coordinate t by d ((0, 0): none)."""
    found: list = []
    tail = sum(map(abs, need[2:]))
    if need[0] < 0 or need[1] < 0 or tail > need[0] + need[1]:
        return found
    if need[0] + need[1] == 0:
        return [()]  # need is zero here

    def extend(start: int, r0: int, r1: int, tail: int, word: tuple) -> None:
        for i in range(start, len(steps)):
            a, b, t, d = steps[i]
            s0, s1 = r0 - a, r1 - b
            if s0 < 0 or s1 < 0:
                continue
            x = need[t]
            s = tail - abs(x) + abs(x - d)
            if s > s0 + s1:
                continue
            if not s0 + s1:
                found.append(word + (i,))  # the rest is zero here
                continue
            need[t] = x - d
            extend(i, s0, s1, s, word + (i,))
            need[t] = x

    extend(0, need[0], need[1], tail, ())
    return found


class GeneralizedVerma:
    """M_p(lam) = U(u^-) tensor F(lam) for the crossed-{2} parabolic.

    Every lowering letter has grade 1 or 2 under the grading element
    E = (1, 1, 0, ..., 0), so a monomial of weight mu has degree at most
    the grade drop E(lam - mu): weight spaces are finite and are listed
    in full.

    A module keeps no memo of its own.  Straightening and the word lists
    of weight spaces depend on n alone and are read off `tables`, the
    record of the rank (_rank); the Levi action depends on (n, lam) and
    is read off `module`, the shared LeviModule (_levi_module).  `_left`
    joins the two (see the module docstring).  `letters` is the rank's
    letter list."""

    def __init__(self, n: int, lam: Sequence[int]):
        self.n = n
        self.lam = tuple(lam)
        self.tables = _rank(n)
        self.letters = self.tables.letters
        self.module = _levi_module(n, self.lam)

    # -- element arithmetic

    @staticmethod
    def _add(elem: Element, key, coeff) -> None:
        if not coeff:
            return
        cur = elem.get(key, 0) + coeff
        if cur:
            elem[key] = cur
        else:
            elem.pop(key, None)

    def combine(self, parts: Iterable[tuple[int, Sequence[Root], tuple]]) -> Element:
        """The sum of coeff * Y_{ys[0]} ... Y_{ys[-1]} tensor f over parts,
        each word applied letter by letter from the right."""
        out: Element = {}
        for coeff, ys, f in parts:
            elem = {((), self.module._index[f]): coeff}
            for r in reversed(ys):
                elem = self._apply(self.tables.code["y", r], elem)
            for key, c in elem.items():
                self._add(out, key, c)
        return out

    # -- straightening

    def _straighten(self, x: int, word: tuple) -> tuple:
        """x Y^word = sum of c Y^w2 z in U(g), as a tuple of ((w2, z), c)
        with w2 normal-ordered and z a Levi label code or None (no label),
        for a label code x and a normal-ordered word that x does not
        simply extend.  Read off the rank's table, and computed into it
        the first time.

        At the empty word a Levi label is its own z, and any other label
        is dropped: a u^+ label kills F.  Otherwise
        x Y_y rest = Y_y (x rest) + [x, Y_y] rest for the first letter y;
        Y_y times a word is straightened within U(u^-), so it carries no
        label, and the z of x rest stays to its right."""
        tables = self.tables
        got = tables.straightening.get((x, word))
        if got is not None:
            return got
        if not word:
            got = ((((), x), 1),) if x in tables.levi else ()
        else:
            y, rest = word[0], word[1:]
            out: dict = {}
            for (w2, z), c in self._straighten_any(x, rest):
                for (w3, _), c3 in self._straighten_any(y, w2):
                    self._add(out, (w3, z), c * c3)
            for z, zc in tables.bracket(x, y):
                for key, c3 in self._straighten_any(z, rest):
                    self._add(out, key, zc * c3)
            got = tuple(out.items())
        tables.straightening[x, word] = got
        return got

    def _straighten_any(self, x: int, word: tuple) -> tuple:
        """The terms of x Y^word for any normal-ordered word: a letter that
        sorts first just extends the word."""
        if x < len(self.letters) and (not word or x <= word[0]):
            return ((((x,) + word, None), 1),)
        return self._straighten(x, word)

    def _left(self, x: int, word: tuple, f: int) -> Element:
        """x . (Y^word tensor f) in normal form, as a new element, for a
        label code x and a normal-ordered word that x does not simply
        extend: each term c Y^w2 z of the straightened x Y^word, with z
        acting on f through the Levi module."""
        out: Element = {}
        act = self.module._act
        for (w2, z), c in self._straighten(x, word):
            if z is None:
                self._add(out, (w2, f), c)
            else:
                for f2, c2 in act(z, f):
                    self._add(out, (w2, f2), c * c2)
        return out

    def _apply(self, x: int, elem: Element) -> Element:
        """x . elem as a new element, for a label code x."""
        out: Element = {}
        extends = x < len(self.letters)
        for (word, f), c in elem.items():
            if extends and (not word or x <= word[0]):
                self._add(out, ((x,) + word, f), c)
                continue
            for key, c2 in self._left(x, word, f).items():
                self._add(out, key, c * c2)
        return out

    # -- module structure

    def act(self, label: Label | int, elem: Element) -> Element:
        """label . elem, for a label or its integer code."""
        return self._apply(label if type(label) is int else self.tables.code[label], elem)

    def term_weight(self, key) -> Weight:
        word, f = key
        w = self.module.weights[f]
        for i in word:
            w = [a - b for a, b in zip(w, self.tables.vectors[i])]
        return tuple(w)

    def weight_of(self, elem: Element) -> Weight:
        weights = {self.term_weight(k) for k in elem}
        if len(weights) != 1:
            raise ValueError(f"element is not weight-homogeneous: {weights}")
        return weights.pop()

    def check_maximal(self, elem: Element) -> tuple[bool, list[Label]]:
        """An element is maximal iff every simple raising operator kills it."""
        if not elem:
            return False, []
        tables = self.tables
        failures = [tables.labels[x] for x in tables.raising if self.act(x, elem)]
        return not failures, failures

    # -- weight spaces and uniqueness

    def weight_space(self, mu: Sequence[int]) -> list[tuple[tuple, int]]:
        """All basis monomials Y^word tensor f of weight mu: for each f,
        by degree and then by word in lexicographic order."""
        if len(mu) != self.n:
            raise ValueError("rank mismatch")
        space = []
        table, steps = self.tables.words, self.tables.steps
        for fidx, wt in enumerate(self.module.weights):
            need = tuple(a - b for a, b in zip(wt, mu))
            words = table.get(need)
            if words is None:
                words = table[need] = tuple(sorted(_words(steps, list(need)), key=len))
            space += [(word, fidx) for word in words]
        return space

    def maximal_vector_dimension(self, mu: Sequence[int]) -> int:
        """Dimension of the space of maximal vectors of weight mu: the size
        of the weight space less the rank of the simple raising operators
        on it.  Each monomial's row of images is read off _left, with
        columns numbered as they first appear, and rows are eliminated
        fraction-free over the integers: a row is cross-multiplied with
        the pivot of its least column, then divided by the gcd of its
        entries."""
        raising = self.tables.raising
        basis = self.weight_space(mu)
        columns: dict = {}  # (operator, monomial) -> column number
        pivots: dict = {}
        for word, f in basis:
            row = {
                columns.setdefault((si, key), len(columns)): c
                for si, x in enumerate(raising)
                for key, c in self._left(x, word, f).items()
            }
            while row:
                lead = min(row)
                piv = pivots.get(lead)
                if piv is None:
                    pivots[lead] = row
                    break
                g = math.gcd(piv[lead], row[lead])
                a, b = piv[lead] // g, row[lead] // g
                row = {key: a * c for key, c in row.items()}
                for key, c in piv.items():
                    v = row.get(key, 0) - b * c
                    if v:
                        row[key] = v
                    else:
                        del row[key]
                g = math.gcd(*row.values()) if row else 1
                if g > 1:
                    row = {key: c // g for key, c in row.items()}
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
    a13, a14 = Root("a", 1, 3), (Root("a", 1, 4) if n >= 4 else None)
    a23, a24 = Root("a", 2, 3), (Root("a", 2, 4) if n >= 4 else None)
    c13, c23, b2 = Root("c", 1, 3), Root("c", 2, 3), Root("b", 2)
    if sign == "-":
        lam = _zeros(n, (-1, -n - k + 1))
        mu = (-2, -n - k + 1, 1) + (0,) * (n - 3)
        terms = ((1, (a13,), (0, None)), (1, (a23,), (1, None)))
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
                (1, (a23, a23, c13), (0, None)),
                (-1, (c23, a23, a13), (0, None)),
                (4, (a13, b2), (0, None)),
            ),
        )
    if n == 3 and k == 2:
        return SingularVectorRow(
            "first operator (axis crossing), n=3 k=2",
            n, k, sign,
            (-1, -1, 1),
            (-1, -3, 1),
            (
                (1, (c23, a23), (0, 0)),
                (-4, (b2,), (0, 0)),
                (-1, (a23, a23), (0, 1)),
            ),
        )
    if k <= n - 3:
        lam = _zeros(n, (-1, k - n + 1))
        mu = (-2, k - n + 1, 1) + (0,) * (n - 3)
        terms = ((1, (a13,), (0, None)), (1, (a23,), (1, None)))
        return SingularVectorRow("first operator, generic k", n, k, sign, lam, mu, terms)
    if k == n - 2:
        lam = _zeros(n, (-1, -1))
        mu = (-2, -2, 1, 1) + (0,) * (n - 4)
        terms = ((1, (a13, a24), (0, None)), (-1, (a14, a23), (0, None)))
        return SingularVectorRow(
            "first operator (order-two splice), k=n-2", n, k, sign, lam, mu, terms
        )
    lam = (-1, -1, 1) + (0,) * (n - 3)
    mu = (-1, -2, 1, 1) + (0,) * (n - 4)
    terms = ((1, (a24,), (0, 0)), (-1, (a23,), (0, 1)))
    return SingularVectorRow(
        "first operator (axis crossing), k=n-1", n, k, sign, lam, mu, terms
    )


@dataclass
class VerificationResult:
    row: SingularVectorRow
    d1_match: bool
    weight_ok: bool
    maximal_ok: bool
    kernel_dim: Optional[int]  # None: the kernel was not checked
    failures: list

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


@functools.lru_cache(maxsize=32)
def first_arrow(n: int, k: int, sign: str = "+") -> tuple[Weight, Weight]:
    """The first two terms of the singular BGG complex for (n, k, sign),
    read off the E1 entries: the complex's terms are the E1 cells, which
    e1_entries lists in order of p, so no order bound of a map or
    differential is needed.  Memoised for the 32 cases used last, so a
    genuine and a perturbed check of one row read the E1 entries once;
    the value is a pair of tuples, which no caller can change."""
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
    coefficient of v is flipped, which must break maximality.  `lie` is
    only checked against row.n ("rank mismatch") and not used otherwise;
    it can go when the benchmark harness stops passing it (ROADMAP item 6)."""
    n = row.n
    if lie is not None and lie.n != n:
        raise ValueError("rank mismatch")
    r = weyl.rho(n)
    d1 = tuple(tuple(a - b for a, b in zip(t, r)) for t in first_arrow(n, row.k, row.sign))
    d1_match = d1 == (row.lam, row.mu)
    mp = GeneralizedVerma(n, row.lam)
    terms = list(row.terms)
    if perturb:
        coeff, ys, f = terms[-1]
        terms[-1] = (-coeff, ys, f)
    v = mp.combine(terms)
    weight_ok = bool(v) and mp.weight_of(v) == row.mu
    maximal_ok, failures = mp.check_maximal(v)
    dim = mp.maximal_vector_dimension(row.mu) if kernel else None
    return VerificationResult(row, d1_match, weight_ok, maximal_ok, dim, failures)


def verify_first_operators(n: int, kernel: bool = True) -> list[VerificationResult]:
    """Verify every (k, sign) first-operator case at rank n; a rank below
    3 has none and is refused, not passed with no case checked."""
    if n < 3:
        raise ValueError("the first-operator catalogue needs n >= 3")
    return [
        verify_row(singular_vector_row(n, k, sign), kernel=kernel)
        for k in range(1, n)
        for sign in ("+", "-")
    ]
