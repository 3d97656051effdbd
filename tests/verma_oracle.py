"""The work-list PBW straightening, the entry-by-entry Levi action, the
Fraction elimination, the tuple-walk weight-space listing and the
unpruned F-first prefix pass that `bgg.verma` no longer carries.

Test-only reference.  Each function takes a `GeneralizedVerma` for its
letters and the n, lam, m and j of its Levi module only, and none of them reads
its straightening, word or Levi table or its rows.  Brackets come by
label from `verma.LieData(mp.n)`, the commutators of the basis matrices
expanded by `decompose` with its reconstruction check.  A Levi label
acts through every entry of its matrix (`levi_act`), a word is
straightened from scratch by swapping the first adjacent pair out of
order and adding its bracket, maximality is checked by straightening
each simple raising operator times the vector (`check_maximal`), the
kernel is found by Gaussian elimination over `Fraction` rows, and a
weight space is listed by a recursion that builds a new rest tuple per
letter and checks the bounds only on entry.  The fast paths of
`bgg.verma` are checked against these.  `weight_of` reads each
monomial's weight off `term_weight` and raises on a mixed element;
`verify_row` records such an element as a failed weight check instead.

A basis vector of F is an int key, as in `bgg.verma`: (a << 2n) | the
bits of the rows of S.  `keys` lists every key of Sym^m tensor det tensor
Lambda^j, `weight` reads a key's weight off (a, S), `levi_act` replaces
a row of S entry by entry and sorts it with the sign of the sort, and
`contract` pairs the rows of S by the symplectic form.  `LeviModule` is
the two-case class `bgg.verma` no longer carries, with its dense basis
of labels (j, t) and its index, for a zero tail or the tail (1, 0, ...,
0) only: the j <= 1 oracle of the int-keyed module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import parabolic_oracle
from bgg import parabolic, verma, weyl


def simple_raising_labels(n: int) -> list:
    return [("e", r) for r in weyl.simple_roots(n)]


def _add(elem: dict, key, coeff) -> None:
    if not coeff:
        return
    cur = elem.get(key, 0) + coeff
    if cur:
        elem[key] = cur
    else:
        elem.pop(key, None)


def _slots(n: int) -> tuple:
    """The rows e_3..e_n, f_3..f_n of C^{2n} that span C^{2n-4}."""
    return tuple(range(2, n)) + tuple(range(n + 2, 2 * n))


def _split(n: int, f: int) -> tuple:
    """(a, the rows of S in increasing order) of the key f."""
    return f >> 2 * n, [r for r in range(2 * n) if f >> r & 1]


def _key(n: int, a: int, rows) -> int:
    return a << 2 * n | sum(1 << r for r in rows)


def key(n: int, label) -> int:
    """The key of a catalogue label (j, t): x_0^{m-j} x_1^j tensor the
    t-th slot, or tensor 1 for t None."""
    j, t = label
    return _key(n, j, () if t is None else (_slots(n)[t],))


def keys(mod) -> list:
    """Every key of Sym^m C^2 tensor det tensor Lambda^j C^{2n-4}, in
    increasing order."""
    return sorted(
        _key(mod.n, a, rows) for a in range(mod.m + 1) for rows in combinations(_slots(mod.n), mod.j)
    )


def weight(mod, f: int) -> tuple:
    n = mod.n
    a, rows = _split(n, f)
    w = [mod.lam[0] - a, mod.lam[1] + a] + [0] * (n - 2)
    for r in rows:
        w[r % n] += 1 if r < n else -1
    return tuple(w)


def _sorted_sign(rows: list) -> int:
    """The sign of the permutation that sorts rows (distinct entries)."""
    inversions = sum(1 for i in range(len(rows)) for k in range(i + 1, len(rows)) if rows[i] > rows[k])
    return -1 if inversions % 2 else 1


def levi_act(mod, label, f: int) -> list:
    """label . (basis vector f) in the Levi module mod, one term per
    entry (r, c, v) of the label's matrix: an entry with r, c < 2 acts on
    the gl(2) factor as the derivation x_r d/dx_c plus lam_2 v on the
    diagonal; an entry between two slots replaces c by r in the wedge
    e_S, if c is in S and r is not (or r = c), with the sign of sorting
    the result; and no other entry acts."""
    n = mod.n
    a, rows = _split(n, f)
    slots = _slots(n)
    out: dict = {}
    for (r, c), v in verma.LieData(n).matrix(label).items():
        if r < 2 and c < 2:
            power = a if c else mod.m - a
            coeff = v * (power + mod.lam[1]) if r == c else v * power
            k2 = _key(n, a + r - c, rows)
        elif r in slots and c in rows and (r == c or r not in rows):
            moved = [r if s == c else s for s in rows]
            coeff, k2 = v * _sorted_sign(moved), _key(n, a, moved)
        else:
            continue
        if coeff:
            out[k2] = out.get(k2, 0) + coeff
    return [(k2, c) for k2, c in sorted(out.items()) if c]


def contract(mod, f: int) -> list:
    """The contraction Lambda^j -> Lambda^{j-2} on f: the sum over the
    positions p < q of S of (-1)^(p + q - 1) omega(v_p, v_q) times S
    without both, omega(x, y) = x^T J y: in increasing order the only
    pairs it does not kill are (e_i, f_i), where it is 1."""
    n = mod.n
    a, rows = _split(n, f)
    out: dict = {}
    for p, q in combinations(range(len(rows)), 2):
        if rows[q] == rows[p] + n:
            k2 = _key(n, a, [s for s in rows if s not in (rows[p], rows[q])])
            out[k2] = out.get(k2, 0) + (-1) ** (p + q - 1)
    return [(k2, c) for k2, c in sorted(out.items()) if c]


class LeviModule:
    """F(lam) = (Sym^m C^2 tensor det^{lam_2}) tensor V for the Levi
    gl(2) x sp(2n-4), m = lam_1 - lam_2, with V trivial for a zero tail
    of lam and the standard C^{2n-4} for the tail (1, 0, ..., 0); any
    other tail is refused.  The basis labels are (j, t): x_0^{m-j} x_1^j
    in the gl(2) factor, tensor the t-th slot of V (t None for a trivial
    V), listed densely with their index and weights.  _move(z, idx)
    reads label code z's matrix entries: the gl(2) entry acts as a
    derivation, and a slot entry moves slot c to slot r."""

    def __init__(self, n: int, lam: Sequence[int]):
        lam = tuple(lam)
        self.tables = verma._rank(n)
        if len(lam) != n:
            raise ValueError("rank mismatch")
        if lam[0] < lam[1]:
            raise ValueError("gl(2) highest weight needs lam_1 >= lam_2")
        tail = lam[2:]
        if tail == (1,) + (0,) * (n - 3):
            self._slots = _slots(n)
        elif any(tail):
            raise ValueError("tail must be zero or (1, 0, ..., 0)")
        else:
            self._slots = ()
        self.n = n
        self.lam = lam
        self.m = lam[0] - lam[1]
        ts = range(len(self._slots)) if self._slots else [None]
        self.basis = tuple((j, t) for j in range(self.m + 1) for t in ts)
        self._index = {b: i for i, b in enumerate(self.basis)}
        self.weights = tuple(map(self.weight, range(len(self.basis))))

    def weight(self, idx: int) -> tuple:
        j, t = self.basis[idx]
        w = [self.lam[0] - j, self.lam[1] + j] + [0] * (self.n - 2)
        if t is not None:
            s = self._slots[t]
            if s < self.n:
                w[s] += 1
            else:
                w[s - self.n] -= 1
        return tuple(w)

    def _move(self, z: int, idx: int) -> tuple:
        entries = self.tables.matrices[self.tables.labels[z]].items()
        j, t = self.basis[idx]
        gl2 = next(((r, c, v) for (r, c), v in entries if r < 2 and c < 2), None)
        if gl2 is not None:
            r, c, v = gl2
            coeff = v * ((j if c else self.m - j) + (self.lam[1] if r == c else 0))
            return ((self._index[j + r - c, t], coeff),) if coeff else ()
        if t is None:
            return ()
        slot = {s: i for i, s in enumerate(self._slots)}
        moves = {slot[c]: (slot[r], v) for (r, c), v in entries if r in slot and c in slot}
        move = moves.get(t)
        if move is None:
            return ()
        return ((self._index[j, move[0]], move[1]),)


def normal_form(mp, word: Sequence, fidx: int, coeff: Fraction, out: dict) -> None:
    """Add coeff * word tensor f, straightened, into out.

    A u^- letter sorts by its index and any other letter after all of
    them.  A word ending in another letter lets it act on F (a u^+
    letter kills F); otherwise the first adjacent pair out of order is
    swapped and its bracket added."""
    rank, last = {x: i for i, x in enumerate(mp.letters)}, len(mp.letters)
    lie = verma.LieData(mp.n)
    nil = frozenset(parabolic_oracle.nilradical_roots(parabolic.parabolic(mp.n, (2,))))
    work = [(tuple(word), fidx, coeff)]
    while work:
        w, f, c = work.pop()
        if not c:
            continue
        if w and w[-1] not in rank:
            x = w[-1]
            if x[0] == "e" and x[1] in nil:
                continue  # u^+ kills F
            for f2, fc in levi_act(mp.module, x, f):
                work.append((w[:-1], f2, c * fc))
            continue
        keys = [rank.get(x, last) for x in w]
        inv = next((i for i in range(len(w) - 1) if keys[i] > keys[i + 1]), None)
        if inv is None:
            _add(out, (tuple(keys), f), c)
            continue
        x, y = w[inv], w[inv + 1]
        work.append((w[:inv] + (y, x) + w[inv + 2 :], f, c))
        for z, zc in lie.bracket(x, y):
            work.append((w[:inv] + (z,) + w[inv + 2 :], f, c * zc))


def combine(mp, parts: Iterable) -> dict:
    out: dict = {}
    for coeff, ys, label in parts:
        word = [("y", r) for r in ys]
        normal_form(mp, word, key(mp.n, label), Fraction(coeff), out)
    return out


def act(mp, label, elem: dict) -> dict:
    out: dict = {}
    for (word, f), c in elem.items():
        letters = tuple(mp.letters[i] for i in word)
        normal_form(mp, (label,) + letters, f, c, out)
    return out


def weight_of(mp, elem: dict) -> tuple:
    """The one weight of the monomials of elem; ValueError if they have
    more than one, or none."""
    weights = {mp.term_weight(k) for k in elem}
    if len(weights) != 1:
        raise ValueError(f"element is not weight-homogeneous: {weights}")
    return weights.pop()


def _contracted(mp, elem: dict) -> dict:
    out: dict = {}
    for (word, f), c in elem.items():
        for f2, c2 in contract(mp.module, f):
            _add(out, (word, f2), c * c2)
    return out


def check_maximal(mp, elem: dict) -> tuple:
    """(maximal, failures): the simple raising labels that do not kill
    elem, in order, each applied by `act`; a zero element is not
    maximal and has no failures, and neither is one whose contraction
    is not zero."""
    if not elem:
        return False, []
    failures = [lab for lab in simple_raising_labels(mp.n) if act(mp, lab, elem)]
    return not failures and not _contracted(mp, elem), failures


def maximal_vector_dimension(mp, mu: Sequence[int]) -> int:
    """Dimension of the space of maximal vectors of weight mu that the
    contraction kills, by Gaussian elimination over Fraction rows."""
    basis = mp.weight_space(mu)
    pivots: dict = {}
    rank = 0
    for key in basis:
        image: dict = {}
        for si, lab in enumerate(simple_raising_labels(mp.n)):
            for k2, c in act(mp, lab, {key: Fraction(1)}).items():
                _add(image, (si, k2), c)
        for k2, c in _contracted(mp, {key: Fraction(1)}).items():
            _add(image, (-1, k2), c)
        while image:
            lead = min(image)
            piv = pivots.get(lead)
            if piv is None:
                break
            factor = image[lead] / piv[lead]
            for k2, c in piv.items():
                _add(image, k2, -factor * c)
        if image:
            pivots[min(image)] = image
            rank += 1
    return len(basis) - rank


def weight_space(mp, mu: Sequence[int]) -> list:
    """All basis monomials Y^word tensor f of weight mu, f every key of
    the module (keys): by f, then by degree and then by word in
    lexicographic order."""
    mu = tuple(mu)
    space = []
    for f in keys(mp.module):
        need = tuple(a - b for a, b in zip(weight(mp.module, f), mu))
        words = sorted(words_for(mp, need), key=lambda w: (len(w), w))
        space += [(word, f) for word in words]
    return space


def prefix_weight_space(mp, mu: Sequence[int]) -> list:
    """The weight space as `GeneralizedVerma.weight_space` listed it
    before it pruned its pass: every prefix of every tail t of a weight
    of Lambda^j (entries 0 or +-1, at most j nonzero) within |t - mu's
    tail|_1 <= E(lam - mu) is built, and the tails with j - k odd are
    dropped only at the end; the words and subsets come from the same
    tables."""
    module, words = mp.module, mp.tables.words
    j, m, shift = module.j, module.m, module.shift
    grade = mp.lam[0] + mp.lam[1] - mu[0] - mu[1]
    top, mu_tail = mp.lam[0] - mu[0], tuple(mu[2:])
    level = [((), (), 0, 0)]
    for x in mu_tail:
        nxt = []
        for t, d, c, k in level:
            for y in (0, -1, 1) if k < j else (0,):
                cost = c + abs(y - x)
                if cost <= grade:
                    nxt.append((t + (y,), d + (y - x,), cost, k + (y != 0)))
        level = nxt
    found = {}
    for t, d, _, k in level:
        if (j - k) & 1:
            continue
        groups = words(grade, d)
        for s in module.subsets(t):
            for first, listed in groups:
                a = top - first
                if 0 <= a <= m:
                    found[a << shift | s] = listed
    return [(word, f) for f in sorted(found) for word in found[f]]


def words_for(mp, need: tuple) -> list:
    """Non-decreasing letter-index words whose roots sum to need.

    A word is extended only while the grade left, E(rest) = rest_1 +
    rest_2, covers the next letter's grade; a rest with a negative first
    or second coordinate, or with sum |rest_3..n| above E(rest), is
    dropped on entry."""
    p = parabolic.parabolic(mp.n, (2,))
    vectors = [r.vector(mp.n) for _, r in mp.letters]
    grades = [parabolic.root_grade(r, p) for _, r in mp.letters]
    found = []

    def extend(start: int, rest: tuple, word: tuple) -> None:
        budget = rest[0] + rest[1]
        if rest[0] < 0 or rest[1] < 0 or sum(map(abs, rest[2:])) > budget:
            return
        if budget == 0:
            found.append(word)  # rest is zero here
            return
        for i in range(start, len(vectors)):
            if grades[i] <= budget:
                extend(i, tuple(a - b for a, b in zip(rest, vectors[i])), word + (i,))

    extend(0, need, ())
    return found
