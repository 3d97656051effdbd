"""The work-list PBW straightening, the entry-by-entry Levi action, the
Fraction elimination and the tuple-walk weight-space listing that
`bgg.verma` no longer carries.

Test-only reference.  Each function takes a `GeneralizedVerma` for its
letters and the basis of its Levi module only, and none of them reads
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
"""

from __future__ import annotations

from fractions import Fraction
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


def levi_act(mod, label, idx: int) -> list:
    """label . (basis vector idx) in the Levi module mod, one term per
    entry (r, c, v) of the label's matrix: an entry with r, c < 2 acts on
    the gl(2) factor as the derivation x_r d/dx_c plus lam_2 v on the
    diagonal, an entry between two slots moves the slot, and no other
    entry acts."""
    n, (j, t) = mod.n, mod.basis[idx]
    slots = (tuple(range(2, n)) + tuple(range(n + 2, 2 * n))) if t is not None else ()
    out: dict = {}
    for (r, c), v in verma.LieData(n).matrix(label).items():
        if r < 2 and c < 2:
            power = j if c else mod.m - j
            coeff = v * (power + mod.lam[1]) if r == c else v * power
            key = (j + r - c, t)
        elif t is not None and c == slots[t] and r in slots:
            coeff, key = v, (j, slots.index(r))
        else:
            continue
        if coeff:
            i2 = mod.basis.index(key)
            out[i2] = out.get(i2, 0) + coeff
    return [(i2, c) for i2, c in sorted(out.items()) if c]


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
    for coeff, ys, f in parts:
        word = [("y", r) for r in ys]
        normal_form(mp, word, mp.module._index[f], Fraction(coeff), out)
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


def check_maximal(mp, elem: dict) -> tuple:
    """(maximal, failures): the simple raising labels that do not kill
    elem, in order, each applied by `act`; a zero element is not
    maximal and has no failures."""
    if not elem:
        return False, []
    failures = [lab for lab in simple_raising_labels(mp.n) if act(mp, lab, elem)]
    return not failures, failures


def maximal_vector_dimension(mp, mu: Sequence[int]) -> int:
    """Dimension of the space of maximal vectors of weight mu, by Gaussian
    elimination over Fraction rows."""
    basis = mp.weight_space(mu)
    pivots: dict = {}
    rank = 0
    for key in basis:
        image: dict = {}
        for si, lab in enumerate(simple_raising_labels(mp.n)):
            for k2, c in act(mp, lab, {key: Fraction(1)}).items():
                _add(image, (si, k2), c)
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
    """All basis monomials Y^word tensor f of weight mu: for each f, by
    degree and then by word in lexicographic order."""
    mu = tuple(mu)
    space = []
    for fidx in range(len(mp.module.basis)):
        need = tuple(a - b for a, b in zip(mp.module.weight(fidx), mu))
        words = sorted(words_for(mp, need), key=lambda w: (len(w), w))
        space += [(word, fidx) for word in words]
    return space


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
