"""Generalized Verma modules for sp(2n,C) with the crossed-{2} parabolic.

Works with the matrix realization sp(2n) = {X : X^T J + J X = 0},
J = [[0, I], [-I, 0]], in the root basis

    e_{a_ij} = E_ij - E_{n+j,n+i}      (i < j)
    e_{b_i}  = E_{i,n+i}
    e_{c_ij} = E_{i,n+j} + E_{j,n+i}   (i < j)

with lowering operators the transposes and h_i = E_ii - E_{n+i,n+i}.
Structure constants are extracted exactly from sparse integer matrices.

A generalized Verma module M_p(lam) = U(g) tensor_{U(p)} F(lam) is
realized on U(u^-) tensor F with F an irreducible module of the Levi
gl(2) + sp(2n-4); elements carry exact Fraction coefficients and
monomials in the 4(n-2)+3 lowering letters of the nilradical are kept
in a fixed normal order by PBW straightening.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from bgg import orbits, penrose
from bgg import parabolic as parabolic_mod
from bgg import weyl
from bgg.weyl import Root, Weight

Label = tuple  # ("e", Root) | ("y", Root) | ("h", int)
Matrix = dict  # {(row, col): int}, nonzero entries only


# ---------------------------------------------------------------------------
# the Lie algebra


class LieData:
    """Sparse integer matrices and exact structure constants for sp(2n).

    A matrix is a dict {(row, col): int} holding its nonzero entries;
    every basis element has at most two."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("rank must be at least 2")
        self.n = n
        self._matrices: dict[Label, Matrix] = {}
        m = self._matrices
        for i in range(n):
            m[("h", i + 1)] = {(i, i): 1, (n + i, n + i): -1}
            m[("e", Root("b", i + 1))] = {(i, n + i): 1}
            for j in range(i + 1, n):
                m[("e", Root("a", i + 1, j + 1))] = {(i, j): 1, (n + j, n + i): -1}
                m[("e", Root("c", i + 1, j + 1))] = {(i, n + j): 1, (j, n + i): 1}
        for lab in [l for l in m if l[0] == "e"]:
            m[("y", lab[1])] = {(c, r): v for (r, c), v in m[lab].items()}
        self._brackets: dict[tuple[Label, Label], tuple[tuple[Label, int], ...]] = {}

    def matrix(self, label: Label) -> Matrix:
        return self._matrices[label]

    def decompose(self, x: Matrix) -> list[tuple[Label, int]]:
        """Exact expansion of x over the basis, with reconstruction check."""
        n = self.n

        def a(i, j):
            return x.get((i, j), 0)

        def b(i, j):
            return x.get((i, n + j), 0)

        def c(i, j):
            return x.get((n + i, j), 0)

        terms: list[tuple[Label, int]] = []
        for i in range(n):
            if a(i, i):
                terms.append((("h", i + 1), a(i, i)))
            if b(i, i):
                terms.append((("e", Root("b", i + 1)), b(i, i)))
            if c(i, i):
                terms.append((("y", Root("b", i + 1)), c(i, i)))
            for j in range(i + 1, n):
                if a(i, j):
                    terms.append((("e", Root("a", i + 1, j + 1)), a(i, j)))
                if a(j, i):
                    terms.append((("y", Root("a", i + 1, j + 1)), a(j, i)))
                if b(i, j):
                    terms.append((("e", Root("c", i + 1, j + 1)), b(i, j)))
                if c(i, j):
                    terms.append((("y", Root("c", i + 1, j + 1)), c(i, j)))
        recon: Matrix = {}
        for lab, coeff in terms:
            _accumulate(recon, self.matrix(lab), coeff)
        if recon != {key: v for key, v in x.items() if v}:
            raise AssertionError("matrix does not lie in sp(2n)")
        return terms

    def bracket(self, x: Label, y: Label) -> tuple[tuple[Label, int], ...]:
        key = (x, y)
        if key not in self._brackets:
            mx, my = self.matrix(x), self.matrix(y)
            m = _product(mx, my)
            _accumulate(m, _product(my, mx), -1)
            self._brackets[key] = tuple(self.decompose(m))
        return self._brackets[key]


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


def simple_raising_labels(n: int) -> list[Label]:
    return [("e", r) for r in weyl.simple_roots(n)]


# ---------------------------------------------------------------------------
# irreducible Levi modules


class LeviModule:
    """F(lam) for the Levi gl(2) x sp(2n-4): the gl(2) factor with highest
    weight (lam_1, lam_2) tensored with a trivial or standard sp(2n-4)
    factor according to the tail of lam."""

    def __init__(self, n: int, lam: Sequence[int]):
        lam = tuple(lam)
        if len(lam) != n:
            raise ValueError("rank mismatch")
        if lam[0] < lam[1]:
            raise ValueError("gl(2) highest weight needs lam_1 >= lam_2")
        tail = lam[2:]
        if all(v == 0 for v in tail):
            self.has_standard = False
        elif tail == (1,) + (0,) * (n - 3):
            self.has_standard = True
        else:
            raise NotImplementedError("tail must be zero or (1, 0, ..., 0)")
        self.n = n
        self.lam = lam
        self.m = lam[0] - lam[1]
        self.v_dim = 2 * (n - 2) if self.has_standard else 0
        # basis: (j, t) with w_{m-2j} in the gl(2) factor and t indexing
        # e_3..e_n, f_3..f_n in the standard factor (t None if trivial)
        if self.has_standard:
            self.basis = [
                (j, t) for j in range(self.m + 1) for t in range(self.v_dim)
            ]
            # matrix rows/columns of the standard sp(2n) representation
            # that the sp(2n-4) factor acts through
            self._slots = list(range(2, n)) + list(range(n + 2, 2 * n))
        else:
            self.basis = [(j, None) for j in range(self.m + 1)]
            self._slots = []
        self._index = {b: i for i, b in enumerate(self.basis)}

    def weight(self, idx: int) -> Weight:
        j, t = self.basis[idx]
        w = [self.lam[0] - j, self.lam[1] + j] + [0] * (self.n - 2)
        if t is not None:
            half = self.v_dim // 2
            if t < half:
                w[2 + t] += 1
            else:
                w[2 + t - half] -= 1
        return tuple(w)

    def _act_gl2(self, label: Label, j: int) -> list[tuple[int, int]]:
        """Action of the gl(2) part on the w_{m-2j} line; returns
        (new j, integer coefficient) pairs."""
        if label[0] == "h":
            i = label[1]
            if i == 1:
                return [(j, self.lam[0] - j)]
            if i == 2:
                return [(j, self.lam[1] + j)]
            return []
        root = label[1]
        if root != Root("a", 1, 2):
            return []
        if label[0] == "e":
            return [(j - 1, j)] if j >= 1 else []
        return [(j + 1, self.m - j)] if j < self.m else []

    def _act_standard(self, label: Label, t: int) -> list[tuple[int, int]]:
        """Action of the sp(2n-4) part on the standard factor."""
        if label[0] == "h":
            i = label[1]
            if i <= 2:
                return []
            half = self.v_dim // 2
            if t < half:
                return [(t, 1)] if t == i - 3 else []
            return [(t, -1)] if t - half == i - 3 else []
        root = label[1]
        if min([root.i] + ([root.j] if root.j else [])) <= 2:
            return []
        mat = self._lie.matrix(label)
        col = self._slots[t]
        return [(t2, mat[r, col]) for t2, r in enumerate(self._slots) if (r, col) in mat]

    def attach(self, lie: LieData) -> "LeviModule":
        self._lie = lie
        return self

    def act(self, label: Label, idx: int) -> list[tuple[int, int]]:
        """Levi / Cartan action on a basis vector, by the Leibniz rule."""
        j, t = self.basis[idx]
        out: dict[int, int] = {}
        for j2, c in self._act_gl2(label, j):
            i2 = self._index[(j2, t)]
            out[i2] = out.get(i2, 0) + c
        if t is not None:
            for t2, c in self._act_standard(label, t):
                i2 = self._index[(j, t2)]
                out[i2] = out.get(i2, 0) + c
        return [(i2, c) for i2, c in sorted(out.items()) if c]


# ---------------------------------------------------------------------------
# generalized Verma modules


Element = dict  # {(word, fidx): Fraction} with word a tuple of letter indices


class GeneralizedVerma:
    """M_p(lam) = U(u^-) tensor F(lam) for the crossed-{2} parabolic.

    Every lowering letter has grade 1 or 2 under the grading element
    E = (1, 1, 0, ..., 0), so a monomial of weight mu has degree at most
    the grade drop E(lam - mu): weight spaces are finite and are listed
    in full."""

    def __init__(self, n: int, lam: Sequence[int], lie: Optional[LieData] = None):
        self.n = n
        self.lam = tuple(lam)
        self.lie = lie if lie is not None else LieData(n)
        self.module = LeviModule(n, lam).attach(self.lie)
        self.parabolic = parabolic_mod.parabolic(n, (2,))
        nil = set(parabolic_mod.nilradical_roots(self.parabolic))
        order = (
            [Root("a", 1, j) for j in range(3, n + 1)]
            + [Root("a", 2, j) for j in range(3, n + 1)]
            + [Root("c", 1, j) for j in range(3, n + 1)]
            + [Root("c", 2, j) for j in range(3, n + 1)]
            + [Root("b", 1), Root("b", 2), Root("c", 1, 2)]
        )
        if set(order) != nil:
            raise AssertionError("nilradical letter list out of sync")
        self.letters: list[Label] = [("y", r) for r in order]
        self._vectors = [r.vector(n) for r in order]
        self._grades = [v[0] + v[1] for v in self._vectors]
        self._letter_index = {lab: i for i, lab in enumerate(self.letters)}
        self._nil = nil

    # -- classification

    def _is_uminus(self, label: Label) -> bool:
        return label[0] == "y" and label[1] in self._nil

    def _is_uplus(self, label: Label) -> bool:
        return label[0] == "e" and label[1] in self._nil

    # -- element arithmetic

    @staticmethod
    def _add(elem: Element, key, coeff: Fraction) -> None:
        if not coeff:
            return
        cur = elem.get(key, 0) + coeff
        if cur:
            elem[key] = cur
        else:
            elem.pop(key, None)

    def zero(self) -> Element:
        return {}

    def highest(self) -> Element:
        return {((), 0): Fraction(1)}

    def monomial(
        self, ys: Sequence[Root], f: tuple[int, Optional[int]], coeff=1
    ) -> Element:
        """Y_{ys[0]} ... Y_{ys[-1]} tensor f, with the product taken in the
        written order and straightened to normal form."""
        fidx = self.module._index[f]
        out: Element = {}
        self._normal_form([("y", r) for r in ys], fidx, Fraction(coeff), out)
        return out

    def combine(self, parts: Iterable[tuple[int, Sequence[Root], tuple]]) -> Element:
        out: Element = {}
        for coeff, ys, f in parts:
            for key, c in self.monomial(ys, f, coeff).items():
                self._add(out, key, c)
        return out

    # -- straightening

    def _normal_form(
        self, word: Sequence[Label], fidx: int, coeff: Fraction, out: Element
    ) -> None:
        work = [(tuple(word), fidx, coeff)]
        while work:
            w, f, c = work.pop()
            if not c:
                continue
            pos = next(
                (i for i in range(len(w) - 1, -1, -1) if not self._is_uminus(w[i])),
                None,
            )
            if pos is not None:
                x = w[pos]
                if pos == len(w) - 1:
                    if self._is_uplus(x):
                        continue  # the nilradical kills F
                    for f2, fc in self.module.act(x, f):
                        work.append((w[:-1], f2, c * fc))
                else:
                    y = w[pos + 1]
                    work.append((w[:pos] + (y, x) + w[pos + 2 :], f, c))
                    for z, zc in self.lie.bracket(x, y):
                        work.append((w[:pos] + (z,) + w[pos + 2 :], f, c * zc))
                continue
            inv = next(
                (
                    i
                    for i in range(len(w) - 1)
                    if self._letter_index[w[i]] > self._letter_index[w[i + 1]]
                ),
                None,
            )
            if inv is None:
                key = (tuple(self._letter_index[l] for l in w), f)
                self._add(out, key, c)
            else:
                x, y = w[inv], w[inv + 1]
                work.append((w[:inv] + (y, x) + w[inv + 2 :], f, c))
                for z, zc in self.lie.bracket(x, y):
                    work.append((w[:inv] + (z,) + w[inv + 2 :], f, c * zc))

    # -- module structure

    def act(self, label: Label, elem: Element) -> Element:
        out: Element = {}
        for (word, f), c in elem.items():
            letters = tuple(self.letters[i] for i in word)
            self._normal_form((label,) + letters, f, c, out)
        return out

    def term_weight(self, key) -> Weight:
        word, f = key
        w = list(self.module.weight(f))
        for i in word:
            root = self.letters[i][1].vector(self.n)
            w = [a - b for a, b in zip(w, root)]
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
        failures = [
            lab
            for lab in simple_raising_labels(self.n)
            if self.act(lab, elem)
        ]
        return not failures, failures

    # -- weight spaces and uniqueness

    def weight_space(self, mu: Sequence[int]) -> list[tuple[tuple, int]]:
        """All basis monomials Y^word tensor f of weight mu: for each f,
        by degree and then by word in lexicographic order."""
        mu = tuple(mu)
        space = []
        for fidx in range(len(self.module.basis)):
            need = tuple(a - b for a, b in zip(self.module.weight(fidx), mu))
            words = sorted(self._words(need), key=lambda w: (len(w), w))
            space += [(word, fidx) for word in words]
        return space

    def _words(self, need: tuple) -> list[tuple]:
        """Non-decreasing letter-index words whose roots sum to need.

        A word is extended only while the grade left, E(rest) = rest_1 +
        rest_2, covers the next letter's grade.  Letters have nonnegative
        first two coordinates, and a letter of grade g moves coordinates
        3..n by at most g in total, so a rest that breaks either bound is
        dropped."""
        found = []

        def extend(start: int, rest: tuple, word: tuple) -> None:
            budget = rest[0] + rest[1]
            if rest[0] < 0 or rest[1] < 0 or sum(map(abs, rest[2:])) > budget:
                return
            if budget == 0:
                found.append(word)  # rest is zero here
                return
            for i in range(start, len(self.letters)):
                if self._grades[i] <= budget:
                    vec = self._vectors[i]
                    extend(i, tuple(a - b for a, b in zip(rest, vec)), word + (i,))

        extend(0, need, ())
        return found

    def maximal_vector_dimension(self, mu: Sequence[int]) -> int:
        """Dimension of the space of maximal vectors of weight mu, by exact
        Gaussian elimination."""
        basis = self.weight_space(mu)
        pivots: dict = {}
        rank = 0
        for key in basis:
            image: dict = {}
            for si, lab in enumerate(simple_raising_labels(self.n)):
                for k2, c in self.act(lab, {key: Fraction(1)}).items():
                    self._add(image, (si, k2), c)
            while image:
                lead = min(image)
                piv = pivots.get(lead)
                if piv is None:
                    break
                factor = image[lead] / piv[lead]
                for k2, c in piv.items():
                    self._add(image, k2, -factor * c)
            if image:
                pivots[min(image)] = image
                rank += 1
        return len(basis) - rank


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


def verify_row(
    row: SingularVectorRow,
    lie: Optional[LieData] = None,
    perturb: bool = False,
    kernel: bool = True,
) -> VerificationResult:
    """Check one catalogue entry: the weights match the first arrow of the
    assembled complex, v is maximal of weight mu, and (optionally) the
    maximal vectors of weight mu form a line.  With perturb=True the last
    coefficient of v is flipped, which must break maximality."""
    n = row.n
    cx = penrose.assemble_singular_bgg(n, row.k, row.sign)
    r = weyl.rho(n)
    d1 = (
        tuple(a - b for a, b in zip(cx.terms[0], r)),
        tuple(a - b for a, b in zip(cx.terms[1], r)),
    )
    d1_match = d1 == (row.lam, row.mu)
    mp = GeneralizedVerma(n, row.lam, lie=lie)
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
    """Verify every (k, sign) first-operator case at rank n."""
    lie = LieData(n)
    out = []
    for k in range(1, n):
        for sign in ("+", "-"):
            out.append(verify_row(singular_vector_row(n, k, sign), lie, kernel=kernel))
    return out
