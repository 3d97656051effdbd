"""Type C_n root system and Weyl group as signed permutations.

Weights live in epsilon-coordinates as integer tuples of length n.  The
positive roots are a_ij = e_i - e_j, b_i = 2e_i and c_ij = e_i + e_j for
1 <= i < j <= n; the simple roots are a_{i,i+1} (i < n) and b_n.  A Weyl
group element w = (perm, signs) acts by

    w(lam)[i] = signs[i] * lam[perm^{-1}(i)]

so perm moves positions and signs flips the results in place.  Lengths
are counted as the number of positive roots sent negative (`length`), or
equivalently as the inversions of w(rho) (`inversion_length`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

Weight = tuple[int, ...]

REGULAR = "regular"
SEMIREGULAR = "semi-regular"
SINGULAR = "singular"

FOR_G = "g"
FOR_LEVI = "levi"
STRICTLY_FOR_LEVI = "levi-strict"


# ---------------------------------------------------------------------------
# roots


@dataclass(frozen=True, order=True)
class Root:
    """A positive root: kind 'a', 'b' or 'c' with indices i (< j for a, c)."""

    kind: str
    i: int
    j: int = 0

    def vector(self, n: int) -> Weight:
        v = [0] * n
        if self.kind == "a":
            v[self.i - 1], v[self.j - 1] = 1, -1
        elif self.kind == "b":
            v[self.i - 1] = 2
        elif self.kind == "c":
            v[self.i - 1], v[self.j - 1] = 1, 1
        else:
            raise ValueError(f"unknown root kind {self.kind!r}")
        return tuple(v)

    def label(self) -> str:
        if self.kind == "b":
            return f"b{self.i}"
        if self.i < 10 and self.j < 10:
            return f"{self.kind}{self.i}{self.j}"
        return f"{self.kind}{self.i},{self.j}"


def positive_roots(n: int) -> list[Root]:
    """All n^2 positive roots, a-type then b-type then c-type."""
    roots = [Root("a", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    roots += [Root("b", i) for i in range(1, n + 1)]
    roots += [Root("c", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return roots


def simple_roots(n: int) -> list[Root]:
    return [Root("a", i, i + 1) for i in range(1, n)] + [Root("b", n)]


def simple_coefficient(root: Root, m: int, n: int) -> int:
    """Coefficient of the m-th simple root in the expansion of a positive root.

    For m < n this is the sum of the first m epsilon-coordinates; for
    m = n it is half the sum of all of them.
    """
    v = root.vector(n)
    if m < n:
        return sum(v[:m])
    return sum(v) // 2


def pairing(weight: Sequence[int], root: Root) -> int:
    """<weight, alpha^vee> for a positive root alpha (integer on our lattice)."""
    if root.kind == "a":
        return weight[root.i - 1] - weight[root.j - 1]
    if root.kind == "b":
        return weight[root.i - 1]
    return weight[root.i - 1] + weight[root.j - 1]


# ---------------------------------------------------------------------------
# Weyl group


@dataclass(frozen=True, order=True)
class WeylElement:
    """Signed permutation: perm[j-1] is the image of position j, signs[i-1]
    the sign applied at position i of the result."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.perm)

    def inverse_perm(self) -> tuple[int, ...]:
        q = [0] * self.n
        for j, image in enumerate(self.perm, start=1):
            q[image - 1] = j
        return tuple(q)


def identity(n: int) -> WeylElement:
    return WeylElement(tuple(range(1, n + 1)), (1,) * n)


def standard_action(w: WeylElement, weight: Sequence[int]) -> Weight:
    """Apply w to a weight in epsilon-coordinates."""
    if len(weight) != w.n:
        raise ValueError("rank mismatch between element and weight")
    q = w.inverse_perm()
    return tuple(w.signs[i] * weight[q[i] - 1] for i in range(w.n))


def compose(w1: WeylElement, w2: WeylElement) -> WeylElement:
    """w1 after w2: (w1*w2)(lam) = w1(w2(lam))."""
    if w1.n != w2.n:
        raise ValueError("rank mismatch")
    n = w1.n
    perm = tuple(w1.perm[w2.perm[j] - 1] for j in range(n))
    q1 = w1.inverse_perm()
    signs = tuple(w1.signs[i] * w2.signs[q1[i] - 1] for i in range(n))
    return WeylElement(perm, signs)


def inverse(w: WeylElement) -> WeylElement:
    signs = tuple(w.signs[w.perm[j] - 1] for j in range(w.n))
    return WeylElement(w.inverse_perm(), signs)


def reflection(root: Root, n: int) -> WeylElement:
    """The reflection through a positive root, as a signed permutation."""
    perm = list(range(1, n + 1))
    signs = [1] * n
    if root.kind == "a":
        perm[root.i - 1], perm[root.j - 1] = root.j, root.i
    elif root.kind == "b":
        signs[root.i - 1] = -1
    elif root.kind == "c":
        perm[root.i - 1], perm[root.j - 1] = root.j, root.i
        signs[root.i - 1] = signs[root.j - 1] = -1
    return WeylElement(tuple(perm), tuple(signs))


def reflect(weight: Sequence[int], root: Root) -> Weight:
    """s_alpha(weight) for a positive root alpha, without building s_alpha."""
    v = list(weight)
    i, j = root.i - 1, root.j - 1
    if root.kind == "a":
        v[i], v[j] = v[j], v[i]
    elif root.kind == "b":
        v[i] = -v[i]
    else:
        v[i], v[j] = -v[j], -v[i]
    return tuple(v)


def as_reflection(w: WeylElement) -> Optional[Root]:
    """Recognize w as the reflection through a positive root, if it is one."""
    n = w.n
    moved = [j for j in range(1, n + 1) if w.perm[j - 1] != j]
    flips = [i for i in range(1, n + 1) if w.signs[i - 1] == -1]
    if not moved:
        if len(flips) == 1:
            return Root("b", flips[0])
        return None
    if len(moved) != 2:
        return None
    i, j = moved
    if w.perm[i - 1] != j or w.perm[j - 1] != i:
        return None
    if not flips:
        return Root("a", i, j)
    if flips == [i, j]:
        return Root("c", i, j)
    return None


def rho(n: int) -> Weight:
    """Half the sum of the positive roots: (n, n-1, ..., 1)."""
    return tuple(range(n, 0, -1))


def affine_action(w: WeylElement, weight: Sequence[int]) -> Weight:
    """The rho-shifted (dot) action w.lam = w(lam + rho) - rho."""
    r = rho(w.n)
    shifted = tuple(x + y for x, y in zip(weight, r))
    return tuple(x - y for x, y in zip(standard_action(w, shifted), r))


def _vector_is_negative(v: Sequence[int]) -> bool:
    for x in v:
        if x:
            return x < 0
    return False


def length(w: WeylElement) -> int:
    """Number of positive roots sent to negative roots by w."""
    n = w.n
    return sum(
        1
        for root in positive_roots(n)
        if _vector_is_negative(standard_action(w, root.vector(n)))
    )


def inversion_length(mu: Sequence[int]) -> int:
    """Length of the w with w(rho) = mu, read off mu alone.

    It is the number of positive roots alpha with <mu, alpha^vee> < 0.
    For a signed arrangement of rho this count is the number of pairs
    i < j with mu_i < mu_j plus the sum of |mu_i| over the negative
    entries (Bjorner-Brenti, Combinatorics of Coxeter Groups, 8.1).
    """
    ascents = sum(a < b for a, b in itertools.combinations(mu, 2))
    return ascents - sum(x for x in mu if x < 0)


def arrow(w: WeylElement, w2: WeylElement) -> Optional[Root]:
    """The positive root alpha with w2 = s_alpha * w and l(w2) = l(w) + 1.

    Returns None when the pair is not arrow-related; alpha need not be
    simple.
    """
    if w.n != w2.n or w == w2:
        return None
    root = as_reflection(compose(w2, inverse(w)))
    if root is None:
        return None
    if length(w2) != length(w) + 1:
        return None
    return root


def all_elements(n: int) -> Iterator[WeylElement]:
    """Exhaustive enumeration of the 2^n n! signed permutations (small n)."""
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield WeylElement(perm, signs)


def from_regular_image(mu: Sequence[int]) -> WeylElement:
    """The unique w with w(rho) = mu, for mu a signed arrangement of rho."""
    n = len(mu)
    if sorted(abs(x) for x in mu) != list(range(1, n + 1)):
        raise ValueError("not a signed arrangement of (n, ..., 1)")
    perm = [0] * n
    signs = [1] * n
    for i, x in enumerate(mu, start=1):
        perm[n - abs(x)] = i
        signs[i - 1] = 1 if x > 0 else -1
    return WeylElement(tuple(perm), tuple(signs))


# ---------------------------------------------------------------------------
# weight classification and dominance


def classify(weight: Sequence[int]) -> str:
    """Regular, semi-regular or singular for the C_n reflection action.

    Regular: absolute values all distinct and nonzero.  Semi-regular:
    exactly one coincidence |x_i| = |x_j| and no zero, or exactly one
    zero and no coincidence.  Singular: anything worse.
    """
    zeros = sum(1 for x in weight if x == 0)
    absvals = [abs(x) for x in weight]
    coincidences = sum(
        1
        for i in range(len(weight))
        for j in range(i + 1, len(weight))
        if absvals[i] == absvals[j]
    )
    if zeros == 0 and coincidences == 0:
        return REGULAR
    if (zeros, coincidences) in ((0, 1), (1, 0)):
        return SEMIREGULAR
    return SINGULAR


def _groups(n: int, crossed: Sequence[int]) -> list[tuple[int, int]]:
    """Half-open index ranges [start, stop) cut by bars after crossed nodes."""
    cuts = sorted(crossed)
    if any(c < 1 or c > n for c in cuts):
        raise ValueError("crossed nodes out of range")
    bounds = [0] + cuts + ([n] if (not cuts or cuts[-1] != n) else [])
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def is_dominant(
    weight: Sequence[int],
    crossed: Sequence[int] = (),
    mode: str = FOR_G,
) -> bool:
    """Dominance of a weight, for g or for the Levi factor of a parabolic.

    FOR_G ignores crossed and asks for x_1 >= ... >= x_n >= 0.  The Levi
    modes cut the coordinates into groups by putting a bar after the
    i-th coordinate for each crossed node i; coordinates must descend in
    each group (strictly for STRICTLY_FOR_LEVI) and the group after the
    last bar must in addition be positive (strictly, resp. >= 0).  A bar
    after the last coordinate removes the positivity condition.
    """
    n = len(weight)
    if mode == FOR_G:
        return all(weight[i] >= weight[i + 1] for i in range(n - 1)) and (
            n == 0 or weight[-1] >= 0
        )
    if mode not in (FOR_LEVI, STRICTLY_FOR_LEVI):
        raise ValueError(f"unknown dominance mode {mode!r}")
    strict = mode == STRICTLY_FOR_LEVI
    groups = _groups(n, crossed)
    has_trailing_bar = bool(crossed) and max(crossed) == n
    for gi, (start, stop) in enumerate(groups):
        seg = weight[start:stop]
        for a, b in zip(seg, seg[1:]):
            if a < b or (strict and a == b):
                return False
        is_last_open_group = (gi == len(groups) - 1) and not has_trailing_bar
        if is_last_open_group and seg:
            if seg[-1] < 0 or (strict and seg[-1] == 0):
                return False
    return True
