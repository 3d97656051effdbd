"""The signed-permutation Weyl group that `bgg` no longer carries.

Test-only reference.  `bgg` names a Weyl element w by mu = w(rho) and
reads everything it needs off mu; here w is a signed permutation with
its own product, inverse, reflections and root-counting length, so the
fast paths can be checked against plain group theory.  A root's
coefficients on the simple roots, the fundamental coweights that read
them off a root's vector, and the pairing <w, alpha^vee> computed from
the root's vector are kept here too: the test oracles grade roots and
weights with them, never with the integer 2E that `bgg.cosets` grades
its arrows with.  So is dominance for the Levi factor of a parabolic,
the reference for the placement rule `bgg.orbits` reads its nodes off.

An element w = (perm, signs) acts by

    w(lam)[i] = signs[i] * lam[perm^{-1}(i)]

so perm moves positions and signs flips the results in place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from bgg import weyl
from bgg.weyl import Root, Weight


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


def simple_coefficient(root: Root, m: int, n: int) -> int:
    """Coefficient of the m-th simple root in the expansion of a positive root.

    For m < n this is the sum of the first m epsilon-coordinates; for
    m = n it is half the sum of all of them.
    """
    v = root.vector(n)
    if m < n:
        return sum(v[:m])
    return sum(v) // 2


def coweight(m: int, n: int) -> tuple:
    """The fundamental coweight omega_m^vee in epsilon-coordinates, whose
    dot product with a root's vector is `simple_coefficient(root, m, n)`:
    1 on the first m coordinates for m < n, and 1/2 on all n for m = n."""
    if m < n:
        return (1,) * m + (0,) * (n - m)
    return (Fraction(1, 2),) * n


def pairing(weight: Sequence[int], root: Root) -> int:
    """<weight, alpha^vee> = 2 (weight, alpha) / (alpha, alpha), from the
    root's vector; an integer on the weight lattice."""
    v = root.vector(len(weight))
    return 2 * sum(a * b for a, b in zip(weight, v)) // sum(a * a for a in v)


FOR_LEVI = "levi"
STRICTLY_FOR_LEVI = "levi-strict"


def is_dominant(
    weight: Sequence[int],
    crossed: Sequence[int],
    mode: str = STRICTLY_FOR_LEVI,
) -> bool:
    """Dominance of a weight for the Levi factor of a parabolic.

    The coordinates are cut into groups by a bar after the i-th
    coordinate for each crossed node i; coordinates must descend in each
    group (strictly for STRICTLY_FOR_LEVI) and the group after the last
    bar must in addition be positive (strictly, resp. >= 0).  A bar after
    the last coordinate removes the positivity condition.
    """
    if mode not in (FOR_LEVI, STRICTLY_FOR_LEVI):
        raise ValueError(f"unknown dominance mode {mode!r}")
    n = len(weight)
    if any(c < 1 or c > n for c in crossed):  # `weyl._groups` reads them unchecked
        raise ValueError("crossed nodes out of range")
    strict = mode == STRICTLY_FOR_LEVI
    groups = weyl._groups(n, crossed)
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


def affine_action(w: WeylElement, weight: Sequence[int]) -> Weight:
    """The rho-shifted (dot) action w.lam = w(lam + rho) - rho."""
    r = weyl.rho(w.n)
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
        for root in weyl.positive_roots(n)
        if _vector_is_negative(standard_action(w, root.vector(n)))
    )


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


def singular_conjugates(shifted: Sequence[int], crossed: Sequence[int]) -> set[Weight]:
    """All strictly Levi-dominant images of a weight under the full Weyl
    group, by direct orbit enumeration (small n only)."""
    shifted = tuple(shifted)
    n = len(shifted)
    found = set()
    for perm in set(itertools.permutations(shifted)):
        for signs in itertools.product((1, -1), repeat=n):
            image = tuple(s * v for s, v in zip(signs, perm))
            if is_dominant(image, crossed):
                found.add(image)
    return found
