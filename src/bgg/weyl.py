"""Type C_n root system, and its Weyl group named by images of rho.

Weights live in epsilon-coordinates as integer tuples of length n.  The
positive roots are a_ij = e_i - e_j, b_i = 2e_i and c_ij = e_i + e_j for
1 <= i < j <= n; the simple roots are a_{i,i+1} (i < n) and b_n.

A Root is a frozen record.  `shared_root` keeps one Root per (kind, i, j)
per process, in a table bounded at a constant 1024 keys; the orbit rank
tables and `render.from_json` take their roots from it, so a sweep over
n, k and sign builds each root once.  Callers compare roots with ==,
never by identity.

The Weyl group acts by signed permutations, and an element w is fixed
by mu = w(rho), a signed arrangement of (n, ..., 1).  So w is named by
mu alone: `act_from_image` applies it to any weight, and
`inversion_length` is its length (the number of positive roots it sends
negative).  The group as signed permutations, with products, inverses,
reflections and root-counting lengths, and the dominance test for a
Levi factor are kept as the test oracle in tests/weyl_oracle.py.

This is the only layer the crossed-{2} Penrose and Verma code stands
on, and the orbit code adds only the W^p search (`cosets`): there E =
(1, 1, 0, ..., 0), so a conformal weight is w_1 + w_2 and the
nilradical is the positive roots whose vectors have w_1 + w_2 > 0, with
no call into `parabolic`.  The weight families lambda_k (on iGr(2, 2n))
and tilde_lambda (on iGr(1, 2n)) and the operator kinds STANDARD and
NONSTANDARD live here too, so `penrose` loads `weyl` alone and no
Penrose or Verma command loads `cosets` or `orbits`.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import Sequence

Weight = tuple[int, ...]

# kinds of invariant operator: a standard operator is a Hasse arrow, the
# non-standard one bridges the two rows of a Penrose E2 page
STANDARD = "standard"
NONSTANDARD = "nonstandard"


def format_weight(w: Sequence[int]) -> str:
    """A weight, or a placement, as the orbit and Penrose text writers
    print it: (a, b, ...)."""
    return "(" + ", ".join(map(str, w)) + ")"


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


@functools.lru_cache(maxsize=1024, typed=True)
def shared_root(kind: str, i: int, j: int) -> Root:
    """The one Root(kind, i, j) of this process, for the 1024 keys used
    last.  Keyed by the three values and their types (Root("a", True, 2)
    equals Root("a", 1, 2) but is kept apart), so pass all three, j = 0
    for b.  Roots are frozen, so sharing them is safe; compare them with
    ==, since an evicted key is built anew."""
    return Root(kind, i, j)


def positive_roots(n: int) -> list[Root]:
    """All n^2 positive roots, a-type then b-type then c-type."""
    roots = [Root("a", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    roots += [Root("b", i) for i in range(1, n + 1)]
    roots += [Root("c", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return roots


def simple_roots(n: int) -> list[Root]:
    return [Root("a", i, i + 1) for i in range(1, n)] + [Root("b", n)]


def pairing(weight: Sequence[int], root: Root) -> int:
    """<weight, alpha^vee> for a positive root alpha (integer on our lattice)."""
    if root.kind == "a":
        return weight[root.i - 1] - weight[root.j - 1]
    if root.kind == "b":
        return weight[root.i - 1]
    return weight[root.i - 1] + weight[root.j - 1]


# ---------------------------------------------------------------------------
# Weyl group, named by the image of rho


def rho(n: int) -> Weight:
    """Half the sum of the positive roots: (n, n-1, ..., 1)."""
    return tuple(range(n, 0, -1))


def act_from_image(mu: Sequence[int], weight: Sequence[int]) -> Weight:
    """w(weight) for the w with w(rho) = mu.

    rho holds |mu_i| at coordinate n - |mu_i| (counting from 0), so w
    moves that coordinate of any weight to position i and gives it the
    sign of mu_i.
    """
    n = len(mu)
    if len(weight) != n:
        raise ValueError("rank mismatch between mu and weight")
    return tuple([weight[n - x] if x > 0 else -weight[n + x] for x in mu])


def inversion_length(mu: Sequence[int]) -> int:
    """Length of the w with w(rho) = mu, read off mu alone.

    It is the number of positive roots alpha with <mu, alpha^vee> < 0.
    For a signed arrangement of rho this count is the number of pairs
    i < j with mu_i < mu_j plus the sum of |mu_i| over the negative
    entries (Bjorner-Brenti, Combinatorics of Coxeter Groups, 8.1).  The
    pairs are counted right to left, each entry against a sorted list
    of the entries after it, in O(n log n) comparisons.
    """
    after: list[int] = []
    count = 0
    for x in reversed(mu):
        k = bisect.bisect(after, x)
        count += len(after) - k
        after.insert(k, x)
    return count - sum(x for x in mu if x < 0)


# ---------------------------------------------------------------------------
# parabolics


def _groups(n: int, crossed: Sequence[int]) -> list[tuple[int, int]]:
    """Half-open index ranges [start, stop) cut by bars after crossed nodes."""
    cuts = sorted(crossed)
    if any(c < 1 or c > n for c in cuts):
        raise ValueError("crossed nodes out of range")
    bounds = [0] + cuts + ([n] if (not cuts or cuts[-1] != n) else [])
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


# ---------------------------------------------------------------------------
# weight families


def lambda_k(n: int, k: int) -> Weight:
    """The rho-shifted semi-regular weight with k repeated (or trailing 0).

    (n-1, ..., k+1, k, k, k-1, ..., 1) for 1 <= k <= n-1 and
    (n-1, ..., 1, 0) for k = 0.
    """
    if not 0 <= k <= n - 1:
        raise ValueError("k must satisfy 0 <= k <= n-1")
    if k == 0:
        return tuple(range(n - 1, -1, -1))
    return tuple(range(n - 1, k, -1)) + (k, k) + tuple(range(k - 1, 0, -1))


def tilde_lambda(n: int, k: int, sign: str = "+") -> Weight:
    """The rho-shifted twistor weight (±k | n-1, ..., 1) on iGr(1,2n)."""
    if not 0 <= k <= n - 1:
        raise ValueError("k must satisfy 0 <= k <= n-1")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if k == 0 and sign == "-":
        raise ValueError("k = 0 has a single conjugate (sign '+')")
    first = k if sign == "+" else -k
    return (first,) + tuple(range(n - 1, 0, -1))
