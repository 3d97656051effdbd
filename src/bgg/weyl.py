"""Type C_n root system, and its Weyl group named by images of rho.

Weights live in epsilon-coordinates as integer tuples of length n.  The
positive roots are a_ij = e_i - e_j, b_i = 2e_i and c_ij = e_i + e_j for
1 <= i < j <= n; the simple roots are a_{i,i+1} (i < n) and b_n.

A Root is a frozen record, not ordered.  The orbit rank tables and
`render.from_json` take their roots from `shared_root`, so a sweep over
n, k and sign builds each root once; callers compare roots with ==.

The Weyl group acts by signed permutations, and an element w is fixed
by mu = w(rho), a signed arrangement of (n, ..., 1).  So w is named by
mu alone: `weyl.act_from_image` applies it to any weight.

This is the only layer the crossed-{2} Penrose and Verma code stands
on, and the orbit code adds only the W^p search (`cosets`): there E =
(1, 1, 0, ..., 0), so a conformal weight is w_1 + w_2 and the
nilradical is the positive roots whose vectors have w_1 + w_2 > 0, with
no call into `parabolic`.  The weight families lambda_k (on iGr(2, 2n))
and tilde_lambda (on iGr(1, 2n)) and the operator kinds STANDARD and
NONSTANDARD live here too, so `penrose` loads `weyl` alone and no
Penrose or Verma command loads `cosets` or `orbits`.

Four input rules on (n, k, sign) are raised here alone, and every layer
checks them in this order: _check_ints, _check_rank (n >= 2),
_check_sign and _check_window (0 <= k <= n-1).  The proven window
1 <= k <= n-1 is `penrose._validate`'s, the catalogue's n >= 3 `verma`'s
and the crossed nodes `parabolic.Parabolic`'s (README, "Input rules").
"""

from __future__ import annotations

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


@dataclass(frozen=True)
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


# ---------------------------------------------------------------------------
# parabolics


def _groups(n: int, crossed: Sequence[int]) -> list[tuple[int, int]]:
    """Half-open index ranges [start, stop) cut by bars after crossed nodes
    in 1..n, as `parabolic.Parabolic` checks them."""
    cuts = sorted(crossed)
    bounds = [0] + cuts + ([n] if (not cuts or cuts[-1] != n) else [])
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


# ---------------------------------------------------------------------------
# weight families, and the input rules each raised here alone


def _check_ints(*values) -> None:
    """The int rule: n and k are ints, not a bool or a float."""
    if any(type(v) is not int for v in values):
        raise ValueError("n and k must be ints")


def _check_rank(n: int, *ks: int) -> None:
    """The int rule on n and ks, then the rank rule: n >= 2 for iGr(2, 2n)."""
    _check_ints(n, *ks)
    if n < 2:
        raise ValueError("rank must be at least 2")


def _check_sign(sign: str) -> None:
    """The sign rule: a twistor weight's first entry is +k or -k."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")


def _check_window(n: int, k: int) -> None:
    """The window of lambda_k and tilde_lambda: 0 <= k <= n-1."""
    if not 0 <= k <= n - 1:
        raise ValueError("k must satisfy 0 <= k <= n-1")


def lambda_k(n: int, k: int) -> Weight:
    """The rho-shifted semi-regular weight with k repeated (or trailing 0).

    (n-1, ..., k+1, k, k, k-1, ..., 1) for 1 <= k <= n-1 and
    (n-1, ..., 1, 0) for k = 0.
    """
    _check_rank(n, k)
    _check_window(n, k)
    if k == 0:
        return tuple(range(n - 1, -1, -1))
    return tuple(range(n - 1, k, -1)) + (k, k) + tuple(range(k - 1, 0, -1))


def tilde_lambda(n: int, k: int, sign: str = "+") -> Weight:
    """The rho-shifted twistor weight (±k | n-1, ..., 1) on iGr(1,2n)."""
    _check_rank(n, k)
    _check_sign(sign)
    _check_window(n, k)
    if k == 0 and sign == "-":
        raise ValueError("k = 0 has a single conjugate (sign '+')")
    first = k if sign == "+" else -k
    return (first,) + tuple(range(n - 1, 0, -1))
