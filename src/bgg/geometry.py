"""Affine coordinates on the big cell of iGr(2,2n) and the twistor cover.

A point of the big cell is a 2n x 2 matrix whose columns span an
isotropic 2-plane for omega(u, v) = sum_i (u_i v_{n+i} - u_{n+i} v_i).
The 4(n-2)+3 free parameters match the nilradical letters of the
crossed-{2} parabolic; the symmetric correction S makes the plane
isotropic identically in the parameters.

All arithmetic is exact. Coordinates are ints or Fractions, but the
checks do not compute with Fractions: `_scaled_matrix` puts every
coordinate over one positive common denominator d and returns the matrix
as integer rows M over the scale m = 2 d^2 (S has denominator 2 d^2).
`isotropy_check` and the reconstruction check of `twistor_cover_solve`
work on these integers; a Fraction is built, and normalised once, only
where a public value is returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

Scalar = Fraction  # or int

# Fraction(p, q) for every draw of random_point / random_line; Fractions
# are immutable, so the points share them.
_DRAWS = {(p, q): Fraction(p, q) for p in range(-9, 10) for q in range(1, 10)}


def parameter_count(n: int) -> int:
    """Dimension of the big cell: 4(n-2) + 3."""
    return 4 * (n - 2) + 3


@dataclass(frozen=True)
class BigCellPoint:
    """Affine coordinates (a_1j, a_2j, c_1j, c_2j for j = 3..n, and
    b_1, b_2, c_12) of an isotropic 2-plane; each is an int or a Fraction."""

    n: int
    a1: tuple
    a2: tuple
    c1: tuple
    c2: tuple
    b1: Scalar
    b2: Scalar
    c12: Scalar

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("rank must be at least 2")
        for row in (self.a1, self.a2, self.c1, self.c2):
            if len(row) != self.n - 2:
                raise ValueError("coordinate rows must have length n-2")

    def s_correction(self) -> Scalar:
        """S = (1/2) sum_j (a_1j c_2j - a_2j c_1j)."""
        _, m, s = _scaled_matrix(self)
        return Fraction(s, m)

    def matrix(self) -> list[list[Scalar]]:
        """The 2n x 2 matrix whose columns span the plane."""
        rows, m, _ = _scaled_matrix(self)
        return [[Fraction(x, m), Fraction(y, m)] for x, y in rows]

    def columns(self) -> tuple[list, list]:
        m = self.matrix()
        return [r[0] for r in m], [r[1] for r in m]


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Integers nums and d > 0 with values[i] == nums[i] / d, for ints and
    Fractions (anything with as_integer_ratio)."""
    pairs = [x.as_integer_ratio() for x in values]
    d = 1
    for _, q in pairs:
        if d % q:
            d = lcm(d, q)
    return [p * (d // q) for p, q in pairs], d


def _scaled_matrix(point: BigCellPoint) -> tuple[list[list[int]], int, int]:
    """Integer rows M, a scale m > 0 and an integer s with
    point.matrix() == M / m and point.s_correction() == s / m.

    The only place where the layout of the matrix and S appear.
    """
    # Each coordinate is X / d, so S = T / (2 d^2) with the integer
    # T = sum_j (A_1j C_2j - A_2j C_1j); over m = 2 d^2 a coordinate's
    # numerator is X * 2d and S's numerator is T.
    nums, d = _over_common_denominator(
        (*point.a1, *point.a2, *point.c1, *point.c2, point.b1, point.b2, point.c12)
    )
    k = point.n - 2
    a1, a2, c1, c2 = nums[:k], nums[k : 2 * k], nums[2 * k : 3 * k], nums[3 * k : 4 * k]
    b1, b2, c12 = nums[4 * k :]
    s = sum(p * q - r * t for p, q, r, t in zip(a1, c2, a2, c1))
    u = 2 * d
    m = u * d
    rows = [[m, 0], [0, m]]
    rows += [[p * u, q * u] for p, q in zip(a1, a2)]
    rows += [[b1 * u, c12 * u - s]]
    rows += [[c12 * u + s, b2 * u]]
    rows += [[p * u, q * u] for p, q in zip(c1, c2)]
    return rows, m, s


def omega(u: Sequence, v: Sequence) -> Scalar:
    """The standard symplectic form on C^{2n}."""
    if len(u) != len(v) or len(u) % 2:
        raise ValueError("vectors must have equal even length")
    n = len(u) // 2
    return sum(u[i] * v[n + i] - u[n + i] * v[i] for i in range(n))


def isotropy_check(point: BigCellPoint) -> bool:
    """Whether the spanned plane is omega-isotropic (exact).

    omega of the integer columns of M is m^2 times omega of the plane's
    columns, and m > 0, so one is zero exactly when the other is.
    """
    rows, _, _ = _scaled_matrix(point)
    return omega([r[0] for r in rows], [r[1] for r in rows]) == 0


def twistor_cover_solve(gamma: Sequence) -> BigCellPoint:
    """The canonical isotropic plane through the line spanned by gamma.

    The entries of gamma are ints or Fractions. Requires gamma_1 != 0;
    after normalizing gamma_1 = 1 the solution has
    a_2j = c_2j = b_2 = 0, a_1j = gamma_j, c_1j = gamma_{n+j},
    c_12 = gamma_{n+2}, b_1 = gamma_{n+1} - gamma_2 gamma_{n+2}, and
    satisfies C_1 + gamma_2 C_2 = gamma.
    """
    if len(gamma) % 2:
        raise ValueError("gamma must have even length")
    n = len(gamma) // 2
    if n < 2:
        raise ValueError("rank must be at least 2")
    if gamma[0] == 0:
        raise ValueError("the solve chart needs gamma_1 != 0")
    # gamma / gamma_1 == g / g0 with integers g and g0 = g[0].
    g, _ = _over_common_denominator(gamma)
    g0 = g[0]
    zeros = (Fraction(0),) * (n - 2)
    point = BigCellPoint(
        n,
        tuple(Fraction(x, g0) for x in g[2:n]),
        zeros,
        tuple(Fraction(x, g0) for x in g[n + 2 :]),
        zeros,
        Fraction(g[n] * g0 - g[1] * g[n + 1], g0 * g0),
        Fraction(0),
        Fraction(g[n + 1], g0),
    )
    # C_1 + (g[1] / g0) C_2 == g / g0, times m * g0.
    rows, m, _ = _scaled_matrix(point)
    if any(x * g0 + g[1] * y != gi * m for (x, y), gi in zip(rows, g)):
        raise AssertionError("twistor line does not lie on the solved plane")
    return point


def random_point(n: int, rng: Optional[random.Random] = None, seed: Optional[int] = None) -> BigCellPoint:
    """A seeded random rational point of the big cell."""
    if rng is None:
        rng = random.Random(seed)

    def frac():
        return _DRAWS[rng.randint(-9, 9), rng.randint(1, 9)]

    def row():
        return tuple(frac() for _ in range(n - 2))

    return BigCellPoint(n, row(), row(), row(), row(), frac(), frac(), frac())


def random_line(n: int, rng: Optional[random.Random] = None, seed: Optional[int] = None) -> list:
    """A seeded random rational vector in C^{2n} with first coordinate 1."""
    if rng is None:
        rng = random.Random(seed)
    out = [Fraction(1)]
    out += [_DRAWS[rng.randint(-9, 9), rng.randint(1, 9)] for _ in range(2 * n - 1)]
    return out
