"""The Fraction-arithmetic big-cell geometry that `bgg.geometry` replaced.

Test-only reference: every step is a Fraction operation, so it is slow
but plainly right. `bgg.geometry` must return equal values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


@dataclass(frozen=True)
class BigCellPoint:
    n: int
    a1: tuple
    a2: tuple
    c1: tuple
    c2: tuple
    b1: Fraction
    b2: Fraction
    c12: Fraction

    def s_correction(self) -> Fraction:
        total = sum(
            p * q - r * s
            for p, q, r, s in zip(self.a1, self.c2, self.a2, self.c1)
        )
        return Fraction(total, 2)

    def matrix(self) -> list[list[Fraction]]:
        s = self.s_correction()
        rows = [[1, 0], [0, 1]]
        rows += [[p, q] for p, q in zip(self.a1, self.a2)]
        rows += [[self.b1, self.c12 - s]]
        rows += [[self.c12 + s, self.b2]]
        rows += [[p, q] for p, q in zip(self.c1, self.c2)]
        return rows

    def columns(self) -> tuple[list, list]:
        m = self.matrix()
        return [r[0] for r in m], [r[1] for r in m]


def omega(u: Sequence, v: Sequence) -> Fraction:
    n = len(u) // 2
    return sum(u[i] * v[n + i] - u[n + i] * v[i] for i in range(n))


def isotropy_check(point: BigCellPoint) -> bool:
    c1, c2 = point.columns()
    return omega(c1, c2) == 0


def twistor_cover_solve(gamma: Sequence) -> BigCellPoint:
    n = len(gamma) // 2
    g = [Fraction(x) / Fraction(gamma[0]) for x in gamma]
    zeros = (Fraction(0),) * (n - 2)
    point = BigCellPoint(
        n,
        tuple(g[2:n]),
        zeros,
        tuple(g[n + 2 :]),
        zeros,
        g[n] - g[1] * g[n + 1],
        Fraction(0),
        g[n + 1],
    )
    c1, c2 = point.columns()
    recon = [x + g[1] * y for x, y in zip(c1, c2)]
    if recon != g:
        raise AssertionError("twistor line does not lie on the solved plane")
    return point


def random_point(n: int, rng: Optional[random.Random] = None, seed: Optional[int] = None) -> BigCellPoint:
    if rng is None:
        rng = random.Random(seed)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def row():
        return tuple(frac() for _ in range(n - 2))

    return BigCellPoint(n, row(), row(), row(), row(), frac(), frac(), frac())


def random_line(n: int, rng: Optional[random.Random] = None, seed: Optional[int] = None) -> list:
    if rng is None:
        rng = random.Random(seed)
    out = [Fraction(1)]
    out += [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2 * n - 1)]
    return out
