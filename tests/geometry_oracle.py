"""The Fraction-arithmetic big-cell geometry that `bgg.geometry` replaced.

Test-only reference: every step is a Fraction operation, so it is slow
but plainly right. `bgg.geometry` must return equal values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


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


def _draws(rng: random.Random, count: int) -> list[Fraction]:
    """The draw protocol as specified: rounds of 32 bytes, one
    getrandbits(256) per round read least significant byte first, each
    byte r < 171 kept in order until count are kept, and the kept digit r
    is (r // 9 - 9) / (r % 9 + 1)."""
    digits = []
    while len(digits) < count:
        bits = rng.getrandbits(256)
        for i in range(32):
            r = (bits >> (8 * i)) & 0xFF
            if r < 171:
                digits.append(r)
    return [Fraction(r // 9 - 9, r % 9 + 1) for r in digits[:count]]


def random_point(n: int, rng: random.Random) -> BigCellPoint:
    v = _draws(rng, 4 * (n - 2) + 3)
    a1, a2, c1, c2 = (tuple(v[i * (n - 2) : (i + 1) * (n - 2)]) for i in range(4))
    b1, b2, c12 = v[-3:]
    return BigCellPoint(n, a1, a2, c1, c2, b1, b2, c12)


def random_line(n: int, rng: random.Random) -> list:
    return [Fraction(1)] + _draws(rng, 2 * n - 1)
