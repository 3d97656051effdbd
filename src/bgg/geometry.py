"""Affine coordinates on the big cell of iGr(2,2n) and the twistor cover.

A point of the big cell is a 2n x 2 matrix whose columns span an
isotropic 2-plane for omega(u, v) = sum_i (u_i v_{n+i} - u_{n+i} v_i).
The 4(n-2)+3 free parameters match the nilradical letters of the
crossed-{2} parabolic; the symmetric correction S makes the plane
isotropic identically in the parameters.

All arithmetic is exact.  A `BigCellPoint` is its canonical integers:
`numerators` in field order (a1, a2, c1, c2, b1, b2, c12) over
`denominator` d, the least positive one, so gcd(numerators, d) == 1.
Points are equal, and hash alike, exactly when their (n, numerators, d)
are, however they were built.  `_over_lcm` is the one place where
reduced ratios become numerators over their lcm, and `_point` is the
one unchecked constructor: `random_point` and `twistor_cover_solve`
build through it from integers.

A point's integer layout, `_layout(n, numerators, d)`, is the only
place where the layout of the matrix and S appear.  It gives the
plane's two columns as integer lists x and y over the scale m = 2 d^2,
and S as s / m.  The public values (the fields a1 ... c12, `matrix()`,
`columns()`, `s_correction()`) build their Fractions on each read, from
the numerators or a fresh layout.

Both chart identities are proved once per rank, not tested per point.
`_layout`, `omega` and `_solution` use only ring operations, so run on
`_Poly` variables they give polynomials with integer coefficients, and
a zero polynomial vanishes at every point.  `_isotropic(n)` proves
omega(x, y) = 0 in the numerators and d, and `isotropy_check(point)`
returns that verdict for point.n without laying out the point.
`_reconstructs(n)` proves, in the 2n entries g of an integer line, that
the layout of `_solution(n, g)` satisfies C_1 + (g1/g0) C_2 = g/g0, and
that `_layout` is homogeneous of degree 2 in (numerators, d).  A solve
divides `_solution`'s integers by their gcd r, which is not a ring
operation; by homogeneity that divides the layout by r^2, and the
reconstruction identity is linear in the layout, so the reduced plane
satisfies it too.  `twistor_cover_solve` reads the verdict and lays out
nothing.  Neither path builds a Fraction.

The public constructor takes ints or Fractions (finite floats too, at
their exact value); a value that is not a number raises TypeError and a
NaN or infinity ValueError, naming the coordinate.

Random points (`random_point(n, rng)`, `random_line(n, rng)`) draw from
the caller's `random.Random`, which is required, so every draw is
seeded.  Each coordinate is drawn uniformly from the 171 values p/q
with p = -9..9 and q = 1..9: digit r = 0..170 stands for
Fraction(r // 9 - 9, r % 9 + 1).  A draw of count digits reads rounds
of 32 bytes, rng.getrandbits(256) in little-endian order, and keeps
each byte below 171, in order, until count bytes are kept; it uses the
first count.  A kept byte is uniform over 0..170.  `random_point` takes
its 4(n-2) + 3 values in field order (a1, a2, c1, c2, b1, b2, c12), and
`random_line` takes 2n - 1 values after its leading 1.  Only integers
enter a draw: no call to random() or randrange.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

Scalar = Fraction  # or int

# The value of each digit of a draw, as a Fraction for `random_line`
# and as its reduced (p, q) for `random_point`; Fractions are immutable,
# so the lines share them.
_DRAWS = [Fraction(r // 9 - 9, r % 9 + 1) for r in range(171)]
_PAIRS = [x.as_integer_ratio() for x in _DRAWS]
_ROUND = 32  # random bytes per getrandbits call of a draw
_REJECTED = bytes(range(len(_DRAWS), 256))  # the bytes a draw drops
_ONE = Fraction(1)  # the leading entry of every `random_line`

_FIELDS = ("a1", "a2", "c1", "c2", "b1", "b2", "c12")


def parameter_count(n: int) -> int:
    """Dimension of the big cell: 4(n-2) + 3."""
    return 4 * (n - 2) + 3


def _check_rank(n: int) -> None:
    """`weyl`'s rank rule, copied since this layer loads no other."""
    if n < 2:
        raise ValueError("rank must be at least 2")


def _ratios(values: Sequence, name: Callable[[int], str]) -> list[tuple[int, int]]:
    """The exact (p, q) of each value; a value that has none raises,
    naming coordinate i as name(i)."""
    try:
        return [x.as_integer_ratio() for x in values]
    except (AttributeError, ValueError, OverflowError):
        for i, x in enumerate(values):
            try:
                x.as_integer_ratio()
            except AttributeError:
                raise TypeError(
                    f"coordinate {name(i)} must be an int or a Fraction, not {type(x).__name__}"
                ) from None
            except (ValueError, OverflowError):
                raise ValueError(f"coordinate {name(i)} is not a finite number: {x!r}") from None
        raise


def _over_lcm(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Numerators over d for reduced ratios (p, q): as each is reduced,
    their lcm d is the least common denominator."""
    d = lcm(*[q for _, q in pairs])
    return [p * (d // q) for p, q in pairs], d


def _field(i: int) -> property:
    def read(self):
        k, d = self._n - 2, self._d
        if i < 4:
            return tuple([Fraction(x, d) for x in self._nums[i * k : (i + 1) * k]])
        return Fraction(self._nums[4 * k + i - 4], d)

    return property(read, doc=f"{_FIELDS[i]}, as Fractions")


class BigCellPoint:
    """Affine coordinates (a_1j, a_2j, c_1j, c_2j for j = 3..n, and
    b_1, b_2, c_12) of an isotropic 2-plane, held as integer numerators
    over their least positive common denominator.

    BigCellPoint(n, a1, a2, c1, c2, b1, b2, c12) takes the four rows as
    sequences of length n - 2 and every coordinate as an int or a
    Fraction.  a1, a2, c1 and c2 read back as tuples of Fractions, b1,
    b2 and c12 as Fractions.
    """

    __slots__ = ("_n", "_nums", "_d")

    def __init__(self, n: int, a1, a2, c1, c2, b1, b2, c12):
        _check_rank(n)
        k = n - 2
        if any(len(row) != k for row in (a1, a2, c1, c2)):
            raise ValueError("coordinate rows must have length n-2")

        def name(i):
            return f"{_FIELDS[i // k]}[{i % k}]" if i < 4 * k else _FIELDS[i - 4 * k + 4]

        nums, d = _over_lcm(_ratios([*a1, *a2, *c1, *c2, b1, b2, c12], name))
        self._n, self._nums, self._d = n, tuple(nums), d

    @property
    def n(self) -> int:
        return self._n

    @property
    def numerators(self) -> tuple[int, ...]:
        """The coordinates times d, in field order."""
        return self._nums

    @property
    def denominator(self) -> int:
        """d: the least positive common denominator of the coordinates."""
        return self._d

    def __eq__(self, other):
        if not isinstance(other, BigCellPoint):
            return NotImplemented
        return self._n == other._n and self._d == other._d and self._nums == other._nums

    def __hash__(self):
        return hash((self._n, self._nums, self._d))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in ("n", *_FIELDS))
        return f"BigCellPoint({args})"

    a1, a2, c1, c2, b1, b2, c12 = (_field(i) for i in range(7))

    def s_correction(self) -> Scalar:
        """S = (1/2) sum_j (a_1j c_2j - a_2j c_1j)."""
        _, _, m, s = _layout(self._n, self._nums, self._d)
        return Fraction(s, m)

    def matrix(self) -> list[list[Scalar]]:
        """The 2n x 2 matrix whose columns span the plane."""
        return [[p, q] for p, q in zip(*self.columns())]

    def columns(self) -> tuple[list, list]:
        x, y, m, _ = _layout(self._n, self._nums, self._d)
        return [Fraction(v, m) for v in x], [Fraction(v, m) for v in y]


def _point(n: int, nums: Sequence[int], d: int) -> BigCellPoint:
    """The point with these numerators over d, which must be canonical:
    d > 0 and gcd(nums, d) == 1.  No checks."""
    point = BigCellPoint.__new__(BigCellPoint)
    point._n, point._nums, point._d = n, tuple(nums), d
    return point


def _layout(n: int, nums: Sequence[int], d: int) -> tuple[list[int], list[int], int, int]:
    """Integer columns x and y, a scale m > 0 and an integer s with
    columns() == (x / m, y / m) and s_correction() == s / m for the
    point whose coordinates are nums / d.

    The only place where the layout of the matrix and S appear.
    """
    # Each coordinate is X / d, so S = T / (2 d^2) with the integer T
    # below; over m = 2 d^2 a coordinate's numerator is X * 2d.
    k = n - 2
    s = sum(map(mul, nums[:k], nums[3 * k : 4 * k]))  # T = sum_j A_1j C_2j
    s -= sum(map(mul, nums[k : 2 * k], nums[2 * k : 3 * k]))  # - A_2j C_1j
    u = 2 * d
    m = u * d
    v = list(map(mul, nums, repeat(u)))
    b1, b2, c12 = v[4 * k :]
    # rows e_1, e_2, (a_1j, a_2j), (b1, c12 - S), (c12 + S, b2), (c_1j, c_2j)
    x = [m, 0, *v[:k], b1, c12 + s, *v[2 * k : 3 * k]]
    y = [0, m, *v[k : 2 * k], c12 - s, b2, *v[3 * k : 4 * k]]
    return x, y, m, s


def omega(u: Sequence, v: Sequence) -> Scalar:
    """The standard symplectic form on C^{2n}."""
    if len(u) != len(v) or len(u) % 2:
        raise ValueError("vectors must have equal even length")
    n = len(u) // 2
    return sum(map(mul, u[:n], v[n:])) - sum(map(mul, u[n:], v[:n]))


class _Poly(dict):
    """A polynomial with integer coefficients: monomial -> nonzero
    coefficient, where a monomial is the sorted tuple of its variables'
    indices, each repeated by its exponent.  It has +, - and * with
    another _Poly or an int, on either side (`sum` starts from 0, and
    `_layout` puts an int 0 in its columns).  The zero polynomial is the
    empty dict, so it is false.
    """

    __slots__ = ()

    def _terms(self, other):
        return other.items() if isinstance(other, _Poly) else [((), other)]

    def _plus(self, other, sign):
        out = dict(self)
        for mono, c in self._terms(other):
            out[mono] = out.get(mono, 0) + sign * c
        return _Poly({mono: c for mono, c in out.items() if c})

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return self * -1 + other

    def __mul__(self, other):
        out = {}
        for mono, c in self._terms(other):
            for own, e in self.items():
                key = tuple(sorted(own + mono))
                out[key] = out.get(key, 0) + e * c
        return _Poly({mono: c for mono, c in out.items() if c})

    __radd__ = __add__
    __rmul__ = __mul__


@lru_cache(maxsize=8)
def _isotropic(n: int) -> bool:
    """Whether omega(x, y) of `_layout`'s columns is the zero polynomial
    in the 4(n-2) + 3 numerators and d of rank n.  Both functions use
    only ring operations, so it is zero at every point of rank n exactly
    when it is zero as a polynomial."""
    count = parameter_count(n)
    *nums, d = (_Poly({(i,): 1}) for i in range(count + 1))
    x, y, _, _ = _layout(n, nums, d)
    return not omega(x, y)


def isotropy_check(point: BigCellPoint) -> bool:
    """Whether the spanned plane is omega-isotropic (exact): the rank's
    certificate `_isotropic(point.n)`.

    omega of the integer columns x, y is m^2 times omega of the plane's
    columns, and m > 0, so one is zero exactly when the other is; the
    certificate proves the first zero at every point of the rank.
    """
    return _isotropic(point.n)


def _solution(n: int, g: Sequence) -> tuple[list, object]:
    """The plane through the line g, for g[0] != 0, as numerators over
    d = g0^2 before reduction.  Only ring operations, so it runs on ints
    for a line and on `_Poly` variables for `_reconstructs`."""
    g0, g1 = g[0], g[1]
    zeros = [0] * (n - 2)
    nums = [x * g0 for x in g[2:n]]
    nums += zeros
    nums += [x * g0 for x in g[n + 2 :]]
    nums += zeros
    nums += [g[n] * g0 - g1 * g[n + 1], 0, g[n + 1] * g0]
    return nums, g0 * g0


@lru_cache(maxsize=8)
def _reconstructs(n: int) -> bool:
    """Whether every plane `_solution` solves at rank n, and every
    rescaling of it, contains its line: two polynomial identities in the
    2n entries of g and one more variable t.

    - x_i g0 + g1 y_i - g_i m is zero for every row i of the layout of
      `_solution(n, g)`: C_1 + (g1 / g0) C_2 == g / g0 over m g0.
    - `_layout(n, t nums, t d)` is t^2 times `_layout(n, nums, d)`,
      entry by entry, m and s included.

    A solve divides the numerators and d by r = gcd(nums, d); by the
    second identity at t = 1 / r its layout is the first one's over r^2,
    and the first identity is linear in (x, y, m), so it holds there too.
    """
    *g, t = (_Poly({(i,): 1}) for i in range(2 * n + 1))
    nums, d = _solution(n, g)
    x, y, m, s = _layout(n, nums, d)
    if any(p * g[0] + g[1] * q - gi * m for p, q, gi in zip(x, y, g)):
        return False
    tx, ty, tm, ts = _layout(n, [t * v for v in nums], t * d)
    t2 = t * t
    return not any(a - t2 * b for a, b in zip([*tx, *ty, tm, ts], [*x, *y, m, s]))


def twistor_cover_solve(gamma: Sequence) -> BigCellPoint:
    """The canonical isotropic plane through the line spanned by gamma.

    The entries of gamma are ints or Fractions. Requires gamma_1 != 0;
    after normalizing gamma_1 = 1 the solution has
    a_2j = c_2j = b_2 = 0, a_1j = gamma_j, c_1j = gamma_{n+j},
    c_12 = gamma_{n+2}, b_1 = gamma_{n+1} - gamma_2 gamma_{n+2}, and
    satisfies C_1 + gamma_2 C_2 = gamma.

    That identity is proved once per rank, not checked per line.  The
    certificate `_reconstructs(n)` proves it for `_solution`'s unreduced
    plane as a polynomial identity in the line's integers, and proves
    `_layout` homogeneous of degree 2, so dividing by the gcd keeps it:
    it covers the returned plane of every line of rank n.  A false
    certificate raises AssertionError.
    """
    if len(gamma) % 2:
        raise ValueError("gamma must have even length")
    n = len(gamma) // 2
    _check_rank(n)
    # gamma / gamma_1 == g / g0 with integers g and g0 = g[0].
    g, _ = _over_lcm(_ratios(gamma, "gamma[{}]".format))
    if g[0] == 0:
        raise ValueError("the solve chart needs gamma_1 != 0")
    if not _reconstructs(n):
        raise AssertionError("twistor line does not lie on the solved plane")
    nums, d = _solution(n, g)
    r = gcd(*nums, d)
    return _point(n, [x // r for x in nums], d // r)


def _draw(rng: random.Random, count: int, table: Sequence) -> list:
    """The table entries of count seeded digits: the bytes below 171 of
    rounds of _ROUND random bytes, in order."""
    kept = b""
    while len(kept) < count:
        kept += rng.getrandbits(8 * _ROUND).to_bytes(_ROUND, "little").translate(None, _REJECTED)
    return list(map(table.__getitem__, kept[:count]))


def random_point(n: int, rng: random.Random) -> BigCellPoint:
    """A random rational point of the big cell, drawn from rng."""
    _check_rank(n)
    return _point(n, *_over_lcm(_draw(rng, parameter_count(n), _PAIRS)))


def random_line(n: int, rng: random.Random) -> list:
    """A random rational vector in C^{2n} with first coordinate 1, drawn
    from rng."""
    _check_rank(n)
    return [_ONE, *_draw(rng, 2 * n - 1, _DRAWS)]
