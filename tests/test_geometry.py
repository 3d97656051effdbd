"""Big-cell coordinates, isotropy and the twistor cover."""

import math
import random
from fractions import Fraction

import pytest

import geometry_oracle as oracle
import parabolic_oracle
from bgg import geometry
from bgg import parabolic as pmod


def test_parameter_count_matches_nilradical():
    for n in range(3, 7):
        nil = parabolic_oracle.nilradical_roots(pmod.parabolic(n, (2,)))
        assert geometry.parameter_count(n) == len(nil)


def test_omega():
    u = [1, 2, 3, 4]
    v = [5, 6, 7, 8]
    assert geometry.omega(u, v) == (1 * 7 - 3 * 5) + (2 * 8 - 4 * 6)
    assert geometry.omega(u, v) == -geometry.omega(v, u)
    assert geometry.omega(u, u) == 0
    with pytest.raises(ValueError):
        geometry.omega([1, 2, 3], [4, 5, 6])
    with pytest.raises(ValueError):
        geometry.omega([1, 2], [1, 2, 3, 4])


def test_point_shape_validation():
    with pytest.raises(ValueError):
        geometry.BigCellPoint(3, (1, 2), (0,), (0,), (0,), 0, 0, 0)
    with pytest.raises(ValueError):
        geometry.BigCellPoint(1, (), (), (), (), 0, 0, 0)


def test_matrix_layout():
    pt = geometry.BigCellPoint(3, (2,), (3,), (4,), (5,), 6, 7, 8)
    # S = (a_13 c_23 - a_23 c_13) / 2 = (10 - 12) / 2 = -1
    assert pt.s_correction() == -1
    assert pt.matrix() == [
        [1, 0],
        [0, 1],
        [2, 3],
        [6, 8 - (-1)],
        [8 + (-1), 7],
        [4, 5],
    ]


def test_isotropy_exact():
    pt = geometry.BigCellPoint(3, (2,), (3,), (4,), (5,), 6, 7, 8)
    assert geometry.isotropy_check(pt)


def test_correction_is_load_bearing(monkeypatch):
    """Dropping the symmetric correction S breaks isotropy."""
    pt = geometry.BigCellPoint(3, (1,), (0,), (0,), (1,), 0, 0, 0)
    s = pt.s_correction()
    assert s == Fraction(1, 2)
    assert geometry.isotropy_check(pt)
    uncorrected = [
        [1, 0],
        [0, 1],
        [1, 0],
        [0, 0],
        [0, 0],
        [0, 1],
    ]
    c1 = [r[0] for r in uncorrected]
    c2 = [r[1] for r in uncorrected]
    assert geometry.omega(c1, c2) != 0

    # The same S dropped from the integer columns the checks read: from
    # y[n] = c12 - S and x[n + 1] = c12 + S, over the scale m.
    layout = geometry._layout

    def without_s(n, nums, d):
        x, y, m, s = layout(n, nums, d)
        y[n] += s
        x[n + 1] -= s
        return x, y, m, s

    monkeypatch.setattr(geometry, "_layout", without_s)
    # pt has cached its columns; an equal point built now lays them out anew
    fresh = geometry.BigCellPoint(3, (1,), (0,), (0,), (1,), 0, 0, 0)
    assert fresh == pt
    assert fresh.matrix() == uncorrected
    assert not geometry.isotropy_check(fresh)


def test_omega_matches_oracle_off_isotropic_input():
    """omega equals the reference on seeded int, Fraction and mixed
    vectors of every even length 2..24, where it is mostly nonzero."""
    rng = random.Random(28)
    nonzero = 0
    for length in range(2, 25, 2):
        for _ in range(10):
            ints = [[rng.randint(-50, 50) for _ in range(length)] for _ in range(2)]
            fracs = [
                [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(length)]
                for _ in range(2)
            ]
            for u, v in (ints, fracs, (ints[0], fracs[1]), (fracs[0], ints[1])):
                value = geometry.omega(u, v)
                assert value == oracle.omega(u, v)
                assert geometry.omega(v, u) == -value
                nonzero += value != 0
    assert nonzero > 0.9 * 12 * 10 * 4


def _bump(monkeypatch, column, i):
    """Make _layout add 1 to entry i of column 0 (x) or 1 (y)."""
    layout = geometry._layout

    def bumped(n, nums, d):
        x, y, m, s = layout(n, nums, d)
        (x, y)[column][i] += 1
        return x, y, m, s

    monkeypatch.setattr(geometry, "_layout", bumped)


@pytest.mark.parametrize("n", range(2, 7))
def test_isotropy_check_reads_every_paired_entry(monkeypatch, n):
    """omega pairs entry i of one column with entry i +- n of the other,
    so adding 1 to any entry whose partner is nonzero breaks isotropy.
    With every coordinate nonzero, only x[n] and y[n + 1] are exempt:
    they pair with the zeros y[0] and x[1] of rows 1 and 2."""
    values = [(-1) ** i * (i % 7 + 1) for i in range(geometry.parameter_count(n))]

    def point():  # built anew, so its columns are laid out anew
        return geometry.BigCellPoint(n, *_rows(n, values), *values[-3:])

    pt = point()
    assert geometry.isotropy_check(pt)
    x, y, _, _ = geometry._layout(n, pt.numerators, pt.denominator)
    partners = [(0, i, y[(i + n) % (2 * n)]) for i in range(2 * n)]
    partners += [(1, i, x[(i + n) % (2 * n)]) for i in range(2 * n)]
    assert [(c, i) for c, i, p in partners if p == 0] == [(0, n), (1, n + 1)]
    for column, i, partner in partners:
        if partner:
            with monkeypatch.context() as patch:
                _bump(patch, column, i)
                assert not geometry.isotropy_check(point())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_random_points_are_isotropic(n):
    rng = random.Random(n)
    for _ in range(200):
        assert geometry.isotropy_check(geometry.random_point(n, rng))


def test_random_point_seed_determinism():
    """Equal seeds draw equal values, and no draw falls back to an
    unseeded generator."""
    for draw in (geometry.random_point, geometry.random_line):
        assert draw(4, random.Random(5)) == draw(4, random.Random(5))
        with pytest.raises(TypeError):
            draw(4)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_random_draws_reject_small_rank(n):
    rng = random.Random(0)
    state = rng.getstate()
    for draw in (geometry.random_point, geometry.random_line):
        with pytest.raises(ValueError, match="rank"):
            draw(n, rng)
    assert rng.getstate() == state  # raised before any draw


def test_seeded_draws_are_pinned():
    """Literal values, so every supported Python gives the same points."""
    F = Fraction
    assert geometry.random_point(3, random.Random(0)) == geometry.BigCellPoint(
        3, (F(-9, 8),), (F(-5, 9),), (F(3, 4),), (F(8, 7),), F(1, 9), F(-1, 5), F(-8)
    )
    assert geometry.random_line(3, random.Random(0)) == [F(1), F(-9, 8), F(-5, 9), F(3, 4), F(8, 7), F(1, 9)]


class _ChosenBytes(random.Random):
    """A generator whose getrandbits returns the given rounds of bytes,
    read little-endian, in order."""

    def __init__(self, rounds):
        super().__init__(0)
        self.rounds = list(rounds)
        self.bits = []

    def getrandbits(self, k):
        self.bits.append(k)
        return int.from_bytes(self.rounds.pop(0), "little")


def test_draws_keep_bytes_below_171_in_order():
    """A draw keeps each byte below 171 of its 32-byte rounds, in order,
    and tops up with another round while it has kept too few: here the
    first round keeps 3 bytes, the second supplies the rest, and the
    second round's surplus is dropped."""
    first = bytes([171, 0, 255, 170, 200, *[171] * 26, 80])  # keeps 0, 170, 80
    second = bytes([9, 250, 101, *[0] * 29])  # keeps 9, 101, 0, 0, ...
    F = Fraction
    # digit r is (r // 9 - 9) / (r % 9 + 1)
    rng = _ChosenBytes([first, second])
    assert geometry.random_line(3, rng) == [1, -9, 1, F(-1, 9), -8, F(2, 3)]
    assert rng.bits == [256, 256] and not rng.rounds
    rng = _ChosenBytes([first, second])
    assert geometry.random_point(3, rng) == geometry.BigCellPoint(
        3, (-9,), (1,), (F(-1, 9),), (-8,), F(2, 3), -9, -9
    )
    assert rng.bits == [256, 256] and not rng.rounds


def test_draws_call_neither_random_nor_randrange(monkeypatch):
    """A draw reads integers from getrandbits only."""

    def refuse(*args):
        raise AssertionError("a draw called random() or randrange")

    monkeypatch.setattr(random.Random, "random", refuse)
    monkeypatch.setattr(random.Random, "randrange", refuse)
    for n in range(2, 7):
        rng, old_rng = random.Random(n), random.Random(n)
        _same_point(geometry.random_point(n, rng), oracle.random_point(n, old_rng))
        assert geometry.random_line(n, rng) == oracle.random_line(n, old_rng)


def test_draws_cover_every_numerator_and_denominator(monkeypatch):
    """About 3000 draws hit all 171 pairs (p, q), and every field of a
    point and every entry of a line sees p = -9, p = 9 and q = 9."""
    pairs = [(p, q) for p in range(-9, 10) for q in range(1, 10)]
    assert geometry._DRAWS == [Fraction(p, q) for p, q in pairs]
    assert geometry._PAIRS == [x.as_integer_ratio() for x in geometry._DRAWS]
    # Record the digit behind every value a draw reads off the tables.
    digits = []

    class Recording(list):
        def __getitem__(self, r):
            digits.append(r)
            return super().__getitem__(r)

    monkeypatch.setattr(geometry, "_DRAWS", Recording(geometry._DRAWS))
    monkeypatch.setattr(geometry, "_PAIRS", Recording(geometry._PAIRS))
    rng = random.Random(2024)
    positions = {}
    for _ in range(250):
        digits.clear()
        pt = geometry.random_point(3, rng)
        line = geometry.random_line(3, rng)[1:]
        assert len(digits) == 7 + 5
        values = [Fraction(*pairs[r]) for r in digits]
        assert pt == geometry.BigCellPoint(3, *[values[i : i + 1] for i in range(4)], *values[4:7])
        assert line == values[7:]
        for i, r in enumerate(digits):
            positions.setdefault(i, set()).add(pairs[r])
    assert len(positions) == 7 + 5
    assert set().union(*positions.values()) == set(pairs)
    for seen in positions.values():
        assert {p for p, _ in seen} >= {-9, 9}
        assert 9 in {q for _, q in seen}


def test_twistor_cover_solve_structure():
    gamma = [Fraction(1), 2, 3, 4, 5, 6, 7, 8]  # n = 4
    pt = geometry.twistor_cover_solve(gamma)
    assert pt.n == 4
    assert pt.a1 == (3, 4)
    assert pt.a2 == (0, 0)
    assert pt.c1 == (7, 8)
    assert pt.c2 == (0, 0)
    assert pt.b2 == 0
    assert pt.c12 == 6
    assert pt.b1 == 5 - 2 * 6
    assert geometry.isotropy_check(pt)
    c1, c2 = pt.columns()
    assert [x + gamma[1] * y for x, y in zip(c1, c2)] == gamma


def test_twistor_cover_normalizes_leading_entry():
    gamma = [Fraction(2), 4, 6, 8, 10, 12]
    pt = geometry.twistor_cover_solve(gamma)
    c1, c2 = pt.columns()
    g = [Fraction(x, 2) for x in gamma]
    assert [x + g[1] * y for x, y in zip(c1, c2)] == g


@pytest.mark.parametrize("n", [3, 4, 5])
def test_twistor_cover_random_lines(n):
    rng = random.Random(10 + n)
    for _ in range(100):
        line = geometry.random_line(n, rng)
        pt = geometry.twistor_cover_solve(line)
        assert geometry.isotropy_check(pt)


def test_twistor_cover_validation():
    with pytest.raises(ValueError):
        geometry.twistor_cover_solve([1, 2, 3])
    with pytest.raises(ValueError):
        geometry.twistor_cover_solve([0, 1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        geometry.twistor_cover_solve([1, 2])


def test_solved_plane_is_scaled_once(monkeypatch):
    """The solve's reconstruction check and the caller's isotropy check
    share one integer layout of the plane."""
    calls = []
    layout = geometry._layout

    def counting(n, nums, d):
        calls.append((n, nums, d))
        return layout(n, nums, d)

    monkeypatch.setattr(geometry, "_layout", counting)
    plane = geometry.twistor_cover_solve(geometry.random_line(5, random.Random(4)))
    assert geometry.isotropy_check(plane)
    key = (plane.n, plane.numerators, plane.denominator)
    assert calls == [key]
    # later readers share it too
    assert plane.s_correction() == 0 and plane.matrix()[0] == [1, 0]
    assert calls == [key]


@pytest.mark.parametrize("g1", [1, -7])
def test_twistor_cover_detects_plane_off_line(monkeypatch, g1):
    """A solved plane moved off gamma fails the reconstruction check."""
    point = geometry._point

    def shifted(n, nums, d):
        nums = list(nums)
        nums[4 * (n - 2)] += d  # b1 + 1
        return point(n, nums, d)

    gamma = [g1 * x for x in geometry.random_line(4, random.Random(3))]
    geometry.twistor_cover_solve(gamma)
    monkeypatch.setattr(geometry, "_point", shifted)
    with pytest.raises(AssertionError):
        geometry.twistor_cover_solve(gamma)


@pytest.mark.parametrize("n", range(2, 6))
def test_reconstruction_check_reads_every_entry(monkeypatch, n):
    """With gamma_2 != 0 each of the 4n column entries enters the check
    C_1 + gamma_2 C_2 == gamma, so adding 1 to any one of them fails it."""
    gamma = [-3 * x for x in geometry.random_line(n, random.Random(28 + n))]
    gamma[1] = Fraction(5, 7)
    geometry.twistor_cover_solve(gamma)
    for column in (0, 1):
        for i in range(2 * n):
            with monkeypatch.context() as patch:
                _bump(patch, column, i)
                with pytest.raises(AssertionError):
                    geometry.twistor_cover_solve(gamma)


def _fields(pt):
    return (pt.n, pt.a1, pt.a2, pt.c1, pt.c2, pt.b1, pt.b2, pt.c12)


def _same_point(pt, old):
    assert _fields(pt) == _fields(old)
    assert pt.s_correction() == old.s_correction()
    assert pt.matrix() == old.matrix()
    assert pt.columns() == old.columns()
    assert geometry.isotropy_check(pt) and oracle.isotropy_check(old)


@pytest.mark.parametrize("n", range(2, 13))
def test_matches_fraction_oracle(n):
    """Seeded draws, S, the matrix and the solved plane equal the
    Fraction-arithmetic reference, for Fraction and plain-int inputs."""
    rng, old_rng, data = random.Random(n), random.Random(n), random.Random(-n)
    for _ in range(10):
        pt = geometry.random_point(n, rng)
        _same_point(pt, oracle.random_point(n, old_rng))
        line = geometry.random_line(n, rng)
        assert line == oracle.random_line(n, old_rng)
        assert rng.getstate() == old_rng.getstate()

        ints = [data.randint(-9, 9) for _ in range(geometry.parameter_count(n))]
        rows = [tuple(ints[i * (n - 2) : (i + 1) * (n - 2)]) for i in range(4)]
        _same_point(
            geometry.BigCellPoint(n, *rows, *ints[-3:]),
            oracle.BigCellPoint(n, *rows, *ints[-3:]),
        )

        int_line = [data.randint(-9, 9) for _ in range(2 * n)]
        for g1 in (1, 3, -7, Fraction(2, 5)):
            for gamma in ([g1 * x for x in line], [g1] + int_line[1:]):
                _same_point(
                    geometry.twistor_cover_solve(gamma),
                    oracle.twistor_cover_solve(gamma),
                )


def _rows(n, values):
    k = n - 2
    return [values[i * k : (i + 1) * k] for i in range(4)]


def _canonical(pt):
    d = pt.denominator
    assert isinstance(d, int) and d > 0
    assert all(isinstance(x, int) for x in pt.numerators)
    assert len(pt.numerators) == geometry.parameter_count(pt.n)
    assert math.gcd(*pt.numerators, d) == 1
    fields = (*pt.a1, *pt.a2, *pt.c1, *pt.c2, pt.b1, pt.b2, pt.c12)
    assert fields == tuple(Fraction(x, d) for x in pt.numerators)


@pytest.mark.parametrize("n", range(2, 9))
def test_points_are_canonical(n):
    """Numerators over their least positive common denominator, however
    the point was built."""
    rng, data = random.Random(100 + n), random.Random(-100 - n)
    for _ in range(20):
        _canonical(geometry.random_point(n, rng))
        _canonical(geometry.twistor_cover_solve(geometry.random_line(n, rng)))
        values = [
            Fraction(data.randint(-30, 30), data.randint(1, 12))
            for _ in range(geometry.parameter_count(n))
        ]
        _canonical(geometry.BigCellPoint(n, *_rows(n, values), *values[-3:]))
    _canonical(geometry.BigCellPoint(n, *_rows(n, [0] * geometry.parameter_count(n)), 0, 0, 0))


@pytest.mark.parametrize("n", range(2, 9))
def test_equality_and_hash_follow_the_values(n):
    """A point built from ints, from equal Fractions, from a mix of both
    or by a solve is the same point: equal and with equal hashes."""
    data = random.Random(200 + n)
    for _ in range(20):
        ints = [data.randint(-9, 9) for _ in range(geometry.parameter_count(n))]
        fracs = [Fraction(x * 6, 6) for x in ints]
        mixed = [x if i % 2 else Fraction(x) for i, x in enumerate(ints)]
        points = [geometry.BigCellPoint(n, *_rows(n, v), *v[-3:]) for v in (ints, fracs, mixed)]
        assert points[0] == points[1] == points[2]
        assert len({hash(p) for p in points}) == 1
        assert len(set(points)) == 1
        moved = ints[:-1] + [Fraction(2 * ints[-1] + 1, 2)]
        other = geometry.BigCellPoint(n, *_rows(n, moved), *moved[-3:])
        assert other != points[0] and other not in set(points)

        line = [data.randint(-9, 9) for _ in range(2 * n)]
        line[0] = 1
        solves = [
            geometry.twistor_cover_solve([g0 * x for x in line])
            for g0 in (1, -7, Fraction(2, 5))
        ]
        solves.append(geometry.twistor_cover_solve([Fraction(x) for x in line]))
        assert all(s == solves[0] for s in solves)
        assert len({hash(s) for s in solves}) == 1
        # the same plane from its own fields
        s = solves[0]
        rebuilt = geometry.BigCellPoint(n, s.a1, s.a2, s.c1, s.c2, s.b1, s.b2, s.c12)
        assert rebuilt == s and hash(rebuilt) == hash(s)
    assert points[0] != object()


@pytest.mark.parametrize("n", range(2, 9))
def test_check_paths_build_no_fraction(monkeypatch, n):
    """The seeded point's isotropy check and the solve with its check work
    on integers only; reading the fields, the matrix or S builds their
    Fractions, on each read."""
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    rng = random.Random(300 + n)
    lines = [geometry.random_line(n, rng) for _ in range(10)]
    monkeypatch.setattr(geometry, "Fraction", counting)
    for line in lines:
        pt = geometry.random_point(n, rng)
        assert geometry.isotropy_check(pt)
        plane = geometry.twistor_cover_solve(line)
        assert geometry.isotropy_check(plane)
    assert built == []

    for point in (pt, plane):
        built.clear()
        fields = (point.a1, point.a2, point.c1, point.c2, point.b1, point.b2, point.c12)
        assert len(built) == geometry.parameter_count(n)  # one per coordinate
        matrix = point.matrix()
        assert point.columns() == ([r[0] for r in matrix], [r[1] for r in matrix])
        assert point.s_correction() == oracle.BigCellPoint(n, *fields).s_correction()


def test_bad_coordinates_are_named():
    """A coordinate that is not a rational number is rejected when the
    point is built: TypeError for a non-number, ValueError for a NaN or an
    infinity, each naming the coordinate."""
    ok = [(1,), (0,), (Fraction(1, 2),), (0,), 0, 0, 0]
    with pytest.raises(TypeError, match=r"a1\[0\].*str"):
        geometry.BigCellPoint(3, ("1",), *ok[1:])
    with pytest.raises(TypeError, match=r"c2\[1\]"):
        geometry.BigCellPoint(4, (1, 2), (0, 0), (0, 0), (0, None), 0, 0, 0)
    with pytest.raises(ValueError, match="b1.*nan"):
        geometry.BigCellPoint(3, *ok[:4], float("nan"), 0, 0)
    with pytest.raises(ValueError, match="c12.*inf"):
        geometry.BigCellPoint(3, *ok[:6], float("-inf"))
    # an exact value is accepted whatever its type
    half = geometry.BigCellPoint(3, *ok[:4], Fraction(1, 2), 0, 0)
    assert geometry.BigCellPoint(3, *ok[:4], 0.5, 0, 0) == half

    with pytest.raises(TypeError, match=r"gamma\[2\].*str"):
        geometry.twistor_cover_solve([1, 2, "3", 4, 5, 6])
    with pytest.raises(ValueError, match=r"gamma\[0\].*nan"):
        geometry.twistor_cover_solve([float("nan"), 2, 3, 4, 5, 6])
    with pytest.raises(ValueError, match=r"gamma\[5\].*inf"):
        geometry.twistor_cover_solve([1, 2, 3, 4, 5, float("inf")])
