"""Big-cell coordinates, isotropy and the twistor cover."""

import random
from fractions import Fraction

import pytest

import geometry_oracle as oracle
from bgg import geometry
from bgg import parabolic as pmod


def test_parameter_count_matches_nilradical():
    for n in range(3, 7):
        nil = pmod.nilradical_roots(pmod.parabolic(n, (2,)))
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

    # The same S dropped from the integer rows the checks read.
    scaled = geometry._scaled_matrix

    def without_s(point):
        rows, m, s = scaled(point)
        rows[point.n][1] += s
        rows[point.n + 1][0] -= s
        return rows, m, s

    monkeypatch.setattr(geometry, "_scaled_matrix", without_s)
    # pt has cached its scaled form; an equal point built now scales anew
    fresh = geometry.BigCellPoint(3, (1,), (0,), (0,), (1,), 0, 0, 0)
    assert fresh == pt
    assert fresh.matrix() == uncorrected
    assert not geometry.isotropy_check(fresh)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_random_points_are_isotropic(n):
    rng = random.Random(n)
    for _ in range(200):
        assert geometry.isotropy_check(geometry.random_point(n, rng))


def test_random_point_seed_determinism():
    assert geometry.random_point(4, seed=5) == geometry.random_point(4, seed=5)
    assert geometry.random_line(4, seed=5) == geometry.random_line(4, seed=5)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_random_draws_reject_small_rank(n):
    rng = random.Random(0)
    state = rng.getstate()
    for draw in (geometry.random_point, geometry.random_line):
        with pytest.raises(ValueError, match="rank"):
            draw(n, rng)
        with pytest.raises(ValueError, match="rank"):
            draw(n, seed=0)
    assert rng.getstate() == state  # raised before any draw


def test_seeded_draws_are_pinned():
    """Literal values, so every supported Python gives the same points."""
    F = Fraction
    assert geometry.random_point(3, seed=0) == geometry.BigCellPoint(
        3, (F(-7),), (F(-1, 2),), (F(-1, 5),), (F(-1, 9),), F(-1), F(-2, 5), F(-2, 7)
    )
    assert geometry.random_line(3, seed=0) == [F(1), F(-7), F(-1, 2), F(-1, 5), F(-1, 9), F(-1)]


def test_draws_cover_every_numerator_and_denominator(monkeypatch):
    """About 3000 draws hit all 171 pairs (p, q), and every field of a
    point and every entry of a line sees p = -9, p = 9 and q = 9."""
    pairs = [(p, q) for p in range(-9, 10) for q in range(1, 10)]
    assert geometry._DRAWS == [Fraction(p, q) for p, q in pairs]
    # Draw the pairs themselves instead of their reduced quotients.
    monkeypatch.setattr(geometry, "_DRAWS", pairs)
    rng = random.Random(2024)
    positions = {}
    for _ in range(250):
        pt = geometry.random_point(3, rng)
        fields = (*pt.a1, *pt.a2, *pt.c1, *pt.c2, pt.b1, pt.b2, pt.c12)
        line = geometry.random_line(3, rng)[1:]
        for i, pair in enumerate(fields + tuple(line)):
            positions.setdefault(i, set()).add(pair)
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
    share one scaled form of the plane."""
    calls = []
    scaled = geometry._scaled_matrix

    def counting(point):
        calls.append(point)
        return scaled(point)

    monkeypatch.setattr(geometry, "_scaled_matrix", counting)
    plane = geometry.twistor_cover_solve(geometry.random_line(5, seed=4))
    assert geometry.isotropy_check(plane)
    assert calls == [plane]
    # later readers share it too
    assert plane.s_correction() == 0 and plane.matrix()[0] == [1, 0]
    assert calls == [plane]


@pytest.mark.parametrize("g1", [1, -7])
def test_twistor_cover_detects_plane_off_line(monkeypatch, g1):
    """A solved plane moved off gamma fails the reconstruction check."""
    point = geometry.BigCellPoint

    def shifted(n, a1, a2, c1, c2, b1, b2, c12):
        return point(n, a1, a2, c1, c2, b1 + 1, b2, c12)

    gamma = [g1 * x for x in geometry.random_line(4, seed=3)]
    geometry.twistor_cover_solve(gamma)
    monkeypatch.setattr(geometry, "BigCellPoint", shifted)
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
