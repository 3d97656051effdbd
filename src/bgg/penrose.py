"""Direct images along the twistor fibration and singular BGG complexes.

The correspondence space fibers over iGr(2,2n) with fiber P^1; pushing
the relative BGG resolution of a twistor-space line bundle down this
fibration gives a spectral sequence whose first page has two rows.  The
rows splice, across the column where the direct image dies, into a
complex of 2n-3 invariant operators: the splice map is the one
non-standard operator (order two in general, three when k = 1).

The (p, middle, tail) terms of the relative resolution depend on n
alone: they are one read-only tuple per rank, built once for the 8 ranks
used last (_rank_terms).  Each public entry checks (n, k, sign) on every
call, in the order of `weyl`'s rules; the proven window 1 <= k <= n-1 is
raised in _validate alone, so the Bott-Borel-Weil rule of `_cells`
checks nothing.  PageMap and BggMap records are shared: each is built
once per process by a factory keyed by its field values and their types
(_page_map, _bgg_map), bounded at the 4096 keys used last, since a sweep
over k and sign meets the same maps again and again; callers compare
them with ==, as an evicted key is built anew.  E2 entries are built per
page, but every vanishing one is the module's bullet record.  Pages and
complexes are fresh per call, each building its E1 cells in one pass
over the rank's terms.  Every order bound is `_order`, the drop in
conformal weight between two cells, and both complexes take their maps
from `_complex`: standard within an E1 row, non-standard across the two
rows.  The non-standard operator has one model: the PageMap (on E2) and
the BggMap of kind "nonstandard".  Pages and complexes write their own
text and JSON; relative_bgg_text writes the relative resolution.

All weights are rho-shifted integer tuples.  Everything lives on the
crossed-{2} parabolic, whose grading element is E = (1, 1, 0, ..., 0),
so the conformal weight of w is w[0] + w[1] and this module needs no
Hasse or orbit code: it imports `weyl` alone, which also holds the
twistor weights tilde_lambda and the operator kinds.  At n = 2, E is
(1/2, 1/2) and w[0] + w[1] is twice the conformal weight, but no order is
read there: the only n = 2 complex (k = 1) has a single cell, so it has no
map, no differential and no bridge, and the k = 0 candidate needs
n >= 3.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import NamedTuple, Optional

from bgg import weyl
from bgg.weyl import NONSTANDARD, STANDARD, Weight

BULLET = "bullet"
KERNEL = "ker"
COKERNEL = "coker"


# ---------------------------------------------------------------------------
# relative BGG resolution


class RelativeBggTerm(NamedTuple):
    """Term p of the relative BGG resolution: rho-shifted weight
    (first | middle | tail) with the fiber direction in coordinate 2."""

    p: int
    first: int
    middle: int
    tail: tuple[int, ...]

    @property
    def weight(self) -> Weight:
        return (self.first, self.middle) + self.tail

    def to_dict(self) -> dict:
        return {"p": self.p, "first": self.first, "middle": self.middle, "tail": list(self.tail)}


@functools.lru_cache(maxsize=8)
def _rank_terms(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The (p, middle, tail) terms of every relative resolution of rank
    n, built once per n (for the 8 ranks used last).  A tuple of tuples,
    so no caller can change it for the next one; the terms with middles
    m and -m share one tail tuple."""
    values = tuple(range(n - 1, 0, -1))  # |m| sits at index n-1-|m|
    tails = [values[:i] + values[i + 1 :] for i in range(n - 1)]
    top = list(zip(values, tails))
    return tuple(
        (p, m, tail)
        for p, (m, tail) in enumerate(top + [(-m, tail) for m, tail in reversed(top)])
    )


def relative_bgg(n: int, k_signed: int) -> list[RelativeBggTerm]:
    """The 2(n-1)-term relative BGG resolution of the twistor bundle with
    rho-shifted weight (k_signed | n-1, ..., 1).

    The middle coordinate runs over n-1, ..., 1, -1, ..., -(n-1); the
    tail is the descending complement of |middle| in {1, ..., n-1}.
    """
    weyl._check_rank(n, k_signed)
    if abs(k_signed) > n - 1:
        raise ValueError("need |k| <= n-1")
    return [RelativeBggTerm(p, k_signed, m, tail) for p, m, tail in _rank_terms(n)]


def relative_bgg_text(n: int, k_signed: int) -> str:
    """The `bgg relative-bgg` listing of relative_bgg(n, k_signed), a line
    per term after a header, followed by a newline."""
    lines = [f"relative BGG resolution: n={n} twistor first coordinate {k_signed}"]
    lines += [
        f"  p={t.p:2d}: ({t.first} | {t.middle} | {', '.join(map(str, t.tail))})"
        for t in relative_bgg(n, k_signed)
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# spectral pages


@dataclass(frozen=True)
class PageMap:
    """A differential of a spectral page, from cell `source` to cell
    `target` (each a (p, q) pair), standard or non-standard (`kind`),
    with its order bound, the drop in conformal weight, and a `note`
    ("" but on the E2 splice map)."""

    source: tuple[int, int]
    target: tuple[int, int]
    kind: str
    order: int
    note: str = ""


@dataclass(frozen=True)
class E2Entry:
    """An entry of an E2 page: its `kind`, "ker", "coker" or "bullet", and
    the `text` printed for it ("Ker d_p", "Coker d_p" or "0")."""

    kind: str
    text: str


# one frozen record per field values and types, per process (see the
# module docstring)
_page_map = functools.lru_cache(maxsize=4096, typed=True)(PageMap)


@dataclass
class SpectralPage:
    """Page `r` (1 or 2) of the direct-image spectral sequence of
    (n, k, sign): `entries` maps each cell (p, q), in order of p, to its
    weight on E1 or its E2Entry on E2, and `differentials` are the
    page's maps."""

    n: int
    k: int
    sign: str
    r: int
    entries: dict
    differentials: list[PageMap]

    def row(self, q: int) -> list[int]:
        return sorted(p for (p, qq) in self.entries if qq == q)

    def to_dict(self) -> dict:
        entries = []
        for (p, q), val in sorted(self.entries.items()):
            if self.r == 1:
                entries.append({"p": p, "q": q, "weight": list(val)})
            else:
                entries.append({"p": p, "q": q, "kind": val.kind, "text": val.text})
        return {
            "n": self.n,
            "k": self.k,
            "sign": self.sign,
            "page": self.r,
            "entries": entries,
            "differentials": [
                asdict(d) | {"source": list(d.source), "target": list(d.target)}
                for d in self.differentials
            ],
        }

    def to_text(self) -> str:
        """The `bgg penrose-e1` listing, followed by a newline: each row's
        cells (q = 1 first), weights on E1 and texts on E2, then the maps."""
        cell = weyl.format_weight if self.r == 1 else attrgetter("text")
        lines = [f"E{self.r} page: n={self.n} k={self.k} sign={self.sign}"]
        for q in (1, 0):
            ps = self.row(q)
            if ps:
                cells = [f"p={p} {cell(self.entries[p, q])}" for p in ps]
                lines.append(f"  q={q}: " + "   ".join(cells))
        lines += [
            f"  d: ({d.source[0]},{d.source[1]}) -> ({d.target[0]},{d.target[1]})"
            f" {d.kind} order<={d.order}" + (f"  [{d.note}]" if d.note else "")
            for d in self.differentials
        ]
        return "\n".join(lines) + "\n"


def _validate(n: int, k: int, sign: str) -> int:
    """The signed k of a proven complex, after `weyl`'s int and sign rules
    and the proven window 1 <= k <= n-1 (raised here alone; it implies n >= 2)."""
    weyl._check_ints(n, k)
    weyl._check_sign(sign)
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    return k if sign == "+" else -k


def _cells(n: int, k_signed: int) -> dict[tuple[int, int], Weight]:
    """{(p, q): weight} in order of p: the nonzero direct images of the
    terms of the relative resolution of (k_signed | n-1, ..., 1), read
    in one pass by Bott-Borel-Weil along the P^1 fibre: degree 0 keeps
    (k_signed, m) if k_signed > m, degree 1 swaps it if m > k_signed,
    and an equal pair has none.  Every caller has checked (n, k_signed)."""
    cells = {}
    for p, m, tail in _rank_terms(n):
        if k_signed > m:
            cells[(p, 0)] = (k_signed, m) + tail
        elif m > k_signed:
            cells[(p, 1)] = (m, k_signed) + tail
    return cells


def e1_entries(n: int, k: int, sign: str = "+") -> dict[tuple[int, int], Weight]:
    """The entries of the first page, {(p, q): weight} in order of p:
    entry (p, q) is the q-th direct image of term p of the relative
    resolution.  Exactly one term dies, leaving 2n-3 entries in two rows
    (one row if k = n-1)."""
    return _cells(n, _validate(n, k, sign))


def _order(source: Weight, target: Weight) -> int:
    """The order bound of a map from `source` to `target`: the drop in
    the conformal weight w[0] + w[1] (see the module docstring)."""
    return source[0] + source[1] - target[0] - target[1]


def e1_page(n: int, k: int, sign: str = "+") -> SpectralPage:
    """First page of the direct-image spectral sequence: the entries of
    e1_entries and the standard differentials along each row, with
    their order bounds."""
    entries = e1_entries(n, k, sign)
    diffs = [
        _page_map((p, q), (p + 1, q), STANDARD, _order(w, entries[p + 1, q]))
        for (p, q), w in entries.items()
        if (p + 1, q) in entries
    ]
    return SpectralPage(n, k, sign, 1, entries, diffs)


# every vanishing E2 entry: one record, which all pages share
_BULLET_ENTRY = E2Entry(BULLET, "0")


def e2_page(n: int, k: int, sign: str = "+") -> SpectralPage:
    """Second page: each row is exact except at its ends, so interior
    entries vanish (bullets) and the ends are Ker d_{p+1} / Coker d_p.

    The surviving differential is the non-standard operator splicing the
    two E1 rows, from the last cell of row 1 to the first cell of row 0
    (none when k = n-1: one row).  Its order bound is the
    conformal-weight drop: two in general, three for k = 1."""
    e1 = e1_entries(n, k, sign)
    rows: tuple[list[int], list[int]] = ([], [])
    for p, q in e1:  # e1 is in order of p
        rows[q].append(p)
    entries = {}
    for q, ps in enumerate(rows):
        if not ps:
            continue
        entries[(ps[0], q)] = E2Entry(KERNEL, f"Ker d_{ps[0] + 1}")
        for p in ps[1:-1]:
            entries[(p, q)] = _BULLET_ENTRY
        if len(ps) > 1:
            entries[(ps[-1], q)] = E2Entry(COKERNEL, f"Coker d_{ps[-1]}")
    diffs = []
    if rows[0] and rows[1]:
        source, target = (rows[1][-1], 1), (rows[0][0], 0)
        order = _order(e1[source], e1[target])
        note = "induced splice map; an isomorphism onto its target"
        diffs.append(_page_map(source, target, NONSTANDARD, order, note))
    return SpectralPage(n, k, sign, 2, entries, diffs)


# ---------------------------------------------------------------------------
# assembled complexes


@dataclass(frozen=True)
class BggMap:
    """A map of a singular BGG complex, from term `source` to term
    `target` (indices into the complex's terms), standard or
    non-standard (`kind`), with its order bound, the drop in conformal
    weight."""

    source: int
    target: int
    kind: str
    order: int


_bgg_map = functools.lru_cache(maxsize=4096, typed=True)(BggMap)


@dataclass
class BggComplex:
    """A singular BGG complex on iGr(2,2n): a chain of 2n-3 weights with
    one non-standard map (none when k = n-1).

    The conjectural k = 0 candidate branches instead: two chains joined
    through a direct-sum column, the term pair `branch`, with two
    order-three bridge maps.  `branch` is None for every other complex.
    """

    n: int
    k: int
    sign: str
    terms: list[Weight]
    maps: list[BggMap]
    resolved_object: str
    conjectural: bool = False
    branch: Optional[tuple[int, int]] = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "sign": self.sign,
            "conjectural": self.conjectural,
            "resolved_object": self.resolved_object,
            "terms": [list(t) for t in self.terms],
            "maps": [asdict(m) for m in self.maps],
            "branch": None if self.branch is None else list(self.branch),
        }

    def to_text(self) -> str:
        """The `bgg bgg-complex` listing, followed by a newline: the resolved
        object, the terms (direct-sum column marked), then the maps."""
        head = f"singular BGG complex: n={self.n} k={self.k} sign={self.sign}"
        if self.conjectural:
            head += "  [CONJECTURAL]"
        lines = [head, f"resolves: {self.resolved_object}", "terms:"]
        for i, t in enumerate(self.terms):
            mark = "  (direct-sum column)" if self.branch and i in self.branch else ""
            lines.append(f"  {i}: {weyl.format_weight(t)}{mark}")
        lines.append("maps:")
        lines += [f"  {m.source} -> {m.target}  {m.kind} order<={m.order}" for m in self.maps]
        return "\n".join(lines) + "\n"


def format_twistor_weight(n: int, k: int, sign: str = "+") -> str:
    w = weyl.tilde_lambda(n, k, sign)
    return f"({w[0]} | {', '.join(str(v) for v in w[1:])})"


def _complex(n: int, k: int, sign: str, entries: dict, pairs, **fields) -> BggComplex:
    """The complex on the E1 cells `entries` (in order of p) with a map
    i -> j for each index pair (i, j) of `pairs`: standard within an E1
    row, non-standard across the two rows."""
    cells, terms = list(entries), list(entries.values())
    maps = []
    for i, j in pairs:
        kind = STANDARD if cells[i][1] == cells[j][1] else NONSTANDARD
        maps.append(_bgg_map(i, j, kind, _order(terms[i], terms[j])))
    resolved = f"Ker d_1 = H^1(Z, O{format_twistor_weight(n, k, sign)})"
    return BggComplex(n, k, sign, terms, maps, resolved, **fields)


def assemble_singular_bgg(
    n: int, k: int, sign: str = "+", conjectural: bool = False
) -> BggComplex:
    """Splice the E1 rows into the singular BGG complex for the twistor
    weight (±k | n-1, ..., 1): a map between each two consecutive cells.

    For k = 0 there is no proof and the shape branches; that candidate
    is only returned when conjectural=True, and only for sign '+' (the
    k = 0 twistor weight has a single conjugate).
    """
    if k == 0:
        if not conjectural:
            raise ValueError(
                "the k = 0 complex is conjectural; pass conjectural=True"
            )
        return _conjectural_k0(n, k, sign)
    entries = e1_entries(n, k, sign)
    return _complex(n, k, sign, entries, [(i, i + 1) for i in range(len(entries) - 1)])


def _conjectural_k0(n: int, k: int, sign: str) -> BggComplex:
    """The branched candidate for (0 | n-1, ..., 1), whose terms are all
    2n-2 cells in order of p: no direct image dies at k = 0.  Its rows
    change between the indices n-2 and n-1, which are joined only through
    the bridges n-3 -> n-1 and n-2 -> n."""
    weyl._check_ints(n, k)
    if n < 3:
        raise ValueError("need n >= 3")
    weyl.tilde_lambda(n, 0, sign)  # only '+': k = 0 has a single conjugate
    pairs = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1), (n - 2, n)]
    pairs += [(i, i + 1) for i in range(n - 1, 2 * n - 3)]
    return _complex(n, 0, "+", _cells(n, 0), pairs, conjectural=True, branch=(n - 2, n - 1))
