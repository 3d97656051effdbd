"""Direct images along the twistor fibration and singular BGG complexes.

The correspondence space fibers over iGr(2,2n) with fiber P^1; pushing
the relative BGG resolution of a twistor-space line bundle down this
fibration gives a spectral sequence whose first page has two rows.  The
rows splice, across the column where the direct image dies, into a
complex of 2n-3 invariant operators: the splice map is the one
non-standard operator (order two in general, three when k = 1).

All weights are rho-shifted integer tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from bgg import orbits
from bgg import parabolic as parabolic_mod
from bgg.orbits import NONSTANDARD, STANDARD
from bgg.weyl import Weight

BULLET = "bullet"
KERNEL = "ker"
COKERNEL = "coker"


# ---------------------------------------------------------------------------
# relative BGG resolution


@dataclass(frozen=True)
class RelativeBggTerm:
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


def relative_bgg(n: int, k_signed: int) -> list[RelativeBggTerm]:
    """The 2(n-1)-term relative BGG resolution of the twistor bundle with
    rho-shifted weight (k_signed | n-1, ..., 1).

    The middle coordinate runs over n-1, ..., 1, -1, ..., -(n-1); the
    tail is the descending complement of |middle| in {1, ..., n-1}.
    """
    if n < 2:
        raise ValueError("rank must be at least 2")
    if not 0 <= abs(k_signed) <= n - 1:
        raise ValueError("need |k| <= n-1")
    middles = list(range(n - 1, 0, -1)) + list(range(-1, -n, -1))
    terms = []
    for p, m in enumerate(middles):
        tail = tuple(v for v in range(n - 1, 0, -1) if v != abs(m))
        terms.append(RelativeBggTerm(p, k_signed, m, tail))
    return terms


def bbw_direct_image(
    first: int, middle: int, tail: Sequence[int] = ()
) -> Optional[tuple[Weight, int]]:
    """Bott-Borel-Weil along the P^1 fibration, on the leading pair.

    Returns (weight, degree): degree 0 with the pair kept if
    first > middle, degree 1 with the pair swapped if middle > first,
    and None (both images vanish) if they are equal.
    """
    if first == middle:
        return None
    if first > middle:
        return ((first, middle) + tuple(tail), 0)
    return ((middle, first) + tuple(tail), 1)


# ---------------------------------------------------------------------------
# spectral pages


@dataclass(frozen=True)
class PageMap:
    source: tuple[int, int]
    target: tuple[int, int]
    kind: str
    order: int
    note: str = ""


@dataclass(frozen=True)
class E2Entry:
    kind: str  # "ker" | "coker" | "bullet"
    text: str


@dataclass
class SpectralPage:
    n: int
    k: int
    sign: str
    r: int
    entries: dict
    differentials: list[PageMap]

    @property
    def p_max(self) -> int:
        return 2 * self.n - 3

    def entry(self, p: int, q: int):
        return self.entries.get((p, q))

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
                {
                    "source": list(d.source),
                    "target": list(d.target),
                    "kind": d.kind,
                    "order": d.order,
                    "note": d.note,
                }
                for d in self.differentials
            ],
        }


def _validate(n: int, k: int, sign: str) -> int:
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    return k if sign == "+" else -k


def e1_page(n: int, k: int, sign: str = "+") -> SpectralPage:
    """First page of the direct-image spectral sequence: entry (p, q) is
    the q-th direct image of term p of the relative resolution.  Exactly
    one term dies, leaving 2n-3 entries in two rows (one row if
    k = n-1)."""
    ks = _validate(n, k, sign)
    entries = {}
    for t in relative_bgg(n, ks):
        img = bbw_direct_image(t.first, t.middle, t.tail)
        if img is None:
            continue
        w, q = img
        entries[(t.p, q)] = w
    p2 = parabolic_mod.parabolic(n, (2,))
    diffs = []
    for (p, q), w in sorted(entries.items()):
        nxt = entries.get((p + 1, q))
        if nxt is not None:
            diffs.append(
                PageMap(
                    (p, q),
                    (p + 1, q),
                    STANDARD,
                    parabolic_mod.order_bound(w, nxt, p2),
                )
            )
    return SpectralPage(n, k, sign, 1, entries, diffs)


@dataclass(frozen=True)
class Bridge:
    """The non-standard operator splicing the two E1 rows."""

    source: Weight
    target: Weight
    source_position: tuple[int, int]
    target_position: tuple[int, int]
    order: int
    description: str


_SPLICE = (
    "splice across the vanished column: lift, apply the relative "
    "differential twice, push down"
)


def nonstandard_descriptor(n: int, k: int, sign: str = "+") -> Optional[Bridge]:
    """The bridge between the two rows, or None when k = n-1 (single row).

    Its order bound is the conformal-weight drop: two in general, three
    for k = 1."""
    _validate(n, k, sign)
    return _bridge(e1_page(n, k, sign))


def _bridge(page: SpectralPage) -> Optional[Bridge]:
    """The bridge read off an E1 page (see nonstandard_descriptor)."""
    top, bottom = page.row(1), page.row(0)
    if not top or not bottom:
        return None
    sp, tp = (top[-1], 1), (bottom[0], 0)
    src, tgt = page.entries[sp], page.entries[tp]
    p2 = parabolic_mod.parabolic(page.n, (2,))
    return Bridge(
        src,
        tgt,
        sp,
        tp,
        parabolic_mod.order_bound(src, tgt, p2),
        _SPLICE,
    )


def e2_page(n: int, k: int, sign: str = "+") -> SpectralPage:
    """Second page: each row is exact except at its ends, so interior
    entries vanish (bullets) and the ends are Ker d_{p+1} / Coker d_p.
    The surviving differential joins the two rows at the splice."""
    page = e1_page(n, k, sign)
    entries = {}
    for q in (0, 1):
        ps = page.row(q)
        for p in ps:
            if p == ps[0]:
                entries[(p, q)] = E2Entry(KERNEL, f"Ker d_{p + 1}")
            elif p == ps[-1]:
                entries[(p, q)] = E2Entry(COKERNEL, f"Coker d_{p}")
            else:
                entries[(p, q)] = E2Entry(BULLET, "0")
    diffs = []
    bridge = _bridge(page)
    if bridge is not None:
        diffs.append(
            PageMap(
                bridge.source_position,
                bridge.target_position,
                NONSTANDARD,
                bridge.order,
                "induced splice map; an isomorphism onto its target",
            )
        )
    return SpectralPage(n, k, sign, 2, entries, diffs)


# ---------------------------------------------------------------------------
# assembled complexes


@dataclass(frozen=True)
class BggMap:
    source: int
    target: int
    kind: str
    order: int


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
            "maps": [
                {"source": m.source, "target": m.target, "kind": m.kind, "order": m.order}
                for m in self.maps
            ],
            "branch": None if self.branch is None else list(self.branch),
        }


def format_twistor_weight(n: int, k: int, sign: str = "+") -> str:
    w = orbits.tilde_lambda(n, k, sign)
    return f"({w[0]} | {', '.join(str(v) for v in w[1:])})"


def _resolved(n: int, k: int, sign: str) -> str:
    return f"Ker d_1 = H^1(Z, O{format_twistor_weight(n, k, sign)})"


def assemble_singular_bgg(
    n: int, k: int, sign: str = "+", conjectural: bool = False
) -> BggComplex:
    """Splice the E1 rows into the singular BGG complex for the twistor
    weight (±k | n-1, ..., 1).

    For k = 0 there is no proof and the shape branches; that candidate
    is only returned when conjectural=True.
    """
    if k == 0:
        if not conjectural:
            raise ValueError(
                "the k = 0 complex is conjectural; pass conjectural=True"
            )
        return _conjectural_k0(n)
    page = e1_page(n, k, sign)
    cells = sorted(page.entries.items(), key=lambda kv: kv[0][0])
    terms = [w for _, w in cells]
    p2 = parabolic_mod.parabolic(n, (2,))
    maps = []
    for i, (a, b) in enumerate(zip(cells, cells[1:])):
        (_, qa), wa = a
        (_, qb), wb = b
        kind = STANDARD if qa == qb else NONSTANDARD
        maps.append(BggMap(i, i + 1, kind, parabolic_mod.order_bound(wa, wb, p2)))
    return BggComplex(n, k, sign, terms, maps, _resolved(n, k, sign))


def _full_k0_weight(n: int, pair: tuple[int, int]) -> Weight:
    rest = [v for v in range(n - 1, -1, -1) if v not in {abs(pair[0]), abs(pair[1])}]
    return pair + tuple(rest)


def _conjectural_k0(n: int) -> BggComplex:
    if n < 3:
        raise ValueError("need n >= 3")
    pairs = [(x, 0) for x in range(n - 1, 0, -1)]
    pairs += [(0, y) for y in range(-1, -n, -1)]
    terms = [_full_k0_weight(n, pr) for pr in pairs]
    p2 = parabolic_mod.parabolic(n, (2,))

    def bound(i, j):
        return parabolic_mod.order_bound(terms[i], terms[j], p2)

    # indices: (2,0) = n-3, (1,0) = n-2, (0,-1) = n-1, (0,-2) = n
    maps = [BggMap(i, i + 1, STANDARD, bound(i, i + 1)) for i in range(n - 2)]
    maps.append(BggMap(n - 3, n - 1, NONSTANDARD, bound(n - 3, n - 1)))
    maps.append(BggMap(n - 2, n, NONSTANDARD, bound(n - 2, n)))
    maps.extend(
        BggMap(i, i + 1, STANDARD, bound(i, i + 1))
        for i in range(n - 1, 2 * n - 3)
    )
    maps.sort(key=lambda m: (m.source, m.target))
    return BggComplex(
        n, 0, "+", terms, maps, _resolved(n, 0, "+"), conjectural=True, branch=(n - 2, n - 1)
    )
