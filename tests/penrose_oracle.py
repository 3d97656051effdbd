"""The page and complex builders that `bgg.penrose` no longer carries.

Test-only reference.  Here every page and complex is built the long way:
the relative resolution term by term from its definition, the E1
entries from its `RelativeBggTerm` objects, each page from a fresh E1
page (the E2 page and every assembled complex build their own), and
every order bound by a `parabolic.order_bound` call per map.  The
one-pass builders of `bgg.penrose`, which read the resolution off a
per-rank table, are checked against these through `to_dict()`.
"""

from __future__ import annotations

from typing import Optional

from bgg import orbits, penrose
from bgg import parabolic as parabolic_mod
from bgg.orbits import NONSTANDARD, STANDARD
from bgg.penrose import (
    COKERNEL,
    KERNEL,
    BULLET,
    BggComplex,
    BggMap,
    E2Entry,
    PageMap,
    RelativeBggTerm,
    SpectralPage,
)


def relative_bgg(n: int, k_signed: int) -> list:
    """Term p has weight (k_signed | m | tail): m runs over n-1, ..., 1,
    -1, ..., -(n-1), and the tail lists {1, ..., n-1} without |m|,
    descending."""
    middles = list(range(n - 1, 0, -1)) + list(range(-1, -n, -1))
    return [
        RelativeBggTerm(p, k_signed, m, tuple(v for v in range(n - 1, 0, -1) if v != abs(m)))
        for p, m in enumerate(middles)
    ]


def e1_entries(n: int, k: int, sign: str = "+") -> dict:
    ks = penrose._validate(n, k, sign)
    entries = {}
    for t in relative_bgg(n, ks):
        img = penrose.bbw_direct_image(t.first, t.middle, t.tail)
        if img is None:
            continue
        w, q = img
        entries[(t.p, q)] = w
    return entries


def e1_page(n: int, k: int, sign: str = "+") -> SpectralPage:
    entries = e1_entries(n, k, sign)
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


def bridge(page: SpectralPage) -> Optional[tuple]:
    """(source cell, target cell, order) of the splice, or None."""
    top, bottom = page.row(1), page.row(0)
    if not top or not bottom:
        return None
    sp, tp = (top[-1], 1), (bottom[0], 0)
    p2 = parabolic_mod.parabolic(page.n, (2,))
    return sp, tp, parabolic_mod.order_bound(page.entries[sp], page.entries[tp], p2)


def e2_page(n: int, k: int, sign: str = "+") -> SpectralPage:
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
    b = bridge(page)
    if b is not None:
        sp, tp, order = b
        diffs.append(
            PageMap(
                sp,
                tp,
                NONSTANDARD,
                order,
                "induced splice map; an isomorphism onto its target",
            )
        )
    return SpectralPage(n, k, sign, 2, entries, diffs)


def _resolved(n: int, k: int, sign: str) -> str:
    w = orbits.tilde_lambda(n, k, sign)
    return f"Ker d_1 = H^1(Z, O({w[0]} | {', '.join(str(v) for v in w[1:])}))"


def assemble_singular_bgg(n: int, k: int, sign: str = "+") -> BggComplex:
    """The proven complexes, k >= 1."""
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


def conjectural_k0(n: int) -> BggComplex:
    pairs = [(x, 0) for x in range(n - 1, 0, -1)]
    pairs += [(0, y) for y in range(-1, -n, -1)]
    terms = []
    for pr in pairs:
        rest = [v for v in range(n - 1, -1, -1) if v not in {abs(pr[0]), abs(pr[1])}]
        terms.append(pr + tuple(rest))
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
