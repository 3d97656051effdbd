"""Command-line interface.

Exit codes: 0 success, 1 invalid arguments or unsupported request,
2 a verification command found a failure or an internal check failed.

Each subcommand imports the bgg layers it runs when it runs, so one
`bgg` process loads only what its command needs, and a request the CLI
itself refuses (a bad combination of options) loads no layer at all.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _wfmt(w) -> str:
    return "(" + ", ".join(str(v) for v in w) + ")"


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type of a comma-separated list of integers; "" is empty."""
    if not text:
        return ()
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _skip_list(text: str) -> tuple[int, ...]:
    """argparse type of --skip: an _int_list of absolute columns, each at
    least 1 (no placement has a coordinate 0, so 0 or a negative value
    would omit nothing)."""
    columns = _int_list(text)
    bad = [c for c in columns if c < 1]
    if bad:
        raise argparse.ArgumentTypeError(f"each column must be at least 1, got {bad[0]}")
    return columns


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload: dict) -> int:
    import json

    _emit(json.dumps(payload, indent=1))
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_hasse(args) -> int:
    if args.format == "tikz":
        raise ValueError(
            "TikZ output is only available for orbit diagrams; "
            "use regular-orbit / singular-orbit / render"
        )
    from bgg import parabolic

    hd = parabolic.hasse_diagram(parabolic.parabolic(args.n, args.crossed))
    _emit(hd.to_json() if args.format == "json" else hd.to_text())
    return 0


def _render_config(args) -> render.RenderConfig:
    from bgg import render

    return render.RenderConfig(
        skip_columns=args.skip,
        show_labels=args.labels,
        show_suppressed=args.suppressed,
    )


def _emit_diagram(diag, args) -> int:
    from bgg import render

    fmt = args.format
    if fmt == "json":
        _emit(render.to_json(diag, indent=1))
    elif fmt == "tikz":
        _emit(render.to_tikz(diag, _render_config(args)))
    elif fmt == "dot":
        _emit(render.to_dot(diag, _render_config(args)))
    else:
        kinds = {}
        for a in diag.arrows:
            kinds[a.kind] = kinds.get(a.kind, 0) + 1
        head = f"{diag.kind}: n={diag.n}"
        if diag.k is not None:
            head += f" k={diag.k}"
        if diag.conjectural:
            head += " (conjectural structure)"
        lines = [head, f"nodes={len(diag.nodes)} arrows={kinds}"]
        lines.append("nodes (placement  weight):")
        for nd in diag.nodes:
            lines.append(f"  {_wfmt(nd.placement):10s} {_wfmt(nd.weight)}")
        lines.append("arrows:")
        for a in diag.arrows:
            s = diag.nodes[a.source].placement
            t = diag.nodes[a.target].placement
            extra = f" root={a.root.label()}" if a.root else ""
            extra += f" order={a.order}" if a.order is not None else ""
            lines.append(f"  {_wfmt(s)} -> {_wfmt(t)}  {a.kind}{extra}")
        if diag.coincidences:
            lines.append("coincidences (node index pairs with equal weight):")
            for a, b in diag.coincidences:
                lines.append(
                    f"  {a} ~ {b}  at {_wfmt(diag.nodes[a].placement)}"
                    f" / {_wfmt(diag.nodes[b].placement)}"
                )
        _emit("\n".join(lines))
    return 0


def _cmd_regular_orbit(args) -> int:
    from bgg import orbits

    return _emit_diagram(orbits.regular_orbit_projection(args.n), args)


def _cmd_singular_orbit(args) -> int:
    from bgg import orbits

    return _emit_diagram(orbits.singular_orbit(args.n, args.k), args)


def _cmd_relative_bgg(args) -> int:
    from bgg import penrose

    terms = penrose.relative_bgg(args.n, args.k)
    if args.format == "json":
        return _emit_json({"n": args.n, "k": args.k, "terms": [t.to_dict() for t in terms]})
    lines = [f"relative BGG resolution: n={args.n} twistor first coordinate {args.k}"]
    for t in terms:
        tail = ", ".join(str(v) for v in t.tail)
        lines.append(f"  p={t.p:2d}: ({t.first} | {t.middle} | {tail})")
    _emit("\n".join(lines))
    return 0


def _cmd_penrose_e1(args) -> int:
    from bgg import penrose

    if args.page == 1:
        page = penrose.e1_page(args.n, args.k, args.sign)
    else:
        page = penrose.e2_page(args.n, args.k, args.sign)
    if args.format == "json":
        return _emit_json(page.to_dict())
    lines = [f"E{page.r} page: n={page.n} k={page.k} sign={page.sign}"]
    for q in (1, 0):
        ps = page.row(q)
        if not ps:
            continue
        cells = []
        for p in ps:
            val = page.entries[(p, q)]
            cells.append(
                f"p={p} {_wfmt(val) if page.r == 1 else val.text}"
            )
        lines.append(f"  q={q}: " + "   ".join(cells))
    for d in page.differentials:
        note = f"  [{d.note}]" if d.note else ""
        lines.append(
            f"  d: ({d.source[0]},{d.source[1]}) -> ({d.target[0]},{d.target[1]})"
            f" {d.kind} order<={d.order}{note}"
        )
    _emit("\n".join(lines))
    return 0


def _cmd_bgg_complex(args) -> int:
    from bgg import penrose

    cx = penrose.assemble_singular_bgg(
        args.n, args.k, args.sign, conjectural=args.conjectural
    )
    if args.format == "json":
        return _emit_json(cx.to_dict())
    head = f"singular BGG complex: n={cx.n} k={cx.k} sign={cx.sign}"
    if cx.conjectural:
        head += "  [CONJECTURAL]"
    lines = [head, f"resolves: {cx.resolved_object}", "terms:"]
    for i, t in enumerate(cx.terms):
        mark = "  (direct-sum column)" if cx.branch and i in cx.branch else ""
        lines.append(f"  {i}: {_wfmt(t)}{mark}")
    lines.append("maps:")
    for m in cx.maps:
        lines.append(
            f"  {m.source} -> {m.target}  {m.kind} order<={m.order}"
        )
    _emit("\n".join(lines))
    return 0


def _cmd_verify_maximal(args) -> int:
    if args.n < 3:
        raise ValueError("the first-operator catalogue needs n >= 3")
    from bgg import verma

    if args.k is not None:
        rows = [verma.singular_vector_row(args.n, args.k, args.sign or "+")]
    else:
        signs = (args.sign,) if args.sign else ("+", "-")
        rows = [
            verma.singular_vector_row(args.n, k, sign)
            for k in range(1, args.n)
            for sign in signs
        ]
    results = [
        verma.verify_row(row, perturb=args.perturb, kernel=not args.no_kernel)
        for row in rows
    ]
    if args.format == "json":
        _emit_json(
            {"n": args.n, "perturb": args.perturb, "results": [r.to_dict() for r in results]}
        )
    else:
        for r in results:
            if args.perturb:
                verdict = "PASS" if r.refuted else "FAIL"
                if r.refuted:
                    note = "perturbed vector correctly fails"
                elif r.maximal_ok:
                    note = "perturbed vector is unexpectedly maximal"
                else:
                    note = "perturbed vector is zero or off weight; nothing was tested"
            else:
                verdict = "PASS" if r.ok else "FAIL"
                kernel = "not checked" if args.no_kernel else r.kernel_dim
                note = (
                    f"d1={r.d1_match} weight={r.weight_ok} maximal={r.maximal_ok}"
                    f" kernel_dim={kernel}"
                )
            _emit(
                f"{verdict} n={r.row.n} k={r.row.k} sign={r.row.sign}  {note}"
                f"  ({r.row.name})"
            )
    if args.perturb:
        return 0 if all(r.refuted for r in results) else 2
    return 0 if all(r.ok for r in results) else 2


def _cmd_geometry_check(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    import random

    from bgg import geometry

    rng = random.Random(args.seed)
    failures = []
    for _ in range(args.count):
        pt = geometry.random_point(args.n, rng)
        if not geometry.isotropy_check(pt):
            failures.append(("isotropy", pt))
        line = geometry.random_line(args.n, rng)
        try:
            plane = geometry.twistor_cover_solve(line)
        except AssertionError:
            plane = None
        if plane is None or not geometry.isotropy_check(plane):
            failures.append(("twistor", line))
    ok = not failures
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "count": args.count,
                "seed": args.seed,
                "failures": len(failures),
                "ok": ok,
            }
        )
    else:
        verdict = "PASS" if ok else "FAIL"
        _emit(
            f"{verdict} big-cell isotropy and twistor cover: n={args.n} "
            f"points={args.count} seed={args.seed} failures={len(failures)}"
        )
    return 0 if ok else 2


def _cmd_render(args) -> int:
    if args.what == "regular" and args.k is not None:
        raise ValueError("regular diagrams take no --k")
    if args.what == "singular" and args.k is None:
        raise ValueError("singular diagrams need --k")
    from bgg import orbits

    if args.what == "regular":
        diag = orbits.regular_orbit_projection(args.n)
    else:
        diag = orbits.singular_orbit(args.n, args.k)
    return _emit_diagram(diag, args)


# ---------------------------------------------------------------------------
# parser


def _add_diagram_opts(sp) -> None:
    sp.add_argument(
        "--skip", type=_skip_list, default="", help="comma-separated |coordinate| columns to omit"
    )
    sp.add_argument("--labels", action="store_true", help="label arrows with roots (tikz)")
    sp.add_argument(
        "--suppressed", action="store_true", help="draw trivially-acting arrows"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="bgg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("hasse", help="parabolic Hasse diagram")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--crossed", type=_int_list, default="2", help="comma-separated crossed nodes")
    sp.add_argument("--format", choices=("text", "json", "tikz"), default="text")
    sp.set_defaults(func=_cmd_hasse)

    sp = sub.add_parser("regular-orbit", help="regular orbit of rho, placed in the plane")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--format", choices=("text", "json", "tikz", "dot"), default="text")
    _add_diagram_opts(sp)
    sp.set_defaults(func=_cmd_regular_orbit)

    sp = sub.add_parser("singular-orbit", help="orbit diagram of a k-singular weight")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--format", choices=("text", "json", "tikz", "dot"), default="text")
    _add_diagram_opts(sp)
    sp.set_defaults(func=_cmd_singular_orbit)

    sp = sub.add_parser("relative-bgg", help="relative BGG resolution along the fibration")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True, help="signed twistor first coordinate")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_relative_bgg)

    sp = sub.add_parser("penrose-e1", help="direct-image spectral pages")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--sign", choices=("+", "-"), default="+")
    sp.add_argument("--page", type=int, choices=(1, 2), default=1)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_penrose_e1)

    sp = sub.add_parser("bgg-complex", help="assembled singular BGG complex")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--sign", choices=("+", "-"), default="+")
    sp.add_argument(
        "--conjectural",
        action="store_true",
        help="allow the unproven branched k=0 candidate",
    )
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_bgg_complex)

    sp = sub.add_parser("verify-maximal", help="verify first-operator singular vectors")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int)
    sp.add_argument(
        "--sign", choices=("+", "-"), help="'+' with --k by default; without --k, only this sign"
    )
    sp.add_argument("--perturb", action="store_true", help="flip a coefficient; expect failure")
    sp.add_argument("--no-kernel", action="store_true", help="skip the uniqueness check")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_verify_maximal)

    sp = sub.add_parser("geometry-check", help="big-cell isotropy / twistor cover check")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--count", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_geometry_check)

    sp = sub.add_parser("render", help="render an orbit diagram")
    sp.add_argument("--what", choices=("regular", "singular"), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int)
    sp.add_argument("--format", choices=("tikz", "dot", "json"), default="tikz")
    _add_diagram_opts(sp)
    sp.set_defaults(func=_cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
