"""Command-line interface.

Exit codes: 0 success, 1 invalid arguments or unsupported request,
2 a verification command found a failure or an internal check failed.

Each subcommand makes the option checks that need no layer, calls one
library function and prints what its result's own writer gives (see
"Results and their formats" in the README); only the `geometry-check`
verdict line is written here.

Each subcommand imports the bgg layers it runs when it runs, so one
`bgg` process loads only what its command needs, and a request the CLI
itself refuses (a bad combination of options) loads no layer at all.
Only `hasse` loads `parabolic`, and with it `cosets`, where W^p is
searched, but not `orbits`; the orbit and render commands load `cosets`
and `orbits`, and `render` only when the diagram is not printed as text.

`run` is the entry point of a `bgg` process (the `bgg` script and
`python -m bgg.cli`): it returns `main`'s exit code and freezes the heap
on the way out, since CPython walks every tracked object in a full
collection at interpreter exit, with the collector disabled or not, and
every command's results are acyclic, so that collection frees nothing
the exiting process needs.  Frozen, the heap is left out of it, which
saves several milliseconds per process.  `main` itself freezes nothing.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Optional, Sequence


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


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


def _emit(out) -> int:
    """Print a result writer's text, which ends in a newline, or a JSON
    envelope (a dict) as json.dumps(..., indent=1) and a newline, and
    return 0, the exit code of a command with nothing to verify."""
    if isinstance(out, dict):
        import json

        out = json.dumps(out, indent=1) + "\n"
    sys.stdout.write(out)
    return 0


# ---------------------------------------------------------------------------
# subcommands: the CLI's own option checks, one library call, its writer


def _cmd_hasse(args) -> int:
    if args.format == "tikz":
        raise ValueError(
            "TikZ output is only available for orbit diagrams; "
            "use regular-orbit / singular-orbit / render"
        )
    from bgg import parabolic

    hd = parabolic.hasse_diagram(parabolic.parabolic(args.n, args.crossed))
    return _emit(hd.to_json() if args.format == "json" else hd.to_text())


def _cmd_relative_bgg(args) -> int:
    from bgg import penrose

    if args.format == "json":
        terms = penrose.relative_bgg(args.n, args.k)
        return _emit({"n": args.n, "k": args.k, "terms": [t.to_dict() for t in terms]})
    return _emit(penrose.relative_bgg_text(args.n, args.k))


def _cmd_penrose_e1(args) -> int:
    from bgg import penrose

    build = penrose.e1_page if args.page == 1 else penrose.e2_page
    page = build(args.n, args.k, args.sign)
    return _emit(page.to_dict() if args.format == "json" else page.to_text())


def _cmd_bgg_complex(args) -> int:
    if args.k == 0 and not args.conjectural:
        raise ValueError("the k = 0 complex is conjectural; pass conjectural=True")
    from bgg import penrose

    cx = penrose.assemble_singular_bgg(args.n, args.k, args.sign, conjectural=args.conjectural)
    return _emit(cx.to_dict() if args.format == "json" else cx.to_text())


def _cmd_verify_maximal(args) -> int:
    if args.n < 3:
        raise ValueError("the first-operator catalogue needs n >= 3")
    from bgg import verma

    results = verma.verify_first_operators(
        args.n, k=args.k, sign=args.sign, perturb=args.perturb, kernel=not args.no_kernel
    )
    if args.format == "json":
        _emit({"n": args.n, "perturb": args.perturb, "results": [r.to_dict() for r in results]})
    else:
        _emit("".join(r.to_text() for r in results))
    return 0 if all(r.passed for r in results) else 2


def _cmd_geometry_check(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    import random

    from bgg import geometry

    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.count):
        failures += not geometry.isotropy_check(geometry.random_point(args.n, rng))
        try:
            plane = geometry.twistor_cover_solve(geometry.random_line(args.n, rng))
        except AssertionError:
            plane = None
        failures += plane is None or not geometry.isotropy_check(plane)
    ok = not failures
    if args.format == "json":
        _emit(
            {
                "n": args.n,
                "count": args.count,
                "seed": args.seed,
                "failures": failures,
                "ok": ok,
            }
        )
    else:
        verdict = "PASS" if ok else "FAIL"
        _emit(
            f"{verdict} big-cell isotropy and twistor cover: n={args.n} "
            f"points={args.count} seed={args.seed} failures={failures}\n"
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
    if args.format == "text":
        return _emit(diag.to_text())
    from bgg import render

    if args.format == "json":
        return _emit(render.to_json(diag, indent=1))
    config = render.RenderConfig(args.skip, args.labels, args.suppressed)
    return _emit((render.to_tikz if args.format == "tikz" else render.to_dot)(diag, config))


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
    sp.set_defaults(func=_cmd_render, what="regular", k=None)

    sp = sub.add_parser("singular-orbit", help="orbit diagram of a k-singular weight")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--format", choices=("text", "json", "tikz", "dot"), default="text")
    _add_diagram_opts(sp)
    sp.set_defaults(func=_cmd_render, what="singular")

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
    """Run one command and return its exit code.  The cyclic garbage
    collector is turned off for the rest of the process: every command
    builds acyclic results, freed by reference counting alone, and then
    the process exits, so a collection would only walk live objects.
    `main` freezes nothing: in process (the tests, a traced child), what
    it leaves behind stays visible to `gc.collect()`; the `bgg` process
    goes through `run`."""
    gc.disable()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The entry point of a `bgg` process: `main()`'s exit code, with the
    heap frozen (`gc.freeze()`) on every way out: a result printed, an
    `error:` exit, argparse's SystemExit.  The collection at interpreter
    exit then walks none of it (see the module docstring).  Unlike
    `os._exit`, atexit handlers and the final flush of stdout and stderr
    still run."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
