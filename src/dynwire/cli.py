"""File-driven command line: validate, compose, simulate, and export.

Exit codes: 0 success, 1 domain error (invalid files, arity mismatches,
numeric failures), 2 usage error.  All indices in files are 0-based.
"""

from __future__ import annotations

import argparse
import functools
import sys
from gettext import gettext
from pathlib import Path

import numpy as np

from .cset import validate
from .errors import DynwireError
from .fileio import (
    _load,
    _output,
    _write_json,
    dump_diagram,
    instance_from_json,
    load_config,
    load_diagram,
    load_json,
    load_labels,
    read_csv,
    write_csv,
    write_svg_lineplot,
)
from .modelspec import spec_from_json, spec_violations
from .sim import _trajectory, build_system
from .wiring import CPGraph, _dot, canonical, cpg_to_dwd, grid, ocompose, ocompose_at

__all__ = ["main"]


def _validate_one(path: str) -> list[str]:
    data = _load(path, True)
    if "schema" in data:
        inst = instance_from_json(data)
        return [str(v) for v in validate(inst)]
    # A model spec takes its lists as load_json returns them.
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in data.items()}
    return spec_violations(spec_from_json(plain))


def cmd_validate(args: argparse.Namespace) -> int:
    failed = False
    for path in args.paths:
        try:
            problems = _validate_one(path)
        except DynwireError as exc:
            print(f"{path}: ERROR {exc}")
            failed = True
            continue
        if problems:
            failed = True
            print(f"{path}: {len(problems)} violations")
            for p in problems:
                print(f"  {p}")
        else:
            print(f"{path}: 0 violations")
    return 1 if failed else 0


def cmd_compose(args: argparse.Namespace) -> int:
    outer = load_diagram(args.outer)
    # A path repeated for many boxes is read and validated once.
    by_path = {p: load_diagram(p) for p in dict.fromkeys(args.inner)}
    inners = [by_path[p] for p in args.inner]
    if args.slot is None:
        result = ocompose(outer, inners)
    elif len(inners) != 1:
        raise DynwireError("--slot takes exactly one --inner diagram")
    else:
        result = ocompose_at(outer, args.slot, inners[0])
    dump_diagram(canonical(result), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    diagram = load_diagram(args.diagram)
    # A path repeated for many boxes is read and parsed once.
    by_path = {p: spec_from_json(load_json(p)) for p in dict.fromkeys(args.models)}
    specs = [by_path[p] for p in args.models]
    config = load_config(args.config)
    labels = load_labels(args.labels) if args.labels else None
    composed = build_system(diagram, specs, labels)
    header, block, metadata = _trajectory(composed, config, args.scheme)
    meta_path = Path(str(args.out) + ".meta.json")
    # The sidecar goes first and comes back last: a CSV write that fails or
    # is killed leaves no sidecar that claims it.
    write_csv(args.out, header, block, stale=meta_path)
    _write_json(meta_path, metadata)
    if args.svg:
        t, *columns = block.T.tolist()
        write_svg_lineplot(args.svg, t, dict(zip(header[1:], columns)))
        print(f"wrote {args.out}, {meta_path}, {args.svg}")
    else:
        print(f"wrote {args.out}, {meta_path}")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    diagram = load_diagram(args.diagram)
    _output(args.out, _dot(diagram))
    print(f"wrote {args.out}")
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    dump_diagram(grid(args.width, args.height), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_migrate(args: argparse.Namespace) -> int:
    g = load_diagram(args.cpg)
    if not isinstance(g, CPGraph):
        raise DynwireError("migrate expects a CPG diagram file")
    dump_diagram(cpg_to_dwd(g), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    header, rows = read_csv(args.csv)
    if header[0] != "t":
        raise DynwireError("CSV must have a leading 't' column")
    wanted = args.columns.split(",") if args.columns else header[1:]
    unknown = sorted(set(wanted) - set(header[1:]))
    if unknown:
        raise DynwireError(f"no such columns: {', '.join(unknown)}")
    index: dict[str, int] = {}
    for k, name in enumerate(header):
        index.setdefault(name, k)  # as ``header.index`` finds it
    t = [row[0] for row in rows]
    columns = {name: [row[index[name]] for row in rows] for name in wanted}
    write_svg_lineplot(args.out, t, columns)
    print(f"wrote {args.out}")
    return 0


# Built once per process: parsing leaves the parsers unchanged, and the
# ``--inner`` list default is copied before each append.
@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's parser by name."""
    parser = argparse.ArgumentParser(
        prog="dynwire",
        description="Compose wiring diagrams, assign dynamics, and simulate trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check diagram or model files")
    p.add_argument("paths", nargs="+")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("compose", help="substitute inner diagrams into an outer diagram")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", action="append", default=[], required=True)
    p.add_argument("--slot", type=int, default=None, help="substitute into one box only")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("simulate", help="compose models over a diagram and run a trajectory")
    p.add_argument("--diagram", required=True)
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--labels", default=None, help="sidecar box-labels JSON")
    p.add_argument("--scheme", choices=("euler", "rk4"), default="euler")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("export-dot", help="write Graphviz text for a diagram")
    p.add_argument("--diagram", required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=cmd_export_dot)

    p = sub.add_parser("grid", help="write a WxH circular port graph")
    p.add_argument("width", type=int)
    p.add_argument("height", type=int)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("migrate", help="interpret a CPG file as a DWD file")
    p.add_argument("--cpg", required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=cmd_migrate)

    p = sub.add_parser("plot", help="render CSV columns to an SVG line chart")
    p.add_argument("--csv", required=True)
    p.add_argument("--columns", default=None, help="comma-separated column names")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=cmd_plot)

    return parser, sub.choices


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """The top-level parser's ``parse_args(argv)``.  A known command's
    arguments go straight to its parser, which is what the top-level parser
    does with them, less its own pass over every token; the top-level parser
    reports what that parser leaves over, as it would."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        return args.fn(args)
    except DynwireError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
