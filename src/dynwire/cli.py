"""File-driven command line: validate, compose, simulate, and export.

Exit codes: 0 success, 1 domain error (invalid files, arity mismatches,
numeric failures), 2 usage error.  All indices in files are 0-based.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cset import validate
from .errors import DynwireError
from .fileio import (
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
from .sim import build_system, run_trajectory
from .wiring import CPGraph, canonical, cpg_to_dwd, grid, ocompose, ocompose_at, to_dot

__all__ = ["main"]


def _validate_one(path: str) -> list[str]:
    data = load_json(path)
    if "schema" in data:
        inst = instance_from_json(data)
        return [str(v) for v in validate(inst)]
    spec = spec_from_json(data)
    return spec_violations(spec)


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
    header, rows, metadata = run_trajectory(composed, config, scheme=args.scheme)
    write_csv(args.out, header, rows)
    meta_path = Path(str(args.out) + ".meta.json")
    _write_json(meta_path, metadata)
    if args.svg:
        t = [row[0] for row in rows]
        columns = {
            name: [row[k + 1] for row in rows] for k, name in enumerate(header[1:])
        }
        write_svg_lineplot(args.svg, t, columns)
        print(f"wrote {args.out}, {meta_path}, {args.svg}")
    else:
        print(f"wrote {args.out}, {meta_path}")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    diagram = load_diagram(args.diagram)
    text = to_dot(diagram)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
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
    t = [row[0] for row in rows]
    columns = {name: [row[header.index(name)] for row in rows] for name in wanted}
    write_svg_lineplot(args.out, t, columns)
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
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

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DynwireError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
