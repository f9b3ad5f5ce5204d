"""The operations of each workload, three ways.

Every operation runs untraced through the public entry point a user would
call: ``dynwire.cli.main`` for CLI commands, the library for the nested
ecosystem and the pushout.  Each also has a *replica*, the same sequence of
public library calls, which serves twice: with ``setup_only`` it stops before
the first step or write and times set-up, and with a :class:`Tracer` it opens
a span around every call it makes and around every model callable it hands
to ``oapply_*``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from dynwire import (
    CPGraph,
    DWDiagram,
    FinFunction,
    Machine,
    ResourceSharer,
    UWDiagram,
    canonical,
    cpg_to_dwd,
    instantiate,
    oapply_cpg,
    oapply_directed,
    oapply_undirected_with_layout,
    ocompose_cpg,
    ocompose_dwd,
    ocompose_uwd,
    pushout,
    spec_from_json,
    spec_to_json,
    to_dot,
    validate,
)
from dynwire.cli import main as cli_main
from dynwire.fileio import (
    dump_diagram,
    load_config,
    load_instance,
    load_json,
    load_labels,
    wrap_instance,
    write_csv,
)
from dynwire.sim import ComposedSystem, build_system, run_trajectory

import gen
from spans import Tracer, call

Replica = Callable[[Tracer | None, bool], object]


@dataclass
class Op:
    """One user-visible operation of a pass.

    ``run`` is the untraced path and returns ``(exit code, value)``, where the
    value is the captured standard output of a CLI command or the result of
    a library call; ``steps`` counts the work the operation completes.
    """

    name: str
    run: Callable[[], tuple[int, object]]
    replica: Replica
    steps: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    check: Callable[[dict[str, tuple[int, object]]], dict[str, list[str]]]
    steps: int = field(init=False)

    def __post_init__(self) -> None:
        self.steps = sum(op.steps for op in self.ops)


def cli(argv: list[str]) -> Callable[[], tuple[int, object]]:
    def run() -> tuple[int, object]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, buf.getvalue()

    return run


def library(replica: Replica) -> Callable[[], tuple[int, object]]:
    return lambda: (0, replica(None, False))


# ---------------------------------------------------------------------------
# Replica building blocks


def _rows(inst) -> int:
    return sum(inst.card.values())


def load_diagram_traced(tr: Tracer | None, path: Path):
    inst = call(tr, "fileio.load", load_instance, path)
    if tr is not None:
        tr.add("cset.validate_rows", _rows(inst))
    return call(tr, "cset.validate", wrap_instance, inst)


def load_spec(tr: Tracer | None, path: Path):
    return call(tr, "modelspec.spec", spec_from_json, call(tr, "fileio.load", load_json, path))


def instantiate_traced(tr: Tracer, specs: list) -> list:
    """Instantiate each spec and rebuild the result around timed callables."""
    models = [call(tr, "modelspec.instantiate", instantiate, s) for s in specs]
    tr.add("modelspec.distinct_specs", len({json.dumps(spec_to_json(s), sort_keys=True) for s in specs}))
    return [timed_system(tr, m, "modelspec.box_eval") for m in models]


def timed_system(tr: Tracer, m, name: str):
    """The same system with a span named ``name`` around each evaluation."""
    if isinstance(m, Machine):
        return Machine(m.n_inputs, m.n_states, m.n_outputs, tr.wrap(name, m.dynamics),
                       tr.wrap(name, m.readout), m.kind)
    return ResourceSharer(m.n_ports, m.n_states, m.portmap, tr.wrap(name, m.dynamics), m.kind)


def state_names(n_states: int, flat: list[str], inj: list[int]) -> tuple[str, ...]:
    """Each composite state is named after the first component state glued into it."""
    names: list[str | None] = [None] * n_states
    for g in reversed(range(len(flat))):
        names[inj[g]] = flat[g]
    return tuple(n if n is not None else f"j{c}" for c, n in enumerate(names))


def build_traced(tr: Tracer, diagram, specs: list, labels: list[str] | None) -> ComposedSystem:
    """What ``build_system`` does, with every box and the composite timed."""
    box_labels = labels if labels is not None else [f"b{i}" for i in range(diagram.n_boxes)]
    flat = [f"{box_labels[i]}.{s}" for i, spec in enumerate(specs) for s in spec.states]
    models = instantiate_traced(tr, specs)
    if isinstance(diagram, UWDiagram):
        system, layout = call(tr, "dynam.oapply", oapply_undirected_with_layout, diagram, models)
        names = state_names(system.n_states, flat, list(layout.state_injection.map))
        directed = False
    else:
        oapply = oapply_directed if isinstance(diagram, DWDiagram) else oapply_cpg
        system = call(tr, "dynam.oapply", oapply, diagram, models)
        names, directed = tuple(flat), True
    system = timed_system(tr, system, "dynam.step")
    return ComposedSystem(system, names, system.kind, directed)


def trajectory_traced(tr: Tracer | None, composed: ComposedSystem, config, scheme: str):
    if tr is None:
        return run_trajectory(composed, config, scheme)
    first = len(tr.names)
    span = tr.begin("sim.run_trajectory")
    try:
        result = run_trajectory(composed, config, scheme)
    finally:
        tr.finish()
    tr.record_steps(first, span, config.steps)
    return result


def write_outputs(tr: Tracer | None, out: Path, header, rows, metadata) -> None:
    call(tr, "fileio.write_csv", write_csv, out, header, rows)
    with open(str(out) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=2)
        fh.write("\n")
    if tr is not None:
        tr.add("fileio.csv_bytes", out.stat().st_size)


def dump_traced(tr: Tracer | None, d, out: Path) -> None:
    call(tr, "fileio.dump_diagram", dump_diagram, d, out)
    if tr is not None:
        tr.add("fileio.json_bytes", out.stat().st_size)


# ---------------------------------------------------------------------------
# CLI operations with their replicas


def simulate_op(name: str, diagram: Path, models: list[Path], config: Path, out: Path,
                scheme: str, steps: int, labels: Path | None = None) -> Op:
    argv = ["simulate", "--diagram", str(diagram), "--models", *map(str, models),
            "--config", str(config), "--out", str(out), "--scheme", scheme]
    if labels is not None:
        argv += ["--labels", str(labels)]

    def replica(tr: Tracer | None, setup_only: bool) -> None:
        d = load_diagram_traced(tr, diagram)
        specs = [load_spec(tr, p) for p in models]
        cfg = call(tr, "fileio.load", load_config, config)
        lab = call(tr, "fileio.load", load_labels, labels) if labels is not None else None
        composed = build_system(d, specs, lab) if tr is None else build_traced(tr, d, specs, lab)
        if setup_only:
            return
        write_outputs(tr, out, *trajectory_traced(tr, composed, cfg, scheme))

    return Op(name, cli(argv), replica, steps)


_OCOMPOSE = {UWDiagram: ocompose_uwd, DWDiagram: ocompose_dwd, CPGraph: ocompose_cpg}


def compose_op(name: str, outer: Path, inners: list[Path], out: Path, steps: int) -> Op:
    argv = ["compose", "--outer", str(outer)]
    for p in inners:
        argv += ["--inner", str(p)]
    argv += ["-o", str(out)]

    def replica(tr: Tracer | None, setup_only: bool) -> None:
        o = load_diagram_traced(tr, outer)
        ins = [load_diagram_traced(tr, p) for p in inners]
        result = call(tr, "wiring.ocompose", _OCOMPOSE[type(o)], o, ins)
        c = call(tr, "wiring.canonical", canonical, result)
        if not setup_only:
            dump_traced(tr, c, out)

    return Op(name, cli(argv), replica, steps)


def migrate_op(name: str, cpg: Path, out: Path) -> Op:
    def replica(tr: Tracer | None, setup_only: bool) -> None:
        g = load_diagram_traced(tr, cpg)
        d = call(tr, "wiring.cpg_to_dwd", cpg_to_dwd, g)
        if not setup_only:
            dump_traced(tr, d, out)

    return Op(name, cli(["migrate", "--cpg", str(cpg), "-o", str(out)]), replica)


def validate_op(name: str, paths: list[Path]) -> Op:
    def replica(tr: Tracer | None, setup_only: bool) -> str:
        lines = []
        for p in paths:
            inst = call(tr, "fileio.load", load_instance, p)
            if tr is not None:
                tr.add("cset.validate_rows", _rows(inst))
            lines.append(f"{p}: {len(call(tr, 'cset.validate', validate, inst))} violations\n")
        return "".join(lines)

    return Op(name, cli(["validate", *map(str, paths)]), replica)


def export_dot_op(name: str, diagram: Path, out: Path) -> Op:
    def replica(tr: Tracer | None, setup_only: bool) -> None:
        text = call(tr, "wiring.to_dot", to_dot, load_diagram_traced(tr, diagram))
        if not setup_only:
            out.write_text(text, encoding="utf-8", newline="\n")

    return Op(name, cli(["export-dot", "--diagram", str(diagram), "-o", str(out)]), replica)


# ---------------------------------------------------------------------------
# Library operations


def nested_eco_op(name: str, inp: gen.LongInputs, scheme: str, out: Path) -> Op:
    """The ecosystem as nested ``oapply_undirected``: land and river first, then total."""

    def replica(tr: Tracer | None, setup_only: bool) -> None:
        diagrams = [load_diagram_traced(tr, p) for p in (inp.land, inp.river, inp.total)]
        groups = [[load_spec(tr, p) for p in ps] for ps in (inp.land_models, inp.river_models)]
        cfg = call(tr, "fileio.load", load_config, inp.eco_config)
        inner, layouts = [], []
        for d, specs in zip(diagrams, groups):
            models = [instantiate(s) for s in specs] if tr is None else instantiate_traced(tr, specs)
            system, layout = call(tr, "dynam.oapply", oapply_undirected_with_layout, d, models)
            inner.append(system)
            layouts.append(layout)
        nested, outer = call(tr, "dynam.oapply", oapply_undirected_with_layout, diagrams[2], inner)
        # Component state g of the flattened ecosystem lands in nested state
        # outer[offset(inner system) + inner_layout[g local]].
        inj: list[int] = []
        offset = 0
        for system, layout in zip(inner, layouts):
            inj += [outer.state_injection.map[offset + k] for k in layout.state_injection.map]
            offset += system.n_states
        names = state_names(nested.n_states, [f"{b}.{s}" for b, s in gen.ECO_STATES], inj)
        if tr is not None:
            nested = timed_system(tr, nested, "dynam.step")
        if setup_only:
            return
        composed = ComposedSystem(nested, names, nested.kind, directed=False)
        write_outputs(tr, out, *trajectory_traced(tr, composed, cfg, scheme))

    return Op(name, library(replica), replica, inp.steps)


def pushout_op(name: str, uwd: Path) -> Op:
    """The gluing ``oapply_undirected`` performs, on a large UWD.

    Box b with k ports carries ceil(k/2) states and port slot s exposes state
    s mod ceil(k/2); the pushout glues that total portmap to ``junc_in``.
    """

    def replica(tr: Tracer | None, setup_only: bool):
        d = load_diagram_traced(tr, uwd)
        total_map: list[int] = [0] * len(d.data.parts["box"])
        offset = 0
        for ports in d.box_ports:
            n = (len(ports) + 1) // 2
            for slot, port in enumerate(ports):
                total_map[port] = offset + slot % n
            offset += n
        f = FinFunction(len(total_map), offset, tuple(total_map))
        g = d.data.part_fn("junc_in")
        if setup_only:
            return None
        return f, g, call(tr, "finset.pushout", pushout, f, g)

    return Op(name, library(replica), replica)
