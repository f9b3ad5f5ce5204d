"""Child process of the benchmark: runs one workload and writes its result.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``; see that
file for the metrics.  The worker generates the inputs from the seed, runs
one untimed warm-up pass, then repeats passes until ``--seconds`` have gone
by and at least ``MIN_PASSES`` passes were timed.  Each pass runs every
operation of the workload once, each after one calibration sample, on every
``SETUP_EVERY``-th pass replays each operation's set-up through the library,
and then checks every output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

import dynwire  # noqa: E402

if Path(dynwire.__file__).resolve().parent != ROOT / "src" / "dynwire":
    sys.exit(f"dynwire was imported from {dynwire.__file__}, not from {ROOT / 'src'}")

import gen  # noqa: E402
from passes import Workload  # noqa: E402
from spans import LAYERS, Tracer, summarize  # noqa: E402
from workloads import BUILDERS, dense_heat_step  # noqa: E402

# Enough passes that the tail time has ten samples beyond it.
MIN_PASSES = 11
MIN_TRACED = 3
# Set-up is replayed after every SETUP_EVERY-th pass, which leaves more of
# the run for passes and still gives several set-up samples.
SETUP_EVERY = 3
# Calibration samples per pass, at least: each operation gets an equal share.
CAL_SAMPLES = 9
# Reference time of one calibration loop: a round figure near its median in
# this benchmark on a 2-vCPU x86 virtual machine, so that reported times stay close
# to wall times there.
CALIBRATION_S = 0.008
# The timed loop stops here even if MIN_PASSES were not reached, so that the
# process ends well inside the 180 s a run may take.
HARD_STOP_S = 140.0

END_TO_END = {
    "run_s": "s",
    "run_s_tail": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fileio.load_s": "s",
    "fileio.write_csv_s": "s",
    "fileio.csv_bytes": "bytes",
    "fileio.dump_diagram_s": "s",
    "fileio.json_bytes": "bytes",
    "modelspec.spec_s": "s",
    "modelspec.instantiate_s": "s",
    "modelspec.instantiate_calls": "count",
    "modelspec.distinct_spec_ratio": "ratio",
    "modelspec.box_eval_s": "s",
    "modelspec.box_eval_calls": "count",
    "dynam.oapply_s": "s",
    "dynam.step_s": "s",
    "dynam.transport_s": "s",
    "dynam.step_calls": "count",
    "sim.run_trajectory_s": "s",
    "sim.loop_self_s": "s",
    "sim.step_us_p50": "us",
    "sim.step_us_p99": "us",
    "wiring.ocompose_s": "s",
    "wiring.canonical_s": "s",
    "wiring.cpg_to_dwd_s": "s",
    "wiring.to_dot_s": "s",
    "cset.validate_s": "s",
    "cset.validate_rows": "count",
    "finset.pushout_s": "s",
    "finset.pushout_calls": "count",
    "ref.dense_step_us": "us",
    "ref.gap_to_floor": "x",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.uncovered_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, workload: Workload, results: dict, errors: dict[str, str],
               tamper: Callable[[Path], None] | None, work: Path) -> None:
        if tamper is not None:
            tamper(work)
        fails = workload.check(results)
        for op, msg in errors.items():
            fails.setdefault(op, []).append(msg)
        self.attempted += len(workload.ops)
        for op in workload.ops:
            if fails.get(op.name):
                self.failed += 1
                if len(self.messages) < 10:
                    self.messages.append(f"{op.name}: {'; '.join(fails[op.name])}")


def guarded(fn: Callable[[], tuple[int, object]]) -> tuple[tuple[int, object], str | None]:
    """Run one operation; an exception is a failed operation, not a crashed benchmark."""
    try:
        return fn(), None
    except Exception as exc:  # the pass must go on and count it
        return (-1, None), f"raised {exc!r}"


def calibrate() -> float:
    """Seconds taken by a fixed loop of the kinds of work dynwire does.

    Closures over dicts, float arithmetic and formatting, small numpy arrays
    built from lists and back (the model closures, the composite's transport
    and the CSV writer); a list and a dict of twenty thousand floats and a
    small matrix product (the memory traffic of large diagrams and
    trajectories); a short Euler loop keeping its rows (the stepping loop).
    On a shared host a loop that stays in the first-level cache slows down
    more than the workloads do; with the memory-bound part this one slows
    down about as much as they do.
    """
    t0 = perf_counter()
    f = lambda env: env["a"] * (env["b"] + env["c"] - 4.0 * env["d"])  # noqa: E731
    row = []
    for i in range(200):
        env = {"a": 0.1, "b": float(i), "c": 1.0, "d": 0.5}
        x = np.array([f(env), float(i)])
        row.extend(x.tolist())
    ",".join(repr(v) for v in row)

    values = [float(i) * 0.5 for i in range(20000)]
    index = {i: v for i, v in enumerate(values)}
    total = 0.0
    for i in range(0, 20000, 3):
        total += index[i]
    m = np.asarray(values).reshape(100, 200)
    float((m @ m.T).sum())

    state = np.linspace(0.1, 0.9, 9)
    a = np.eye(9) * -0.1 + np.roll(np.eye(9), 1, axis=1) * 0.05
    rows = []
    for k in range(60):
        env = {"a": float(state[0]), "b": float(state[1])}
        state = state + 0.01 * (a @ state + env["a"] * env["b"])
        rows.append([k * 0.01] + state.tolist())
    "\n".join(",".join(repr(v) for v in r) for r in rows)
    return perf_counter() - t0


def untraced_pass(w: Workload, replay_setup: bool) -> tuple[float, float | None, float, dict, dict[str, str]]:
    """The pass's wall time, its set-up time if ``replay_setup``, and its speed.

    Calibration samples are taken before every operation, at least
    ``CAL_SAMPLES`` in the pass; the speed is the reference calibration time
    over their median.
    """
    results, errors, run_s, cal = {}, {}, 0.0, []
    per_op = -(-CAL_SAMPLES // len(w.ops))
    for op in w.ops:
        cal.extend(calibrate() for _ in range(per_op))
        t0 = perf_counter()
        results[op.name], err = guarded(op.run)
        run_s += perf_counter() - t0
        if err:
            errors[op.name] = err
    speed = CALIBRATION_S / statistics.median(cal)
    if not replay_setup:
        return run_s, None, speed, results, errors
    setup_s = 0.0
    for op in w.ops:
        t0 = perf_counter()
        _, err = guarded(lambda: (0, op.replica(None, True)))
        setup_s += perf_counter() - t0
        if err:
            errors[op.name] = f"set-up replay {err}"
    return run_s, setup_s, speed, results, errors


def traced_pass(w: Workload) -> tuple[float, Tracer, dict, dict[str, str]]:
    tr = Tracer()
    results, errors = {}, {}
    t0 = perf_counter()
    for op in w.ops:
        results[op.name], err = guarded(lambda: (0, op.replica(tr, False)))
        if err:
            errors[op.name] = err
    return perf_counter() - t0, tr, results, errors


def dense_step_us(side: int, alpha: float, h: float) -> float:
    x = np.random.default_rng(0).uniform(0.0, 1.0, (side, side))
    per = []
    for _ in range(30):
        t0 = perf_counter()
        for _ in range(50):
            x = dense_heat_step(x, alpha, h)
        per.append((perf_counter() - t0) / 50 * 1e6)
    return statistics.median(per)


def layer_values(tr: Tracer, wall: float, steps: int) -> dict[str, float]:
    s = summarize(tr, wall)
    c = tr.counts
    inst = s.get("modelspec.instantiate_calls", 0)
    v = {name: s.get(name, 0.0) for name in PER_LAYER if name.endswith("_s")}
    v.update({
        "fileio.csv_bytes": c.get("fileio.csv_bytes", 0),
        "fileio.json_bytes": c.get("fileio.json_bytes", 0),
        "modelspec.instantiate_calls": inst,
        "modelspec.distinct_spec_ratio": c.get("modelspec.distinct_specs", 0) / inst if inst else 0.0,
        "modelspec.box_eval_calls": s.get("modelspec.box_eval_calls", 0),
        "dynam.transport_s": s.get("dynam.step_self_s", 0.0),
        "dynam.step_calls": s.get("dynam.step_calls", 0),
        "sim.loop_self_s": s.get("sim.run_trajectory_self_s", 0.0),
        "cset.validate_rows": c.get("cset.validate_rows", 0),
        "finset.pushout_calls": s.get("finset.pushout_calls", 0),
        "trace.uncovered_s": s["trace.uncovered_s"],
        "trace.spans": len(tr.names),
        "step_s_per_step": s.get("dynam.step_s", 0.0) / steps if steps else 0.0,
    })
    return v


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: gen.Sizes,
        work: Path, out_dir: Path, tamper: Callable[[Path], None] | None = None) -> dict:
    """One benchmark run of one workload; returns the result object."""
    w = BUILDERS[workload](seed, work, sizes)
    tally = Tally()
    start = perf_counter()

    def more(n_untraced: int, n_traced: int) -> bool:
        elapsed = perf_counter() - start
        if elapsed > HARD_STOP_S:
            return False
        if trace:
            return elapsed < seconds or min(n_untraced, n_traced) < MIN_TRACED
        return elapsed < seconds or n_untraced < MIN_PASSES

    _, _, _, results, errors = untraced_pass(w, False)  # warm-up: checked, not timed
    tally.record(w, results, errors, tamper, work)
    start = perf_counter()
    run_times: list[float] = []  # wall seconds of each pass
    setup_times: list[float] = []
    speeds: list[float] = []  # the speed of each pass
    scaled_runs: list[float] = []  # each pass's wall time times its speed
    scaled_setups: list[float] = []
    layers: list[dict[str, float]] = []
    traced_walls: list[float] = []
    step_us: list[float] = []
    last: Tracer | None = None
    while more(len(run_times), len(layers)):
        if trace and len(layers) <= len(run_times):
            wall, last, results, errors = traced_pass(w)
            traced_walls.append(wall)
            layers.append(layer_values(last, wall, w.steps))
            step_us.extend(last.step_us)
        else:
            run_s, setup_s, speed, results, errors = untraced_pass(w, len(run_times) % SETUP_EVERY == 0)
            run_times.append(run_s)
            speeds.append(speed)
            scaled_runs.append(run_s * speed)
            if setup_s is not None:
                setup_times.append(setup_s)
                scaled_setups.append(setup_s * speed)
        tally.record(w, results, errors, tamper, work)

    n = len(run_times)
    report = {
        "workload": workload, "seed": seed, "passes": n, "setup_samples": len(setup_times),
        "speed_factor": statistics.median(speeds),
        "wall_run_s": statistics.median(run_times),
        "wall_run_s_tail": sorted(run_times)[max(0, n - 11)],
        "wall_setup_s": statistics.median(setup_times),
        "tail_percentile": round(100.0 * (n - 10) / n, 1) if n > 10 else 100.0,
        "fail_ratio": tally.failed / tally.attempted,
        "failures": tally.messages,
    }
    if not trace:
        med = statistics.median(scaled_runs)
        values = {
            "run_s": med,
            "run_s_tail": sorted(scaled_runs)[max(0, n - 11)],
            "setup_s": statistics.median(scaled_setups),
            "steps_per_s": w.steps / med,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        values = {name: statistics.median(lv[name] for lv in layers) for name in PER_LAYER if name in layers[0]}
        values["sim.step_us_p50"] = float(np.percentile(step_us, 50)) if step_us else 0.0
        values["sim.step_us_p99"] = float(np.percentile(step_us, 99)) if step_us else 0.0
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(run_times)
        values["ref.dense_step_us"] = values["ref.gap_to_floor"] = 0.0
        if workload == "heat_grid":
            floor = dense_step_us(sizes.heat_side, 0.1, 0.01)
            values["ref.dense_step_us"] = floor
            values["ref.gap_to_floor"] = statistics.median(lv["step_s_per_step"] for lv in layers) * 1e6 / floor
        report["traced_passes"] = len(layers)
        report["traced_run_s"] = statistics.median(traced_walls)
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_file = out_dir / f"trace_{workload}_seed{seed}.json"
        last.dump(spans_file)
        report["spans_file"] = str(spans_file.relative_to(ROOT)) if spans_file.is_relative_to(ROOT) else str(spans_file)
        units = PER_LAYER
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "report": report,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(BUILDERS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", action="store_true")
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args()
    if args.reference:
        from reference import reference

        result = reference(args.work)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), gen.FULL,
                     args.work, args.out_dir)
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
