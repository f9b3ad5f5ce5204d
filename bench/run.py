"""The dynwire benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --reference

Run from the root of a checkout.  The program under test is ``src/dynwire``
of that checkout, used as is.  Each run generates its inputs from the seed
into a fresh directory under ``.bench_work/``, then runs the workload in one
child process (closed loop: one operation at a time, numeric libraries
limited to one thread) so that peak memory belongs to that workload alone.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a report.

Workloads (why each exists is in BENCHMARK.json):

* ``heat_grid``: ``migrate`` of a 32x32 heat grid, then CLI ``simulate`` of
  1024 ``heat_node`` boxes over the CPG file and over its migrated DWD.
* ``small_long``: the three-city SIR over the cyclic and isolation diagrams
  (labelled), and the two-level ecosystem composed by the CLI and nested
  through the library, each under Euler and RK4.
* ``compose_large``: CLI ``compose`` of random two-level UWD, DWD and CPG
  diagrams (about 8000 boxes each after substitution), ``migrate``,
  ``validate``, ``export-dot``, and the UWD gluing pushout.

End-to-end metrics (``--trace 0``), over the timed passes of one run; a pass
runs every operation of the workload once.  Times are wall times rescaled to
a reference machine speed, pass by pass.  Before every operation (at least
nine times a pass) a fixed calibration loop of a few milliseconds is timed,
and each pass's times are multiplied by the loop's reference time over the
median of that pass's samples.  On a 2-vCPU x86 virtual machine of a
shared host, all code slowed by up to 2x for tens of seconds at a time, so
a run's raw wall median depends on how much of it fell in a slow
spell.  The loop mixes cache-resident interpreter work with memory-bound
work because a cache-resident loop alone slowed down more than the
workloads did and over-corrected.  Over five seeds per workload, raw wall
medians ranged 20-40% while the rescaled medians ranged 4-6%.  The report
prints the wall-time medians and the median speed factor before the metrics.

* ``run_s``: median seconds of a pass, from argv to files on disk.
* ``run_s_tail``: the pass time with exactly ten passes slower than it, the
  highest percentile with ten samples beyond it; the report gives which
  percentile that is and the sample count.
* ``setup_s``: median of the operations' set-up of a pass, replayed through
  the library after every third pass: load, parse, instantiate, validate,
  compose or ``oapply``, up to the first step or the first write.
* ``steps_per_s``: simulation steps of a pass per second of ``run_s``; on
  ``compose_large``, where nothing is stepped, a step is one inner box
  substituted by ``compose``.
* ``peak_rss_mb``: peak resident memory of the child process.

Operations that exit nonzero or fail an oracle count in ``failed``; the
report gives ``fail_ratio`` = failed / attempted.

``--trace 1`` alternates untraced passes with traced ones, which replay each
operation through the library inside spans (see ``spans.py``), and reports
the per-layer metrics, each layer's self time, the wall time no span covers
and the tracing overhead, all as raw wall times.  A layer a workload never
calls reads 0.  The spans of the last traced pass are written to
``.bench_out/``.  ``--reference`` times the cases of ROADMAP's baseline
table once; it is not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("heat_grid", "small_long", "compose_large")
CHILD_TIMEOUT_S = 170


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", action="store_true", help="time the ROADMAP baseline cases")
    args = p.parse_args()
    if not args.reference and args.workload is None:
        p.error("--workload is required")
    if not (ROOT / "src" / "dynwire" / "__init__.py").is_file():
        print(f"error: no dynwire sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload or 'reference'}-", dir=ROOT / ".bench_work"))
    try:
        result_file = work / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--work", str(work),
               "--out-dir", str(ROOT / ".bench_out"), "--result", str(result_file)]
        if args.reference:
            cmd.append("--reference")
        else:
            cmd += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: the workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0 or not result_file.is_file():
            print(f"error: the workload process exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_file.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.reference:
        out = ROOT / ".bench_out" / "reference.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(json.dumps(result, indent=2))
        return 0

    report = result.pop("report")
    print(f"workload {report['workload']}  seed {report['seed']}  passes {report['passes']}  "
          f"tail = p{report['tail_percentile']}  fail_ratio {report['fail_ratio']:.4g} "
          f"({result['failed']}/{result['attempted']})")
    for key in ("setup_samples", "speed_factor", "wall_run_s", "wall_run_s_tail", "wall_setup_s", "traced_passes", "traced_run_s", "spans_file"):
        if key in report:
            print(f"  {key}: {report[key]}")
    for msg in report["failures"]:
        print(f"  FAILED {msg}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
