"""Run one switchlab benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload switch_lm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout: the benchmark imports ``switchlab`` from
``src/`` beside this directory. ``--trace 0`` times the workload with nothing
wrapped and reports the end-to-end metrics. ``--trace 1`` runs the loop twice
for half the time each, untraced then traced, and reports the per-layer
metrics and the tracing overhead; it also writes the spans to
``.perfbench/spans-<workload>-seed<n>.jsonl``. ``all`` runs each workload in
a fresh process of its own. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One BLAS thread: never more than nproc on any machine, and steadier than
# letting threads contend on a shared box. Set before numpy is imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha() -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads_observed(np) -> int | None:
    """Thread count OpenBLAS reports at run time, when its library is found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_observed": blas_threads_observed(np),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import spans
    import workloads as wl

    print("env " + json.dumps(environment(np)))
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        ops = wl.Ops()
        run = wl.make_run(wl.WORKLOADS[name], seed, scratch)
        setup_s = run.setup()
        run.warm_up(ops)
        if not trace:
            loop = run.run(seconds, ops)
            run.final_checks(ops)
            metrics = wl.end_to_end(loop, setup_s, run.ce)
            specs = wl.END_TO_END
            pct = wl.tail(loop.step_s)[1]
            notes = {
                "step_ms_tail": f"p{pct:.1f} of {len(loop.step_s)} steps",
                "setup_s": f"median of {len(setup_s)}",
            }
        else:
            untraced = run.run(seconds / 2, ops)
            tracer = spans.Tracer()
            with spans.traced(tracer):
                traced = run.run(seconds / 2, ops, tracer)
            run.final_checks(ops)
            errors = spans.step_tree_errors(tracer.spans)
            ops.check(not errors, "span tree: " + "; ".join(errors[:3]))
            tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
            metrics = wl.per_layer(tracer, untraced, traced, run.ledgers, run.ckpt_bytes())
            specs = wl.per_layer_specs()
            notes = {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for metric, unit, _ in specs:
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{metric:<52} {metrics[metric]:>14.6g} {unit}{note}")
    print(f"{'error_rate':<52} {ops.failed / ops.attempted:>14.6g} ratio"
          f"  ({ops.failed} failed of {ops.attempted} attempted)")
    for failure in ops.failures:
        print(f"failure: {failure}")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u, _ in specs},
    }


def run_all(args) -> dict:
    """Each workload in a fresh process, so its peak RSS is its own."""
    import workloads as wl

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        one = json.loads(lines[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        result["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "switchlab" / "__init__.py").is_file():
        print(f"perfbench: no switchlab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]

    import workloads as wl

    if args.workload != "all" and args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {sorted(wl.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
