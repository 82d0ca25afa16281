"""Layered benchmark of reproducible GROUP BY SUM: q1, highcard and kernel.

Run from the root of a checkout:

    python3 perfbench/run.py --workload q1 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer metrics and writes the spans under
``.bench_build/perfbench/trace/``. ``--quick`` shrinks every input for
the benchmark's own test. The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it (``meta: {...}``) holds the run metadata.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("q1", "highcard", "kernel"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced input sizes (the benchmark's own test)")
    return p.parse_args(argv)


def _src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))


def _memory_bytes() -> int | None:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _java_version() -> str | None:
    """``java -version`` for runs that start no JVM of their own."""
    try:
        out = subprocess.run(["java", "-XX:-UsePerfData", "-version"],
                             capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    first = (out.stderr.strip().splitlines() or [""])[0]
    return first.split('"')[1] if first.count('"') >= 2 else first or None


def _metadata(run, src: Path) -> dict:
    import numpy
    import pandas
    import pyarrow

    from perfbench import inputs, sparkenv

    try:
        import pyspark
        spark_version = pyspark.__version__
    except ImportError:
        spark_version = None
    return {
        "workload": run.workload, "trace": run.trace, "quick": run.quick,
        "nproc": run.nproc, "memory_bytes": _memory_bytes(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "pandas": pandas.__version__, "pyarrow": pyarrow.__version__,
        "pyspark": spark_version, "java": run.meta.get("java") or _java_version(),
        "seed": run.seed, "streams": inputs.STREAMS, "sizes": run.size,
        "spark_settings": (sparkenv.changed_settings(run.nproc)
                           if "java" in run.meta else {}),
        "src_lines": _src_lines(src),
        "problems": run.problems[:20], "faults": run.fault_messages,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {src / 'repro'} or {spec_path} is missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    scratch = WORK / f"run-{os.getpid()}"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch / "tmp")
    tempfile.tempdir = None
    sys.path[:0] = [str(src), str(ROOT)]
    # Spark's Python workers import the program and the benchmark too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    from perfbench import workloads

    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.quick, scratch)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    run.metrics["src.lines"] = (float(_src_lines(src)), "lines")
    if run.trace:
        run.tracer.write(WORK / "trace" / f"{args.workload}-seed{args.seed}.json")

    missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    meta = _metadata(run, src)
    phases = [f"{s['name']} {s['dur']:.1f}s" for s in run.tracer.spans
              if s["name"] in ("session", "load permuted", "load canonical", "warm-up",
                             "check", "close")]
    print("perfbench: phases: " + ", ".join(phases), file=sys.stderr)
    for msg in run.problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": run.metrics[m["name"]][0],
                                "unit": run.metrics[m["name"]][1]}
                    for m in wanted},
    }
    print("meta: " + json.dumps(meta, default=str), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
