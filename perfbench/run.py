"""Benchmark of the SOFA reproduction: one workload per run.

    python3 perfbench/run.py --workload stream-wiki --seed 0 --seconds 20 --trace 0

Run from the repository root. It starts Spark as ``local[N]`` (N = the
smaller of 4 and the core count), generates the workload's inputs from
``--seed``, sets up and warms up, then runs repetitions one after
another (a closed loop with one client) for about ``--seconds`` seconds
and checks every repetition's outputs. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it is ``{"meta": ...}`` with the run's versions, seeds,
per-repetition times and set-up breakdown.

``--trace 0`` reports the end-to-end metrics (``wall_s`` is the median
over the repetitions). ``--trace 1`` mixes traced and untraced
repetitions and reports the per-layer metrics: medians over the traced
repetitions, plus ``trace.overhead_s`` (traced minus untraced median
wall time).

Workloads (see workloads.py): ``sofa-auto-flickr`` and ``stream-wiki``,
which BENCHMARK.json lists, and ``sofa-wiki``. The seed relabels the
right-hand vertices of the stand-in dataset; seed 0 is the Table 2 input.

    python3 perfbench/selftest.py

checks the benchmark itself on tiny inputs.

Everything the run writes goes to ``.perfbench_work/`` under the root
and is removed at the end.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 3     # set-up is repeated and its median reported
MIN_REPS = 2


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cores() -> int:
    return min(4, os.cpu_count() or 1)


def prepare_environment(work_dir: Path) -> None:
    """Point Spark, its Python workers and temp files at the checkout.
    Must run before pyspark is imported."""
    for sub in ("tmp", "spark-local", "warehouse"):
        (work_dir / sub).mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(work_dir / "tmp")


def start_spark(work_dir: Path):
    from pyspark.sql import SparkSession

    tmp = work_dir / "tmp"
    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{cores()}]")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f'-XX:-UsePerfData "-Djava.io.tmpdir={tmp}"')
        .config("spark.local.dir", str(work_dir / "spark-local"))
        .config("spark.sql.warehouse.dir", str(work_dir / "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(2 * cores()))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the context, then the JVM, and wait for it to exit."""
    from py4j.protocol import Py4JError
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    try:
        spark.stop()
    except Py4JError:  # interrupted mid-call: the JVM still has to go
        pass
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return None
    return top[1]


def src_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for p in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def tail_percentile(values: list) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    p = int(100 * (1 - 10 / n))
    return {"percentile": p, "value": statistics.quantiles(values, n=100)[p - 1]}


@dataclass
class Measurement:
    outcomes: list          # repetitions that returned, checked or not
    reps: list              # their repetition numbers
    traced: list            # whether each of them was traced
    failures: list
    attempted: int
    tracer: object = None


def set_up(wl) -> tuple:
    """Prepare the inputs ``SETUP_ROUNDS`` times, then warm up once.
    Returns (median preparation + warm-up seconds, breakdown)."""
    prepare_s = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        wl.prepare()
        prepare_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    wl.warm_up()
    warm_s = time.perf_counter() - t0
    wl.finish_setup()
    return statistics.median(prepare_s) + warm_s, {"prepare_s": prepare_s, "warm_up_s": warm_s}


def measure(wl, seconds: float, trace: bool) -> Measurement:
    """Closed loop with one client: run repetitions until the next one
    would overrun ``seconds`` (at least ``MIN_REPS``). With ``trace``,
    repetitions go traced, untraced, untraced, traced, ..., so the order
    within each pair alternates."""
    from spans import NullTracer, Tracer

    m = Measurement([], [], [], [], 0, Tracer() if trace else None)
    first = None
    durations = []
    t_start = time.perf_counter()
    while True:
        rep = m.attempted
        use_trace = trace and rep % 4 in (0, 3)
        if use_trace:
            m.tracer.rep = rep
        t0 = time.perf_counter()
        try:
            out = wl.run(m.tracer if use_trace else NullTracer())
            problems = wl.check(out, first)
        except Exception:  # a failed repetition is counted, not fatal
            out, problems = None, [traceback.format_exc()]
        durations.append(time.perf_counter() - t0)
        m.attempted += 1
        if problems:
            m.failures.append({"rep": rep, "problems": problems})
            print(f"repetition {rep} failed:", *problems, sep="\n", file=sys.stderr)
        if out is not None:
            first = first or out
            m.outcomes.append(out)
            m.reps.append(rep)
            m.traced.append(use_trace)
        elapsed = time.perf_counter() - t_start
        if m.attempted >= MIN_REPS and elapsed + statistics.median(durations) > seconds:
            return m


def metrics_of(wl, m: Measurement, setup_s: float) -> dict:
    """End-to-end metrics of an untraced run, per-layer ones of a traced
    run. Raises RuntimeError when no repetition of the kind returned."""
    from workloads import LAYER_METRICS

    plain = [o.wall_s for o, t in zip(m.outcomes, m.traced) if not t]
    traced_wall = [o.wall_s for o, t in zip(m.outcomes, m.traced) if t]
    if not plain or (m.tracer is not None and not traced_wall):
        raise RuntimeError("no repetition returned a result")
    if m.tracer is None:
        base = m.outcomes[0]
        return {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "gain": {"value": base.gain, "unit": "ratio"},
            "recall": {"value": base.recall, "unit": "ratio"},
            "memory_bytes": {"value": base.memory_bytes, "unit": "bytes"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    rows = [wl.layers(m.tracer, r) for r, t in zip(m.reps, m.traced) if t]
    values = {k: statistics.median(r[k] for r in rows) for k in LAYER_METRICS}
    values["trace.wall_s"] = statistics.median(traced_wall)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(plain)
    return {k: {"value": values[k], "unit": u} for k, u in LAYER_METRICS.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so Spark stops and files go
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_dir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True)
    prepare_environment(work_dir)
    import numpy
    import pandas
    import pyspark
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        shutil.rmtree(work_dir)
        return 2

    spark = None
    try:
        t0 = time.perf_counter()
        spark = start_spark(work_dir)
        spark_s = time.perf_counter() - t0
        wl = workloads.build(args.workload, spark, args.seed, str(work_dir))
        setup_s, setup = set_up(wl)
        m = measure(wl, args.seconds, bool(args.trace))
        try:
            metrics = metrics_of(wl, m, spark_s + setup_s)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        plain = [o.wall_s for o, t in zip(m.outcomes, m.traced) if not t]
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "generator_seed": workloads._SPECS[wl.dataset]["seed"],
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "spark_master": spark.sparkContext.master,
            "python": platform.python_version(),
            "pyspark": pyspark.__version__,
            "numpy": numpy.__version__,
            "pandas": pandas.__version__,
            "git_commit": git_commit(),
            "src_sha256": src_digest(),
            "wall_s_samples": len(plain),
            "wall_s_reps": plain,
            "wall_s_tail": tail_percentile(plain),
            "setup": {"spark_s": spark_s, **setup},
            "failures": m.failures,
        }
    finally:
        try:
            if spark is not None:
                stop_spark(spark)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
