"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload at 1/10 of its size, untraced and traced, through
the same set-up, measurement and reporting code as ``run.py``, and
checks that:

* every repetition passes its output checks;
* every metric BENCHMARK.json names is reported, with its unit;
* the distributed pass's coreset rows equal the driver merge's inputs,
  and its input rows equal the number of left vertices;
* the §4.2 cover runs 5 times on sofa-wiki (θ line search) and once on
  sofa-auto-flickr;
* every child span lies inside its parent span.

Exits 0 when all hold and 1 otherwise, listing the failures.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run

SHRINK = 10
COVER_CALLS = {"sofa-wiki": 5, "sofa-auto-flickr": 1}


def expected_metrics() -> tuple:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def check_report(metrics: dict, want: dict) -> list:
    bad = []
    if set(metrics) != set(want):
        bad.append(f"metric names {sorted(set(metrics) ^ set(want))} differ")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            bad.append(f"{name}: reported {got}, want a value in {unit}")
    return bad


def check_trace(name: str, wl, m) -> list:
    bad = []
    tr = m.tracer
    for child in tr.spans:
        if child.parent is None:
            continue
        parent = tr.spans[child.parent]
        if not (parent.start <= child.start <= child.end <= parent.end):
            bad.append(f"span {child.name} is not inside {parent.name}")
    for rep, traced in zip(m.reps, m.traced):
        if not traced:
            continue
        layers = wl.layers(tr, rep)
        if name in COVER_CALLS:
            if layers["second_pass.cover_calls"] != COVER_CALLS[name]:
                bad.append(f"cover_calls {layers['second_pass.cover_calls']}")
            if layers["distributed_sofa.coreset_rows"] != layers["sofa.merge_inputs"]:
                bad.append("coreset rows differ from merge inputs")
            if layers["distributed_sofa.input_rows"] != wl.graph.n_left:
                bad.append("partition input rows differ from |U|")
        elif layers["sofa.pushes"] != wl.graph.n_left:
            bad.append("engine pushes differ from |U|")
    return bad


def main() -> int:
    end_to_end, per_layer = expected_metrics()
    work_dir = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    work_dir.mkdir(parents=True)
    run.prepare_environment(work_dir)
    import workloads

    failures = []
    spark = run.start_spark(work_dir)
    try:
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                wl = workloads.build(name, spark, 1, str(work_dir), shrink=SHRINK)
                setup_s, _ = run.set_up(wl)
                m = run.measure(wl, 0.0, trace)
                bad = [f"rep {f['rep']}: {p}" for f in m.failures for p in f["problems"]]
                try:
                    metrics = run.metrics_of(wl, m, setup_s)
                except RuntimeError as exc:
                    metrics, bad = {}, bad + [str(exc)]
                bad += check_report(metrics, per_layer if trace else end_to_end)
                if trace:
                    bad += check_trace(name, wl, m)
                status = "ok" if not bad else "FAILED"
                print(f"{name} trace={int(trace)}: {status}", flush=True)
                failures += [f"{name} trace={int(trace)}: {b}" for b in bad]
    finally:
        run.stop_spark(spark)
        shutil.rmtree(work_dir, ignore_errors=True)
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
