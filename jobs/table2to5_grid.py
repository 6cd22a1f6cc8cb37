"""Tables 2–5: relative Hamming gain, recall, run-time and memory per
(k, algorithm, dataset).

Run: ``spark-submit jobs/table2to5_grid.py``. The four tables are four
projections of one full-grid sweep, cached in results/cells.json
(delete it to force a re-run). Table 4 reports wall seconds on the
container where the paper reports CPU minutes on an i7-3770, so only
ratios are comparable (EXPERIMENTS.md). Table 5 is deterministic
algorithm-state accounting, not RSS (repro/eval/memory.py); basso's
out-of-budget cells print as the paper's "—".
"""
import _common  # noqa: F401
import os

from repro.eval.tables import render_metric_table, run_full_grid, write_table

# (file, title, CellResult attribute, cell format)
TABLES = (
    ("table2.md", "Table 2 — relative Hamming gain", "gain", lambda v: f"{v:.4f}"),
    ("table3.md", "Table 3 — recall", "recall", lambda v: f"{v:.4f}"),
    ("table4.md", "Table 4 — run-time (wall seconds)", "seconds", lambda v: f"{v:.1f}"),
    (
        "table5.md",
        "Table 5 — memory (MB, algorithm-state accounting)",
        "memory_bytes",
        lambda v: f"{v / 2**20:.2f}",
    ),
)


def main() -> None:
    spark = _common.get_spark()
    cells = run_full_grid(spark)
    for fname, title, metric, fmt in TABLES:
        write_table(
            os.path.join(_common.RESULTS_DIR, fname),
            title,
            render_metric_table(cells, metric, fmt=fmt),
        )
    spark.stop()


if __name__ == "__main__":
    main()
