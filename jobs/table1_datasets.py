"""Table 1: dataset properties — paper's real datasets vs our stand-ins.

Run: ``spark-submit jobs/table1_datasets.py`` (or plain python).
Writes results/table1.md.
"""
import _common  # noqa: F401  (sys.path setup)
import os

from repro.eval.datasets import DATASET_NAMES, PAPER_TABLE1, load_dataset
from repro.eval.tables import write_table
from repro.spark.stream_df import dataset_stats, edges_from_stream, to_spark_stream


def main() -> None:
    spark = _common.get_spark()
    lines = [
        "| Dataset | source | |U| | |V| | |E| | density | deg_avg | P99 |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name in DATASET_NAMES:
        p = PAPER_TABLE1[name]
        lines.append(
            f"| {name} | paper | {p.n_left} | {p.n_right} | {p.n_edges} | "
            f"{p.density:.6f} | {p.avg_degree} | {p.p99_degree} |"
        )
        g = load_dataset(name)
        st = dataset_stats(
            edges_from_stream(to_spark_stream(spark, g)),
            n_left=g.n_left, n_right=g.n_right,
        )
        lines.append(
            f"| {name} | ours | {st.n_left} | {st.n_right} | {st.n_edges} | "
            f"{st.density:.6f} | {st.avg_degree:.0f} | {st.p99_degree} |"
        )
    write_table(
        os.path.join(_common.RESULTS_DIR, "table1.md"),
        "Table 1 — dataset properties (paper vs synthetic stand-ins)",
        "\n".join(lines),
    )
    spark.stop()


if __name__ == "__main__":
    main()
