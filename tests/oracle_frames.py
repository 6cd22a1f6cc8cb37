"""DuckDB oracle inputs built from a graph's adjacency arrays, never
from the Spark path under test."""
import numpy as np
import pandas as pd


def edge_frame(graph) -> pd.DataFrame:
    """Edge list of ``graph`` as a pandas frame with int64 columns (u, v)."""
    return pd.DataFrame({
        "u": np.repeat(np.arange(graph.n_left, dtype=np.int64), graph.degrees()),
        "v": np.concatenate([np.empty(0, np.int64), *graph.adj]),
    })
