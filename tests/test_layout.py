"""Module boundaries of ``src/repro``, read from the source with ``ast``:
pandas and duckdb belong to the test oracle (``tests/oracle.py``), not
to the package; pyspark to the Spark layer and the two eval modules
that drive it; and the vertex stream's wire format is written down once
(``repro.spark.stream_df``)."""
import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "repro"
STREAM_SCHEMA_LITERAL = '"u bigint, neighbors array<bigint>"'


def _modules():
    """(path relative to src/repro, parsed module) for every source file."""
    return [
        (p.relative_to(PKG).as_posix(), ast.parse(p.read_text()))
        for p in sorted(PKG.rglob("*.py"))
    ]


def _importers(package: str) -> set:
    """Source files that import ``package`` or one of its submodules."""
    out = set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = {node.module.split(".")[0]}
            else:
                continue
            if package in tops:
                out.add(name)
    return out


def test_pandas_and_duckdb_only_in_oracle():
    assert _importers("pandas") == set()
    assert _importers("duckdb") == set()


def test_pyspark_only_in_spark_layer():
    allowed = {"eval/harness.py", "eval/tables.py"}
    stray = {m for m in _importers("pyspark") if not m.startswith("spark/")}
    assert stray <= allowed


def test_no_map_in_pandas():
    users = {
        name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "mapInPandas"
    }
    assert users == set()


def test_stream_schema_written_once():
    count = sum(p.read_text().count(STREAM_SCHEMA_LITERAL) for p in PKG.rglob("*.py"))
    assert count == 1
