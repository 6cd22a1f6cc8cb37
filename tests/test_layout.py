"""Module boundaries of ``src/repro``, read from the source with ``ast``:
pandas and duckdb belong to the test oracle (``tests/oracle.py``), not
to the package; pyspark to the Spark layer and the two eval modules
that drive it; the vertex stream's wire format is written down once
(``repro.spark.stream_df``); and engine state crosses Spark as Arrow
coresets, never pickled."""
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


def test_no_pickle_in_spark_layer():
    """Coresets travel through ``distributed_sofa``'s Arrow codec."""
    assert {m for m in _importers("pickle") if m.startswith("spark/")} == set()


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


def _map_in_arrow_functions():
    """(module, FunctionDef) for every function passed to ``mapInArrow``
    under src/repro: a function named at the call, or the one a factory
    called there returns. Every definition of that name is included."""
    out = []
    for name, tree in _modules():
        defs = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "mapInArrow"):
                continue
            arg = node.args[0] if node.args else next(
                k.value for k in node.keywords if k.arg == "func")
            if isinstance(arg, ast.Call):
                assert isinstance(arg.func, ast.Name), ast.unparse(arg)
                (factory,) = defs[arg.func.id]
                arg = next(s.value for s in factory.body if isinstance(s, ast.Return))
            assert isinstance(arg, ast.Name), f"{name}: cannot resolve {ast.unparse(arg)}"
            out += [(name, fn) for fn in defs[arg.id]]
    return out


def test_map_in_arrow_functions_keep_zip_directories():
    """A Python task that skips ``keep_zip_directories`` re-reads every
    zip archive on the worker's path (stream_df docstring): each function
    passed to ``mapInArrow`` calls it first."""
    found = _map_in_arrow_functions()
    assert {m for m, _ in found} >= {
        "spark/distributed_sofa.py", "spark/second_pass_df.py", "spark/metrics_df.py"}
    for module, fn in found:
        body = fn.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # docstring
        first = body[0]
        assert (
            isinstance(first, ast.Expr) and isinstance(first.value, ast.Call)
            and isinstance(first.value.func, ast.Name)
            and first.value.func.id == "keep_zip_directories"
        ), f"{module}:{fn.lineno} {fn.name} does not call keep_zip_directories() first"
