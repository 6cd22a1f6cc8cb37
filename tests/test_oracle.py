"""Tests for the DuckDB oracle itself."""
import pandas as pd
import pyspark.sql.functions as F
import pytest

from .oracle import assert_equivalent


class TestOracle:
    def test_accepts_matching_aggregate(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]}))
        got = df.groupBy("k").agg(F.sum("v").alias("s"))
        assert_equivalent(got, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=df)

    def test_rejects_wrong_values(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]}))
        got = df.select("k", (F.col("v") * 2).alias("v2"))
        with pytest.raises(AssertionError):
            assert_equivalent(got, "SELECT k, v * 3 AS v2 FROM t", t=df)

    def test_rejects_column_mismatch(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"k": [1]}))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(df, "SELECT k AS other FROM t", t=df)

    def test_row_order_irrelevant(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"k": [3, 1, 2]}))
        assert_equivalent(
            df.orderBy(F.desc("k")), "SELECT k FROM t ORDER BY k ASC", t=df
        )

    def test_accepts_pandas_inputs(self, spark):
        pdf = pd.DataFrame({"k": [1, 2, 2]})
        got = spark.createDataFrame(pdf).groupBy("k").agg(F.count("*").alias("c"))
        assert_equivalent(got, "SELECT k, count(*) AS c FROM t GROUP BY k", t=pdf)

