"""Benchmark for EXP-F17: mass-schedulability analysis throughput.

The vectorized RTA engine's headline number: task sets analyzed per
second under the full method family, scalar oracle vs one
struct-of-arrays batch.  The rows
assert bit-identity against the scalar oracle and that the vector
engine actually engaged (no silent stand-down); the throughputs land in
``meta`` and hence in BENCH_suite.json.
"""

from conftest import bench_experiment


def test_f17_rta_throughput(benchmark):
    result = bench_experiment(benchmark, "EXP-F17")
    modes = result.column("mode")
    assert modes == ["scalar", "vectorized"]
    # Both modes see the same admitted population, bit-identically.
    assert len(set(result.column("schedulable"))) == 1
    assert all(flag == 1 for flag in result.column("identical"))
    # The vector engine must have engaged (no whole-batch stand-down)
    # for the vectorized mode.
    assert result.column("vec_engaged") == [0, 1]
    assert "vectorized_cache_sets_per_s" not in result.meta
    for key in ("scalar_sets_per_s", "vectorized_sets_per_s"):
        assert result.meta[key] is None or result.meta[key] > 0
