"""The D workloads' golden digests in bench/expected.json, recomputed
with the benchmark's own modules: a bridge, iso or reason text that
formats differently fails here, not only in a benchmark run.  Only
reads bench/."""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = range(4)


@pytest.fixture(scope="module")
def bench_run():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("run")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", ["d-mixed", "d-disconnected"])
def test_d_goldens_match(bench_run, workload, tmp_path):
    table = json.loads((BENCH / "expected.json").read_text())[workload]
    for seed in SEEDS:
        work = bench_run.Workload(workload, seed, str(tmp_path))
        work.ops = work.build()
        digests, verdicts = work.expected_outputs()
        assert digests == table["seeds"][str(seed)], f"{workload} seed {seed}"
        assert verdicts == table["transpose_verdicts"], f"{workload} seed {seed}"
