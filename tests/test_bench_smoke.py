"""Smoke test of the benchmark in dsbench/: every workload of
BENCHMARK.json runs its tiny op list with every op checked ok.  It has no
timing gate; timings are for `python3 dsbench/run.py`."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_run():
    spec = importlib.util.spec_from_file_location(
        "dsbench_run", os.path.join(ROOT, "dsbench", "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_tiny_run(workload):
    res = _load_run().run(workload, 1, trace=False, tiny=True)
    assert res["attempted"] > 0
    assert res["failed"] == 0
    assert res["refused"] == 0
