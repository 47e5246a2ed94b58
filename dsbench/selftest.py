"""Tiny-mode self-test of the benchmark; it has no timing gate.

For every workload it checks that a tiny untraced run emits each
end-to-end metric of BENCHMARK.json with its unit (op_p90_ms exactly
when the run has at least 100 op slots or timed calls), that a tiny
traced run emits each per-layer metric with its unit, that a perturbed
op output is counted as failed, and that a raised DsWaveError is counted
as refused.
Run it as ``python3 dsbench/run.py --selftest``; it exits 0 when every
check passes.
"""

from __future__ import annotations

import run


def _expect(ok: bool, what: str, problems: list) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        problems.append(what)


def _emitted(got: dict, spec: list, skip=()) -> list:
    return [m["name"] for m in spec if m["name"] not in skip
            and got.get(m["name"], {}).get("unit") != m["unit"]]


def main() -> int:
    bench = run.bench_spec()
    problems: list = []
    p90_seen = False
    for wl in [w["name"] for w in bench["workloads"]]:
        res = run.run(wl, 1, trace=False, tiny=True)
        got = run.metrics(res, False)
        has_p90 = "op_p90_ms" in got
        p90_seen |= has_p90
        missing = _emitted(got, bench["end_to_end"], skip=("op_p90_ms",))
        _expect(not missing
                and has_p90 == (max(res["samples"], res["calls"]) >= 100)
                and res["refused"] == res["failed"] == 0,
                f"{wl}: end-to-end metrics {missing or 'all'} emitted, "
                f"p90 {'shown' if has_p90 else 'omitted'} at "
                f"{res['samples']} slots / {res['calls']} calls, every op ok",
                problems)

        res = run.run(wl, 1, trace=True, tiny=True)
        missing = _emitted(run.metrics(res, True), bench["per_layer"])
        _expect(not missing, f"{wl}: per-layer metrics "
                f"{missing or 'all'} emitted", problems)

        res = run.run(wl, 1, trace=False, tiny=True, inject="perturb")
        _expect(res["failed"] >= 1 and res["refused"] == 0,
                f"{wl}: perturbed output counted as failed "
                f"(failed={res['failed']}, refused={res['refused']})", problems)

        res = run.run(wl, 1, trace=False, tiny=True, inject="refuse")
        _expect(res["refused"] == 1 and res["failed"] == 0,
                f"{wl}: raised DsWaveError counted as refused "
                f"(failed={res['failed']}, refused={res['refused']})", problems)
    _expect(p90_seen, "op_p90_ms emitted by a run with >= 100 samples", problems)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0
