#!/usr/bin/env python3
"""Benchmark of the dswave library: four seeded workloads, one process each.

Run from the root of a checkout:

    python3 dsbench/run.py --workload oracle_table --seed 1 --seconds 8 --trace 0
    python3 dsbench/run.py --selftest

The launcher imports neither numpy nor dswave.  It starts fresh worker
processes one after another: four that only set up, one that also
checks and times the op list, and four more that only set up; the
median of the nine set-up times is ``setup_s``.  Each workload runs a
fixed op list; ``--seconds`` is accepted but does not size it.  With
``--trace 1`` the worker times the op list untraced, then again with the
span tracer, and reports the per-layer metrics.  The last stdout line is
one JSON object; every line before it is a record for a reader.  See
NOTES.md for the workloads and how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(HERE, ".work")
SETUP_PROBES = 4          # set-up-only starts before and again after the run
BLAS_THREADS = 1          # CLI pool threads (2) x BLAS threads <= nproc
RUN_TIMEOUT_S = 170.0


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def drift_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: a host-drift indicator."""
    samples = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        samples.append((time.perf_counter() - t) * 1e3)
    return statistics.median(samples)


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DSWAVE_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def _worker(args: list[str], deadline: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, "--t0", repr(t0), "--work", WORKDIR] + args,
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, trace: bool, tiny: bool = False,
        inject: str | None = None) -> dict:
    """Run one workload; return the worker's record plus launcher fields."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(WORKDIR, exist_ok=True)
    drift_start = drift_probe_ms()
    common = ["--workload", workload, "--seed", str(seed)] \
        + (["--tiny"] if tiny else [])
    probes = 0 if trace else 1 if tiny else SETUP_PROBES

    def probe():
        return [_worker(common + ["--mode", "probe"], deadline)["setup_s"]
                for _ in range(probes)]

    # probes on both sides of the run: the host's slow spells last
    # seconds, so starts made back to back would all share one of them
    setup = probe()
    res = _worker(common + ["--mode", "trace" if trace else "run"]
                  + (["--inject", inject] if inject else []), deadline)
    setup += [res["setup_s"]] + probe()
    res["setup_samples"] = setup
    res["setup_s"] = statistics.median(setup)
    res["drift_probe_ms"] = (drift_start, drift_probe_ms())
    return res


def metrics(res: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    found = res["layers"] if trace else res
    spec = bench_spec()["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": found[m["name"]], "unit": m["unit"]}
            for m in spec if m["name"] in found}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def report(workload: str, seed: int, trace: bool, res: dict) -> None:
    v = res["versions"]
    print(f"env python={v['python']} numpy={v['numpy']} scipy={v['scipy']} "
          f"blas={v['blas']!r} cpu={_cpu_model()!r} nproc={os.cpu_count()} "
          f"blas_threads={BLAS_THREADS}")
    d0, d1 = res["drift_probe_ms"]
    print(f"drift_probe_ms start={d0:.3f} end={d1:.3f} "
          "(host-drift indicator; not a metric)")
    print(f"workload={workload} seed={seed} trace={int(trace)} "
          f"attempted={res['attempted']} refused={res['refused']} "
          f"failed={res['failed']} op_slots={res['samples']} "
          f"op_calls={res['calls']} p90_samples={res.get('p90_samples', 0)}")
    print("setup_s samples=" + ",".join(f"{s:.4f}" for s in res["setup_samples"]))
    if trace:
        print(f"spans written to {os.path.relpath(res['trace_file'], ROOT)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload",
                   choices=[w["name"] for w in bench_spec()["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=8)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="tiny runs that check metrics and op verdicts")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dswave", "__init__.py")):
        print("dswave sources not found under src/; run from a checkout",
              file=sys.stderr)
        return 2
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None or args.seconds < 1:
        p.error("--workload and --seconds >= 1 are required")
    trace = bool(args.trace)
    res = run(args.workload, args.seed, trace)
    report(args.workload, args.seed, trace, res)
    bad = res["refused"] + res["failed"]
    print(json.dumps({"correct": bad == 0, "attempted": res["attempted"],
                      "failed": bad, "metrics": metrics(res, trace)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
