"""One benchmark process: set up a workload, check it, time it, report.

Started by run.py, never by hand.  The process start time arrives as
``--t0`` on the system-wide monotonic clock, so the reported set-up time
covers interpreter start, the numpy/scipy/dswave imports and the input
builds.  The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

def _perturb(x):
    """A wrong copy of an op output, for the self-test."""
    if isinstance(x, bytes):
        i = max(x.rfind(d) for d in b"0123456789")
        return x[:i] + (b"1" if x[i:i + 1] != b"1" else b"2") + x[i + 1:]
    if isinstance(x, dict):
        return {k: _perturb(v) for k, v in x.items()}
    return x * 1.01


def measure(unit_fn, specs, refs, passes, inject=None, tracer=None):
    """Run every unit in order; return op times, verdicts, threaded windows.

    specs hold ``passes`` repeats of the same sequence of units; op times
    come back keyed by slot (unit position within a pass, op position
    within the unit).  Only the op calls are timed.  Checks, the glue
    between ops and the release of each unit's inputs (its grid, and the
    mode tables cached on it) happen between timed calls.
    """
    from dswave.errors import AccuracyError, DsWaveError
    clock = time.perf_counter
    times, verdicts, windows = {}, [], []
    per_pass = len(specs) // passes
    for i in range(len(specs)):
        gen = unit_fn(specs[i], refs[i])
        specs[i] = None
        if tracer is not None:
            tracer.unit = i
        checks = []
        op = next(gen)
        while True:
            run = op.run
            if inject == "refuse" and i == 0 and not checks:
                def run():
                    raise AccuracyError("injected refusal")
            t0 = clock()
            try:
                out = run()
                err = None
            except DsWaveError as exc:
                err, why = "refused", exc
            except Exception as exc:  # any other exception is a failed op
                err, why = "failed", exc
            t1 = clock()
            times.setdefault((i % per_pass, len(checks)), []).append(t1 - t0)
            if op.threads > 1:
                windows.append((t0, t1))
            if err:
                print(f"unit {i} {op.name}: {err} ({why!r})", file=sys.stderr)
                verdicts.append(err)
                gen.close()
                break
            if inject == "perturb" and i == 0 and not checks:
                out = _perturb(out)
            checks.append((op.name, op.check, out))
            try:
                op = gen.send(out)
            except StopIteration:
                break
        for name, check, out in checks:
            try:
                ok = bool(check(out))
            except Exception:  # a check that cannot run rejects the value
                ok = False
            if not ok:
                print(f"unit {i} {name}: check failed", file=sys.stderr)
            verdicts.append("ok" if ok else "failed")
        # drop every reference to the unit's inputs and outputs (the last
        # op and check close over its grid), so that the grid and the mode
        # tables cached on it are freed before the next unit
        gen = checks = op = run = check = out = why = None
        gc.collect()
    return times, verdicts, windows


def op_stats(times, verdicts) -> dict:
    """End-to-end figures; each op slot counts with its fastest pass.

    p90 needs ten samples beyond it: it is taken over the slots' fastest
    times when there are at least 100 slots, otherwise over every timed
    call when those reach 100, and left out below that.
    """
    fastest = [min(ts) for ts in times.values()]
    every = [t for ts in times.values() for t in ts]
    res = {
        "wall_s": sum(fastest),
        "op_p50_ms": statistics.median(fastest) * 1e3,
        "samples": len(fastest),
        "calls": len(every),
        "attempted": len(verdicts),
        "refused": verdicts.count("refused"),
        "failed": verdicts.count("failed"),
    }
    p90_base = fastest if len(fastest) >= 100 else every
    if len(p90_base) >= 100:
        res["op_p90_ms"] = statistics.quantiles(p90_base, n=10)[8] * 1e3
        res["p90_samples"] = len(p90_base)
    return res


def layer_metrics(tracer, windows, threads, names) -> dict:
    """Per-layer metrics by name: ``<span>.<stat>``, ``<module>.self_s``,
    ``cli.threads_idle_s``; ``trace.overhead_ratio`` is left to the caller."""
    from tracer import MODULES
    self_t = tracer.self_times()
    stats = {}
    for s in tracer.spans:
        for name in (s[4], s[4].split(".", 1)[0]):  # span, and its module
            st = stats.setdefault(name, {"calls": 0, "points": 0,
                                         "self_s": 0.0, "keys": set()})
            st["calls"] += 1
            st["points"] += int(s[7])
            st["self_s"] += self_t[s[0]]
            if s[8] is not None:
                st["keys"].add((s[2], s[8]))
    out = {}
    for name in names:
        if name == "cli.threads_idle_s":
            out[name] = tracer.idle_seconds(windows, threads)
            continue
        span, stat = name.rsplit(".", 1)
        if span == "trace":
            continue
        if "." not in span and span not in MODULES:
            raise KeyError(f"per-layer metric {name}: no module {span}")
        st = stats.get(span, {"calls": 0, "points": 0, "self_s": 0.0,
                              "keys": ()})
        c = st["calls"]
        out[name] = (len(st["keys"]) / c if c else 0.0) \
            if stat == "useful_ratio" else st[stat]
    return out


def versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--inject", choices=("perturb", "refuse"))
    args = p.parse_args(argv)

    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import numpy as np
    import workloads
    build, references, unit = workloads.WORKLOADS[args.workload]
    passes = workloads.PASSES
    if not os.path.abspath(workloads.cli.__file__).startswith(ROOT):
        raise SystemExit("dswave was not imported from this checkout")
    work = os.path.join(args.work, f"{args.mode}-{os.getpid()}")

    try:
        specs = [spec for p in range(passes) for spec in build(
            np.random.default_rng(args.seed), args.tiny,
            os.path.join(work, f"pass{p}"), 1e-4 * p)]
        setup_s = time.monotonic() - args.t0
        if args.mode == "probe":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        refs = references(specs)
        if args.mode == "run":
            times, verdicts, _ = measure(unit, specs, refs, passes,
                                         args.inject)
            res = op_stats(times, verdicts)
        else:
            # the first pass runs untraced, the second, on the same slots
            # with nudged inputs, runs traced
            from tracer import Tracer
            n = len(specs) // passes
            first, second = specs[:n], specs[n:2 * n]
            del specs
            times, verdicts, _ = measure(unit, first, refs[:n], 1)
            res = op_stats(times, verdicts)
            tracer = Tracer()
            tracer.install("dswave")
            try:
                t_times, t_verdicts, t_windows = measure(
                    unit, second, refs[n:2 * n], 1, tracer=tracer)
            finally:
                tracer.uninstall()
            traced = op_stats(t_times, t_verdicts)
            for k in ("attempted", "refused", "failed"):
                res[k] += traced[k]
            with open(os.path.join(ROOT, "BENCHMARK.json"),
                      encoding="utf-8") as fh:
                names = [m["name"] for m in json.load(fh)["per_layer"]]
            res["layers"] = layer_metrics(tracer, t_windows,
                                          workloads.CLI_THREADS, names)
            res["layers"]["trace.overhead_ratio"] = (traced["wall_s"]
                                                     / res["wall_s"])
            res["trace_file"] = os.path.join(args.work,
                                             f"trace_{args.workload}.csv.gz")
            tracer.write(res["trace_file"])
        res["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        res["setup_s"] = setup_s
        res["versions"] = versions()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
