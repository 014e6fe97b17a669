"""quoptics benchmark: one closed-loop caller drives the public API.

Usage, from the repository root:

    python3 perfbench/run.py --workload open-system --seed 1 --seconds 25 --trace 0

Each call starts only after the previous one returns, with BLAS pinned to
one thread.  The package is imported from ``src`` next to this directory;
nothing under ``src`` is changed or patched.

A run uses WORKERS fresh interpreters, one after another, so that no two
processes compete and a per-process accident of memory layout weighs on a
third of the passes only.  Each worker sets up (imports the package, draws
the inputs from the seed, makes a small warm-up call of every engine the
workload uses) and then repeats full workload passes while the next one is
expected to end within its share of ``--seconds``.  Every operation's output
is checked against an oracle inside the pass.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json: median pass time, set-up time,
peak resident memory and the share of operations that succeeded, each the
median over passes or workers.  With ``--trace 1`` they are the per-layer
ones: the passes alternate untraced and traced, spans around each public
call give every layer's self time, and the difference of the two kinds of
pass is the tracing overhead.  The line before
it records the environment, every pass time and each failure's message.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "open-system": "open_system",
    "phase-space": "phase_space",
    "trajectories": "trajectories",
    "registry": "registry",
}
WORKERS = 3
# dense rungs used for the scaling exponents: (key prefix, n_max values)
SCALING = (
    ("lindblad.steady_state", (10, 20, 30)),
    ("lindblad.evolve_master", (10, 20, 30)),
    ("correlations.regression_correlator", (10, 20, 30)),
)


def _import_package():
    """Import quoptics from ``src``; refuse a copy installed elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import quoptics

    origin = Path(quoptics.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"quoptics imported from {origin}, not from src/")


def _set_up(workload: str, seed: int):
    """Import, draw the inputs, warm up; returns (module, inputs, seconds)."""
    t0 = time.perf_counter()
    _import_package()
    import numpy as np

    wl = importlib.import_module(WORKLOADS[workload])
    inputs = wl.make_inputs(np.random.default_rng(seed))
    warm = harness.Recorder()
    wl.warm_up(warm)
    if warm.failed:
        raise SystemExit(f"warm-up failed: {warm.errors}")
    return wl, inputs, time.perf_counter() - t0


def _run_worker(args, index: int, seconds: float) -> dict:
    """One fresh interpreter: set up, measure, report as JSON."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(seconds),
         "--trace", str(args.trace), "--worker", str(index)],
        capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"worker {index} exited with {out.returncode}")
    return json.loads(out.stdout.splitlines()[-1])


def _worker(args) -> int:
    wl, inputs, setup_s = _set_up(args.workload, args.seed)
    rec, passes = _measure(wl, inputs, args.seconds, bool(args.trace),
                           args.worker)
    print(json.dumps({
        "setup_s": setup_s, "passes": passes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": rec.calls, "failed": rec.failed, "counts": rec.counts,
        "wrong_outputs": rec.wrong_outputs, "errors": rec.errors,
        "spans": len(rec.spans), "environment": _environment(args.seed),
    }))
    return 0


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def _fit_exponent(busy: dict, prefix: str, rungs) -> float:
    """Slope of log(busy time) against log(Hilbert dimension n_max + 1)."""
    import numpy as np

    times = [busy.get(f"{prefix}.n{n}.busy_s", 0.0) for n in rungs]
    if min(times) <= 0.0:
        return 0.0
    dims = np.log([n + 1.0 for n in rungs])
    return float(np.polyfit(dims, np.log(times), 1)[0])


def _measure(wl, inputs, seconds: float, trace: bool, offset: int):
    """Repeat full passes (at least one) while the next is expected to end
    within ``seconds``; with ``trace`` the passes alternate untraced and
    traced, counting from ``offset``."""
    rec = harness.Recorder()
    passes = []
    start = time.perf_counter()
    while True:
        rec.tracing = trace and (offset + len(passes)) % 2 == 1
        first_span = len(rec.spans)
        t = time.perf_counter()
        with rec.span("bench.pass"):
            wl.run_pass(inputs, rec)
        took = time.perf_counter() - t
        passes.append({
            "seconds": took, "traced": rec.tracing,
            "self": harness.self_times(rec.spans, first_span)
            if rec.tracing else {},
        })
        if time.perf_counter() - start + took > seconds:
            return rec, passes


def _layer_metrics(rec, passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    busy_keys = sorted({k for p in traced for k in p["self"]})
    out = {}
    for key in busy_keys:
        value = statistics.median(p["self"].get(key, 0.0) for p in traced)
        out[key + (".self_s" if key == "bench.pass" else ".busy_s")] = value
    n = len(passes)
    for layer in sorted({harness.layer_of(k) for k in rec.calls}):
        out[layer + ".calls"] = sum(
            v for k, v in rec.calls.items() if harness.layer_of(k) == layer) / n
        out[layer + ".failed"] = sum(
            v for k, v in rec.failed.items() if harness.layer_of(k) == layer) / n
    out.update(rec.counts)
    for prefix, rungs in SCALING:
        if any(k.startswith(prefix + ".n") for k in busy_keys):
            out[prefix + ".exponent"] = _fit_exponent(out, prefix, rungs)
    out["bench.trace_overhead_s"] = (
        statistics.median(p["seconds"] for p in traced)
        - statistics.median(p["seconds"] for p in untraced))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, default=None,
                    help="run as worker number N of a run and print its raw record")
    args = ap.parse_args(argv)
    if args.worker is not None:
        return _worker(args)

    workers = []
    measured_s = 0.0
    for index in range(WORKERS):
        share = (args.seconds - measured_s) / (WORKERS - index)
        workers.append(_run_worker(args, index, share))
        measured_s += sum(p["seconds"] for p in workers[-1]["passes"])

    rec = harness.Recorder()
    for w in workers:
        rec.calls.update(w["calls"])
        rec.failed.update(w["failed"])
        rec.counts.update(w["counts"])
        rec.wrong_outputs += w["wrong_outputs"]
        for key, msg in w["errors"].items():
            rec.errors.setdefault(key, msg)
    passes = [p for w in workers for p in w["passes"]]
    attempted = sum(rec.calls.values())
    failed = sum(rec.failed.values())
    untraced_s = [p["seconds"] for p in passes if not p["traced"]]
    if args.trace:
        measured = _layer_metrics(rec, passes)
    else:
        measured = {
            "pass_s": statistics.median(untraced_s),
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "peak_rss_mb": statistics.median(w["rss_mb"] for w in workers),
            "ok_frac": 1.0 - failed / attempted,
        }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    unlisted = sorted(set(measured) - {m["name"] for m in listed})
    if unlisted:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unlisted}")
    # a layer this workload does not call reads 0
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in listed}

    print(json.dumps({
        "workload": args.workload, "environment": workers[0]["environment"],
        "closed_loop_clients": 1, "workers": WORKERS,
        "setup_s": [w["setup_s"] for w in workers],
        "peak_rss_mb": [w["rss_mb"] for w in workers],
        "pass_s_untraced": untraced_s,
        "pass_s_traced": [p["seconds"] for p in passes if p["traced"]],
        "spans": sum(w["spans"] for w in workers),
        "wrong_outputs": rec.wrong_outputs, "errors": rec.errors,
    }))
    print(json.dumps({"correct": rec.wrong_outputs == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
