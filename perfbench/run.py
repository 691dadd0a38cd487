#!/usr/bin/env python3
"""Desk-scale benchmark for degm: end-to-end timings of three workloads, or a traced run.

Usage, from the repository root::

    python3 perfbench/run.py --workload gr-bernoulli --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

One process runs one workload as a closed loop: it repeats the workload's
``degm.cli`` commands back to back with the same seed until the next repeat
would end after ``--seconds`` (at least two repeats, so determinism is
checked), then reports medians. ``--trace 1`` instead runs three repeats,
the middle one with every public degm function wrapped, and reports per-layer
counts and self times (see ``tracing.py``); tracing overhead is the traced
repeat's time minus the mean of the two plain ones around it.

Each repeat writes its artifacts under ``.perfbench_tmp/`` in the checkout and
deletes them. A repeat fails on an exception, a non-finite number in its
artifacts, artifacts that differ from the first repeat, or (for the reference
seed) a final NLL off ``reference.json``. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give every metric with its unit, ``error_rate``,
``diagnose_s`` on diagnose-gaussian, the environment and the reference check.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# One BLAS thread, set before numpy loads (the set-up probes inherit it). With
# OpenBLAS's default of one thread per core the second thread mostly spins: CPU
# time doubles, wall time does not drop, and every time the host takes a core
# away the wall time jumps.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

SETUP_PROBES = 7
NLL_RTOL = 1e-6

SETUP_SNIPPET = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import degm.cli; "
    "degm.cli.parse_config(json.loads(sys.argv[2]))"
)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Environment


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be read."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# One repeat


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _steal_s() -> float | None:
    """CPU seconds the hypervisor gave to other guests, summed over all CPUs (None if unknown)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def all_finite(path: str) -> bool:
    """False if any numeric cell (or ';'-joined part of one) in a CSV is nan or inf."""
    with open(path) as f:
        text = f.read()
    for line in text.splitlines():
        for cell in line.replace(";", ",").split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                return False
    return True


def repeat(cli, name: str, seed: int, scale: dict | None = None) -> dict:
    """Run the workload once in a fresh temporary directory and describe the outcome."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_ROOT)
    cpu0, steal0 = _cpu_s(), _steal_s()
    t0 = time.perf_counter()
    try:
        result = workloads.run(cli, name, seed, out_dir, scale)
        run_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
        steal1 = _steal_s()
        paths = [os.path.join(out_dir, a) for a in result["artifacts"]]
        return {
            "run_s": run_s,
            "cpu_s": cpu_s,
            "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
            "diagnose_s": result.get("diagnose_s"),
            "final_avg_nll": result["final_avg_nll"],
            "digests": {a: _sha256(p) for a, p in zip(result["artifacts"], paths)},
            "finite": math.isfinite(result["final_avg_nll"]) and all(map(all_finite, paths)),
        }
    except Exception:  # noqa: BLE001 - a failed repeat is counted, not fatal
        return {"run_s": time.perf_counter() - t0, "error": traceback.format_exc()}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def judge(repeats: list[dict], name: str, seed: int, reference: dict) -> dict:
    """Mark each repeat's failures in place; return the reference comparison."""
    ref = reference["workloads"].get(name) if seed == reference["seed"] else None
    first = next((r for r in repeats if "error" not in r), None)
    for r in repeats:
        reasons = []
        if "error" in r:
            reasons.append("exception")
        else:
            if not r["finite"]:
                reasons.append("non-finite number")
            if r["digests"] != first["digests"]:
                reasons.append("artifacts differ from the first repeat")
            if ref is not None and not math.isclose(r["final_avg_nll"], ref["final_avg_nll"], rel_tol=NLL_RTOL):
                reasons.append(f"final_avg_nll {r['final_avg_nll']!r} != reference {ref['final_avg_nll']!r}")
        r["failures"] = reasons
    if ref is None or first is None:
        return {"checked": False}
    return {"checked": True, "bitwise_equal": first["digests"] == ref["digests"]}


def loop(cli, name: str, seed: int, seconds: float) -> list[dict]:
    """Closed loop: at least two repeats, then more until the next one would end after ``seconds``."""
    repeats = []
    start = time.perf_counter()
    while True:
        repeats.append(repeat(cli, name, seed))
        elapsed = time.perf_counter() - start
        if len(repeats) >= 2 and elapsed + max(r["run_s"] for r in repeats) > seconds:
            return repeats


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import degm and parse the config."""
    cfg = json.dumps(workloads.config(name, seed, os.path.join(TMP_ROOT, "setup")))
    src = os.path.join(ROOT, "src")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, src, cfg], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def bracketed_trace(cli, name: str, seed: int):
    """Untraced, traced, untraced: the two plain repeats cancel a linear drift in machine speed."""
    before = repeat(cli, name, seed)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, "degm"):
        traced = repeat(cli, name, seed)
    traced["traced"] = True
    return [before, traced, repeat(cli, name, seed)], tracer


# ---------------------------------------------------------------------------
# Reporting


def _print_metric(name: str, value: float, unit: str) -> None:
    print(f"  {name:<52} {value!r} {unit}")


def layer_metrics(spec: dict, tracer: tracing.Tracer, summary: dict, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced repeat."""
    metrics = {}
    for m in spec["per_layer"]:
        if m["name"] == "trace.overhead_s":
            metrics[m["name"]] = traced_s - untraced_s
        else:
            metrics[m["name"]] = tracing.layer_metric(tracer, m["name"], summary)
    return metrics


def report_spans(tracer: tracing.Tracer, summary: dict, path: str) -> None:
    tracer.write_csv(path)
    print(f"spans: {len(tracer.names)} written to {os.path.relpath(path, ROOT)}")
    print(f"  {'span':<44} {'calls':>8} {'incl_s':>9} {'self_s':>9}")
    for label, row in sorted(summary.items(), key=lambda kv: -kv[1]["incl_s"])[:30]:
        print(f"  {label:<44} {row['calls']:>8} {row['incl_s']:>9.3f} {row['self_s']:>9.3f}")


def run_workload(args, spec: dict) -> int:
    cli = workloads.import_cli(ROOT)
    reference = load_reference()
    env = environment(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    tracer = None
    if args.trace:
        repeats, tracer = bracketed_trace(cli, args.workload, args.seed)
    else:
        repeats = loop(cli, args.workload, args.seed, args.seconds)
    # Read before the set-up probes start: they are children too.
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    ref_check = judge(repeats, args.workload, args.seed,
                      {"seed": None, "workloads": {}} if args.write_reference else reference)

    for i, r in enumerate(repeats, 1):
        kind = "traced" if r.get("traced") else "repeat"
        status = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        steal = r.get("steal_s")
        print(f"{kind} {i}: run_s={r['run_s']:.3f} cpu_s={r.get('cpu_s', float('nan')):.3f} "
              f"steal_s={'n/a' if steal is None else format(steal, '.3f')} "
              f"final_avg_nll={r.get('final_avg_nll')!r} {status}")
        if "error" in r:
            print(r["error"], file=sys.stderr)
    ok = [r for r in repeats if not r["failures"] and not r.get("traced")]
    failed = sum(1 for r in repeats if r["failures"])
    if not ok:
        raise SystemExit("perfbench: no repeat succeeded")
    run_s = statistics.median(r["run_s"] for r in ok)

    extra = {"error_rate": (failed / len(repeats), "ratio")}
    if args.trace:
        definitions = spec["per_layer"]
        summary = tracer.summary()
        metrics = layer_metrics(spec, tracer, summary, repeats[1]["run_s"], run_s)
        report_spans(tracer, summary, os.path.join(OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.csv"))
    else:
        definitions = spec["end_to_end"]
        measured = {
            "setup_s": setup_seconds(args.workload, args.seed),
            "run_s": run_s,
            "cpu_s": statistics.median(r["cpu_s"] for r in ok),
            "peak_rss_mb": peak_kb / 1024.0,
            "final_avg_nll": ok[0]["final_avg_nll"],
        }
        metrics = {m["name"]: measured[m["name"]] for m in definitions}
        if args.workload == "diagnose-gaussian":
            extra["diagnose_s"] = (statistics.median(r["diagnose_s"] for r in ok), "s")
    units = {m["name"]: m["unit"] for m in definitions}

    print("metrics:")
    for name, value in metrics.items():
        _print_metric(name, value, units[name])
    for name, (value, unit) in extra.items():
        _print_metric(name, value, unit)
    if ref_check["checked"]:
        print(f"reference: seed {args.seed} final_avg_nll checked; artifacts bitwise equal to "
              f"reference digests: {'yes' if ref_check['bitwise_equal'] else 'no'}")
    else:
        print(f"reference: none for seed {args.seed}; determinism and finiteness checked only")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "metrics": metrics, "extra": {k: v for k, (v, _) in extra.items()}, "reference": ref_check,
        "repeats": [{k: v for k, v in r.items() if k != "error"} for r in repeats],
    }
    if tracer is not None:
        record["spans"] = summary
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    if args.write_reference:
        if reference["seed"] != args.seed:
            reference = {"seed": args.seed, "workloads": {}}
        reference["workloads"][args.workload] = {
            "final_avg_nll": ok[0]["final_avg_nll"], "digests": ok[0]["digests"]}
        with open(REFERENCE_PATH, "w") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=load_reference()["seed"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's final NLL and artifact digests as the seed's reference")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
