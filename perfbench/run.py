"""Benchmark of physgrd's calibrate, train and predict/eval workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload calib_grid --seed 1 --seconds 30 --trace 0

One process runs one workload as a single closed-loop caller: set-up (the
imports, the seeded dataset, input files, then one untimed warm-up pass),
then passes until --seconds have gone by. Every pass's outputs are checked
against sha256 fingerprints. Lines before the last name each metric with its
unit; the last line is one JSON object with the metrics BENCHMARK.json lists,
the end_to_end ones with --trace 0 and the per_layer ones with --trace 1.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
FINGERPRINTS = BENCH / "fingerprints.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("calib_grid", "train_canonical", "predict_eval")
SETUP_REPS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: trace the program's public functions and report per-layer metrics")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the same code paths at toy sizes (self-test)")
    p.add_argument("--expected", type=Path, default=None,
                   help="JSON {workload: {file: sha256}} that overrides expected fingerprints")
    p.add_argument("--record", action="store_true",
                   help="store this run's fingerprints as the recorded ones for its seed")
    return p.parse_args(argv)


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _import_program():
    """Import physgrd from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import physgrd
    except ImportError as exc:
        raise SystemExit(f"perfbench: error: cannot import physgrd from {src}: {exc}")
    if not Path(physgrd.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: error: physgrd imported from {physgrd.__file__}, not {src}")


def _openblas_runtime() -> tuple[str, int | None]:
    """Core type and thread count the loaded OpenBLAS reports, if it is one."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get_threads = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            get_core = getattr(handle, f"{prefix}get_corename{suffix}", None)
            if get_threads and get_core:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_core.argtypes, get_core.restype = [], ctypes.c_char_p
                return get_core().decode(), get_threads()
    return "unknown", None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 prints instead
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    core, threads = _openblas_runtime()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown"),
            "core": core,
            "threads": threads,
            "thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        },
        "simd": config.get("SIMD Extensions", {}).get("found", []),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def signature(env: dict) -> dict:
    """What the output bytes may depend on beyond the program and its inputs."""
    return {
        "numpy": env["numpy"],
        "blas": [env["blas"]["name"], env["blas"]["version"], env["blas"]["core"]],
        "blas_threads": env["blas"]["threads"],
        "simd": env["simd"],
    }


def reference_fingerprints(args, env) -> tuple[dict, str]:
    """Fingerprints passes must match besides the warm-up pass's own."""
    if args.expected is not None:
        return json.loads(args.expected.read_text()).get(args.workload, {}), str(args.expected)
    recorded = json.loads(FINGERPRINTS.read_text())
    if args.size != "full" or args.seed != recorded["seed"]:
        return {}, "warm-up pass (fingerprints are recorded for seed %d)" % recorded["seed"]
    if recorded["signature"] != signature(env):
        return {}, "warm-up pass (recorded fingerprints are for another numpy/BLAS/CPU)"
    return recorded["workloads"].get(args.workload, {}), "recorded"


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _check(ops, actual: dict, expected: dict):
    """Mark ops whose output files are missing or differ from the expected bytes."""
    checked = []
    for op in ops:
        error = op.error
        if error is None:
            bad = [n for n in op.outputs if n not in actual or actual[n] != expected.get(n)]
            if bad:
                error = "fingerprint mismatch: " + ", ".join(bad)
        checked.append(replace(op, error=error))
    return checked


def measure(wl, args, import_s: float, reference: dict):
    from tracing import Tracer
    from workloads import fingerprints

    setup_s, make_dataset_s = [], []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        wl.setup()
        setup_s.append(perf_counter() - start)
        make_dataset_s.append(wl.make_dataset_s)
    warm = _fresh(wl.work / "warmup")
    start = perf_counter()
    warm_ops = wl.run_pass(warm)
    warmup_s = perf_counter() - start
    errors = [op.error for op in warm_ops if op.error]
    if errors:
        raise SystemExit(f"perfbench: error: warm-up pass failed: {errors[0]}")
    warm_fp = fingerprints(warm)
    expected = {**warm_fp, **reference}

    results = {
        "import_s": (import_s, "s"),
        "setup_once_s": (statistics.median(setup_s), "s"),
        "warmup_s": (warmup_s, "s"),
        "setup_s": (import_s + statistics.median(setup_s) + warmup_s, "s"),
        "synthetic.make_dataset.s": (statistics.median(make_dataset_s), "s"),
    }
    checked = []
    tracer = Tracer() if args.trace else None
    if tracer:
        out = _fresh(wl.work / "pass")
        start = perf_counter()
        ops = wl.run_pass(out)
        untraced_s = perf_counter() - start
        checked += _check(ops, fingerprints(out), expected)

    pass_s, samples = [], []
    start = perf_counter()
    with tracer.installed() if tracer else nullcontext():
        while True:
            out = _fresh(wl.work / "pass")
            if tracer:
                tracer.begin_pass(len(pass_s))
            t0 = perf_counter()
            ops = wl.run_pass(out)
            t1 = perf_counter()
            if tracer:
                tracer.end_pass(t0, t1)
            ops = _check(ops, fingerprints(out), expected)
            checked += ops
            pass_s.append(t1 - t0)
            samples += [op.latency_s * 1e3 for op in ops if op.latency_s is not None]
            if perf_counter() - start >= args.seconds and len(samples) >= wl.min_latency_samples:
                break

    failed = [op.error for op in checked if op.error]
    results["fail_ratio"] = (len(failed) / len(checked), "ratio")
    results["passes"] = (len(pass_s), "count")
    if not tracer:  # end-to-end numbers come from untraced runs only
        results["frames_per_s"] = (wl.frames_per_pass() * len(pass_s) / sum(pass_s), "frames/s")
        results[wl.frames_alias[0]] = (results["frames_per_s"][0], wl.frames_alias[1])
        results["op_samples"] = (len(samples), "count")
        results["op_ms_p50"] = (statistics.median(samples), "ms")
        if len(samples) >= 100:  # ten samples beyond the 90th percentile
            results["op_ms_p90"] = (
                statistics.quantiles(samples, n=10, method="inclusive")[8], "ms")
        if wl.name == "predict_eval":
            results["predict_clip_ms_p50"] = results["op_ms_p50"]
            if "op_ms_p90" in results:
                results["predict_clip_ms_p90"] = results["op_ms_p90"]
        results["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
    else:
        results.update(tracer.layer_metrics())
        results["trace.overhead_s"] = (statistics.median(pass_s) - untraced_s, "s")
        results["trace.fingerprints_match"] = (
            int(not any(e.startswith("fingerprint") for e in failed)), "bool")
        tracer.write(WORK / f"trace-{wl.name}-{args.size}-seed{args.seed}.json")
    return results, len(checked), failed, warm_fp, pass_s


def main(argv=None) -> int:
    args = _parse(argv)
    nproc = _nproc()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    start = perf_counter()
    _import_program()
    import_s = perf_counter() - start
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        raise SystemExit(f"perfbench: error: {exc}")

    sys.path.insert(0, str(BENCH))
    from workloads import SIZES, WORKLOADS

    env = environment(nproc)
    reference, reference_kind = reference_fingerprints(args, env)
    wl = WORKLOADS[args.workload](SIZES[args.size], args.seed, WORK / f"{args.workload}-{os.getpid()}")
    try:
        results, attempted, failed, warm_fp, pass_s = measure(wl, args, import_s, reference)
        computed = wl.computed()
        sizes = wl.sizes()
    finally:
        shutil.rmtree(wl.work, ignore_errors=True)

    env.update(workload=args.workload, seed=args.seed, size=args.size, sizes=sizes)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"fingerprints checked against: {reference_kind}")
    for name, sha in sorted(warm_fp.items()):
        print(f"fingerprint {name} {sha}")
    for name, value in sorted(computed.items()):
        print(f"computed {name} {value}")
    print(f"attempted {attempted} operations, failed {len(failed)}")
    for error in failed[:10]:
        print(f"failure {error}")
    idle = {k[:-6] for k, (v, _) in results.items() if k.endswith(".calls") and v == 0}
    for name, (value, unit) in sorted(results.items()):
        if name.rsplit(".", 1)[0] not in idle:
            print(f"metric {name} {value!r} {unit}")

    if args.record:
        if args.size != "full" or failed:
            raise SystemExit("perfbench: error: --record needs a full-size run with no failures")
        recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
        if recorded.get("seed") != args.seed or recorded.get("signature") != signature(env):
            recorded = {"seed": args.seed, "signature": signature(env), "workloads": {}}
        recorded["workloads"][args.workload] = warm_fp
        FINGERPRINTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")

    out_metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value, unit = results[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"perfbench: error: {m['name']} is in {unit}, BENCHMARK.json says {m['unit']}")
        out_metrics[m["name"]] = {"value": value, "unit": unit}
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "computed": computed, "fingerprints": warm_fp,
                    "pass_s": pass_s, "failures": failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in results.items()}},
                   indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
