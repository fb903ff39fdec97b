"""Self-test of the benchmark at tiny sizes; takes about half a minute.

    python3 perfbench/selftest.py

It checks that each workload, untraced and traced, prints every metric
perfbench/README.md names with a unit, and ends with the JSON line whose
metrics are exactly the BENCHMARK.json ones in their listed units. It then
checks that a deliberately wrong expected fingerprint counts as a failure,
and that the benchmark exits non-zero without printing a result in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".perfbench" / "selftest"

END_TO_END = {
    "calib_grid": ["calibrate_steps_per_s"],
    "train_canonical": ["train_frames_per_s"],
    "predict_eval": ["predict_eval_frames_per_s", "predict_clip_ms_p50", "predict_clip_ms_p90"],
}
COMMON = ["setup_s", "peak_rss_mb", "fail_ratio", "frames_per_s", "op_ms_p50", "op_samples"]
PER_LAYER = [
    "synthetic.make_dataset.s",
    *(f"dynamics.simulate.{q}" for q in ("calls", "s", "steps_per_s", "diverged")),
    "dynamics.rollout_forces.calls", "dynamics.rollout_forces.s",
    "dynamics.physics_force_series.s",
    "calibration.calibrate.self_s", "calibration.cells", "calibration.cells_scored_ratio",
    "metrics.vrpe.calls", "metrics.vrpe.s",
    "metrics.evaluate_prediction.self_s", "metrics.evaluate_prediction.inf",
    "metrics.aggregate.s",
    *(f"grf_model.loss_and_grads.{q}"
      for q in ("calls", "s", "flops", "window_bytes", "gflops_per_s")),
    "grf_model.adam_step.s", "grf_model.train.self_s",
    *(f"grf_model.forward.{q}" for q in ("calls", "s", "frames", "flops")),
    *(f"grf_model.{f}.{q}"
      for f in ("save_checkpoint", "load_checkpoint", "write_prediction_csv",
                "load_prediction_csv")
      for q in ("s", "bytes")),
    *(f"motion_data.{f}.{q}" for f in ("write_manifest", "load_manifest") for q in ("s", "bytes")),
    "trace.unattributed_s", "trace.overhead_s", "trace.fingerprints_match",
]


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def printed_units(stdout: str) -> dict[str, str]:
    units = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            units[parts[1]] = parts[3]
    return units


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    traced_units: dict[str, str] = {}
    for workload, named in END_TO_END.items():
        for trace in (0, 1):
            proc = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} failed")
            listed = spec["per_layer" if trace else "end_to_end"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            if got != want:
                problems.append(f"{tag}: JSON metrics {got} differ from BENCHMARK.json {want}")
            units = printed_units(proc.stdout)
            if trace:
                traced_units.update(units)
            else:
                missing = [m for m in COMMON + named if m not in units]
                if missing:
                    problems.append(f"{tag}: metrics not printed with a unit: {missing}")
    missing = [m for m in PER_LAYER if m not in traced_units]
    if missing:
        problems.append(f"traced runs: per-layer metrics not printed with a unit: {missing}")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    wrong = SCRATCH / "wrong-fingerprints.json"
    wrong.write_text(json.dumps({"calib_grid": {"best_gains.json": "0" * 64}}))
    proc = run("calib_grid", 0, "--expected", str(wrong))
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
    if result is None or result["correct"] or result["failed"] != result["attempted"]:
        problems.append(f"a wrong expected fingerprint did not fail every op: {result}")

    bare = SCRATCH / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("calib_grid", 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without src/ the benchmark exited {proc.returncode}: {proc.stdout[-200:]}")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
