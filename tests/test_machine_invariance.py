"""The physics path's bytes depend on neither numpy's SIMD level nor OpenBLAS's core.

Calibration, simulation, the physics force series, rollouts and vRPE use
only IEEE add, subtract, multiply, divide, abs and max, and numpy's pairwise
sums: no transcendental function, whose SIMD kernels differ from libm in
the last bit, and no BLAS call, whose kernels differ by core. So their bytes
must not move with numpy's SIMD level or OpenBLAS's core. Each case runs the
path in a child process under one environment variable, set in the child's
environment only, and compares a hash of its outputs with the default's. A
later change that routes the path through a transcendental or a BLAS call
fails here instead of changing bytes on other machines.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from physgrd.motion_data import write_manifest
from physgrd.synthetic import make_dataset

# hashes every output of the physics path on the manifest in argv[1], and
# reports numpy's X86_V4 dispatch and OpenBLAS's core (None where the library
# does not say)
_CHILD = """
import ctypes, glob, hashlib, json, os, sys, tempfile
from pathlib import Path
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from physgrd.calibration import GainGrid, calibrate, write_best_gains, write_report_csv
from physgrd.dynamics import physics_force_series, rollout_forces, simulate, write_sim_csv
from physgrd.metrics import vrpe
from physgrd.motion_data import load_manifest

def blas_core():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.restype = ctypes.c_char_p
            return get().decode()
    return None

clips = load_manifest(sys.argv[1]).clips()
grid = GainGrid((10.0, 30.0, 50.0, 70.0, 90.0), (0.0, 3.0, 6.0, 9.0))
digest = hashlib.sha256()
with tempfile.TemporaryDirectory() as tmp:
    for mode in ("closed_loop", "open_loop"):
        report = calibrate(clips, grid, mode=mode)
        write_report_csv(report, Path(tmp) / "report.csv")
        write_best_gains(report, Path(tmp) / "gains.json")
        for name in ("report.csv", "gains.json"):
            digest.update((Path(tmp) / name).read_bytes())
        for clip in clips:
            sim = simulate(clip, report.best, mode=mode)
            write_sim_csv(sim, Path(tmp) / "sim.csv", clip.frame_rate)
            digest.update((Path(tmp) / "sim.csv").read_bytes())
            force = physics_force_series(clip, report.best, mode=mode)
            rollout = rollout_forces(clip, force)
            for array in (force, rollout.positions, rollout.velocities):
                digest.update(array.tobytes())
            digest.update(f"{vrpe(sim, clip).hex()} {vrpe(rollout, clip).hex()}".encode())
print(json.dumps({"hash": digest.hexdigest(), "x86_v4": __cpu_features__.get("X86_V4", False),
                  "core": blas_core()}))
"""

_BLAS = np.__config__.CONFIG["Build Dependencies"]["blas"]


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    # made here, not in the child: the generators use sin and cos, which are
    # not part of the path under test
    dataset = make_dataset(["hop", "walk", "spring_tracked"], 2, 1, seed=1,
                           base_params={"duration": 2.0})
    return write_manifest(dataset, tmp_path_factory.mktemp("invariance"))


def _physics_outputs(manifest: Path, **env) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", _CHILD, str(manifest)], env=env,
                           capture_output=True, text=True, timeout=300, check=True)
    return json.loads(child.stdout)


@pytest.fixture(scope="module")
def default(manifest):
    return _physics_outputs(manifest)


def test_physics_outputs_at_the_avx2_level_of_numpy(manifest, default):
    if not __cpu_features__.get("X86_V4"):
        pytest.skip("numpy dispatches no AVX-512 kernel on this machine")
    got = _physics_outputs(manifest, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    assert not got["x86_v4"]  # the variable took effect
    assert got["hash"] == default["hash"]


def test_physics_outputs_on_the_haswell_blas_core(manifest, default):
    if "openblas" not in _BLAS["name"] or "DYNAMIC_ARCH" not in _BLAS.get(
            "openblas configuration", ""):
        pytest.skip(f"numpy's BLAS ({_BLAS['name']}) has no runtime core choice")
    got = _physics_outputs(manifest, OPENBLAS_CORETYPE="Haswell")
    if default["core"] is not None:
        assert got["core"] == "Haswell"  # the variable took effect
    assert got["hash"] == default["hash"]
