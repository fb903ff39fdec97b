"""Synthetic motion + plate generators for tests, demos and calibration.

Four kinds:

hop            periodic hop built force-first: a raised-cosine contact bump
               with exact zero force in flight, integrated with the same
               semi-implicit scheme the simulator uses, so stored forces and
               the trajectory are discretely consistent.
walk           forward walk with vertical bob and lateral sway; forces are
               recovered by discrete inverse dynamics so a rollout of the
               stored force series reproduces the trajectory exactly.
ballistic      closed-form projectile x(t) = x0 + v0*t - g*t^2/2; zero plate
               force, no contact.
spring_tracked the unique trajectory that is a fixed point of the
               closed-loop PD simulation for given gains: re-simulating the
               clip with those gains reproduces it to machine precision,
               which lets the calibration grid recover the gains exactly.

All generators are pure functions of (kind, params, seed). Every numeric
parameter is checked against its range in _PARAM_RANGES before anything is
generated, and neither a clip nor a hop period may span more than
MAX_FRAMES frames.
"""

from __future__ import annotations

import math
import sys
from typing import Mapping, Sequence

import numpy as np

from .dynamics import _integrate, _pd_law, _raise_if_diverged, euler_step
from .errors import ValidationError
from .motion_data import (
    Dataset,
    DatasetEntry,
    ForcePlateRecord,
    GravitySpec,
    MotionClip,
    to_bodyweight,
)

KINDS = ("hop", "walk", "ballistic", "spring_tracked")

_COMMON_DEFAULTS = {
    "subject_id": "S1",
    "motion_label": None,  # defaults to the kind
    "mass": 70.0,
    "frame_rate": 100.0,
    "duration": 4.0,
    "missing_lead": 0.0,     # fraction of leading plate frames marked missing
    "missing_spans": (),     # extra (start_frac, end_frac) missing windows
    "plate_noise": 0.0,      # std of seeded Gaussian noise on plate forces, BW
}

_KIND_DEFAULTS = {
    "hop": {"freq": 2.0, "amplitude": 1.0, "contact_fraction": 0.6,
            "base_height": 1.0, "jitter": 0.0},
    "walk": {"speed": 1.2, "step_freq": 1.8, "bob_amplitude": 0.04,
             "sway_amplitude": 0.03, "ramp_time": 0.5, "base_height": 0.95,
             "jitter": 0.0},
    "ballistic": {"x0": (0.0, 0.0, 2.0), "v0": (0.0, 0.0, 0.0)},
    "spring_tracked": {"kp": 50.0, "kd": 6.0, "base_height": 1.0, "jitter": 0.0},
}

MAX_FRAMES = 1_000_000  # duration x frame rate of one clip: under 3 h at 100 Hz

# (lo, hi, wording) of the check "lo <= x < hi", which NaN fails
_POSITIVE = (math.ulp(0.0), math.inf, "finite and > 0")
_NON_NEGATIVE = (0.0, math.inf, "finite and >= 0")
_FINITE = (-sys.float_info.max, math.inf, "finite")
_PARAM_RANGES = {
    "mass": _POSITIVE,
    "frame_rate": _POSITIVE,
    "duration": _POSITIVE,
    "missing_lead": (0.0, 1.0, "in [0, 1)"),
    "plate_noise": _NON_NEGATIVE,
    "freq": _POSITIVE,
    "amplitude": (0.0, math.nextafter(1.0, 2.0), "in [0, 1]"),
    "contact_fraction": (math.ulp(0.0), 1.0, "in (0, 1)"),
    "base_height": _FINITE,
    # keeps every jittered factor 1 + jitter * (u - 0.5), u in [0, 1), positive
    "jitter": (0.0, 2.0, "in [0, 2)"),
    "speed": _NON_NEGATIVE,
    "step_freq": _POSITIVE,
    "bob_amplitude": _FINITE,
    "sway_amplitude": _FINITE,
    "ramp_time": _FINITE,
    "x0": _FINITE,
    "v0": _FINITE,
    "kp": _NON_NEGATIVE,
    "kd": _NON_NEGATIVE,
}


def _merge_params(kind: str, params: Mapping | None) -> dict:
    if kind not in KINDS:
        raise ValidationError(f"unknown generator kind {kind!r}")
    merged = dict(_COMMON_DEFAULTS)
    merged.update(_KIND_DEFAULTS[kind])
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValidationError(f"unknown {kind} parameter {key!r}")
        merged[key] = value
    if merged["motion_label"] is None:
        merged["motion_label"] = kind
    for key, value in merged.items():
        if key in _PARAM_RANGES:
            lo, hi, wording = _PARAM_RANGES[key]
            if not all(lo <= x < hi for x in np.ravel(value)):
                raise ValidationError(f"{key} must be {wording}, got {value}")
    for start, end in merged["missing_spans"]:
        if not (0.0 <= start <= end <= 1.0):
            raise ValidationError(f"bad missing span ({start}, {end})")
    return merged


def build_features(positions: np.ndarray, frame_rate: float) -> np.ndarray:
    """Standard 9-wide feature block: position, velocity, acceleration.

    Velocity and acceleration are causal backward differences with zero
    boundary rows, matching finite_diff_velocity. Acceleration is expressed
    in standard gravities (to_bodyweight) so all channels sit at comparable
    magnitudes.
    """
    pos = np.asarray(positions, dtype=float)
    vel = np.zeros_like(pos)
    acc = np.zeros_like(pos)
    if len(pos) > 1:
        vel[1:] = (pos[1:] - pos[:-1]) * frame_rate
        acc[1:] = (vel[1:] - vel[:-1]) * frame_rate
    return np.hstack([pos, vel, to_bodyweight(acc)])


def _plate_from_split(
    total_bw: np.ndarray,
    left_share: np.ndarray,
    cop_center: np.ndarray,
    p: Mapping,
    rng: np.random.Generator,
) -> ForcePlateRecord:
    """Assemble a plate record from a total BW force and a left-foot share.

    Adds optional seeded noise, clamps vertical force at zero (plates cannot
    pull), then applies the configured missing windows by NaN-ing forces.
    """
    T = len(total_bw)
    share = np.clip(np.asarray(left_share, dtype=float), 0.0, 1.0)
    force = np.empty((T, 2, 3))
    force[:, 0, :] = total_bw * share[:, None]
    force[:, 1, :] = total_bw * (1.0 - share)[:, None]
    if p["plate_noise"] > 0:
        force = force + rng.normal(0.0, p["plate_noise"], size=force.shape)
    force[:, :, 2] = np.maximum(force[:, :, 2], 0.0)

    contact = force[:, :, 2] > 0.02
    cop = np.empty((T, 2, 2))
    cop[:, 0, :] = cop_center + np.array([0.0, 0.1])
    cop[:, 1, :] = cop_center - np.array([0.0, 0.1])
    cop[~contact] = np.nan

    missing = np.zeros(T, dtype=bool)
    missing[: int(round(float(p["missing_lead"]) * T))] = True
    for start, end in p["missing_spans"]:
        missing[int(round(start * T)): int(round(end * T))] = True
    force[missing] = np.nan
    return ForcePlateRecord(per_foot_force=force, per_foot_cop=cop, contact_flags=contact)


def _frames(p: Mapping, endpoint: bool = False) -> int:
    """Frames in duration x frame_rate, one more with the end point sampled too."""
    span = float(p["duration"]) * float(p["frame_rate"])
    if span > MAX_FRAMES:  # inf too; checked before anything is allocated
        raise ValidationError(
            f"duration {p['duration']} s at {p['frame_rate']} Hz exceeds {MAX_FRAMES} frames"
        )
    T = int(round(span)) + endpoint
    if T < 1:
        raise ValidationError(
            f"duration {p['duration']} s at {p['frame_rate']} Hz yields no frames"
        )
    return T


def _finish(positions: np.ndarray, p: Mapping) -> MotionClip:
    return MotionClip(
        subject_id=p["subject_id"],
        motion_label=p["motion_label"],
        frame_rate=float(p["frame_rate"]),
        mass=float(p["mass"]),
        root_positions=positions,
        features=build_features(positions, float(p["frame_rate"])),
    )


def _gen_hop(p: dict, rng: np.random.Generator, g: float):
    freq = float(p["freq"])
    amp = float(p["amplitude"])
    jit = float(p["jitter"])
    if jit:
        freq *= 1.0 + jit * (rng.random() - 0.5)
    rate = float(p["frame_rate"])
    T = _frames(p)
    if not rate / freq <= MAX_FRAMES:  # inf too; checked before anything is allocated
        raise ValidationError(
            f"hop period frame_rate / freq = {rate} / {freq} exceeds {MAX_FRAMES} frames"
        )

    # Frame-aligned period: the raised-cosine bump then sums to exactly half
    # its width, making velocity exactly periodic under the discrete scheme.
    period = max(int(round(rate / freq)), 4)
    n_contact = min(max(int(round(p["contact_fraction"] * period)), 2), period - 2)
    n_flight = period - n_contact
    half_flight = n_flight // 2
    peak = 2.0 * g * period / n_contact

    phase = np.arange(T) % period
    fz_hop = np.zeros(T)
    in_bump = (phase >= half_flight) & (phase < half_flight + n_contact)
    j = phase[in_bump] - half_flight
    fz_hop[in_bump] = peak * 0.5 * (1.0 - np.cos(2.0 * np.pi * j / n_contact))
    fz = (1.0 - amp) * g + amp * fz_hop

    base = float(p["base_height"])
    if jit:
        base += 0.1 * jit * (rng.random() - 0.5)
    forces = np.zeros((T - 1, 3))
    forces[:, 2] = fz[:-1]
    gravity = GravitySpec(g_accel=np.array([0.0, 0.0, g]))
    positions, _ = _integrate(np.array([0.0, 0.0, base]), forces, gravity, 1.0 / rate)
    _raise_if_diverged(positions)

    total_bw = np.zeros((T, 3))
    total_bw[:, 2] = to_bodyweight(fz)
    share = np.full(T, 0.5)
    plate = _plate_from_split(total_bw, share, positions[:, :2], p, rng)
    return _finish(positions, p), plate


def _gen_walk(p: dict, rng: np.random.Generator, g: float):
    speed = float(p["speed"])
    step_freq = float(p["step_freq"])
    jit = float(p["jitter"])
    if jit:
        speed *= 1.0 + jit * (rng.random() - 0.5)
        step_freq *= 1.0 + jit * (rng.random() - 0.5)
    rate = float(p["frame_rate"])
    dt = 1.0 / rate
    T = _frames(p)
    t = np.arange(T) * dt

    ramp = max(float(p["ramp_time"]), dt)
    tau = np.clip(t / ramp, 0.0, 1.0)
    # integral of the smoothstep 3u^2-2u^3 speed profile, then constant speed
    px = speed * np.where(
        t < ramp, ramp * (tau**3 - 0.5 * tau**4), (t - ramp) + 0.5 * ramp
    )
    omega = 2.0 * np.pi * step_freq
    py = float(p["sway_amplitude"]) * np.sin(omega * t)
    pz = float(p["base_height"]) - float(p["bob_amplitude"]) * 0.5 * (1.0 - np.cos(omega * t))
    positions = np.column_stack([px, py, pz])

    # discrete inverse dynamics: the stored force series rolls out to the
    # exact stored trajectory under semi-implicit Euler from rest
    vel = np.zeros_like(positions)
    vel[1:] = (positions[1:] - positions[:-1]) * rate
    total = np.zeros((T, 3))
    total[:-1] = (vel[1:] - vel[:-1]) * rate
    total[-1] = total[-2] if T > 1 else 0.0
    total[:, 2] += g

    share = 0.5 * (1.0 + np.sin(omega * t))
    total_bw = to_bodyweight(total)
    plate = _plate_from_split(total_bw, share, positions[:, :2], p, rng)
    return _finish(positions, p), plate


def _gen_ballistic(p: dict, rng: np.random.Generator, g: float):
    x0 = np.asarray(p["x0"], dtype=float).reshape(3)
    v0 = np.asarray(p["v0"], dtype=float).reshape(3)
    rate = float(p["frame_rate"])
    T = _frames(p, endpoint=True)
    t = (np.arange(T) / rate)[:, None]
    g_vec = np.array([0.0, 0.0, g])
    positions = x0 + v0 * t - 0.5 * g_vec * t**2

    total_bw = np.zeros((T, 3))
    share = np.full(T, 0.5)
    plate = _plate_from_split(total_bw, share, positions[:, :2], p, rng)
    return _finish(positions, p), plate


def _gen_spring_tracked(p: dict, rng: np.random.Generator, g: float):
    kp = float(p["kp"])
    kd = float(p["kd"])
    rate = float(p["frame_rate"])
    dt = 1.0 / rate
    if kp * dt * dt >= 1.0:
        raise ValidationError(f"kp {kp} too stiff for dt {dt}: kp*dt^2 must be < 1")
    T = _frames(p)
    base = float(p["base_height"])
    jit = float(p["jitter"])
    if jit:
        base += 0.2 * jit * (rng.random() - 0.5)

    gravity = GravitySpec(g_accel=np.array([0.0, 0.0, g]))
    denom = 1.0 - kp * dt * dt
    positions = np.zeros((T, 3))
    forces = np.zeros((max(T - 1, 0), 3))
    positions[0, 2] = base
    x = positions[0].copy()
    v = np.zeros(3)
    for t in range(T - 1):
        # target that makes the closed-loop tracking step land exactly on it
        target = x + (v * dt * (1.0 - kd * dt) - gravity.g_accel * dt * dt) / denom
        f = _pd_law(kp, kd, target, x, v)
        x, v = euler_step(x, v, f, gravity, dt)
        forces[t] = f
        positions[t + 1] = x

    total = np.vstack([forces, forces[-1:]]) if T > 1 else np.zeros((1, 3))
    total_bw = to_bodyweight(total)
    share = np.full(T, 0.5)
    plate = _plate_from_split(total_bw, share, positions[:, :2], p, rng)
    return _finish(positions, p), plate


def gen_synthetic(
    kind: str,
    params: Mapping | None = None,
    seed: int = 0,
) -> tuple[MotionClip, ForcePlateRecord]:
    """Generate a deterministic synthetic clip/plate pair.

    The seed drives parameter jitter (when a kind's ``jitter`` is nonzero)
    and plate noise; identical (kind, params, seed) give bit-identical
    output.
    """
    p = _merge_params(kind, params)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    g = GravitySpec().magnitude
    builder = {
        "hop": _gen_hop,
        "walk": _gen_walk,
        "ballistic": _gen_ballistic,
        "spring_tracked": _gen_spring_tracked,
    }[kind]
    return builder(p, rng, g)


def make_dataset(
    kinds: Sequence[str],
    n_subjects: int,
    clips_per_subject: int = 1,
    seed: int = 0,
    base_params: Mapping | None = None,
) -> Dataset:
    """Build a multi-subject synthetic dataset.

    Subjects S1..Sn get seeded per-subject mass and motion-parameter
    variation; each subject contributes clips_per_subject clips per kind.
    base_params apply to every clip (per-kind keys are filtered to the kinds
    that accept them).
    """
    if n_subjects < 1:
        raise ValidationError("need at least one subject")
    entries: list[DatasetEntry] = []
    base_params = dict(base_params or {})
    for si in range(n_subjects):
        sid = f"S{si + 1}"
        srng = np.random.default_rng(np.random.SeedSequence((seed, si)))
        if "mass" in base_params:
            mass = float(base_params["mass"])
        else:
            mass = 55.0 + 30.0 * srng.random()
        for kind in kinds:
            for ci in range(clips_per_subject):
                allowed = set(_COMMON_DEFAULTS) | set(_KIND_DEFAULTS[kind])
                params = {k: v for k, v in base_params.items() if k in allowed}
                params.update(subject_id=sid, mass=mass)
                params.setdefault("jitter", 0.3)
                if kind == "ballistic":
                    params.pop("jitter", None)
                clip_seed = int(
                    np.random.SeedSequence((seed, si, KINDS.index(kind), ci))
                    .generate_state(1)[0]
                )
                clip, plate = gen_synthetic(kind, params, seed=clip_seed)
                entries.append(DatasetEntry(clip=clip, plate=plate))
    return Dataset(tuple(entries))
