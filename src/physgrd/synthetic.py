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

All generators are pure functions of (kind, params, seed). Every parameter
is declared once, in the read-only table PARAMS (its default, range, kinds
and gen flag help), and checked against it before anything is generated;
neither a clip nor a hop period may span more than MAX_FRAMES frames.
"""

from __future__ import annotations

import math
from collections import namedtuple
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .dynamics import _euler, _frame_forces, _integrate, _pd_law
from .errors import FINITE, NON_NEGATIVE, POSITIVE, UnitError, ValidationError, check_int
from .errors import check_range
from .motion_data import (
    STANDARD_GRAVITY,
    Dataset,
    DatasetEntry,
    ForcePlateRecord,
    GravitySpec,
    MotionClip,
    _backward_diff,
    _ids,
    _numeric,
    to_bodyweight,
)

KINDS = ("hop", "walk", "ballistic", "spring_tracked")

# one generator parameter: its default, the errors.check_range bounds of its value
# (None for a structured one), the kinds that take it and its gen flag's help (None: no flag)
Param = namedtuple("Param", "default bounds kinds help")

# every generator parameter, read-only; each kind checks its own in this order
PARAMS = MappingProxyType({
    "subject_id": Param("S1", None, KINDS, None),
    "mass": Param(70.0, POSITIVE, KINDS, "fix subject mass [kg]"),
    "frame_rate": Param(100.0, POSITIVE, KINDS, "frames per second [Hz]"),
    "duration": Param(4.0, POSITIVE, KINDS, "seconds"),
    "missing_lead": Param(0.0, (0.0, 1.0, "in [0, 1)"), KINDS, "leading plate-frame share missing"),
    "missing_spans": Param((), None, KINDS, None),  # extra (start_frac, end_frac) missing windows
    "plate_noise": Param(0.0, NON_NEGATIVE, KINDS, "plate noise std [BW]"),
    "freq": Param(2.0, POSITIVE, ("hop",), "hop frequency [Hz]"),
    "amplitude": Param(1.0, (0.0, math.nextafter(1, 2), "in [0, 1]"), ("hop",), "hop amplitude"),
    "contact_fraction": Param(0.6, (math.ulp(0), 1.0, "in (0, 1)"), ("hop",), "hop contact share"),
    "speed": Param(1.2, NON_NEGATIVE, ("walk",), "walk speed [m/s]"),
    "step_freq": Param(1.8, POSITIVE, ("walk",), "walk step rate [Hz]"),
    "bob_amplitude": Param(0.04, FINITE, ("walk",), "walk vertical bob [m]"),
    "x0": Param((0.0, 0.0, 2.0), FINITE, ("ballistic",), "ballistic start, e.g. 0,0,2"),
    "v0": Param((0.0, 0.0, 0.0), FINITE, ("ballistic",), "ballistic velocity"),
    "kp": Param(50.0, NON_NEGATIVE, ("spring_tracked",), "spring_tracked kp"),
    "kd": Param(6.0, NON_NEGATIVE, ("spring_tracked",), "spring_tracked kd"),
    # keeps every jittered factor 1 + jitter * (u - 0.5), u in [0, 1), positive
    "jitter": Param(0.0, (0.0, 2.0, "in [0, 2)"), ("hop", "walk", "spring_tracked"),
                    "per-subject parameter jitter fraction"),
})

MAX_FRAMES = 1_000_000  # duration x frame rate of one clip: under 3 h at 100 Hz


def _check_kind(kind) -> None:
    if kind not in KINDS:
        raise ValidationError(f"unknown generator kind {kind!r}")


def _check_param(key: str, value):
    """value as the table stores key's parameter, a float, x0's and v0's
    three floats or missing_spans' float pairs; a ValidationError unless the
    table allows it."""
    spec = PARAMS[key]
    if spec.bounds is not None:  # one number, or x0's and v0's 3, each checked alone
        if isinstance(spec.default, tuple):
            value = _numeric(key, value, (3,)).tolist()
            return tuple(check_range(key, x, spec.bounds) for x in value)
        return check_range(key, value, spec.bounds)
    if key == "missing_spans":  # read once, so a one-shot iterable keeps its spans
        try:
            spans = tuple((check_range(key, start, FINITE), check_range(key, end, FINITE))
                          for start, end in value)
            ok = all(0.0 <= start <= end <= 1.0 for start, end in spans)
        except (TypeError, ValueError, ValidationError):  # not an iterable of number pairs
            ok = False
        if not ok:
            raise ValidationError(f"missing_spans must be (start, end) pairs with "
                                  f"0 <= start <= end <= 1, got {value!r}")
        return spans
    return value


def _merge_params(kind: str, params: Mapping | None) -> dict:
    _check_kind(kind)
    if not isinstance(params, (Mapping, type(None))):
        raise ValidationError(f"{kind} parameters must be a mapping, got {type(params).__name__}")
    merged = {key: spec.default for key, spec in PARAMS.items() if kind in spec.kinds}
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValidationError(f"unknown {kind} parameter {key!r}")
        merged[key] = value
    for key, value in merged.items():
        merged[key] = _check_param(key, value)
    return merged


def build_features(positions: np.ndarray, frame_rate: float) -> np.ndarray:
    """Standard 9-wide feature block: position, velocity, acceleration.

    Velocity and acceleration are causal backward differences with zero
    boundary rows, matching finite_diff_velocity. Acceleration is expressed
    in standard gravities (to_bodyweight) so all channels sit at comparable
    magnitudes. Positions must be finite, the frame rate positive (UnitError).
    """
    pos = _numeric("positions", positions, (None, 3), finite=True)
    frame_rate = check_range("frame_rate", frame_rate, POSITIVE, UnitError)
    vel = _backward_diff(pos, frame_rate)
    return np.hstack([pos, vel, to_bodyweight(_backward_diff(vel, frame_rate))])


def _plate_from_split(
    total_bw: np.ndarray,
    left_share: np.ndarray,
    cop_center: np.ndarray,
    p: Mapping,
    rng: np.random.Generator,
) -> ForcePlateRecord:
    """Assemble a plate record from a total BW force and a left-foot share,
    one per frame or one for every frame.

    Adds optional seeded noise, clamps vertical force at zero (plates cannot
    pull), then applies the configured missing windows by NaN-ing forces.
    """
    T = len(total_bw)
    share = np.clip(np.broadcast_to(np.asarray(left_share, dtype=float), (T,)), 0.0, 1.0)
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
    missing[: int(round(p["missing_lead"] * T))] = True
    for start, end in p["missing_spans"]:
        missing[int(round(start * T)): int(round(end * T))] = True
    force[missing] = np.nan
    return ForcePlateRecord(per_foot_force=force, per_foot_cop=cop, contact_flags=contact)


def _frames(p: Mapping, endpoint: bool = False) -> int:
    """Frames in duration x frame_rate, one more with the end point sampled too."""
    span = p["duration"] * p["frame_rate"]
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


def _gen_hop(p: dict, rng: np.random.Generator):
    freq, amp, jit, rate = p["freq"], p["amplitude"], p["jitter"], p["frame_rate"]
    if jit:
        freq *= 1.0 + jit * (rng.random() - 0.5)
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
    peak = 2.0 * STANDARD_GRAVITY * period / n_contact

    phase = np.arange(T) % period
    fz_hop = np.zeros(T)
    in_bump = (phase >= half_flight) & (phase < half_flight + n_contact)
    j = phase[in_bump] - half_flight
    fz_hop[in_bump] = peak * 0.5 * (1.0 - np.cos(2.0 * np.pi * j / n_contact))
    fz = (1.0 - amp) * STANDARD_GRAVITY + amp * fz_hop

    base = 1.0  # root height at rest, m
    if jit:
        base += 0.1 * jit * (rng.random() - 0.5)
    total = np.zeros((T, 3))
    total[:, 2] = fz
    positions, _ = _integrate(np.array([0.0, 0.0, base]), total[:-1], GravitySpec(), 1.0 / rate)
    return positions, total, 0.5


def _gen_walk(p: dict, rng: np.random.Generator):
    speed, step_freq, jit, rate = p["speed"], p["step_freq"], p["jitter"], p["frame_rate"]
    if jit:
        speed *= 1.0 + jit * (rng.random() - 0.5)
        step_freq *= 1.0 + jit * (rng.random() - 0.5)
    dt = 1.0 / rate
    T = _frames(p)
    t = np.arange(T) * dt

    ramp = max(0.5, dt)  # seconds from rest to full speed
    tau = np.clip(t / ramp, 0.0, 1.0)
    # integral of the smoothstep 3u^2-2u^3 speed profile, then constant speed
    px = speed * np.where(
        t < ramp, ramp * (tau**3 - 0.5 * tau**4), (t - ramp) + 0.5 * ramp
    )
    omega = 2.0 * np.pi * step_freq
    py = 0.03 * np.sin(omega * t)  # lateral sway, m
    pz = 0.95 - p["bob_amplitude"] * 0.5 * (1.0 - np.cos(omega * t))
    positions = np.column_stack([px, py, pz])

    # discrete inverse dynamics: the stored force series rolls out to the
    # exact stored trajectory under semi-implicit Euler from rest; step t's
    # force is the rate of velocity change into frame t+1
    vel = _backward_diff(positions, rate)
    total = _frame_forces(_backward_diff(vel, rate)[1:])
    total[:, 2] += STANDARD_GRAVITY
    return positions, total, 0.5 * (1.0 + np.sin(omega * t))


def _gen_ballistic(p: dict, rng: np.random.Generator):
    x0, v0 = np.array(p["x0"]), np.array(p["v0"])
    T = _frames(p, endpoint=True)
    t = (np.arange(T) / p["frame_rate"])[:, None]
    positions = x0 + v0 * t - 0.5 * GravitySpec().g_accel * t**2
    return positions, np.zeros((T, 3)), 0.5


def _gen_spring_tracked(p: dict, rng: np.random.Generator):
    kp, kd, jit = p["kp"], p["kd"], p["jitter"]
    dt = 1.0 / p["frame_rate"]
    if kp * dt * dt >= 1.0:
        raise ValidationError(f"kp {kp} too stiff for dt {dt}: kp*dt^2 must be < 1")
    T = _frames(p)
    base = 1.0  # start height, m
    if jit:
        base += 0.2 * jit * (rng.random() - 0.5)

    g = GravitySpec().g_accel
    decay, drop, denom = 1.0 - kd * dt, g * dt * dt, 1.0 - kp * dt * dt
    positions = np.zeros((T, 3))
    forces = np.zeros((T - 1, 3))
    positions[0, 2] = base
    x, v = positions[0].copy(), np.zeros(3)
    target, scratch = np.empty(3), np.empty(3)
    for t in range(T - 1):  # in place on (3,) arrays, as dynamics._pd_steps steps its state
        # the target that makes the closed-loop tracking step land exactly on it:
        # x + (v * dt * decay - drop) / denom
        np.multiply(v, dt, out=target)
        target *= decay
        target -= drop
        target /= denom
        target += x
        _pd_law(kp, kd, target, x, v, forces[t], scratch)
        _euler(x, v, forces[t], g, dt, scratch)
        positions[t + 1] = x
    return positions, _frame_forces(forces), 0.5


def gen_synthetic(
    kind: str,
    params: Mapping | None = None,
    seed: int = 0,
) -> tuple[MotionClip, ForcePlateRecord]:
    """Generate a deterministic synthetic clip/plate pair.

    The seed drives parameter jitter (when a kind's ``jitter`` is nonzero)
    and plate noise; identical (kind, params, seed) give bit-identical
    output. The clip's motion label is its kind. Each kind's builder returns the root positions, (T, 3), the
    mass-normalized total force, (T, 3), and the left foot's share of it,
    per frame or one for all; the plate, then the clip, is built from them.
    """
    p = _merge_params(kind, params)
    check_int("seed", seed, lo=0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    builder = {
        "hop": _gen_hop,
        "walk": _gen_walk,
        "ballistic": _gen_ballistic,
        "spring_tracked": _gen_spring_tracked,
    }[kind]
    rate = p["frame_rate"]
    with np.errstate(over="ignore", invalid="ignore"):  # MotionClip rejects a non-finite clip
        positions, total, share = builder(p, rng)
        plate = _plate_from_split(to_bodyweight(total), share, positions[:, :2], p, rng)
        clip = MotionClip(p["subject_id"], kind, rate, p["mass"],
                          positions, build_features(positions, rate))
    return clip, plate


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
    base_params apply to every clip: each is checked, whatever the kinds, and
    then filtered to the kinds that accept it.
    """
    check_int("n_subjects", n_subjects)
    check_int("clips_per_subject", clips_per_subject)
    check_int("seed", seed, lo=0)
    kinds = _ids("kind", kinds)
    for kind in kinds:
        _check_kind(kind)
    if not isinstance(base_params, (Mapping, type(None))):
        raise ValidationError(f"base_params must be a mapping, got {type(base_params).__name__}")
    base_params = dict(base_params or {})
    for key, value in base_params.items():
        if key not in PARAMS:
            raise ValidationError(f"unknown generator parameter {key!r}")
        base_params[key] = _check_param(key, value)
    entries: list[DatasetEntry] = []
    for si in range(n_subjects):
        sid = f"S{si + 1}"
        srng = np.random.default_rng(np.random.SeedSequence((seed, si)))
        mass = base_params["mass"] if "mass" in base_params else 55.0 + 30.0 * srng.random()
        for kind in kinds:
            for ci in range(clips_per_subject):
                params = {k: v for k, v in base_params.items() if kind in PARAMS[k].kinds}
                params.update(subject_id=sid, mass=mass)
                if kind in PARAMS["jitter"].kinds:
                    params.setdefault("jitter", 0.3)
                clip_seed = int(
                    np.random.SeedSequence((seed, si, KINDS.index(kind), ci))
                    .generate_state(1)[0]
                )
                clip, plate = gen_synthetic(kind, params, seed=clip_seed)
                entries.append(DatasetEntry(clip=clip, plate=plate))
    return Dataset(tuple(entries))
