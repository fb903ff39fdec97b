"""PD reaction-force estimation and semi-implicit Euler root simulation.

All forces here are mass-normalized (units of acceleration, m/s^2): the
root obeys  xdd = f - g  where f is the total reaction force divided by
body mass and g is the gravity acceleration vector. Body-weight units used
by plate data convert via f_bw = f / 9.81 (to_bodyweight), whatever the
simulated gravity.

The integrator is semi-implicit (symplectic) Euler: the velocity update
precedes the position update.

One PD rollout, _pd_steps, steps each bucket of equal-length, equal-rate
clips (_buckets) at once: calibration.calibrate under every gain cell, and
_simulations under one gain pair (`simulate --manifest`; simulate is its
bucket of one). States put the component axis first, so clips x cells step
as (3, clips, cells), cells innermost, in place: what it yields is
overwritten by the next step. Gains, gravity, state, force and scratch are
all C-ordered arrays of the state's full shape: a ufunc with a broadcast
operand splits its work into one short inner loop per broadcast row (60
loops of 54 cells for a (3, 20, 54) batch), 1.7 times as slow as one loop
over the whole batch (numpy 2.4, 2-vCPU VM). The public (..., 3) functions
are unaffected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Sequence, get_args

import numpy as np

from .errors import NON_NEGATIVE, POSITIVE, SimulationDivergedError, UnitError, ValidationError
from .errors import check_range
from .motion_data import (  # the body-weight conversions are re-exported here
    GravitySpec,
    MotionClip,
    _TIME_TOLERANCE,
    _frame_times,
    _gravity,
    _instance,
    _numeric,
    _readonly,
    _write_rows,
    finite_diff_velocity,
    from_bodyweight,
    to_bodyweight,
)

DIVERGENCE_LIMIT = 1e6  # meters; any |component| beyond this aborts
SimMode = Literal["closed_loop", "open_loop"]


@dataclass(frozen=True)
class PDGains:
    """Proportional/derivative tracking gains.

    kp maps position offset (m) to normalized force (1/s^2); kd maps
    velocity (m/s) to normalized force (1/s).
    """

    kp: float
    kd: float

    def __post_init__(self):
        object.__setattr__(self, "kp", check_range("kp", self.kp, NON_NEGATIVE, UnitError))
        object.__setattr__(self, "kd", check_range("kd", self.kd, NON_NEGATIVE, UnitError))


@dataclass(frozen=True)
class SimResult:
    """Simulated root states and the forces that produced them.

    positions/velocities have one row per frame (T rows, T >= 1);
    total_force has one row per integration step (T-1 rows), since no force
    acts after the final frame. Use physics_force_series for a
    per-frame-aligned view.
    """

    positions: np.ndarray
    velocities: np.ndarray
    total_force: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "dt", check_range("dt", self.dt, POSITIVE, UnitError))
        pos = _readonly(self, "positions", (None, 3), finite=True)
        if len(pos) < 1:
            raise ValidationError("simulation must have at least one frame")
        _readonly(self, "velocities", pos.shape, finite=True)
        _readonly(self, "total_force", (len(pos) - 1, 3), finite=True)

    def __len__(self) -> int:
        return len(self.positions)


def _broadcast(func: str, names: str, *shapes: tuple[int, ...]) -> tuple[int, ...]:
    """The shape that operand shapes broadcast to; a ValidationError naming
    func, the operands and their shapes if they do not broadcast."""
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise ValidationError(f"{func} operands do not broadcast: {names} are "
                              f"{', '.join(map(str, shapes))}") from None


def pd_force(
    target_next: np.ndarray,
    current_pos: np.ndarray,
    current_vel: np.ndarray,
    gains: PDGains,
) -> np.ndarray:
    """Normalized reaction force pulling current_pos toward target_next.

    f = kp * (target_next - current_pos) - kd * current_vel
    """
    _instance("gains", gains, PDGains)
    target_next, current_pos, current_vel = (_numeric(name, a, None) for name, a in (
        ("target_next", target_next), ("current_pos", current_pos), ("current_vel", current_vel)))
    shape = _broadcast("pd_force", "target, position and velocity",
                       target_next.shape, current_pos.shape, current_vel.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite in, non-finite out
        return _pd_law(gains.kp, gains.kd, target_next, current_pos, current_vel,
                       np.empty(shape), np.empty(shape))


def _pd_law(kp, kd, target, pos, vel, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The PD law, for gains and states of any broadcastable shapes, written
    into out through scratch, both of the result's shape; returns out.
    Nothing is allocated.
    """
    f = np.multiply(kp, np.subtract(target, pos, out=out), out=out)
    return np.subtract(f, np.multiply(kd, vel, out=scratch), out=out)


def _euler(pos: np.ndarray, vel: np.ndarray, f, g, dt: float, scratch: np.ndarray) -> None:
    """One semi-implicit Euler step in place on pos and vel, through scratch.

    acc = f - g;  vel += acc*dt;  pos += vel*dt
    """
    acc = np.subtract(f, g, out=scratch)
    acc *= dt
    vel += acc
    pos += np.multiply(vel, dt, out=scratch)


def euler_step(
    pos: np.ndarray,
    vel: np.ndarray,
    normalized_force: np.ndarray,
    gravity: GravitySpec | None,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One semi-implicit Euler step: velocity first, then position.

    acc = f - g;  vel' = vel + acc*dt;  pos' = pos + vel'*dt

    gravity None is standard gravity. The inputs are left as they are; new
    arrays are returned.
    """
    gravity = _gravity(gravity)
    dt = check_range("dt", dt, POSITIVE, UnitError)
    pos, vel, f = (_numeric(name, a, None) for name, a in
                   (("pos", pos), ("vel", vel), ("normalized_force", normalized_force)))
    shape = _broadcast("euler_step", "position, velocity, force and gravity",
                       pos.shape, vel.shape, f.shape, gravity.g_accel.shape)
    pos, vel = np.array(np.broadcast_to(pos, shape)), np.array(np.broadcast_to(vel, shape))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite in, non-finite out
        _euler(pos, vel, f, gravity.g_accel, dt, np.empty(shape))
    return pos, vel


def _buckets(clips: Sequence[MotionClip]) -> list[list[int]]:
    """Clip indices that step together: one list per (length, dt), in first-seen order."""
    groups: dict[tuple[int, float], list[int]] = {}
    for j, clip in enumerate(clips):
        groups.setdefault((len(clip), clip.dt), []).append(j)
    return list(groups.values())


def _pd_steps(bucket: Sequence[MotionClip], kp, kd, gravity: GravitySpec, mode: SimMode):
    """A generator of (force, pos) after each PD step of a bucket (_buckets).

    The reference, (T, 3, clips, 1), puts the component axis first; the
    state is ref[0] broadcast with the gains, (3, clips, B) under (B,) gains,
    so every operation runs over the B cells in one contiguous inner loop.
    The state starts at ref[0] at rest; step t pulls toward ref[t+1] from
    the simulated state (closed loop) or the mocap state, ref[t] and its
    backward-difference velocity (open loop). Gains and gravity are copied
    to the state's shape in C order, so only the targets broadcast. The mode
    is checked at the call. Arrays are stepped in place: copy what must
    outlive the next step. Each element follows the scalar arithmetic.
    """
    if mode not in get_args(SimMode):
        raise ValidationError(f"unknown simulation mode {mode!r}")
    dt = bucket[0].dt
    ref = np.stack([c.root_positions for c in bucket], axis=2)[..., None]
    shape = np.broadcast_shapes(np.shape(kp), np.shape(kd), ref[0].shape)

    def full(a):
        # np.array's default order="K" would keep a broadcast view's axis order
        return np.array(np.broadcast_to(a, shape), dtype=float, order="C")

    kp, kd, pos = full(kp), full(kd), full(ref[0])
    g = full(gravity.g_accel.reshape((3,) + (1,) * (len(shape) - 1)))
    vel, f, scratch = np.zeros(shape), np.empty(shape), np.empty(shape)
    if mode == "open_loop":
        sources = zip(ref, np.stack([finite_diff_velocity(c) for c in bucket], axis=2)[..., None])
    else:
        sources = itertools.repeat((pos, vel))

    def steps():
        for target, (src_pos, src_vel) in zip(ref[1:], sources):
            _pd_law(kp, kd, target, src_pos, src_vel, f, scratch)
            _euler(pos, vel, f, g, dt, scratch)
            yield f, pos

    return steps()


def _integrate(start: np.ndarray, forces: np.ndarray, gravity: GravitySpec, dt: float):
    """Positions and velocities, (T, 3) each, under (T-1, 3) step forces.

    The semi-implicit Euler step from start at rest, written as two running
    sums over the time axis. np.add.accumulate adds in order, so every
    element matches the step loop bit for bit. Raises at the first frame
    after the start with a non-finite or too large position.
    """
    frame = (1,) + forces.shape[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        vel = np.add.accumulate(np.concatenate([np.zeros(frame), (forces - gravity.g_accel) * dt]))
        pos = np.add.accumulate(np.concatenate([np.broadcast_to(start, frame), vel[1:] * dt]))
    worst = np.abs(pos[1:]).max(axis=1)
    bad = np.flatnonzero(~(worst <= DIVERGENCE_LIMIT))
    if bad.size:
        raise SimulationDivergedError(frame=int(bad[0]) + 1, value=float(worst[bad[0]]))
    return pos, vel


def _rollout(clip: MotionClip, forces: np.ndarray, gravity: GravitySpec) -> SimResult:
    """SimResult of (T-1, 3) step forces from the clip's start at rest; raises if it diverges."""
    positions, velocities = _integrate(clip.root_positions[0], forces, gravity, clip.dt)
    return SimResult(positions=positions, velocities=velocities, total_force=forces, dt=clip.dt)


def _simulations(clips: Sequence[MotionClip], gains: PDGains, gravity, mode: SimMode):
    """Yield simulate's SimResult of each clip in input order, stepping each (length, dt)
    bucket once, at its first clip. A clip is integrated and checked (_rollout) as it is
    yielded, so every earlier clip is yielded before a diverged one raises."""
    gravity = _gravity(gravity)
    buckets, pending = iter(_buckets(clips)), {}
    for j, clip in enumerate(clips):
        if j not in pending:  # the first clip of the next bucket
            idx = next(buckets)
            forces = np.empty((len(clip) - 1, 3, len(idx), 1))
            with np.errstate(over="ignore", invalid="ignore"):
                steps = _pd_steps([clips[i] for i in idx], gains.kp, gains.kd, gravity, mode)
                for t, (f, _) in enumerate(steps):
                    forces[t] = f
            pending.update(zip(idx, np.moveaxis(forces[..., 0], 2, 0)))
        yield _rollout(clip, pending.pop(j), gravity)


def _frame_forces(step_forces: np.ndarray) -> np.ndarray:
    """The T-1 step forces of a T-frame clip, (T-1, 3), padded to one row per
    frame by repeating the last; a one-frame clip, with no step, gets one
    zero row."""
    if len(step_forces) == 0:
        return np.zeros((1, 3))
    return np.vstack([step_forces, step_forces[-1:]])


def simulate(
    clip: MotionClip,
    gains: PDGains,
    gravity: GravitySpec | None = None,
    mode: SimMode = "closed_loop",
) -> SimResult:
    """Track the clip's root trajectory with a PD controller.

    The simulated state starts at the clip's first frame with zero velocity.
    In closed_loop mode the force at step t targets the reference frame t+1
    from the *simulated* state; in open_loop mode the force is computed from
    the mocap state (position t and backward-difference velocity) and then
    integrated without feedback. This is _simulations' bucket of one.
    """
    return next(_simulations([_instance("clip", clip, MotionClip)],
                             _instance("gains", gains, PDGains), gravity, mode))


def physics_force_series(
    clip: MotionClip,
    gains: PDGains,
    gravity: GravitySpec | None = None,
    mode: SimMode = "closed_loop",
) -> np.ndarray:
    """Per-frame normalized reaction force, (T, 3).

    The simulation defines T-1 step forces; the final frame repeats the last
    one so downstream losses can align force to every frame. A single-frame
    clip gets a zero force row.
    """
    return _frame_forces(simulate(clip, gains, gravity, mode).total_force)


def rollout_forces(
    clip: MotionClip,
    forces: np.ndarray,
    gravity: GravitySpec | None = None,
) -> SimResult:
    """Integrate a given normalized force series from the clip's start state.

    Used to turn a model's force prediction back into a trajectory. Takes
    an (N, 3) series with N = T or T-1; the row for the final frame, if
    present, is unused (mirroring the physics_force_series padding).
    """
    gravity = _gravity(gravity)
    _instance("clip", clip, MotionClip)
    forces = _numeric("force series", forces, None)
    T = len(clip)
    if forces.ndim != 2 or forces.shape[1] != 3 or len(forces) not in (T, T - 1):
        raise ValidationError(f"force series must be ({T}, 3) or ({T - 1}, 3), got {forces.shape}")
    return _rollout(clip, forces[:T - 1], gravity)


def write_sim_csv(result: SimResult, path: str | Path, frame_rate: float) -> None:
    """Export a simulation as t,px,py,pz,vx,vy,vz,fx,fy,fz rows.

    The t column holds the frame times at frame_rate, the clip's, as its
    clip, plate and prediction CSVs do, and must put the last frame where
    the simulation's dt does (ValidationError). The force column of the
    final frame repeats the last applied force (zero for a single-frame result).
    """
    times = _frame_times(len(_instance("result", result, SimResult)), frame_rate)
    if not abs(times[-1] - (len(result) - 1) * result.dt) <= _TIME_TOLERANCE:
        raise ValidationError(f"frame_rate {frame_rate!r} is not 1 / dt of the simulation, "
                              f"dt = {result.dt!r}")
    forces = _frame_forces(result.total_force)
    data = np.column_stack([times, result.positions, result.velocities, forces])
    _write_rows(path, ("t", "px", "py", "pz", "vx", "vy", "vz", "fx", "fy", "fz"), data)
