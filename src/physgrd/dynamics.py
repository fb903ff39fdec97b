"""PD reaction-force estimation and semi-implicit Euler root simulation.

All forces here are mass-normalized (units of acceleration, m/s^2): the
root obeys  xdd = f - g  where f is the total reaction force divided by
body mass and g is the gravity acceleration vector. Body-weight units used
by plate data convert via f_bw = f / 9.81 (to_bodyweight), whatever the
simulated gravity.

The integrator is semi-implicit (symplectic) Euler: the velocity update
precedes the position update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from .errors import SimulationDivergedError, UnitError, ValidationError
from .motion_data import (  # the body-weight conversions are re-exported here
    GravitySpec,
    MotionClip,
    _write_rows,
    finite_diff_velocity,
    from_bodyweight,
    to_bodyweight,
)

DIVERGENCE_LIMIT = 1e6  # meters; any |component| beyond this aborts
SimMode = Literal["closed_loop", "open_loop"]


def _valid_gain(value: float) -> bool:
    """Whether a PD gain is finite and non-negative; NaN is not."""
    return 0 <= value < math.inf


@dataclass(frozen=True)
class PDGains:
    """Proportional/derivative tracking gains.

    kp maps position offset (m) to normalized force (1/s^2); kd maps
    velocity (m/s) to normalized force (1/s).
    """

    kp: float
    kd: float

    def __post_init__(self):
        if not (_valid_gain(self.kp) and _valid_gain(self.kd)):
            raise UnitError(f"gains must be finite and non-negative, got ({self.kp}, {self.kd})")


@dataclass(frozen=True)
class SimResult:
    """Simulated root states and the forces that produced them.

    positions/velocities have one row per frame (T rows); total_force has
    one row per integration step (T-1 rows), since no force acts after the
    final frame. Use physics_force_series for a per-frame-aligned view.
    """

    positions: np.ndarray
    velocities: np.ndarray
    total_force: np.ndarray
    dt: float

    def __post_init__(self):
        if not (0 < self.dt < math.inf):
            raise UnitError(f"dt must be finite and > 0, got {self.dt}")
        pos = np.asarray(self.positions, dtype=float)
        vel = np.asarray(self.velocities, dtype=float)
        force = np.asarray(self.total_force, dtype=float).reshape(-1, 3)
        if pos.shape != vel.shape or pos.ndim != 2 or pos.shape[1] != 3:
            raise ValidationError("positions and velocities must both be (T, 3)")
        if len(force) != max(len(pos) - 1, 0):
            raise ValidationError(
                f"expected {max(len(pos) - 1, 0)} force rows, got {len(force)}"
            )
        for name, arr in (("positions", pos), ("velocities", vel), ("total_force", force)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite value in {name}")
        for n, a in (("positions", pos), ("velocities", vel), ("total_force", force)):
            a = np.ascontiguousarray(a)
            a.flags.writeable = False
            object.__setattr__(self, n, a)

    def __len__(self) -> int:
        return len(self.positions)


def pd_force(
    target_next: np.ndarray,
    current_pos: np.ndarray,
    current_vel: np.ndarray,
    gains: PDGains,
) -> np.ndarray:
    """Normalized reaction force pulling current_pos toward target_next.

    f = kp * (target_next - current_pos) - kd * current_vel
    """
    target_next = np.asarray(target_next, dtype=float)
    current_pos = np.asarray(current_pos, dtype=float)
    current_vel = np.asarray(current_vel, dtype=float)
    return _pd_law(gains.kp, gains.kd, target_next, current_pos, current_vel)


def _pd_law(kp, kd, target, pos, vel):
    """The PD law, for gains and states of any broadcastable shapes."""
    return kp * (target - pos) - kd * vel


def euler_step(
    pos: np.ndarray,
    vel: np.ndarray,
    normalized_force: np.ndarray,
    gravity: GravitySpec,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One semi-implicit Euler step: velocity first, then position.

    acc = f - g;  vel' = vel + acc*dt;  pos' = pos + vel'*dt
    """
    if not (0 < dt < math.inf):
        raise UnitError(f"dt must be finite and > 0, got {dt}")
    acc = np.asarray(normalized_force, dtype=float) - gravity.g_accel
    new_vel = np.asarray(vel, dtype=float) + acc * dt
    new_pos = np.asarray(pos, dtype=float) + new_vel * dt
    return new_pos, new_vel


def _pd_steps(ref: np.ndarray, kp, kd, gravity: GravitySpec, dt: float, mocap_vel=None):
    """Yield (force, pos) after each PD step along ref.

    The state starts at ref[0] at rest, and step t pulls toward ref[t+1]:
    from the simulated state (closed loop), or, when mocap_vel is given,
    from the mocap state (ref[t], mocap_vel[t]) (open loop). Its shape is
    that of ref[0] broadcast with the gains: scalar gains on a (T, 3) ref
    step a (3,) state; (B, 1) gain columns step B cells as a (B, 3) state; a
    (T, n, 1, 3) ref of n clips, with a mocap_vel of the same shape, under
    (B, 1) gains steps an (n, B, 3) state. Every element follows the scalar
    arithmetic, and semi-implicit Euler per step equals _integrate's sums.
    """
    pos = np.broadcast_to(ref[0], np.broadcast_shapes(np.shape(kp), ref[0].shape))
    vel = np.zeros(pos.shape)
    if mocap_vel is None:
        for target in ref[1:]:
            f = _pd_law(kp, kd, target, pos, vel)
            pos, vel = euler_step(pos, vel, f, gravity, dt)
            yield f, pos
    else:
        for target, src_pos, src_vel in zip(ref[1:], ref, mocap_vel):
            f = _pd_law(kp, kd, target, src_pos, src_vel)
            pos, vel = euler_step(pos, vel, f, gravity, dt)
            yield f, pos


def _integrate(start: np.ndarray, forces: np.ndarray, gravity: GravitySpec, dt: float):
    """Positions and velocities, (T, ..., 3) each, under (T-1, ..., 3) step forces.

    The semi-implicit Euler step from start at rest, written as two running
    sums over the time axis. np.add.accumulate adds in order, so every
    element matches the step loop bit for bit. Diverged values are returned.
    """
    frame = (1,) + forces.shape[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        vel = np.add.accumulate(np.concatenate([np.zeros(frame), (forces - gravity.g_accel) * dt]))
        pos = np.add.accumulate(np.concatenate([np.broadcast_to(start, frame), vel[1:] * dt]))
    return pos, vel


def _raise_if_diverged(positions: np.ndarray) -> None:
    """Raise at the first frame after the start with a non-finite or too large position."""
    worst = np.abs(positions[1:]).max(axis=1)
    bad = np.flatnonzero(~(worst <= DIVERGENCE_LIMIT))
    if bad.size:
        raise SimulationDivergedError(frame=int(bad[0]) + 1, value=float(worst[bad[0]]))


def _frame_forces(result: SimResult) -> np.ndarray:
    """Step forces padded to one row per frame by repeating the last (zeros if none)."""
    force = result.total_force
    if len(force) == 0:
        return np.zeros((len(result), 3))
    return np.vstack([force, force[-1:]])


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
    integrated without feedback.
    """
    if mode not in ("closed_loop", "open_loop"):
        raise ValueError(f"unknown simulation mode {mode!r}")
    gravity = gravity or GravitySpec()
    ref = clip.root_positions
    mocap_vel = finite_diff_velocity(clip) if mode == "open_loop" else None
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _pd_steps(ref, gains.kp, gains.kd, gravity, clip.dt, mocap_vel)
        forces = np.array([f for f, _ in steps]).reshape(-1, 3)
    # the steps' own states are these running sums of their forces
    positions, velocities = _integrate(ref[0], forces, gravity, clip.dt)
    _raise_if_diverged(positions)
    return SimResult(positions=positions, velocities=velocities, total_force=forces, dt=clip.dt)


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
    return _frame_forces(simulate(clip, gains, gravity, mode))


def rollout_forces(
    clip: MotionClip,
    forces: np.ndarray,
    gravity: GravitySpec | None = None,
) -> SimResult:
    """Integrate a given normalized force series from the clip's start state.

    Used to turn a model's force prediction back into a trajectory. Accepts
    T or T-1 force rows; the row for the final frame, if present, is unused
    (mirroring the physics_force_series padding).
    """
    gravity = gravity or GravitySpec()
    forces = np.array(forces, dtype=float).reshape(-1, 3)
    T = len(clip)
    if len(forces) not in (T, max(T - 1, 0)):
        raise ValidationError(
            f"force series must have {T} or {T - 1} rows, got {len(forces)}"
        )
    applied = forces[: max(T - 1, 0)]
    positions, velocities = _integrate(clip.root_positions[0], applied, gravity, clip.dt)
    _raise_if_diverged(positions)
    return SimResult(positions=positions, velocities=velocities, total_force=applied, dt=clip.dt)


def write_sim_csv(result: SimResult, path: str | Path) -> None:
    """Export a simulation as t,px,py,pz,vx,vy,vz,fx,fy,fz rows.

    The force column of the final frame repeats the last applied force (zero
    for a single-frame result).
    """
    times = np.arange(len(result)) * result.dt
    data = np.column_stack([times, result.positions, result.velocities, _frame_forces(result)])
    _write_rows(path, ("t", "px", "py", "pz", "vx", "vy", "vz", "fx", "fy", "fz"), data)
