"""Per-step reference loops for the semi-implicit Euler integrators.

Each loop advances one frame at a time with scalar gains, the semantics the
batched, running-sum and in-place integrators in physgrd must match bit for
bit.
"""

import math

import numpy as np

from physgrd.dynamics import DIVERGENCE_LIMIT, GravitySpec, PDGains, SimResult, euler_step
from physgrd.dynamics import pd_force
from physgrd.errors import SimulationDivergedError
from physgrd.motion_data import finite_diff_velocity
from physgrd.synthetic import _frames


def _run(clip, force_at, gravity):
    g = (gravity or GravitySpec()).g_accel
    T, dt = len(clip), clip.dt
    positions = np.empty((T, 3))
    velocities = np.zeros((T, 3))
    forces = np.empty((max(T - 1, 0), 3))
    positions[0] = clip.root_positions[0]
    pos, vel = positions[0].copy(), velocities[0].copy()
    for t in range(T - 1):
        f = force_at(t, pos, vel)
        vel = vel + (f - g) * dt
        pos = pos + vel * dt
        worst = float(np.abs(pos).max())
        if not math.isfinite(worst) or worst > DIVERGENCE_LIMIT:
            raise SimulationDivergedError(frame=t + 1, value=worst)
        forces[t], positions[t + 1], velocities[t + 1] = f, pos, vel
    return SimResult(positions=positions, velocities=velocities, total_force=forces, dt=dt)


def simulate(clip, gains, gravity=None, mode="closed_loop"):
    ref = clip.root_positions
    if mode == "closed_loop":
        def force_at(t, pos, vel):
            return gains.kp * (ref[t + 1] - pos) - gains.kd * vel
    else:
        mocap_vel = finite_diff_velocity(clip)

        def force_at(t, pos, vel):
            return gains.kp * (ref[t + 1] - ref[t]) - gains.kd * mocap_vel[t]
    return _run(clip, force_at, gravity)


def rollout_forces(clip, forces, gravity=None):
    forces = np.asarray(forces, dtype=float).reshape(-1, 3)
    return _run(clip, lambda t, pos, vel: forces[t], gravity)


def physics_force_series(clip, gains, gravity=None, mode="closed_loop"):
    force = simulate(clip, gains, gravity, mode).total_force
    return np.vstack([force, force[-1:]]) if len(force) else np.zeros((len(clip), 3))


def calibrate_scores(clips, cells, gravity=None, mode="closed_loop"):
    """(per_cell, per_subject, best cell) scored one cell and clip at a time."""
    subjects = sorted({c.subject_id for c in clips})
    per_cell, per_subject = {}, {s: {} for s in subjects}
    for cell in cells:
        by_subject = {}
        try:
            for clip in clips:
                sim = simulate(clip, PDGains(*cell), gravity, mode)
                d = sim.positions[:, 2] - clip.root_positions[:, 2]
                by_subject.setdefault(clip.subject_id, []).append(float(np.mean(d * d) * 1e3))
        except SimulationDivergedError:
            per_cell[cell] = (float("inf"), float("inf"))
            continue
        means = {s: float(np.mean(sorted(v))) for s, v in by_subject.items()}
        vals = np.array([means[s] for s in subjects])
        per_cell[cell] = (float(vals.mean()), float(vals.std()))
        for s in subjects:
            per_subject[s][cell] = means[s]
    best = min((score, kp, kd) for (kp, kd), (score, _) in per_cell.items())
    return per_cell, per_subject, (best[1], best[2])


def spring_tracked(p, rng):
    """synthetic's spring_tracked builder, (positions, forces, left share),
    with each frame stepped through the checked public pd_force and euler_step."""
    kp, kd, dt = float(p["kp"]), float(p["kd"]), 1.0 / float(p["frame_rate"])
    T = _frames(p)
    base = 1.0
    if float(p["jitter"]):
        base += 0.2 * float(p["jitter"]) * (rng.random() - 0.5)
    gravity = GravitySpec()
    denom = 1.0 - kp * dt * dt
    positions = np.zeros((T, 3))
    forces = np.zeros((T - 1, 3))
    positions[0, 2] = base
    x, v = positions[0].copy(), np.zeros(3)
    for t in range(T - 1):
        target = x + (v * dt * (1.0 - kd * dt) - gravity.g_accel * dt * dt) / denom
        f = pd_force(target, x, v, PDGains(kp, kd))
        x, v = euler_step(x, v, f, gravity, dt)
        forces[t], positions[t + 1] = f, x
    # one row per frame: the last repeats the last step's force, or is zero with no step
    return positions, np.vstack([forces, forces[-1:]]) if T > 1 else np.zeros((1, 3)), 0.5
