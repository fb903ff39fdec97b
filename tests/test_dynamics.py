import numpy as np
import pytest

import euler_reference
from physgrd import dynamics
from physgrd.dynamics import (
    GravitySpec,
    _pd_steps,
    _simulations,
    PDGains,
    SimResult,
    euler_step,
    pd_force,
    physics_force_series,
    rollout_forces,
    simulate,
    to_bodyweight,
    write_sim_csv,
)
from physgrd.calibration import calibrate
from physgrd.errors import SimulationDivergedError, UnitError, ValidationError
from physgrd.grf_model import TrainConfig, train
from physgrd.metrics import evaluate_prediction, vrpe
from physgrd.motion_data import (
    STANDARD_GRAVITY,
    Dataset,
    ForcePlateRecord,
    MotionClip,
    finite_diff_velocity,
    load_force_plate,
    write_force_plate,
)
from physgrd.synthetic import gen_synthetic, make_dataset


def const_clip(z=1.0, T=100, rate=100.0):
    pos = np.tile([0.0, 0.0, z], (T, 1))
    return MotionClip("S1", "static", rate, 70.0, pos, pos)


class TestPDForce:
    def test_zero_offset_zero_velocity(self):
        f = pd_force(np.ones(3), np.ones(3), np.zeros(3), PDGains(70, 3))
        np.testing.assert_array_equal(f, 0.0)

    def test_hand_example_table_gains(self):
        # kp=70, kd=3, offset 1 cm up, velocity 0.1 m/s up
        f = pd_force(
            np.array([0, 0, 1.01]),
            np.array([0, 0, 1.0]),
            np.array([0, 0, 0.1]),
            PDGains(70, 3),
        )
        np.testing.assert_allclose(f, [0, 0, 0.4], atol=1e-12)

    def test_unbroadcastable_operands_rejected(self):
        with pytest.raises(ValidationError, match=r"pd_force .* \(3,\), \(2,\), \(3,\)"):
            pd_force(np.zeros(3), np.zeros(2), np.zeros(3), PDGains(70, 3))
        with pytest.raises(ValidationError, match=r"euler_step .* \(3,\), \(2,\), \(3,\), \(3,\)"):
            euler_step(np.zeros(3), np.zeros(2), np.zeros(3), GravitySpec(), 0.01)

    def test_zero_gains_zero_force(self):
        f = pd_force(np.array([9.0, 2, 3]), np.zeros(3), np.array([4.0, 5, 6]), PDGains(0, 0))
        np.testing.assert_array_equal(f, 0.0)

    def test_negative_gains_rejected(self):
        with pytest.raises(UnitError):
            PDGains(-1, 0)
        for bad in ((np.nan, 0), (0, np.nan), (np.inf, 0), (0, np.inf), (None, 0), ("70", 3)):
            with pytest.raises(UnitError):
                PDGains(*bad)


class TestEulerStep:
    def test_hover_equilibrium(self):
        pos, vel = euler_step(
            np.array([0, 0, 1.0]), np.zeros(3), np.array([0, 0, 9.81]), GravitySpec(), 0.01
        )
        np.testing.assert_array_equal(pos, [0, 0, 1.0])
        np.testing.assert_array_equal(vel, 0.0)

    def test_free_fall_hand_values(self):
        pos, vel = euler_step(np.zeros(3), np.zeros(3), np.zeros(3), GravitySpec(), 0.01)
        np.testing.assert_allclose(vel, [0, 0, -0.0981], atol=1e-15)
        np.testing.assert_allclose(pos, [0, 0, -0.000981], atol=1e-15)

    def test_pure_drift_without_forces(self):
        g0 = GravitySpec(g_accel=np.array([0.0, 0.0, 1e-9]))
        pos, vel = euler_step(
            np.array([1.0, 2, 3]), np.array([1.0, 0, 0]), np.zeros(3), g0, 0.5
        )
        np.testing.assert_allclose(pos, [1.5, 2, 3], atol=1e-9)

    def test_velocity_update_precedes_position(self):
        # pos' must use the updated velocity, not the old one
        pos, vel = euler_step(
            np.zeros(3), np.zeros(3), np.array([0, 0, 19.62]), GravitySpec(), 0.1
        )
        np.testing.assert_allclose(vel, [0, 0, 0.981], atol=1e-12)
        np.testing.assert_allclose(pos, [0, 0, 0.0981], atol=1e-12)

    def test_none_is_standard_gravity(self):
        args = (np.array([0, 0, 1.0]), np.array([0.5, 0, 0]), np.array([0, 0, 3.0]))
        for got, want in zip(euler_step(*args, None, 0.01), euler_step(*args, GravitySpec(), 0.01)):
            assert np.array_equal(got, want)

    def test_bad_dt(self):
        with pytest.raises(UnitError):
            euler_step(np.zeros(3), np.zeros(3), np.zeros(3), GravitySpec(), 0.0)
        for bad in (np.nan, np.inf, -0.01, None, "0.01"):
            with pytest.raises(UnitError):
                euler_step(np.zeros(3), np.zeros(3), np.zeros(3), GravitySpec(), bad)


def _copied(steps):
    """The (force, pos) pairs of _pd_steps, copied before the next step overwrites them."""
    return [(f.copy(), pos.copy()) for f, pos in steps]


class TestPDSteps:
    def test_open_loop_matches_pd_force(self):
        clip, _ = gen_synthetic("hop", {"duration": 1.0}, seed=3)
        gains, ref, mocap_vel = PDGains(70.0, 3.0), clip.root_positions, finite_diff_velocity(clip)
        steps = _copied(_pd_steps([clip], gains.kp, gains.kd, GravitySpec(), "open_loop"))
        forces = np.array([f[:, 0, 0] for f, _ in steps])
        np.testing.assert_array_equal(forces, pd_force(ref[1:], ref[:-1], mocap_vel[:-1], gains))
        # simulate's running sums of those forces are the stepped states
        sim = simulate(clip, gains, mode="open_loop")
        np.testing.assert_array_equal(np.array([p[:, 0, 0] for _, p in steps]), sim.positions[1:])

    def test_yielded_arrays_are_overwritten_by_the_next_step(self):
        clip, _ = gen_synthetic("hop", {"duration": 0.2}, seed=3)
        steps = _pd_steps([clip], 70.0, 3.0, GravitySpec(), "closed_loop")
        f0, pos0 = next(steps)
        kept = pos0.copy()
        f1, pos1 = next(steps)
        assert f1 is f0 and pos1 is pos0
        assert not np.array_equal(pos1, kept)

    @pytest.mark.parametrize("mode", ["closed_loop", "open_loop"])
    def test_gain_columns_match_scalar_runs(self, mode):
        clips = make_dataset(["hop"], n_subjects=2, seed=5, base_params={"duration": 0.5}).clips()
        g = GravitySpec()
        kp, kd = np.array([10.0, 70.0, 90.0]), np.array([0.0, 3.0, 15.0])
        batched = _copied(_pd_steps(clips, kp, kd, g, mode))
        assert batched[0][1].shape == (3, len(clips), len(kp))
        for j, clip in enumerate(clips):
            for b in range(len(kp)):
                alone = _pd_steps([clip], kp[b], kd[b], g, mode)
                for (f, pos), (f1, pos1) in zip(batched, alone, strict=True):
                    np.testing.assert_array_equal(f[:, j, b], f1[:, 0, 0])
                    np.testing.assert_array_equal(pos[:, j, b], pos1[:, 0, 0])

    @pytest.mark.parametrize("mode", ["closed_loop", "open_loop"])
    def test_strided_gain_columns_match_scalar_reference(self, mode):
        # the gains as calibrate passes them: rows of a transposed cell list,
        # every other float of one buffer
        clips = make_dataset(["hop", "walk"], n_subjects=1, seed=5,
                             base_params={"duration": 0.5}).clips()
        cells = [(10.0, 0.0), (70.0, 3.0), (90.0, 15.0), (2000.0, 80.0)]
        kp, kd = np.array(cells).T
        assert not kp.flags.c_contiguous
        g = GravitySpec(g_accel=np.array([0.4, -0.3, 9.7]))
        steps = _pd_steps(clips, kp, kd, g, mode)
        f, pos = next(steps)
        assert f.flags.c_contiguous and pos.flags.c_contiguous
        batched = [(f.copy(), pos.copy())] + _copied(steps)
        for j, clip in enumerate(clips):
            for b, cell in enumerate(cells):
                sim = euler_reference.simulate(clip, PDGains(*cell), g, mode)
                np.testing.assert_array_equal([f[:, j, b] for f, _ in batched], sim.total_force)
                np.testing.assert_array_equal([p[:, j, b] for _, p in batched], sim.positions[1:])


class TestSimulations:
    @pytest.mark.parametrize("mode", ["closed_loop", "open_loop"])
    def test_interleaved_buckets_match_reference_in_input_order(self, mode, monkeypatch):
        def hop(seed, duration, rate):
            return gen_synthetic("hop", {"duration": duration, "frame_rate": rate}, seed=seed)[0]

        # 50 and 100 frames at 100 Hz, 100 frames at 200 Hz, and one frame
        clips = [hop(1, 0.5, 100.0), hop(2, 1.0, 100.0), hop(3, 0.5, 200.0), hop(4, 0.5, 100.0),
                 const_clip(T=1), hop(5, 1.0, 100.0), hop(6, 0.5, 200.0)]
        assert dynamics._buckets(clips) == [[0, 3], [1, 5], [2, 6], [4]]
        stepped = []
        monkeypatch.setattr(dynamics, "_pd_steps",
                            lambda bucket, *args: stepped.append(bucket) or _pd_steps(bucket, *args))
        gains, g = PDGains(70.0, 3.0), GravitySpec(g_accel=np.array([0.4, -0.3, 9.7]))
        results = list(_simulations(clips, gains, g, mode))
        assert [len(b) for b in stepped] == [2, 2, 2, 1]  # each bucket stepped once
        for clip, res in zip(clips, results, strict=True):
            ref = euler_reference.simulate(clip, gains, g, mode)
            np.testing.assert_array_equal(res.positions, ref.positions)
            np.testing.assert_array_equal(res.velocities, ref.velocities)
            np.testing.assert_array_equal(res.total_force, ref.total_force)


class TestSimulate:
    def test_single_frame_boundary(self):
        res = simulate(const_clip(T=1), PDGains(70, 3))
        assert len(res) == 1
        assert res.total_force.shape == (0, 3)
        np.testing.assert_array_equal(res.positions[0], [0, 0, 1.0])

    def test_ballistic_first_order_bound(self):
        clip, _ = gen_synthetic("ballistic", {"duration": 1.0}, seed=0)
        res = simulate(clip, PDGains(0, 0))
        err = np.abs(res.positions[:, 2] - clip.root_positions[:, 2]).max()
        assert err <= 9.81 * clip.dt * 1.0

    def test_spring_tracked_self_consistency(self):
        clip, _ = gen_synthetic("spring_tracked", {"kp": 70, "kd": 3, "duration": 2.0}, seed=1)
        res = simulate(clip, PDGains(70, 3))
        assert np.abs(res.positions - clip.root_positions).max() <= 1e-9

    def test_determinism_bit_identical(self):
        clip, _ = gen_synthetic("hop", {"duration": 1.0}, seed=2)
        a = simulate(clip, PDGains(70, 3))
        b = simulate(clip, PDGains(70, 3))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.total_force, b.total_force)

    def test_divergence_reports_frame(self):
        # an undamped very stiff spring at this dt is unstable
        clip = const_clip(T=3000)
        with pytest.raises(SimulationDivergedError) as err:
            simulate(clip, PDGains(50000, 0))
        assert err.value.frame > 0

        # open loop and given forces diverge at the reference loop's frame
        pos = np.column_stack([np.zeros((200, 2)), np.linspace(1.0, 3.0, 200)])
        ramp = MotionClip("S1", "ramp", 100.0, 70.0, pos, pos)
        push = np.tile([0.0, 0.0, 1e7], (200, 1))
        for ours, reference, args in [
            (simulate, euler_reference.simulate, (clip, PDGains(50000, 0))),
            (simulate, euler_reference.simulate, (ramp, PDGains(1e9, 0), None, "open_loop")),
            (rollout_forces, euler_reference.rollout_forces, (ramp, push)),
        ]:
            with pytest.raises(SimulationDivergedError) as err:
                ours(*args)
            with pytest.raises(SimulationDivergedError) as ref:
                reference(*args)
            assert (err.value.frame, err.value.value) == (ref.value.frame, ref.value.value)
            assert 1 < err.value.frame < 200

    def test_open_loop_never_beats_closed_on_spring_tracked(self):
        clip, _ = gen_synthetic("spring_tracked", {"kp": 50, "kd": 6, "duration": 2.0}, seed=5)
        closed = vrpe(simulate(clip, PDGains(50, 6), mode="closed_loop"), clip)
        open_ = vrpe(simulate(clip, PDGains(50, 6), mode="open_loop"), clip)
        assert closed <= open_ + 1e-15

    def test_unknown_mode(self):
        with pytest.raises(ValidationError, match="sideways"):
            simulate(const_clip(), PDGains(1, 1), mode="sideways")

    def test_gravity_must_be_a_spec_or_none(self):
        clip = const_clip()
        g = np.array([0.0, 0.0, 9.81])
        for call in (
            lambda: simulate(clip, PDGains(70, 3), g),
            lambda: rollout_forces(clip, np.zeros((len(clip), 3)), g),
            lambda: calibrate([clip], [(70.0, 3.0)], g),
            lambda: evaluate_prediction(clip, None, np.zeros((len(clip), 2, 3)), g),
            lambda: train(Dataset(()), TrainConfig(), ([], "S1"), gravity=g),
            lambda: euler_step(np.zeros(3), np.zeros(3), np.zeros(3), g, 0.01),
        ):
            with pytest.raises(ValidationError,
                               match="^gravity must be of type GravitySpec, got ndarray$"):
                call()


class TestEquilibrium:
    @pytest.mark.parametrize("rate", [100.0, 200.0])
    def test_fixed_point_offset_and_force(self, rate):
        T = int(25 * rate)
        clip = const_clip(T=T, rate=rate)
        res = simulate(clip, PDGains(70, 3))
        offset = clip.root_positions[-1, 2] - res.positions[-1, 2]
        assert offset == pytest.approx(9.81 / 70.0, abs=1e-6)
        np.testing.assert_allclose(res.total_force[-1], [0, 0, 9.81], atol=1e-6)

    def test_static_force_converges_to_gravity(self):
        series = physics_force_series(const_clip(T=2500), PDGains(70, 3))
        np.testing.assert_allclose(series[-1], [0, 0, 9.81], atol=1e-6)


class TestPhysicsForceSeries:
    def test_zero_gains_zero_series(self):
        series = physics_force_series(const_clip(T=50), PDGains(0, 0))
        np.testing.assert_array_equal(series, 0.0)
        assert series.shape == (50, 3)

    def test_padding_repeats_last(self):
        clip, _ = gen_synthetic("hop", {"duration": 1.0}, seed=0)
        series = physics_force_series(clip, PDGains(70, 3))
        assert len(series) == len(clip)
        np.testing.assert_array_equal(series[-1], series[-2])

    def test_hop_has_near_zero_flight_segments(self):
        # gains stiff enough to actually track the hop; the soft table gains
        # ring at their 1.3 Hz natural frequency and blur the flight phases
        clip, plate = gen_synthetic("hop", {"duration": 3.0}, seed=0)
        series = physics_force_series(clip, PDGains(2000, 80))
        flight = plate.total_force()[:, 2] < 1e-12
        assert flight.sum() > 20
        flight_rms = np.sqrt((series[flight, 2] ** 2).mean())
        contact_peak = series[~flight, 2].max()
        assert flight_rms < 2.0
        assert flight_rms < 0.1 * contact_peak

    def test_single_frame_zero(self):
        series = physics_force_series(const_clip(T=1), PDGains(70, 3))
        np.testing.assert_array_equal(series, np.zeros((1, 3)))


class TestRollout:
    def test_reproduces_generator_dynamics(self):
        clip, plate = gen_synthetic("walk", {"duration": 1.5}, seed=1)
        sim = rollout_forces(clip, plate.total_force() * 9.81)
        np.testing.assert_allclose(sim.positions, clip.root_positions, atol=1e-9)

    def test_accepts_tminus1_rows(self):
        clip = const_clip(T=10)
        forces = np.tile([0.0, 0.0, 9.81], (9, 1))
        sim = rollout_forces(clip, forces)
        np.testing.assert_allclose(sim.positions[:, 2], 1.0, atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            rollout_forces(const_clip(T=10), np.zeros((5, 3)))

    def test_only_n_by_3_series_accepted(self):
        clip, _ = gen_synthetic("hop", {"duration": 1.0}, seed=0)
        series = physics_force_series(clip, PDGains(70, 3))
        assert series.shape == (100, 3)
        # the transposed series has 300 values, which reshape(-1, 3) would take as 100 rows
        for bad in (series.T, series.ravel(), series[:, None, :]):
            with pytest.raises(ValidationError, match=r"must be \(100, 3\) or \(99, 3\)"):
                rollout_forces(clip, bad)


class TestDampingTrend:
    def test_damped_tracks_hops_better(self):
        clips = [gen_synthetic("hop", {"duration": 4.0}, seed=s)[0] for s in (1, 2, 3)]
        def mean_vrpe(gains):
            return np.mean([vrpe(simulate(c, gains), c) for c in clips])
        assert mean_vrpe(PDGains(70, 3)) < mean_vrpe(PDGains(70, 0))


class TestSimResult:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SimResult(
                positions=np.zeros((3, 3)),
                velocities=np.zeros((3, 3)),
                total_force=np.zeros((3, 3)),  # must be T-1 rows
                dt=0.01,
            )
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(UnitError):
                SimResult(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((2, 3)), dt=bad)
        with pytest.raises(ValidationError, match="at least one frame"):
            SimResult(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)), dt=0.01)

    def test_csv_export(self, tmp_path):
        clip, _ = gen_synthetic("hop", {"duration": 0.5}, seed=0)
        res = simulate(clip, PDGains(70, 3))
        path = tmp_path / "sim.csv"
        write_sim_csv(res, path, clip.frame_rate)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,px,py,pz,vx,vy,vz,fx,fy,fz"
        assert len(lines) == len(clip) + 1
        last = [float(v) for v in lines[-1].split(",")]
        np.testing.assert_allclose(last[7:10], res.total_force[-1], rtol=1e-12)


class TestUnits:
    def test_bodyweight_round_trip(self):
        f = np.array([[0.0, 0.0, 9.81]])
        np.testing.assert_allclose(to_bodyweight(f), [[0, 0, 1.0]], rtol=1e-12)

    @pytest.mark.parametrize("mass", [0.0, -70.0, np.nan, np.inf, None])
    def test_bodyweight_rejects_a_bad_mass(self, mass):
        with pytest.raises(UnitError, match="mass must be finite and positive"):
            to_bodyweight(np.ones((3, 3)), mass)

    def test_bodyweight_is_standard_gravity_at_any_gravity(self, tmp_path):
        # default outputs keep their bits: |(0, 0, 9.81)| is exactly 9.81
        assert GravitySpec().magnitude == STANDARD_GRAVITY == 9.81
        moon = GravitySpec(np.array([0.0, 0.0, 1.62]))
        standing = 1.62 / 9.81
        T, mass = 500, 60.0

        # a subject standing still on the plates reads m * 1.62 N in total
        force = np.zeros((T, 2, 3))
        force[:, :, 2] = mass * 1.62 / 2
        record = ForcePlateRecord(force, np.zeros((T, 2, 2)), np.ones((T, 2), dtype=bool))
        write_force_plate(record, tmp_path / "plate.csv", 100.0)
        plate = load_force_plate(tmp_path / "plate.csv", force_unit="newton", mass=mass)
        np.testing.assert_allclose(plate.total_force()[:, 2], standing, rtol=1e-12)

        # physics supervision of a static clip settles on the force holding it up
        clip = const_clip(T=T)
        phys_bw = to_bodyweight(physics_force_series(clip, PDGains(100.0, 20.0), moon))
        np.testing.assert_allclose(phys_bw[-1], [0.0, 0.0, standing], rtol=1e-9, atol=1e-12)

        # and that body-weight reading, rolled out under the same gravity, holds still
        pred = np.zeros((T, 2, 3))
        pred[:, :, 2] = standing / 2
        assert evaluate_prediction(clip, None, pred, moon)[2] < 1e-12
