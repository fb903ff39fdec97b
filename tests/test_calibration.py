import gc
import re
import tracemalloc

import numpy as np
import pytest

import euler_reference
from physgrd import calibration, dynamics, metrics
from physgrd.calibration import (
    DEFAULT_GAIN_CELLS,
    AllCellsDivergedError,
    GainGrid,
    calibrate,
    load_gains,
    write_best_gains,
    write_report_csv,
)
from physgrd.dynamics import PDGains, physics_force_series, rollout_forces, simulate
from physgrd.errors import SimulationDivergedError, UnitError, ValidationError
from physgrd.motion_data import GravitySpec, MotionClip
from physgrd.synthetic import gen_synthetic, make_dataset


MODES = ("closed_loop", "open_loop")


def spring_clips(kp=50.0, kd=6.0, n=3, seed=3):
    ds = make_dataset(
        ["spring_tracked"], n_subjects=n, seed=seed,
        base_params={"kp": kp, "kd": kd, "duration": 2.0},
    )
    return ds.clips()


class TestGainGrid:
    def test_cells_row_major(self):
        grid = GainGrid((10.0, 30.0), (0.0, 3.0))
        assert grid.cells() == [(10, 0), (10, 3), (30, 0), (30, 3)]

    def test_validation(self):
        with pytest.raises(ValidationError):
            GainGrid((), (0.0,))
        with pytest.raises(ValidationError):
            GainGrid((10.0, 10.0), (0.0,))
        with pytest.raises(ValidationError):
            GainGrid((30.0, 10.0), (0.0,))
        with pytest.raises(ValidationError):
            GainGrid((-1.0, 10.0), (0.0,))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError):
                GainGrid((10.0, bad), (0.0,))
            with pytest.raises(ValidationError):
                GainGrid((10.0,), (0.0, bad))

    def test_default_cells_walk_both_gain_axes(self):
        # kp 10..90 step 20 at kd=0, then kd 3..15 step 3 at kp=70
        assert DEFAULT_GAIN_CELLS[:5] == tuple((kp, 0.0) for kp in (10, 30, 50, 70, 90))
        assert DEFAULT_GAIN_CELLS[5:] == tuple((70.0, kd) for kd in (3, 6, 9, 12, 15))


class TestCalibrate:
    def test_singleton_grid(self):
        clips = spring_clips(n=1)
        report = calibrate(clips, [(70.0, 3.0)])
        assert (report.best.kp, report.best.kd) == (70.0, 3.0)

    def test_recovery_of_generating_gains(self):
        clips = spring_clips(kp=50, kd=6, n=5)
        cells = list(DEFAULT_GAIN_CELLS) + [(50.0, 6.0)]
        report = calibrate(clips, cells)
        assert (report.best.kp, report.best.kd) == (50.0, 6.0)
        assert report.best_score < 1e-6

    def test_tie_breaks_toward_smaller_gains(self):
        # two clips of a single frame: every cell scores exactly zero
        pos = np.array([[0.0, 0.0, 1.0]])
        clip = MotionClip("S1", "still", 100.0, 70.0, pos, pos)
        report = calibrate([clip], [(90.0, 5.0), (10.0, 7.0), (10.0, 2.0)])
        assert (report.best.kp, report.best.kd) == (10.0, 2.0)

    def test_adding_cell_never_raises_minimum(self):
        clips = spring_clips(n=2)
        base = calibrate(clips, list(DEFAULT_GAIN_CELLS))
        extended = calibrate(clips, list(DEFAULT_GAIN_CELLS) + [(55.0, 4.0)])
        assert extended.best_score <= base.best_score

    def test_clip_order_permutation_bit_identical(self):
        clips = spring_clips(n=3)
        a = calibrate(clips, [(50.0, 6.0), (70.0, 3.0)])
        b = calibrate(list(reversed(clips)), [(50.0, 6.0), (70.0, 3.0)])
        assert a.per_cell == b.per_cell
        assert a.per_subject == b.per_subject

    def test_means_match_independent_average(self):
        clips = spring_clips(n=4)
        report = calibrate(clips, [(70.0, 3.0)])
        cell = (70.0, 3.0)
        subject_vals = [report.per_subject[s][cell] for s in sorted(report.per_subject)]
        mean = sum(subject_vals) / len(subject_vals)
        assert abs(report.per_cell[cell][0] - mean) <= 1e-12

    def test_diverged_cell_scores_inf_but_search_continues(self):
        clips = spring_clips(n=1)
        report = calibrate(clips, [(50000.0, 0.0), (70.0, 3.0)])
        assert (50000.0, 0.0) in report.diverged
        assert report.per_cell[(50000.0, 0.0)][0] == float("inf")
        assert (report.best.kp, report.best.kd) == (70.0, 3.0)

        # kp*dt^2 = 5 is unstable at 100 Hz but 0.05 is stable at 1 kHz, so
        # (50000, 0) diverges on one clip of three and (70, 3) on none
        fine, _ = gen_synthetic("hop", {"subject_id": "S2", "frame_rate": 1000.0,
                                        "duration": 0.5}, seed=1)
        clips = spring_clips(n=2) + [fine]
        cells = [(70.0, 3.0), (50000.0, 0.0), (50.0, 6.0)]
        report = calibrate(clips, cells)
        assert report.diverged == ((50000.0, 0.0),)
        assert report.per_cell[(50000.0, 0.0)] == (float("inf"), float("inf"))
        alone = calibrate(clips, [(70.0, 3.0), (50.0, 6.0)])
        assert {c: report.per_cell[c] for c in alone.cells} == alone.per_cell
        assert report.per_subject == alone.per_subject

    def test_all_diverged_raises(self):
        clips = spring_clips(n=1)
        with pytest.raises(AllCellsDivergedError):
            calibrate(clips, [(50000.0, 0.0), (80000.0, 0.0)])

    def test_no_clips_rejected(self):
        with pytest.raises(ValidationError):
            calibrate([], [(70.0, 3.0)])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="sideways"):
            calibrate(spring_clips(n=1), [(70.0, 3.0)], mode="sideways")

    @pytest.mark.parametrize("cell, error", [
        ((-5.0, 0.0), UnitError), ((70.0, -1.0), UnitError), ((np.nan, 0.0), UnitError),
        ((np.inf, 3.0), UnitError), ((70.0, 3.0, 1.0), ValidationError),
        (70.0, ValidationError), ((None, 3.0), ValidationError), ("12", ValidationError),
        ((70.0, 3.0), ValidationError),
    ], ids=["kp-negative", "kd-negative", "kp-nan", "kp-inf", "triple", "scalar", "kp-none",
            "string", "repeated"])
    def test_invalid_cell_rejected_before_simulating(self, monkeypatch, cell, error):
        def never(*args):
            raise AssertionError("simulated before the cells were checked")

        monkeypatch.setattr(calibration, "_bucket_scores", never)
        for mode in MODES:
            with pytest.raises(error, match=re.escape(repr(cell))):
                calibrate(spring_clips(n=1), [(70.0, 3.0), cell], mode=mode)

    def test_batched_matches_reference(self):
        # clips of several lengths, kinds and subjects, two clips for S1
        clips = spring_clips(n=2) + [
            gen_synthetic("hop", {"subject_id": "S1", "duration": 1.3}, seed=4)[0],
            gen_synthetic("walk", {"subject_id": "S3", "duration": 0.9}, seed=5)[0],
        ]
        cells = list(DEFAULT_GAIN_CELLS) + [(50.0, 6.0), (2000.0, 80.0), (50000.0, 0.0)]
        for mode in ("closed_loop", "open_loop"):
            for clip in clips:
                for gains in (PDGains(70, 3), PDGains(2000.0, 80.0)):
                    sim = simulate(clip, gains, mode=mode)
                    ref = euler_reference.simulate(clip, gains, mode=mode)
                    for name in ("positions", "velocities", "total_force"):
                        np.testing.assert_array_equal(getattr(sim, name), getattr(ref, name))
                    np.testing.assert_array_equal(
                        physics_force_series(clip, gains, mode=mode),
                        euler_reference.physics_force_series(clip, gains, mode=mode),
                    )
                    sim = rollout_forces(clip, ref.total_force)
                    ref = euler_reference.rollout_forces(clip, ref.total_force)
                    np.testing.assert_array_equal(sim.positions, ref.positions)
                    np.testing.assert_array_equal(sim.velocities, ref.velocities)

            report = calibrate(clips, cells, mode=mode)
            per_cell, per_subject, best = euler_reference.calibrate_scores(clips, cells, mode=mode)
            assert report.per_cell == per_cell
            assert report.per_subject == per_subject
            assert (report.best.kp, report.best.kd) == best

    @staticmethod
    def assert_matches_reference(clips, cells, mode="closed_loop", gravity=None):
        report = calibrate(clips, cells, gravity, mode)
        per_cell, per_subject, best = euler_reference.calibrate_scores(clips, cells, gravity, mode)
        assert report.per_cell == per_cell
        assert report.per_subject == per_subject
        assert (report.best.kp, report.best.kd) == best
        return report

    @pytest.mark.parametrize("mode", MODES)
    def test_three_cells_three_clips_under_tilted_gravity(self, mode):
        # the cell and clip axes are as long as the component axis, so gravity
        # broadcast along the wrong axis would go through without an error
        clips = spring_clips(n=2) + [
            gen_synthetic("hop", {"subject_id": "S3", "duration": 2.0}, seed=4)[0]
        ]
        assert list(dynamics._buckets(clips)) == [[0, 1, 2]]
        gravity = GravitySpec(g_accel=np.array([0.4, -0.3, 9.7]))
        cells = [(10.0, 0.0), (70.0, 3.0), (90.0, 15.0)]
        self.assert_matches_reference(clips, cells, mode, gravity)
        for clip in clips:
            for gains in [PDGains(*cell) for cell in cells]:
                sim = simulate(clip, gains, gravity, mode)
                ref = euler_reference.simulate(clip, gains, gravity, mode)
                for name in ("positions", "velocities", "total_force"):
                    np.testing.assert_array_equal(getattr(sim, name), getattr(ref, name))
                np.testing.assert_array_equal(
                    physics_force_series(clip, gains, gravity, mode),
                    euler_reference.physics_force_series(clip, gains, gravity, mode),
                )

    def test_equal_length_group_steps_as_one_bucket(self):
        # 240 cells x 200 frames: all three clips step in one bucket, whatever its size
        clips = spring_clips(n=2) + [
            gen_synthetic("hop", {"subject_id": "S3", "duration": 2.0}, seed=4)[0]
        ]
        grid = GainGrid(tuple(10.0 + 60.0 * i for i in range(15)), tuple(range(0, 32, 2)))
        assert len(grid.cells()) == 240 and {len(c) for c in clips} == {200}
        assert list(dynamics._buckets(clips)) == [[0, 1, 2]]
        for mode in MODES:
            self.assert_matches_reference(clips, grid.cells(), mode)

    def test_long_clips_match_reference(self):
        # 1001 and 300 frames: leaves of several levels of the pairwise tree
        clips = [
            gen_synthetic("hop", {"subject_id": "S1", "duration": 10.01}, seed=4)[0],
            gen_synthetic("walk", {"subject_id": "S2", "duration": 10.01}, seed=5)[0],
            gen_synthetic("hop", {"subject_id": "S2", "duration": 3.0}, seed=6)[0],
        ]
        assert [len(c) for c in clips] == [1001, 1001, 300]
        for mode in MODES:
            report = self.assert_matches_reference(clips, [(70.0, 3.0), (1e9, 0.0), (30.0, 9.0)],
                                                   mode)
            assert report.diverged == ((1e9, 0.0),)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("T", [1, 2, 31, 32, 33, 128, 129, 257])
    def test_gather_block_and_leaf_edges_match_reference(self, mode, T):
        # _bucket_scores writes heights from frame 1 and from each later leaf
        # start (128, 192 for T = 257); the spike clip makes its stiff cell
        # diverge at frame T // 2 + 3. (The name is older than the direct
        # writes: heights were once gathered in blocks of 8 frames.)
        hop = gen_synthetic("hop", {"subject_id": "S1", "duration": 2.6}, seed=4)[0]
        walk = gen_synthetic("walk", {"subject_id": "S2", "duration": 2.6}, seed=5)[0]
        clips = [MotionClip(c.subject_id, c.motion_label, c.frame_rate, c.mass,
                            c.root_positions[:T], c.features[:T]) for c in (hop, walk)]
        stiff = (10000.0, 150.0)
        spike = T // 2 + 3
        if spike < T:
            pos = clips[0].root_positions.copy()
            pos[spike, 2] = 1.1e6
            clips.append(MotionClip("S3", "spike", hop.frame_rate, 70.0, pos, pos))
            with pytest.raises(SimulationDivergedError) as exc:
                euler_reference.simulate(clips[-1], PDGains(*stiff), mode=mode)
            assert exc.value.frame == spike
        assert list(dynamics._buckets(clips)) == [list(range(len(clips)))]
        report = self.assert_matches_reference(clips, [(70.0, 3.0), stiff, (30.0, 9.0)], mode)
        assert report.diverged == ((stiff,) if spike < T else ())

    @pytest.mark.parametrize("mode", MODES)
    def test_bucket_never_holds_heights_of_every_frame(self, mode):
        # 2 clips x 100 cells x 8000 frames: their heights would take 12.8 MB
        clips = [gen_synthetic("hop", {"subject_id": f"S{i}", "duration": 80.0}, seed=i)[0]
                 for i in (1, 2)]
        grid = GainGrid(tuple(10.0 + 5.0 * i for i in range(10)), tuple(range(0, 20, 2)))
        tracemalloc.start()
        try:
            calibrate(clips, grid, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 100 * 8000 * 8 / 2

    def test_scoring_leaves_no_reference_cycle(self):
        # a cycle would keep each call's state arrays until the garbage
        # collector runs: 1001 frames take leaves of several tree levels
        clip = gen_synthetic("hop", {"subject_id": "S1", "duration": 10.01}, seed=4)[0]
        gc.collect()
        gc.disable()
        try:
            for mode in MODES:
                calibrate([clip], mode=mode)
                metrics.vrpe(simulate(clip, PDGains(70.0, 3.0), mode=mode), clip)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_equal_length_other_frame_rate_steps_apart(self):
        coarse = gen_synthetic("hop", {"subject_id": "S1", "duration": 1.5}, seed=4)[0]
        fine = gen_synthetic("hop", {"subject_id": "S2", "duration": 0.75,
                                     "frame_rate": 200.0}, seed=5)[0]
        clips = [coarse, fine, spring_clips(n=1)[0]]
        assert len(coarse) == len(fine) == 150
        assert list(dynamics._buckets(clips)) == [[0], [1], [2]]
        for mode in MODES:
            self.assert_matches_reference(clips, list(DEFAULT_GAIN_CELLS), mode)

    def test_cell_diverging_on_one_clip_of_a_bucket(self):
        # kp*dt^2 just above 4 grows slowly: the hop crosses the limit before
        # its last frame, the clip standing still does not
        hop = gen_synthetic("hop", {"subject_id": "S1", "duration": 2.0}, seed=4)[0]
        pos = np.tile(hop.root_positions[:1], (len(hop), 1))
        still = MotionClip("S2", "still", hop.frame_rate, 70.0, pos, pos)
        clips, edge = [hop, still], (40096.0, 0.0)
        with pytest.raises(SimulationDivergedError):
            euler_reference.simulate(hop, PDGains(*edge))
        euler_reference.simulate(still, PDGains(*edge))
        assert list(dynamics._buckets(clips)) == [[0, 1]]

        cells = [(70.0, 3.0), edge, (50.0, 6.0)]
        report = self.assert_matches_reference(clips, cells)
        assert report.diverged == (edge,)
        alone = calibrate(clips, [(70.0, 3.0), (50.0, 6.0)])
        assert {c: report.per_cell[c] for c in alone.cells} == alone.per_cell
        assert report.per_subject == alone.per_subject
        self.assert_matches_reference(clips, cells, "open_loop")

    def test_open_loop_cell_diverging_on_one_clip_of_a_bucket(self):
        # open-loop forces follow the mocap: kp 1e9 drives the hop past the
        # limit at frame 85 of 200, while the still clip gets no PD force at all
        hop = gen_synthetic("hop", {"subject_id": "S1", "duration": 2.0}, seed=4)[0]
        pos = np.tile(hop.root_positions[:1], (len(hop), 1))
        still = MotionClip("S2", "still", hop.frame_rate, 70.0, pos, pos)
        clips, edge = [hop, still], (1e9, 0.0)
        with pytest.raises(SimulationDivergedError):
            euler_reference.simulate(hop, PDGains(*edge), mode="open_loop")
        euler_reference.simulate(still, PDGains(*edge), mode="open_loop")
        assert list(dynamics._buckets(clips)) == [[0, 1]]

        cells = [(70.0, 3.0), edge, (50.0, 6.0)]
        report = self.assert_matches_reference(clips, cells, "open_loop")
        assert report.diverged == (edge,)
        alone = calibrate(clips, [(70.0, 3.0), (50.0, 6.0)], mode="open_loop")
        assert {c: report.per_cell[c] for c in alone.cells} == alone.per_cell
        assert report.per_subject == alone.per_subject

    def test_excursion_past_limit_diverges_after_return(self):
        # one reference frame 1.1e6 m up: the stiff cell follows it past the
        # limit and comes back down, the soft one never gets near it
        hop = gen_synthetic("hop", {"subject_id": "S1", "duration": 1.0}, seed=4)[0]
        pos = hop.root_positions.copy()
        pos[50, 2] = 1.1e6
        spike = MotionClip("S2", "spike", hop.frame_rate, 70.0, pos, pos)
        stiff, soft = (10000.0, 150.0), (70.0, 3.0)
        with pytest.raises(SimulationDivergedError):
            euler_reference.simulate(spike, PDGains(*stiff))
        assert np.abs(euler_reference.simulate(spike, PDGains(*soft)).positions).max() < 1e5
        for mode in MODES:
            report = self.assert_matches_reference([hop, spike], [soft, stiff], mode)
            assert report.diverged == (stiff,)

    def test_clip_permutation_gives_identical_report_bytes(self, tmp_path):
        # lengths 200, 130, 90 and two subjects: permutations regroup the buckets
        clips = spring_clips(n=2) + [
            gen_synthetic("hop", {"subject_id": "S1", "duration": 1.3}, seed=4)[0],
            gen_synthetic("walk", {"subject_id": "S2", "duration": 0.9}, seed=5)[0],
            gen_synthetic("hop", {"subject_id": "S2", "duration": 2.0}, seed=6)[0],
        ]
        grid = GainGrid((10.0, 50.0, 90.0, 50000.0), (0.0, 6.0))
        files = []
        for k, order in enumerate(([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3])):
            report = calibrate([clips[i] for i in order], grid)
            write_report_csv(report, tmp_path / f"report{k}.csv")
            write_best_gains(report, tmp_path / f"best{k}.json")
            files.append([(tmp_path / f"{n}{k}.{e}").read_bytes()
                          for n, e in (("report", "csv"), ("best", "json"))])
        assert files[0] == files[1] == files[2]
        self.assert_matches_reference(clips, grid.cells())

    def test_damping_ordering_on_hop(self):
        ds = make_dataset(["hop"], n_subjects=3, seed=7, base_params={"duration": 4.0})
        report = calibrate(ds.clips(), [(70.0, 3.0), (70.0, 0.0), (10.0, 0.0)])
        score = {c: report.per_cell[c][0] for c in report.cells}
        assert score[(70.0, 3.0)] < score[(70.0, 0.0)] < score[(10.0, 0.0)]


class TestReportIO:
    def test_csv_layout(self, tmp_path):
        clips = spring_clips(n=2)
        report = calibrate(clips, [(50.0, 6.0), (70.0, 3.0)])
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "kp,kd,S1,S2,avg,std"
        assert len(lines) == 3

    def test_best_gains_round_trip(self, tmp_path):
        clips = spring_clips(n=1)
        report = calibrate(clips, [(50.0, 6.0)])
        path = tmp_path / "gains.json"
        write_best_gains(report, path)
        gains = load_gains(path, "closed_loop")
        assert (gains.kp, gains.kd) == (50.0, 6.0)

    @pytest.mark.parametrize("text", [
        '{"kp": true, "kd": "3"}', '{"kp": 70, "kd": false}', '{"kp": "70", "kd": 3}',
        '{"kp": 70, "kd": null}', '{"kp": 1' + "0" * 400 + ', "kd": 3}',
    ], ids=["bool-and-string", "bool", "string", "null", "int-beyond-float"])
    def test_gains_must_be_json_numbers(self, tmp_path, text):
        path = tmp_path / "gains.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: gains need numeric"):
            load_gains(path, "closed_loop")

    @pytest.mark.parametrize("mode", ["closed_loop", "open_loop"])
    def test_gains_without_a_mode_load_in_either_mode(self, tmp_path, mode):
        path = tmp_path / "gains.json"
        path.write_text('{"kp": 70, "kd": 3}')
        assert load_gains(path, mode) == PDGains(70.0, 3.0)

    def test_gains_of_another_mode_are_rejected(self, tmp_path):
        report = calibrate(spring_clips(n=1), [(50.0, 6.0)], mode="open_loop")
        path = tmp_path / "gains.json"
        write_best_gains(report, path)
        assert load_gains(path, "open_loop") == PDGains(50.0, 6.0)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: gains were calibrated "
                           "in open_loop mode; this run is in closed_loop mode$"):
            load_gains(path, "closed_loop")

    @pytest.mark.parametrize("mode", ['"closed"', "null", "1", '["closed_loop"]', '{"a": 1}'],
                             ids=["unknown", "null", "number", "list", "object"])
    def test_gains_mode_must_be_a_mode(self, tmp_path, mode):
        path = tmp_path / "gains.json"
        path.write_text(f'{{"kp": 70, "kd": 3, "mode": {mode}}}')
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: gains 'mode' must be"):
            load_gains(path, "closed_loop")
