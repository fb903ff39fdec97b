import numpy as np
import pytest

from physgrd.dynamics import PDGains, SimResult, simulate
from physgrd.errors import (
    LengthMismatchError,
    NoValidFramesError,
    ValidationError,
)
from physgrd.metrics import (
    PAIRWISE_LEAF,
    aggregate,
    evaluate_prediction,
    loso_splits,
    pairwise_sum,
    vgrf_mse,
    vrpe,
    vrpe_leaves,
    write_metric_table,
)
from physgrd.motion_data import ForcePlateRecord, MotionClip
from physgrd.synthetic import gen_synthetic


def plate_of(force):
    force = np.asarray(force, dtype=float)
    T = len(force)
    return ForcePlateRecord(
        per_foot_force=force,
        per_foot_cop=np.zeros((T, 2, 2)),
        contact_flags=np.ones((T, 2), dtype=bool),
    )


def const_clip(z=1.0, T=8, rate=100.0):
    pos = np.tile([0.0, 0.0, z], (T, 1))
    return MotionClip("S1", "static", rate, 70.0, pos, pos)


class TestVgrfMse:
    def test_exact_match_is_zero(self):
        force = np.random.default_rng(0).random((6, 2, 3))
        plate = plate_of(force)
        assert vgrf_mse(force, plate) == (0.0, 0.0)

    def test_constant_left_error(self):
        T = 8
        force = np.zeros((T, 2, 3))
        plate = plate_of(force)
        pred = force.copy()
        pred[:, 0, 2] += 0.1
        left, right = vgrf_mse(pred, plate)
        assert right == 0.0
        assert left == 0.1 * 0.1  # exactly, at double precision
        assert left == pytest.approx(0.01, rel=1e-12)

    def test_only_vertical_counts(self):
        force = np.zeros((4, 2, 3))
        plate = plate_of(force)
        pred = force.copy()
        pred[:, :, 0] = 5.0  # horizontal error must not register
        assert vgrf_mse(pred, plate) == (0.0, 0.0)

    def test_masked_frames_excluded(self):
        force = np.zeros((5, 2, 3))
        force[2] = np.nan
        plate = plate_of(force)
        pred = np.zeros((5, 2, 3))
        pred[2, :, 2] = 99.0  # lands on the masked frame only
        assert vgrf_mse(pred, plate) == (0.0, 0.0)

    def test_no_valid_frames_error(self):
        force = np.full((3, 2, 3), np.nan)
        plate = plate_of(force)
        with pytest.raises(NoValidFramesError):
            vgrf_mse(np.zeros((3, 2, 3)), plate)

    def test_length_mismatch(self):
        plate = plate_of(np.zeros((4, 2, 3)))
        with pytest.raises(LengthMismatchError):
            vgrf_mse(np.zeros((5, 2, 3)), plate)


class TestVrpe:
    def test_identical_is_zero(self):
        clip = const_clip()
        sim = simulate(clip, PDGains(0, 0), mode="closed_loop")
        # build a fake perfect sim by reusing clip positions
        from physgrd.dynamics import SimResult

        perfect = SimResult(
            positions=clip.root_positions.copy(),
            velocities=np.zeros_like(clip.root_positions),
            total_force=np.zeros((len(clip) - 1, 3)),
            dt=clip.dt,
        )
        assert vrpe(perfect, clip) == 0.0

    def test_constant_offset_scaling(self):
        from physgrd.dynamics import SimResult

        clip = const_clip(T=8)
        off = clip.root_positions.copy()
        off[:, 2] += 0.01
        sim = SimResult(
            positions=off,
            velocities=np.zeros_like(off),
            total_force=np.zeros((7, 3)),
            dt=0.01,
        )
        # 1e-4 m^2 scaled up by 10^3
        assert vrpe(sim, clip) == pytest.approx(0.1, rel=1e-12)

    def test_quadratic_in_offset(self):
        from physgrd.dynamics import SimResult

        clip = const_clip(T=8)
        vals = []
        for off in (0.02, 0.04):
            pos = clip.root_positions.copy()
            pos[:, 2] += off
            vals.append(
                vrpe(
                    SimResult(
                        positions=pos,
                        velocities=np.zeros_like(pos),
                        total_force=np.zeros((7, 3)),
                        dt=0.01,
                    ),
                    clip,
                )
            )
        assert vals[1] == pytest.approx(4.0 * vals[0], rel=1e-9)

    def test_length_mismatch(self):
        from physgrd.dynamics import SimResult

        clip = const_clip(T=8)
        sim = SimResult(
            positions=np.zeros((5, 3)),
            velocities=np.zeros((5, 3)),
            total_force=np.zeros((4, 3)),
            dt=0.01,
        )
        with pytest.raises(LengthMismatchError):
            vrpe(sim, clip)


STREAM_LENGTHS = list(range(1, 301)) + [999, 1000, 1001, 2500, 4097]


def edge_rows(T, seed=0):
    """(3, 3, T): random rows of mixed magnitude, and rows of zeros, 1e-300,
    1e300, an inf, NaN, and halves of 1e300 that overflow when summed."""
    rng = np.random.default_rng(seed)
    rows = rng.random((9, T)) * 10.0 ** rng.integers(-3, 4, (9, 1))
    rows[0] = 0.0
    rows[1] = 1e-300
    rows[2] = 1e300
    rows[3, T // 2] = np.inf
    rows[4] = np.nan
    rows[5, ::2] = 1e300
    return rows.reshape(3, 3, T)


def leaf_calls(T):
    """The (start, stop) of each call pairwise_sum(T, ...) makes, in order."""
    calls = []
    pairwise_sum(T, lambda start, stop: calls.append((start, stop)) or 0.0)
    return calls


class TestStreamingSum:
    """The streamed sum must equal np.mean bit for bit; if a numpy release
    changes its pairwise sum, these fail instead of the report bytes moving."""

    def test_leaves_tile_the_range(self):
        for T in STREAM_LENGTHS:
            leaves = leaf_calls(T)
            assert [a for a, _ in leaves] == [0] + [b for _, b in leaves[:-1]]
            assert leaves[-1][1] == T
            assert all(0 < b - a <= PAIRWISE_LEAF for a, b in leaves)

    def test_leaf_sums_equal_np_mean(self):
        bad = []
        for T in STREAM_LENGTHS:
            x = edge_rows(T)
            got = pairwise_sum(T, lambda start, stop: np.sum(x[..., start:stop].copy(), axis=-1))
            if not np.array_equal(got / T, np.mean(x, axis=-1), equal_nan=True):
                bad.append(T)
        assert bad == []

    def test_vrpe_leaves_equal_np_mean(self):
        bad = []
        for T in STREAM_LENGTHS:
            z = edge_rows(T, seed=1)
            z_ref = edge_rows(T, seed=2)[:, :1]
            z_ref[2] = np.random.default_rng(3).random(T)
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.mean((z - z_ref) ** 2, axis=-1) * 1e3
                got = vrpe_leaves(z_ref, lambda start, stop: z[..., start:stop].copy())
            if not np.array_equal(got, want, equal_nan=True):
                bad.append(T)
        assert bad == []

    def test_vrpe_equals_np_mean(self):
        # a strided column of a read-only SimResult, past numpy's 8192-value
        # reduction buffer too, and errors whose squares overflow to inf
        rng = np.random.default_rng(5)
        bad = []
        for T in [1, 2, 127, 128, 129, 1000, 1001, 8193, 20000]:
            ref = rng.random((T, 3)) * 10.0 ** rng.integers(-3, 4)
            pos = ref + rng.normal(0.0, 1.0, (T, 3)) * 10.0 ** rng.integers(-6, 200)
            sim = SimResult(positions=pos, velocities=np.zeros((T, 3)),
                            total_force=np.zeros((T - 1, 3)), dt=0.01)
            clip = MotionClip("S1", "hop", 100.0, 70.0, ref, ref)
            with np.errstate(over="ignore"):
                want = np.mean((pos[:, 2] - ref[:, 2]) ** 2) * 1e3
            if vrpe(sim, clip) != want:
                bad.append(T)
        assert bad == []

    def test_sequential_sum_would_not_match(self):
        # rounding tells summation orders apart, so the checks above would
        # see a plain left-to-right sum: it misses np.mean
        x = np.random.default_rng(4).random((3, 1000)) * 10.0 ** np.arange(3)[:, None]
        sequential = np.add.accumulate(x, axis=-1)[:, -1] / 1000
        assert not np.array_equal(sequential, np.mean(x, axis=-1))


class TestAggregate:
    def test_single_entry(self):
        table = aggregate({("S1", "hop"): 2.5}, kind="vrpe")
        assert table.rows == {"hop": (2.5, 0.0)}
        assert table.average == (2.5, 0.0)

    def test_two_motions_average(self):
        table = aggregate({("S1", "hop"): 1.0, ("S1", "walk"): 3.0}, kind="vrpe")
        assert table.average[0] == pytest.approx(2.0, rel=1e-12)

    def test_average_row_is_columnwise_mean(self):
        table = aggregate(
            {("S1", "hop"): 1.0, ("S2", "hop"): 3.0, ("S1", "walk"): 5.0},
            kind="vrpe",
        )
        body = np.array([table.rows[m] for m in sorted(table.rows)])
        np.testing.assert_allclose(table.average, body.mean(axis=0), rtol=1e-13)

    def test_permutation_invariance_bitwise(self):
        vals = {
            ("S1", "hop"): 1.37,
            ("S2", "hop"): 2.11,
            ("S3", "hop"): 0.93,
            ("S1", "walk"): 4.2,
        }
        t1 = aggregate(vals, kind="vrpe")
        t2 = aggregate(dict(reversed(list(vals.items()))), kind="vrpe")
        assert t1.rows == t2.rows
        assert t1.average == t2.average

    def test_vgrf_pairs(self):
        table = aggregate(
            {("S1", "hop"): (0.1, 0.3), ("S2", "hop"): (0.3, 0.5)}, kind="vgrf"
        )
        assert table.rows["hop"] == pytest.approx((0.2, 0.4), rel=1e-12)
        assert table.columns == ("left", "right")

    def test_trial_keys_allowed(self):
        table = aggregate(
            {("S1", "hop", 0): 1.0, ("S1", "hop", 1): 3.0}, kind="vrpe"
        )
        assert table.rows["hop"][0] == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate({}, kind="vrpe")

    def test_csv_layout(self, tmp_path):
        table = aggregate(
            {("S1", "hop"): (0.1, 0.2), ("S1", "walk"): (0.3, 0.4)}, kind="vgrf"
        )
        path = tmp_path / "t.csv"
        write_metric_table(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "motion,left,right"
        assert lines[-1].startswith("Average,")


class TestLosoSplits:
    def test_seven_subjects(self):
        subs = [f"S{i}" for i in range(1, 8)]
        splits = loso_splits(subs)
        assert len(splits) == 7
        assert all(len(train) == 6 for train, _ in splits)
        assert [test for _, test in splits] == sorted(subs)
        for train, test in splits:
            assert set(train) | {test} == set(subs)
            assert test not in train

    def test_two_subjects(self):
        assert loso_splits(["B", "A"]) == [(("B",), "A"), (("A",), "B")]

    def test_single_subject_rejected(self):
        with pytest.raises(ValidationError):
            loso_splits(["A"])

    def test_string_rejected(self):
        # a string once split into one subject per character
        with pytest.raises(ValidationError,
                           match="^subjects must be a collection of ids, got the string 'ab'$"):
            loso_splits("ab")

    @pytest.mark.parametrize("subjects, message", [
        (5, "subjects must be a collection of ids, got 5"),
        (None, "subjects must be a collection of ids, got None"),
        (["a", 3], "subject ids must be strings, got 3"),
        ([["a"], ["b"]], r"subject ids must be strings, got \['a'\]"),
    ], ids=["int", "none", "int-id", "list-ids"])
    def test_non_collection_or_non_string_ids_rejected(self, subjects, message):
        # each raised TypeError: not iterable, not sortable or not hashable
        with pytest.raises(ValidationError, match=f"^{message}$"):
            loso_splits(subjects)


class TestEvaluatePrediction:
    def test_true_forces_reproduce_clip(self):
        clip, plate = gen_synthetic("walk", {"duration": 1.0}, seed=3)
        left, right, v = evaluate_prediction(clip, plate, plate.per_foot_force)
        assert left == 0.0 and right == 0.0
        assert v < 1e-12

    def test_masked_frames_do_not_affect_vgrf(self):
        clip, plate = gen_synthetic("walk", {"duration": 1.0, "missing_lead": 0.3}, seed=3)
        ok = plate.valid_mask
        pred = np.where(ok[:, None, None], plate.per_foot_force, 123.456)
        left, right, _ = evaluate_prediction(clip, plate, pred)
        assert left == 0.0 and right == 0.0

    @pytest.mark.parametrize("plate", [None, "plate"])
    def test_prediction_must_be_per_foot(self, plate):
        clip, plate_record = gen_synthetic("walk", {"duration": 1.0}, seed=3)
        plate = plate_record if plate else None
        for bad in (plate_record.total_force(), plate_record.per_foot_force.reshape(100, 6)):
            with pytest.raises(ValidationError, match=r"must be \(T, 2, 3\), got \(100, "):
                evaluate_prediction(clip, plate, bad)

    @pytest.mark.parametrize("plate", [None, "plate"])
    @pytest.mark.parametrize("T", [99, 101])
    def test_prediction_must_have_the_clips_length(self, plate, T):
        # rollout_forces alone would take a 99-frame prediction as T-1 step forces
        clip, plate_record = gen_synthetic("walk", {"duration": 1.0}, seed=3)
        pred = np.zeros((T, 2, 3))
        with pytest.raises(LengthMismatchError, match=f"{T} frames, clip 100"):
            evaluate_prediction(clip, plate_record if plate else None, pred)

    def test_divergent_rollout_scores_inf(self):
        clip = const_clip(T=5000)
        pred = np.full((5000, 2, 3), 1e4)
        _, _, v = evaluate_prediction(clip, None, pred)
        assert v == float("inf")
