import euler_reference
import numpy as np
import pytest

from physgrd import synthetic
from physgrd.dynamics import PDGains, rollout_forces, simulate
from physgrd.errors import ValidationError
from physgrd.synthetic import (
    KINDS,
    MAX_FRAMES,
    PARAMS,
    build_features,
    gen_synthetic,
    make_dataset,
)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["hop", "walk", "ballistic", "spring_tracked"])
    def test_same_inputs_bit_identical(self, kind):
        a_clip, a_plate = gen_synthetic(kind, {"duration": 1.0, "plate_noise": 0.01}, seed=9)
        b_clip, b_plate = gen_synthetic(kind, {"duration": 1.0, "plate_noise": 0.01}, seed=9)
        np.testing.assert_array_equal(a_clip.root_positions, b_clip.root_positions)
        np.testing.assert_array_equal(a_clip.features, b_clip.features)
        ok = a_plate.valid_mask
        np.testing.assert_array_equal(a_plate.per_foot_force[ok], b_plate.per_foot_force[ok])

    def test_different_seed_changes_noise(self):
        _, a = gen_synthetic("hop", {"plate_noise": 0.05, "duration": 1.0}, seed=1)
        _, b = gen_synthetic("hop", {"plate_noise": 0.05, "duration": 1.0}, seed=2)
        assert not np.array_equal(a.per_foot_force, b.per_foot_force)


class TestBallistic:
    def test_closed_form_endpoint(self):
        clip, _ = gen_synthetic(
            "ballistic", {"x0": (0, 0, 2.0), "v0": (0, 0, 0), "duration": 1.0}, seed=0
        )
        # z(1 s) = 2 - 9.81/2
        assert clip.root_positions[-1, 2] == pytest.approx(2.0 - 4.905, abs=1e-12)

    def test_initial_velocity_enters_closed_form(self):
        clip, _ = gen_synthetic(
            "ballistic", {"x0": (0, 0, 1.0), "v0": (1.0, 0, 2.0), "duration": 0.5}, seed=0
        )
        t = 0.5
        assert clip.root_positions[-1, 0] == pytest.approx(1.0 * t, abs=1e-12)
        assert clip.root_positions[-1, 2] == pytest.approx(1.0 + 2.0 * t - 4.905 * t * t, abs=1e-12)

    def test_zero_plate_force_in_flight(self):
        _, plate = gen_synthetic("ballistic", {"duration": 0.5}, seed=0)
        np.testing.assert_array_equal(plate.per_foot_force, 0.0)
        assert not plate.contact_flags.any()
        assert plate.valid_mask.all()


class TestHop:
    def test_zero_amplitude_is_static_equilibrium(self):
        clip, plate = gen_synthetic("hop", {"amplitude": 0.0, "duration": 2.0}, seed=4)
        assert np.ptp(clip.root_positions, axis=0).max() == 0.0
        # one body weight split evenly across both feet
        np.testing.assert_allclose(plate.per_foot_force[:, :, 2], 0.5, atol=1e-12)

    def test_flight_phases_have_zero_force(self):
        _, plate = gen_synthetic("hop", {"amplitude": 1.0, "duration": 3.0}, seed=4)
        total_z = plate.total_force()[:, 2]
        in_flight = total_z < 1e-12
        assert in_flight.sum() > 20  # several flight windows exist
        contact_frac = 1.0 - in_flight.mean()
        assert 0.4 < contact_frac < 0.8

    def test_plate_consistent_with_trajectory(self):
        clip, plate = gen_synthetic("hop", {"duration": 2.0}, seed=4)
        total_norm = plate.total_force() * 9.81
        sim = rollout_forces(clip, total_norm)
        np.testing.assert_allclose(sim.positions, clip.root_positions, atol=1e-9)

    def test_bad_frequency_rejected(self):
        with pytest.raises(ValidationError):
            gen_synthetic("hop", {"freq": -1.0}, seed=0)

    @pytest.mark.parametrize("key", ["duration", "frame_rate", "mass"])
    def test_nan_common_parameter_rejected(self, key):
        with pytest.raises(ValidationError, match=key):
            gen_synthetic("hop", {key: float("nan")}, seed=0)

    def test_bad_amplitude_rejected(self):
        with pytest.raises(ValidationError):
            gen_synthetic("hop", {"amplitude": 1.5}, seed=0)


class TestWalk:
    def test_plate_consistent_with_trajectory(self):
        clip, plate = gen_synthetic("walk", {"duration": 2.0}, seed=5)
        total_norm = plate.total_force() * 9.81
        sim = rollout_forces(clip, total_norm)
        np.testing.assert_allclose(sim.positions, clip.root_positions, atol=1e-9)

    def test_feet_alternate(self):
        _, plate = gen_synthetic("walk", {"duration": 2.0}, seed=5)
        left = plate.per_foot_force[:, 0, 2]
        right = plate.per_foot_force[:, 1, 2]
        assert np.corrcoef(left, right)[0, 1] < 0.0

    def test_missing_lead_masks_start(self):
        _, plate = gen_synthetic("walk", {"duration": 2.0, "missing_lead": 0.25}, seed=5)
        T = len(plate)
        cut = int(round(0.25 * T))
        assert not plate.valid_mask[:cut].any()
        assert plate.valid_mask[cut:].all()

    def test_missing_span_window(self):
        _, plate = gen_synthetic(
            "walk", {"duration": 2.0, "missing_spans": ((0.5, 0.6),)}, seed=5
        )
        T = len(plate)
        assert not plate.valid_mask[int(0.5 * T): int(0.6 * T) - 1].any()

    def test_missing_spans_of_a_one_shot_iterable(self):
        # the check once read the iterator empty, and no frame was marked missing
        plates = [gen_synthetic("hop", {"duration": 1.0, "missing_spans": spans}, 0)[1]
                  for spans in (iter([(0.1, 0.5)]), [(0.1, 0.5)])]
        assert [int((~p.valid_mask).sum()) for p in plates] == [40, 40]


class TestSpringTracked:
    def test_self_consistency_to_1e9(self):
        clip, _ = gen_synthetic("spring_tracked", {"kp": 50, "kd": 6, "duration": 3.0}, seed=2)
        sim = simulate(clip, PDGains(50, 6), mode="closed_loop")
        assert np.abs(sim.positions - clip.root_positions).max() <= 1e-9

    def test_other_gains_do_not_reproduce(self):
        clip, _ = gen_synthetic("spring_tracked", {"kp": 50, "kd": 6, "duration": 3.0}, seed=2)
        sim = simulate(clip, PDGains(70, 3), mode="closed_loop")
        assert np.abs(sim.positions - clip.root_positions).max() > 1e-3

    def test_too_stiff_for_dt_rejected(self):
        with pytest.raises(ValidationError):
            gen_synthetic("spring_tracked", {"kp": 20000.0}, seed=0)

    @pytest.mark.parametrize("params", [
        {}, {"jitter": 0.3, "plate_noise": 0.01}, {"frame_rate": 240.0}, {"kd": 0.0},
        {"duration": 0.01},
    ], ids=["defaults", "make-dataset-jitter", "240-hz", "kd-0", "one-frame"])
    def test_in_place_steps_match_reference_loop(self, monkeypatch, params):
        # the builder steps _pd_law and _euler in place; the reference steps
        # each frame through the checked public pd_force and euler_step
        p = synthetic._merge_params("spring_tracked", params)
        got = synthetic._gen_spring_tracked(p, np.random.default_rng(7))
        want = euler_reference.spring_tracked(p, np.random.default_rng(7))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        clip, plate = gen_synthetic("spring_tracked", params, seed=7)
        monkeypatch.setattr(synthetic, "_gen_spring_tracked", euler_reference.spring_tracked)
        ref_clip, ref_plate = gen_synthetic("spring_tracked", params, seed=7)
        assert len(clip) == len(ref_clip) == round(p["duration"] * p["frame_rate"])
        for a, b in [(clip.root_positions, ref_clip.root_positions),
                     (clip.features, ref_clip.features),
                     (plate.per_foot_force, ref_plate.per_foot_force),
                     (plate.per_foot_cop, ref_plate.per_foot_cop),
                     (plate.contact_flags, ref_plate.contact_flags)]:
            np.testing.assert_array_equal(a, b)


class TestFeatures:
    def test_layout_position_velocity_acceleration(self):
        pos = np.array([[0, 0, 1.0], [0, 0, 1.01], [0, 0, 1.03]])
        feats = build_features(pos, 100.0)
        assert feats.shape == (3, 9)
        np.testing.assert_array_equal(feats[:, :3], pos)
        np.testing.assert_allclose(feats[:, 5], [0.0, 1.0, 2.0], rtol=1e-10)
        # acceleration channel is in gravity units
        np.testing.assert_allclose(feats[2, 8], (2.0 - 1.0) * 100.0 / 9.81, rtol=1e-10)

    def test_generators_use_standard_width(self):
        for kind in ("hop", "walk", "ballistic", "spring_tracked"):
            clip, _ = gen_synthetic(kind, {"duration": 0.5}, seed=0)
            assert clip.feature_width == 9


class TestMakeDataset:
    def test_subjects_and_labels(self):
        ds = make_dataset(["hop", "walk"], n_subjects=3, clips_per_subject=2, seed=0,
                          base_params={"duration": 0.5})
        assert ds.subjects() == ["S1", "S2", "S3"]
        assert len(ds) == 3 * 2 * 2
        labels = {e.clip.motion_label for e in ds}
        assert labels == {"hop", "walk"}

    def test_masses_vary_unless_pinned(self):
        ds = make_dataset(["hop"], n_subjects=3, seed=0, base_params={"duration": 0.5})
        masses = {e.clip.mass for e in ds}
        assert len(masses) == 3
        ds2 = make_dataset(["hop"], n_subjects=3, seed=0,
                           base_params={"duration": 0.5, "mass": 72.0})
        assert {e.clip.mass for e in ds2} == {72.0}

    @pytest.mark.parametrize("counts, seed", [
        ((2, 0), 0), ((2, -1), 0), ((2.5, 1), 0), ((2, 1), -1), ((2, 1), np.nan),
    ], ids=["no-clips", "negative-clips", "fractional-subjects", "negative-seed", "nan-seed"])
    def test_bad_counts_and_seeds_rejected(self, counts, seed):
        with pytest.raises(ValidationError):
            make_dataset(["hop"], *counts, seed=seed, base_params={"duration": 0.5})

    @pytest.mark.parametrize("base_params, named", [
        (5, "base_params must be a mapping, got int"),
        ([("duration", 0.5)], "base_params must be a mapping, got list"),
        ({"mass": "x"}, "mass must be finite and positive, got 'x'"),
        ({"mass": None}, "mass must be finite and positive, got None"),
        ({"mass": -70.0}, "mass must be finite and positive, got -70.0"),
        # neither a misspelt key nor a walk value was checked when no kind took it
        ({"durration": 1.0}, "unknown generator parameter 'durration'"),
        ({"speed": -1.0}, "speed must be finite and non-negative, got -1.0"),
        ({"step_freq": float("nan")}, "step_freq must be finite and positive, got nan"),
        # nor was a ballistic start's length
        ({"x0": (0.0, 1.0)}, r"x0 must be \(3,\), got \(2,\)"),
    ], ids=["int", "list", "text-mass", "none-mass", "negative-mass", "misspelt-key",
            "walk-speed", "walk-step-freq", "ballistic-x0"])
    def test_malformed_base_params_rejected(self, base_params, named):
        with pytest.raises(ValidationError, match=named):
            make_dataset(["hop"], 1, base_params=base_params)

    @pytest.mark.parametrize("kinds, message", [
        (["hop", "jump"], "unknown generator kind 'jump'"),
        # a string's characters were taken for kinds: "unknown generator kind 'h'"
        ("hop", "kinds must be a collection of ids, got the string 'hop'"),
        (None, "kinds must be a collection of ids, got None"),  # a TypeError
        (["hop", 3], "kind ids must be strings, got 3"),
    ], ids=["unknown", "bare-string", "none", "int-kind"])
    def test_unknown_kind_rejected_before_any_clip(self, monkeypatch, kinds, message):
        def never(*args, **kwargs):
            raise AssertionError("generated a clip before the kinds were checked")

        monkeypatch.setattr(synthetic, "gen_synthetic", never)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make_dataset(kinds, 1)

    def test_unknown_param_rejected(self):
        # a clip's label is its kind, and its heights, sway and ramp are fixed
        for kind, key in (("hop", "wavelength"), ("hop", "motion_label"), ("hop", "base_height"),
                          ("walk", "base_height"), ("walk", "sway_amplitude"),
                          ("walk", "ramp_time"), ("spring_tracked", "base_height")):
            with pytest.raises(ValidationError, match=f"unknown {kind} parameter '{key}'"):
                gen_synthetic(kind, {key: 1.0}, seed=0)

    @pytest.mark.parametrize("kind, params, named", [
        ("ballistic", {"x0": (0.0, 1.0)}, r"x0 must be \(3,\), got \(2,\)"),
        ("walk", {"missing_spans": (0.1, 0.2)}, "missing_spans must be"),
        ("walk", {"missing_spans": ((0.1, 0.2, 0.3),)}, "missing_spans must be"),
        ("walk", {"missing_spans": (("a", "b"),)}, "missing_spans must be"),
        ("walk", {"missing_spans": ((0.6, 0.5),)}, "missing_spans must be"),
        ("walk", {"missing_spans": ((True, True),)}, "missing_spans must be"),
        ("hop", [("duration", 1.0)], "hop parameters must be a mapping, got list"),
        # each passed the range check item by item, then float() raised TypeError
        ("hop", {"freq": (1.0, 2.0)}, r"freq must be finite and positive, got \(1.0, 2.0\)"),
        ("walk", {"mass": [70.0]}, r"mass must be finite and positive, got \[70.0\]"),
    ], ids=["short-vector", "flat-span", "triple-span", "text-span",
            "reversed-span", "bool-span", "params-list", "vector-freq", "list-mass"])
    def test_malformed_structured_param_rejected(self, kind, params, named):
        with pytest.raises(ValidationError, match=named):
            gen_synthetic(kind, params, seed=0)


NUMERIC_PARAMS = sorted(
    (kind, key) for key, spec in PARAMS.items() if spec.bounds is not None for kind in spec.kinds
)


class TestParameterRanges:
    @pytest.mark.parametrize("kind,key", NUMERIC_PARAMS,
                             ids=[f"{kind}-{key}" for kind, key in NUMERIC_PARAMS])
    def test_non_finite_rejected(self, kind, key):
        default = PARAMS[key].default
        for bad in (float("nan"), float("inf"), float("-inf")):
            value = tuple(bad for _ in default) if isinstance(default, tuple) else bad
            with pytest.raises(ValidationError, match=key):
                gen_synthetic(kind, {key: value}, seed=0)

    def test_bounds(self):
        for key, ok, bad in (("amplitude", 1.0, 1.0 + 1e-15), ("contact_fraction", 1e-3, 0.0),
                             ("jitter", 1.99, 2.0), ("freq", 1e-3, 0.0),
                             ("missing_lead", 0.0, 1.0), ("plate_noise", 0.0, -1e-9)):
            gen_synthetic("hop", {key: ok, "duration": 0.5}, seed=0)
            with pytest.raises(ValidationError, match=key):
                gen_synthetic("hop", {key: bad, "duration": 0.5}, seed=0)

    def test_hop_period_cap_checked_before_allocating(self):
        # frame_rate / freq frames per hop; at 100 Hz freq 1e-4 is exactly the cap
        gen_synthetic("hop", {"freq": 1e-4, "duration": 0.5}, seed=0)
        for params in ({"freq": 9.9e-5}, {"freq": 1e-300}, {"freq": 1e-300, "jitter": 1.5},
                       {"freq": 1e-3, "frame_rate": 1e300, "duration": 1e-300}):
            with pytest.raises(ValidationError, match=f"hop period .* exceeds {MAX_FRAMES} frames"):
                gen_synthetic("hop", params, seed=0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_frame_cap_checked_before_allocating(self, kind):
        for params in ({"duration": 1e12}, {"duration": 1e300, "frame_rate": 1e300}):
            with pytest.raises(ValidationError, match=f"exceeds {MAX_FRAMES} frames"):
                gen_synthetic(kind, params, seed=0)
