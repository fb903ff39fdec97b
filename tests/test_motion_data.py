import json

import numpy as np
import pytest

from physgrd.errors import (
    LengthMismatchError,
    ParseError,
    UnitError,
    ValidationError,
)
from physgrd.motion_data import (
    Dataset,
    DatasetEntry,
    ForcePlateRecord,
    GravitySpec,
    MotionClip,
    finite_diff_velocity,
    load_clip_csv,
    load_force_plate,
    load_manifest,
    write_clip_csv,
    write_force_plate,
    write_manifest,
)
from physgrd.synthetic import gen_synthetic


def make_clip(positions, rate=100.0, mass=60.0, features=None, **kw):
    positions = np.asarray(positions, dtype=float)
    if features is None:
        features = positions
    return MotionClip(
        subject_id=kw.get("subject_id", "S1"),
        motion_label=kw.get("motion_label", "clip"),
        frame_rate=rate,
        mass=mass,
        root_positions=positions,
        features=features,
    )


class TestMotionClip:
    def test_basic_construction(self):
        clip = make_clip([[0, 0, 1.0]] * 3)
        assert len(clip) == 3
        assert clip.dt == pytest.approx(0.01)
        assert clip.feature_width == 3

    def test_rejects_nonpositive_rate_and_mass(self):
        with pytest.raises(UnitError):
            make_clip([[0, 0, 1]], rate=0.0)
        with pytest.raises(UnitError):
            make_clip([[0, 0, 1]], mass=-1.0)
        with pytest.raises(UnitError, match="frame_rate"):
            make_clip([[0, 0, 1]], rate=np.nan)
        with pytest.raises(UnitError, match="mass"):
            make_clip([[0, 0, 1]], mass=np.nan)
        with pytest.raises(UnitError, match="frame_rate"):
            make_clip([[0, 0, 1]], rate=np.inf)
        with pytest.raises(UnitError, match="mass"):
            make_clip([[0, 0, 1]], mass=np.inf)

    @pytest.mark.parametrize("field", ["subject_id", "motion_label"])
    @pytest.mark.parametrize("name", ["../x", "a/b", "a,b", "", "a b", "x\n", 5])
    def test_rejects_unsafe_names(self, field, name):
        with pytest.raises(ValidationError, match=field):
            make_clip([[0, 0, 1]], **{field: name})

    def test_accepts_safe_names(self):
        clip = make_clip([[0, 0, 1]], subject_id="S-1.a", motion_label="spring_tracked")
        assert (clip.subject_id, clip.motion_label) == ("S-1.a", "spring_tracked")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_features(self, value):
        feat = np.zeros((3, 5))
        feat[1, 4] = value
        with pytest.raises(ValidationError, match="frame 1, column 4"):
            make_clip([[0, 0, 1.0]] * 3, features=feat)

    def test_rejects_nonfinite_positions(self):
        with pytest.raises(ValidationError, match="frame 1"):
            make_clip([[0, 0, 1], [0, np.nan, 1]], features=np.zeros((2, 3)))

    def test_rejects_narrow_features(self):
        with pytest.raises(ValidationError):
            make_clip([[0, 0, 1]], features=np.zeros((1, 2)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            make_clip([[0, 0, 1]] * 2, features=np.zeros((3, 4)))

    def test_arrays_are_immutable(self):
        clip = make_clip([[0, 0, 1.0]] * 2)
        with pytest.raises(ValueError):
            clip.root_positions[0, 0] = 5.0


class TestClipCsv:
    def test_three_row_identity_ingestion(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "t,px,py,pz\n0.0,0.0,0.0,1.0\n0.01,0.0,0.0,1.0\n0.02,0.0,0.0,1.0\n"
        )
        clip = load_clip_csv(path, mass=60.0)
        assert len(clip) == 3
        assert clip.dt == pytest.approx(0.01)
        assert clip.mass == 60.0
        np.testing.assert_allclose(clip.root_positions[:, 2], 1.0)

    def test_nan_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("t,px,py,pz\n0.0,0.0,0.0,1.0\n0.01,0.0,NaN,1.0\n")
        with pytest.raises(ValidationError, match=r"row 2.*'py'"):
            load_clip_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_feature_names_row_and_column(self, tmp_path, value):
        path = tmp_path / "c.csv"
        path.write_text(
            "t,px,py,pz,f0,f1\n0.0,0.0,0.0,1.0,0.5,0.5\n"
            f"0.01,0.0,0.0,1.0,0.5,{value}\n"
        )
        with pytest.raises(ValidationError, match=r"row 2.*'f1'"):
            load_clip_csv(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("t,px,py,pz\n0.0,0.0,0.0\n")
        with pytest.raises(ParseError, match="row 1"):
            load_clip_csv(path)

    def test_nonuniform_spacing_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("t,px,py,pz\n0.0,0,0,1\n0.01,0,0,1\n0.03,0,0,1\n")
        with pytest.raises(ValidationError, match="spacing"):
            load_clip_csv(path)

    def test_decreasing_time_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("t,px,py,pz\n0.01,0,0,1\n0.0,0,0,1\n")
        with pytest.raises(UnitError):
            load_clip_csv(path)

    def test_single_row_needs_rate(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("t,px,py,pz\n0.0,0,0,1\n")
        with pytest.raises(UnitError):
            load_clip_csv(path)
        clip = load_clip_csv(path, frame_rate=100.0)
        assert len(clip) == 1

    def test_round_trip_exact(self, tmp_path):
        clip, _ = gen_synthetic("hop", {"duration": 1.0}, seed=3)
        path = tmp_path / "c.csv"
        write_clip_csv(clip, path)
        back = load_clip_csv(
            path, subject_id=clip.subject_id, motion_label=clip.motion_label,
            mass=clip.mass,
        )
        # spec asks 1e-9 relative; repr-based formatting round-trips exactly
        np.testing.assert_array_equal(back.root_positions, clip.root_positions)
        np.testing.assert_array_equal(back.features, clip.features)
        assert back.frame_rate == pytest.approx(clip.frame_rate, rel=1e-12)


class TestForcePlate:
    def test_mask_derived_from_nan_forces(self):
        force = np.ones((5, 2, 3))
        force[2, 0, 2] = np.nan
        rec = ForcePlateRecord(
            per_foot_force=force,
            per_foot_cop=np.zeros((5, 2, 2)),
            contact_flags=np.ones((5, 2), dtype=bool),
        )
        np.testing.assert_array_equal(rec.valid_mask, [True, True, False, True, True])

    def test_all_finite_mask_true(self):
        rec = ForcePlateRecord(
            per_foot_force=np.ones((4, 2, 3)),
            per_foot_cop=np.zeros((4, 2, 2)),
            contact_flags=np.ones((4, 2), dtype=bool),
        )
        assert rec.valid_mask.all()

    def test_explicit_mask_cannot_validate_nan_row(self):
        force = np.ones((3, 2, 3))
        force[1, 1, 0] = np.nan
        with pytest.raises(ValidationError):
            ForcePlateRecord(
                per_foot_force=force,
                per_foot_cop=np.zeros((3, 2, 2)),
                contact_flags=np.zeros((3, 2), dtype=bool),
                valid_mask=np.array([True, True, True]),
            )

    def test_length_mismatch_on_attach(self):
        clip = make_clip([[0, 0, 1.0]] * 5)
        rec = ForcePlateRecord(
            per_foot_force=np.ones((4, 2, 3)),
            per_foot_cop=np.zeros((4, 2, 2)),
            contact_flags=np.ones((4, 2), dtype=bool),
        )
        with pytest.raises(LengthMismatchError):
            DatasetEntry(clip=clip, plate=rec)

    def test_plate_csv_round_trip(self, tmp_path):
        _, plate = gen_synthetic("walk", {"duration": 1.0, "missing_lead": 0.2}, seed=0)
        path = tmp_path / "p.csv"
        write_force_plate(plate, path, 100.0)
        back = load_force_plate(path)
        np.testing.assert_array_equal(back.valid_mask, plate.valid_mask)
        ok = plate.valid_mask
        np.testing.assert_array_equal(back.per_foot_force[ok], plate.per_foot_force[ok])
        np.testing.assert_array_equal(back.contact_flags, plate.contact_flags)

    def test_newton_conversion(self, tmp_path):
        force = np.full((2, 2, 3), 58.86)  # 0.1 BW for a 60 kg subject
        rec = ForcePlateRecord(
            per_foot_force=force,
            per_foot_cop=np.zeros((2, 2, 2)),
            contact_flags=np.ones((2, 2), dtype=bool),
        )
        path = tmp_path / "p.csv"
        write_force_plate(rec, path, 100.0)
        back = load_force_plate(path, force_unit="newton", mass=60.0)
        np.testing.assert_allclose(back.per_foot_force, 0.1, rtol=1e-12)

    def test_newton_requires_mass(self, tmp_path):
        _, plate = gen_synthetic("hop", {"duration": 0.5}, seed=0)
        path = tmp_path / "p.csv"
        write_force_plate(plate, path, 100.0)
        with pytest.raises(UnitError):
            load_force_plate(path, force_unit="newton")
        with pytest.raises(UnitError):
            load_force_plate(path, force_unit="newton", mass=np.nan)
        with pytest.raises(UnitError):
            load_force_plate(path, force_unit="newton", mass=np.inf)

    @pytest.mark.parametrize("value", ["inf", "-Infinity", "1e400"])
    @pytest.mark.parametrize("column", ["L_fz", "R_fx", "L_copy", "R_copx"])
    def test_infinite_force_or_cop_names_row_and_column(self, tmp_path, column, value):
        _, plate = gen_synthetic("hop", {"duration": 0.5}, seed=0)
        path = tmp_path / "p.csv"
        write_force_plate(plate, path, 100.0)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as exc:
            load_force_plate(path)
        assert str(exc.value) == f"row 2: infinite value in column '{column}'"


class TestManifest:
    def test_round_trip_two_subjects(self, tmp_path):
        clip1, plate1 = gen_synthetic("hop", {"subject_id": "S1", "duration": 1.0}, seed=1)
        clip2, plate2 = gen_synthetic("walk", {"subject_id": "S2", "duration": 1.0}, seed=2)
        ds = Dataset((DatasetEntry(clip1, plate1), DatasetEntry(clip2, plate2)))
        manifest = write_manifest(ds, tmp_path)
        back = load_manifest(manifest)
        assert back.subjects() == ["S1", "S2"]
        assert len(back) == 2
        for orig, loaded in zip(ds, back):
            np.testing.assert_array_equal(
                loaded.clip.root_positions, orig.clip.root_positions
            )
            np.testing.assert_array_equal(
                loaded.plate.valid_mask, orig.plate.valid_mask
            )
            assert loaded.clip.mass == pytest.approx(orig.clip.mass, rel=1e-12)

    def test_loads_manifest_and_single_clip(self, tmp_path):
        clip, plate = gen_synthetic("hop", {"duration": 0.5}, seed=1)
        manifest = write_manifest(Dataset((DatasetEntry(clip, plate),)), tmp_path)
        ds = load_manifest(manifest)
        assert isinstance(ds, Dataset)
        single = load_clip_csv(tmp_path / "S1_hop_000_clip.csv", mass=70.0)
        assert isinstance(single, MotionClip)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_manifest(path)

    @pytest.mark.parametrize("mutate, error", [
        (lambda doc: doc["subjects"][0].pop("mass_kg"), ParseError),
        (lambda doc: doc["subjects"][0].pop("id"), ParseError),
        (lambda doc: doc["subjects"][0].pop("clips"), ParseError),
        (lambda doc: doc["subjects"][0].update(mass_kg="heavy"), ParseError),
        (lambda doc: doc["subjects"][0].update(clips="S1_hop_000_clip.csv"), ParseError),
        (lambda doc: doc["subjects"][0]["clips"][0].pop("clip_path"), ParseError),
        (lambda doc: doc["subjects"].append(7), ParseError),
        (lambda doc: doc.update(subjects={"S1": {}}), ParseError),
        (lambda doc: doc["subjects"][0].update(id=5), ParseError),
        (lambda doc: doc["subjects"][0]["clips"][0].update(motion_label=[1]), ParseError),
        (lambda doc: doc["subjects"][0]["clips"][0].update(clip_path=5), ParseError),
        (lambda doc: doc["subjects"][0]["clips"][0].update(plate_path=True), ParseError),
        (lambda doc: doc["subjects"][0]["clips"][0].update(clip_path="S1\u0000.csv"), ParseError),
        (lambda doc: doc["subjects"][0].update(id="../x"), ValidationError),
        (lambda doc: doc["subjects"][0].update(id=""), ValidationError),
        (lambda doc: doc["subjects"][0]["clips"][0].update(motion_label="a,b"), ValidationError),
        (lambda doc: doc["subjects"][0]["clips"][0].update(motion_label="x/y"), ValidationError),
        (lambda doc: doc["subjects"][0].update(mass_kg=float("inf")), UnitError),
    ], ids=["no-mass", "no-id", "no-clips", "mass-not-number", "clips-not-list",
            "no-clip-path", "subject-not-object", "subjects-not-list", "id-number",
            "label-list", "clip-path-number", "plate-path-bool", "nul-in-path", "id-parent-dir",
            "id-empty", "label-comma", "label-slash", "mass-inf"])
    def test_malformed_subject_rejected(self, tmp_path, mutate, error):
        clip, plate = gen_synthetic("hop", {"duration": 0.5}, seed=1)
        path = write_manifest(Dataset((DatasetEntry(clip, plate),)), tmp_path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))  # inf is written as the JSON extension Infinity
        with pytest.raises(error):
            load_manifest(path)


class TestGravitySpec:
    def test_default(self):
        g = GravitySpec()
        np.testing.assert_array_equal(g.g_accel, [0.0, 0.0, 9.81])

    def test_magnitude_bounds(self):
        with pytest.raises(UnitError):
            GravitySpec(g_accel=np.array([0.0, 0.0, 25.0]))
        with pytest.raises(UnitError):
            GravitySpec(g_accel=np.zeros(3))


class TestFiniteDiffVelocity:
    def test_constant_positions_zero_velocity(self):
        clip = make_clip([[0, 0, 1.0]] * 4)
        np.testing.assert_array_equal(finite_diff_velocity(clip), np.zeros((4, 3)))

    def test_hand_example(self):
        clip = make_clip([[0, 0, 1.00], [0, 0, 1.01], [0, 0, 1.02]])
        vel = finite_diff_velocity(clip)
        np.testing.assert_allclose(vel[:, 2], [0.0, 1.0, 1.0], rtol=1e-12)

    def test_single_frame(self):
        clip = make_clip([[0, 0, 1.0]])
        np.testing.assert_array_equal(finite_diff_velocity(clip), np.zeros((1, 3)))
