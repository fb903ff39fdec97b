import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from physgrd.errors import (
    LengthMismatchError,
    ParseError,
    PhysgrdError,
    UnitError,
    ValidationError,
)
from physgrd.cli import main
from physgrd.dynamics import SimResult
from physgrd.grf_model import Prediction, load_prediction_csv
from physgrd.motion_data import (
    Dataset,
    DatasetEntry,
    ForcePlateRecord,
    GravitySpec,
    MotionClip,
    _numeric,
    _write_json,
    _write_rows,
    _write_table,
    finite_diff_velocity,
    load_clip_csv,
    load_force_plate,
    load_manifest,
    write_clip_csv,
    write_force_plate,
    write_manifest,
)
from physgrd.svgplot import LineSeries, write_svg
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
    @pytest.mark.parametrize("name", ["../x", "a/b", "a,b", "", "a b", "x\n", 5,
                                      pytest.param("a" * 101, id="101-chars")])
    def test_rejects_unsafe_names(self, field, name):
        with pytest.raises(ValidationError, match=field):
            make_clip([[0, 0, 1]], **{field: name})

    def test_accepts_safe_names(self):
        for names in [("S-1.a", "spring_tracked"), ("S" * 100, "m" * 100)]:
            clip = make_clip([[0, 0, 1]], subject_id=names[0], motion_label=names[1])
            assert (clip.subject_id, clip.motion_label) == names

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

    @pytest.mark.parametrize("row, message", [
        ("0.01,0,x,1", "row 2: column 'py' is not a number: 'x'"),
        ("0.01,0,1", "row 2: expected 4 columns, got 3"),
    ], ids=["bad-cell", "short-row"])
    def test_scanner_errors_name_the_file_and_count_data_rows(self, tmp_path, row, message):
        # the blank line is not a data row, as for _check_cells' errors
        path = tmp_path / "c.csv"
        path.write_text(f"t,px,py,pz\n0.0,0,0,1\n\n{row}\n")
        with pytest.raises(ParseError) as exc:
            load_clip_csv(path)
        assert str(exc.value) == f"{path}: {message}"

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

    def test_subnormal_time_step_names_the_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("t,px,py,pz\n0.0,0,0,1\n1e-320,0,0,1\n")
        with pytest.raises(UnitError, match=f"^{re.escape(str(path))}: frame rate .* got inf"):
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

    def test_root_positions_other_than_features_are_not_written(self, tmp_path):
        # the file stores positions only as the first three features, so this
        # clip would read back with its features as root positions
        pos = np.tile([0.0, 0.0, 1.0], (3, 1))
        clip = make_clip(pos, features=pos + 0.5, subject_id="S7", motion_label="lift")
        path = tmp_path / "c.csv"
        with pytest.raises(ValidationError, match="'S7/lift': root_positions"):
            write_clip_csv(clip, path)
        assert not path.exists()
        # -0.0 == 0.0, but the root position would read back as -0.0
        feat = pos.copy()
        feat[1, 0] = -0.0
        with pytest.raises(ValidationError):
            write_clip_csv(make_clip(pos, features=feat), path)


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

    @pytest.mark.parametrize("field, index, message", [
        ("per_foot_force", (1, 0, 2), "per_foot_force at frame 1, column 2"),
        ("per_foot_force", (3, 1, 0), "per_foot_force at frame 3, column 3"),
        ("per_foot_cop", (2, 1, 1), "per_foot_cop at frame 2, column 3"),
    ])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_value_names_field_frame_and_column(self, field, index, message, value):
        arrays = {"per_foot_force": np.ones((4, 2, 3)), "per_foot_cop": np.zeros((4, 2, 2))}
        arrays[field][index] = value
        arrays[field][0, 0, 0] = np.nan  # NaN, the missing marker, is accepted before it
        with pytest.raises(ValidationError, match=f"^infinite value in {message}$"):
            ForcePlateRecord(**arrays, contact_flags=np.ones((4, 2), dtype=bool))

    def test_empty_plate_rejected(self):
        with pytest.raises(ValidationError, match="at least one frame"):
            ForcePlateRecord(np.zeros((0, 2, 3)), np.zeros((0, 2, 2)), np.zeros((0, 2), bool))

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
        path = self.edited_plate(tmp_path, 2, column, value)
        with pytest.raises(ValidationError) as exc:
            load_force_plate(path)
        assert str(exc.value) == f"{path}: row 2: infinite value in column '{column}'"

    @staticmethod
    def edited_plate(tmp_path, row, column, value):
        _, plate = gen_synthetic("hop", {"duration": 0.5}, seed=0)
        path = tmp_path / "p.csv"
        write_force_plate(plate, path, 100.0)
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("value, shown", [
        ("nan", "nan"), ("inf", "inf"), ("0.5", "0.5"), ("-1", "-1.0"), ("2", "2.0"),
    ])
    @pytest.mark.parametrize("column", ["L_contact", "R_contact"])
    def test_contact_flag_other_than_0_or_1_names_row_and_column(
        self, tmp_path, column, value, shown,
    ):
        path = self.edited_plate(tmp_path, 4, column, value)
        with pytest.raises(ValidationError) as exc:
            load_force_plate(path)
        assert str(exc.value) == (
            f"{path}: row 4: contact flag in column '{column}' must be 0 or 1, got {shown}"
        )

    @pytest.mark.parametrize("value, contact", [("1.0", True), ("0e0", False), ("-0", False)])
    def test_contact_flag_spellings_of_0_and_1_load(self, tmp_path, value, contact):
        path = self.edited_plate(tmp_path, 4, "L_contact", value)
        assert load_force_plate(path).contact_flags[3, 0] == contact

    def test_subnormal_newton_mass_is_unit_error(self, tmp_path):
        _, plate = gen_synthetic("hop", {"duration": 0.5}, seed=0)
        path = tmp_path / "p.csv"
        write_force_plate(plate, path, 100.0)
        with pytest.raises(UnitError, match="too small to convert its forces.*got 5e-324"):
            load_force_plate(path, force_unit="newton", mass=5e-324)
        # a tiny mass whose body weights stay finite is not rejected
        back = load_force_plate(path, force_unit="newton", mass=1e-300)
        assert np.all(np.isfinite(back.per_foot_force) == np.isfinite(plate.per_foot_force))


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

    def test_subject_of_two_masses_rejected_before_writing(self, tmp_path):
        # the manifest held the first clip's mass, and the walk reloaded at 70 kg
        hop, _ = gen_synthetic("hop", {"subject_id": "S1", "mass": 70.0, "duration": 0.5}, seed=1)
        walk, _ = gen_synthetic("walk", {"subject_id": "S1", "mass": 80.0, "duration": 0.5},
                                seed=2)
        out = tmp_path / "out"
        with pytest.raises(ValidationError, match=r"^subject 'S1' has clips of 70\.0 and 80\.0 kg"):
            write_manifest(Dataset((DatasetEntry(hop, None), DatasetEntry(walk, None))), out)
        assert not out.exists()

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
        # an empty plate path loaded the clip without its plate, an empty clip
        # path raised IsADirectoryError on the manifest's directory
        (lambda doc: doc["subjects"][0]["clips"][0].update(plate_path=""), ParseError),
        (lambda doc: doc["subjects"][0]["clips"][0].update(clip_path=""), ParseError),
    ], ids=["no-mass", "no-id", "no-clips", "mass-not-number", "clips-not-list",
            "no-clip-path", "subject-not-object", "subjects-not-list", "id-number",
            "label-list", "clip-path-number", "plate-path-bool", "nul-in-path", "id-parent-dir",
            "id-empty", "label-comma", "label-slash", "mass-inf", "plate-path-empty",
            "clip-path-empty"])
    def test_malformed_subject_rejected(self, tmp_path, mutate, error):
        clip, plate = gen_synthetic("hop", {"duration": 0.5}, seed=1)
        path = write_manifest(Dataset((DatasetEntry(clip, plate),)), tmp_path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))  # inf is written as the JSON extension Infinity
        with pytest.raises(error):
            load_manifest(path)


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0.010002", "0.009998", "0.03"])
    def test_plate_time_must_be_the_clip_frame_time(self, tmp_path, value):
        clip, plate = gen_synthetic("hop", {"duration": 0.5}, seed=1)
        manifest = write_manifest(Dataset((DatasetEntry(clip, plate),)), tmp_path)
        path = tmp_path / "S1_hop_000_plate.csv"
        lines = path.read_text().splitlines()
        lines[2] = value + lines[2][lines[2].index(","):]  # row 2, at 0.01 s
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as exc:
            load_manifest(manifest)
        assert str(exc.value) == (
            f"{path}: row 2: plate time {float(value)!r} is not the clip's frame time 0.01 "
            "(+-1e-06 s)"
        )

    def test_short_plate_names_its_file(self, tmp_path):
        clip, plate = gen_synthetic("hop", {"duration": 0.5}, seed=1)
        manifest = write_manifest(Dataset((DatasetEntry(clip, plate),)), tmp_path)
        path = tmp_path / "S1_hop_000_plate.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(LengthMismatchError) as exc:
            load_manifest(manifest)
        assert str(exc.value) == f"{path}: plate has 49 rows but its clip has 50 frames"

    def test_plate_time_within_tolerance_loads(self, tmp_path):
        clip, plate = gen_synthetic("hop", {"duration": 0.5}, seed=1)
        manifest = write_manifest(Dataset((DatasetEntry(clip, plate),)), tmp_path)
        path = tmp_path / "S1_hop_000_plate.csv"
        lines = path.read_text().splitlines()
        lines[2] = "0.0100009" + lines[2][lines[2].index(","):]
        path.write_text("\n".join(lines) + "\n")
        assert len(load_manifest(manifest)) == 1


@pytest.mark.parametrize("load, header, expected", [
    (load_clip_csv, "t,px,py,pz,f0,f2", "t,px,py,pz,f0,f1"),
    (load_clip_csv, "t,px,py", "t,px,py,pz"),
    (load_force_plate, "t,L_fx,L_fy,L_fz,L_copx,L_copy,L_contact",
     "t,L_fx,L_fy,L_fz,L_copx,L_copy,L_contact,R_fx,R_fy,R_fz,R_copx,R_copy,R_contact"),
    (load_prediction_csv, "t,L_fx,L_fy,L_fz,R_fx,R_fy,R_fZ", "t,L_fx,L_fy,L_fz,R_fx,R_fy,R_fz"),
], ids=["clip-feature-name", "clip-short", "plate-one-foot", "prediction-case"])
def test_wrong_header_names_the_expected_one(tmp_path, load, header, expected):
    path = tmp_path / "f.csv"
    path.write_text(header + "\n" + ",".join(["0"] * len(header.split(","))) + "\n")
    with pytest.raises(ParseError) as exc:
        load(path)
    assert str(exc.value) == f"{path}: header must be {expected!r}, got {header!r}"


class TestGravitySpec:
    def test_default(self):
        g = GravitySpec()
        np.testing.assert_array_equal(g.g_accel, [0.0, 0.0, 9.81])

    def test_magnitude_bounds(self):
        with pytest.raises(UnitError):
            GravitySpec(g_accel=np.array([0.0, 0.0, 25.0]))
        with pytest.raises(UnitError):
            GravitySpec(g_accel=np.zeros(3))


RECORD_KINDS = ["MotionClip", "ForcePlateRecord", "GravitySpec", "SimResult", "Prediction",
                "LineSeries"]


def record_arrays(kind):
    """The constructor of a record of kind, and the arrays of a valid one by field."""
    T = 4
    if kind == "MotionClip":
        pos = np.ones((T, 3))  # one array given as both fields
        return partial(MotionClip, "S1", "clip", 100.0, 70.0), {"root_positions": pos,
                                                                 "features": pos}
    if kind == "ForcePlateRecord":
        return ForcePlateRecord, {
            "per_foot_force": np.ones((T, 2, 3)), "per_foot_cop": np.zeros((T, 2, 2)),
            "contact_flags": np.ones((T, 2), bool), "valid_mask": np.ones(T, bool)}
    if kind == "GravitySpec":
        return GravitySpec, {"g_accel": np.array([0.0, 0.0, 9.81])}
    if kind == "SimResult":
        return partial(SimResult, dt=0.01), {
            "positions": np.ones((T, 3)), "velocities": np.zeros((T, 3)),
            "total_force": np.ones((T - 1, 3))}
    if kind == "LineSeries":
        return partial(LineSeries, "z"), {
            "t": np.arange(T, dtype=float), "values": np.ones(T), "mask": np.ones(T, bool)}
    return Prediction, {"forces": np.ones((T, 2, 3))}


def build_record(kind):
    """A record of kind, and the caller's arrays it was built from, by field."""
    make, arrays = record_arrays(kind)
    return make(**arrays), arrays


@pytest.mark.parametrize("kind", RECORD_KINDS)
def test_record_holds_read_only_copies_of_the_callers_arrays(kind):
    record, arrays = build_record(kind)
    fields = {name: getattr(record, name) for name in arrays}
    held = {name: f.tobytes() for name, f in fields.items()}
    assert all(a.flags.writeable for a in arrays.values())
    assert not any(f.flags.writeable for f in fields.values())
    for name, f in fields.items():
        others = [*arrays.values(), *(g for g in fields.values() if g is not f)]
        assert not any(np.shares_memory(f, o) for o in others), name
    for a in arrays.values():
        a[...] = ~a if a.dtype == bool else 25.0  # 25 m/s^2 is outside gravity's range
    assert {name: f.tobytes() for name, f in fields.items()} == held
    if kind == "GravitySpec":
        assert record.magnitude == 9.81


# the non-finite values each field rejects, where it is not all of them: a
# plate marks a missing value with NaN, a NaN series value is a gap, and
# any float is a truth value
_NON_FINITE = {"per_foot_force": (np.inf, -np.inf), "per_foot_cop": (np.inf, -np.inf),
               "contact_flags": (), "valid_mask": (), "values": (), "mask": ()}


def _bad_values(kind, name):
    """A wrong shape, zero frames, non-finite values or a non-numeric value
    for array field name of a record of kind, each drawn from the valid one."""
    valid = record_arrays(kind)[1][name]
    shape = valid.shape
    wrong_shapes = [st.just(shape[:-1]), st.integers(1, 3).map(lambda n: shape + (n,))]
    wrong_shapes += [st.integers(0, n - 1).map(lambda m, i=i: shape[:i] + (m,) + shape[i + 1:])
                     for i, n in enumerate(shape) if i > 0]  # the frame axis may differ alone

    def poke(at_value):
        out = valid.copy()
        out.flat[at_value[0]] = at_value[1]
        return out

    bad = [st.one_of(wrong_shapes).map(lambda s: np.ones(s, valid.dtype)),
           st.just(np.ones((0,) + shape[1:], valid.dtype)),
           st.text(max_size=3),
           st.sampled_from([valid.astype(str), valid + 0j, [[1.0], [1.0, 1.0]], object()])]
    non_finite = _NON_FINITE.get(name, (np.nan, np.inf, -np.inf))
    if non_finite:
        bad.append(st.tuples(st.integers(0, valid.size - 1), st.sampled_from(non_finite))
                   .map(poke))
    return st.one_of(bad)


_ARRAY_FIELDS = [(kind, name) for kind in RECORD_KINDS for name in record_arrays(kind)[1]]


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(_ARRAY_FIELDS).flatmap(
    lambda field: st.tuples(st.just(field), _bad_values(*field))))
@example(case=(("ForcePlateRecord", "contact_flags"), [["a", "b"]] * 4))
@example(case=(("LineSeries", "t"), [0.0, np.nan, 2.0, 3.0]))
def test_bad_array_field_raises_physgrd_error(case):
    """Whatever one array field holds, a bad value raises a PhysgrdError:
    never another exception, nor a warning, which pytest makes an error."""
    (kind, name), value = case
    make, arrays = record_arrays(kind)
    with pytest.raises(PhysgrdError):
        make(**{**arrays, name: value})


@pytest.mark.parametrize("kind, name", _ARRAY_FIELDS)
def test_non_numeric_field_is_named(kind, name):
    make, arrays = record_arrays(kind)
    with pytest.raises(ValidationError, match=f"{name} must be a numeric array, got dtype <U3"):
        make(**{**arrays, name: "abc"})


def test_rule_returns_an_array_of_its_dtype_itself():
    # elu takes the conv stack's non-contiguous pre-activation views through the
    # rule, so it must neither copy nor scan them
    view = np.ones((4, 6))[:, ::2]
    assert _numeric("x", view, None) is view
    assert _numeric("x", view, (4, 3), finite=True) is view
    mask = np.ones(3, bool)
    assert _numeric("m", mask, (None,), bool) is mask
    ints = np.arange(3)
    assert _numeric("x", ints, None).dtype == float and ints.dtype != float


@pytest.mark.parametrize("shape, value, message", [
    ((None, 3), np.ones((2, 4)), r"^x must be \(T, 3\), got \(2, 4\)$"),
    ((None, None), np.ones(3), r"^x must be \(T, D\), got \(3,\)$"),
    ((None, None, 4), np.ones((2, 3)), r"^x must be \(B, T, 4\), got \(2, 3\)$"),
    ((None,), np.ones((2, 1)), r"^x must be \(T,\), got \(2, 1\)$"),
    ((), np.ones(1), r"^x must be \(\), got \(1,\)$"),
], ids=["frames", "features", "batch", "series", "scalar"])
def test_rule_names_the_shape_it_wants(shape, value, message):
    with pytest.raises(ValidationError, match=message):
        _numeric("x", value, shape)


def test_line_series_needs_a_point():
    with pytest.raises(ValidationError, match="series 'z' must have at least one point"):
        LineSeries("z", [], [])


@pytest.mark.parametrize("label", [5, None, "a,b", 'say "z"', "<&>", "z\nz", "z\rz", "z\x00"])
def test_line_series_label_must_fit_its_files(label):
    # a comma gave CSV rows of 4 cells under 3 columns; <&> an SVG no XML parser reads
    with pytest.raises(ValidationError, match="^series label must be a string without"):
        LineSeries(label, [0.0], [1.0])


@pytest.mark.parametrize("title, ylabel", [("a & b", "z [m]"), ("z", "<m>"), ("z", 5),
                                           ("z\nz", "z [m]")])
def test_svg_title_and_y_label_must_fit_the_file(tmp_path, title, ylabel):
    path = tmp_path / "p.svg"
    with pytest.raises(ValidationError, match="^(title|y label) must be a string without"):
        write_svg([LineSeries("z", [0.0], [1.0])], path, title, ylabel)
    assert not path.exists()


def test_line_series_lengths_must_agree():
    t = np.arange(4.0)
    with pytest.raises(LengthMismatchError, match=r"series 'z': 4 times vs 3 values"):
        LineSeries("z", t, np.ones(3))
    with pytest.raises(LengthMismatchError, match=r"series 'z': mask length 5 vs 4 points"):
        LineSeries("z", t, np.ones(4), np.ones(5, bool))


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


# runs its second argument as code in a process whose files may not grow past
# its first argument in bytes; a write beyond it fails with EFBIG
_UNDER_FILE_SIZE_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]),) * 2)
exec(sys.argv[2])
"""


def _run_under_file_size_limit(limit: int, code: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", _UNDER_FILE_SIZE_LIMIT, str(limit), code],
                          env=env, capture_output=True, text=True, timeout=300)


class TestReplacingWrites:
    """Each artifact replaces its path whole: a write that fails leaves the
    file it was to replace as it was, and no temporary file."""

    @pytest.mark.parametrize("write", [
        lambda path: _write_rows(path, ("a", "b"), np.ones((2, 2))),
        lambda path: _write_table(path, ("a", "b"), [["x", 1.0]]),
        lambda path: _write_json(path, {"a": 1.0}),
        lambda path: write_svg([LineSeries("z", [0.0], [1.0])], path, "title", "z [m]"),
    ], ids=["rows", "table", "json", "svg"])
    def test_interrupted_write_keeps_the_old_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "artifact"
        path.write_bytes(b"old\n")

        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            write(path)
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["artifact"]
        monkeypatch.undo()
        write(path)
        assert path.read_bytes() != b"old\n" and os.listdir(tmp_path) == ["artifact"]

    def test_document_that_fails_to_encode_keeps_the_old_file(self, tmp_path):
        # the encoder has streamed '{\n  "a": 1.0,\n  "b": ' into the file when it fails
        path = tmp_path / "doc.json"
        path.write_bytes(b"old\n")
        with pytest.raises(TypeError):
            _write_json(path, {"a": 1.0, "b": object()})
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_checkpoint_saved_past_the_file_size_limit_keeps_the_old_one(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save = ("from physgrd.grf_model import TemporalConvNet, TrainConfig, save_checkpoint\n"
                "save_checkpoint(TemporalConvNet(9, (16, 16, 16, 16), (8, 8), seed={seed}), "
                f"TrainConfig(), {str(path)!r})")
        exec(save.format(seed=0))
        good = path.read_bytes()
        child = _run_under_file_size_limit(len(good) // 2, save.format(seed=1))
        assert child.returncode == 1
        assert child.stderr.splitlines()[-1] == "OSError: [Errno 27] File too large"
        assert path.read_bytes() == good
        assert os.listdir(tmp_path) == ["checkpoint.json"]

    def test_calibrate_past_the_file_size_limit_keeps_the_old_files(self, tmp_path):
        argv = ["gen", "--kind", "hop", "--subjects", "2", "--duration", "0.5",
                "--out-dir", str(tmp_path / "data")]
        assert main(argv) == 0
        calibrate = ["calibrate", "--manifest", str(tmp_path / "data" / "manifest.json"),
                     "--out-dir", str(tmp_path / "calib")]
        assert main(calibrate + ["--mode", "open_loop"]) == 0
        old = {p.name: p.read_bytes() for p in (tmp_path / "calib").iterdir()}
        assert sorted(old) == ["best_gains.json", "calibration_report.csv"]
        assert len(old["calibration_report.csv"]) > 200
        child = _run_under_file_size_limit(
            200, f"from physgrd.cli import main\nsys.exit(main({calibrate!r}))")
        assert child.returncode == 1
        assert child.stderr.splitlines() == ["physgrd: error: OSError: [Errno 27] File too large"]
        assert {p.name: p.read_bytes() for p in (tmp_path / "calib").iterdir()} == old
