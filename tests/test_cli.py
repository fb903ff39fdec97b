"""End-to-end exercises of the command-line front end (in-process)."""

import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

import euler_reference
from physgrd import metrics, svgplot
from physgrd.cli import main
from physgrd.dynamics import PDGains, physics_force_series, simulate, to_bodyweight, write_sim_csv
from physgrd.errors import SimulationDivergedError
from physgrd.grf_model import (
    Prediction,
    TemporalConvNet,
    TrainConfig,
    save_checkpoint,
    write_prediction_csv,
)
from physgrd.motion_data import (
    Dataset,
    DatasetEntry,
    MotionClip,
    entry_stems,
    load_clip_csv,
    load_manifest,
    write_manifest,
)
from physgrd.synthetic import gen_synthetic


def run(*argv):
    return main([str(a) for a in argv])


def gen_small(out_dir, kind="hop", subjects=2, duration=1.2, seed=42, extra=()):
    code = run(
        "gen", "--kind", kind, "--subjects", subjects, "--duration", duration,
        "--seed", seed, "--out-dir", out_dir, *extra,
    )
    assert code == 0
    return Path(out_dir) / "manifest.json"


def set_cell(path, row, column, value):
    """Overwrite one cell of a CSV file; row 0 is the header."""
    lines = Path(path).read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


class TestGen:
    def test_same_seed_byte_identical(self, tmp_path):
        gen_small(tmp_path / "a")
        gen_small(tmp_path / "b")
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_ballistic_final_height_matches_closed_form(self, tmp_path):
        run("gen", "--kind", "ballistic", "--duration", "1.0", "--subjects", "1",
            "--out-dir", tmp_path, "--x0", "0,0,2", "--v0", "0,0,0")
        ds = load_manifest(tmp_path / "manifest.json")
        z_end = ds.entries[0].clip.root_positions[-1, 2]
        assert z_end == pytest.approx(2.0 - 4.905, abs=1e-12)

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--kind", "hop", "--frobnicate", "--out-dir", tmp_path)
        assert exc.value.code == 2

    def test_unknown_kind_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--kind", "sprint", "--out-dir", tmp_path)
        assert exc.value.code == 2

    # make_dataset checks every generator parameter; gen keeps no copy of those checks
    @pytest.mark.parametrize("flags", [
        ("--kind", "hop", "--jitter", "nan"),
        ("--kind", "walk", "--jitter", "2"),
        ("--kind", "hop", "--plate-noise", "nan"),
        ("--kind", "hop", "--amplitude", "nan"),
        ("--kind", "spring_tracked", "--kd", "inf"),
        ("--kind", "ballistic", "--x0", "0,nan,1"),
        ("--kind", "hop", "--duration", "1e12"),
        ("--kind", "ballistic", "--duration", "1e12"),
        ("--kind", "hop", "--freq", "1e-300"),
        ("--kind", "hop", "--freq", "-1"),
        ("--kind", "hop", "--duration", "nan"),
        ("--kind", "hop", "--frame-rate", "nan"),
        ("--kind", "hop", "--freq", "nan"),
        # walk parameters, which no hop takes, once went unchecked
        ("--kind", "hop", "--speed", "-1"),
        ("--kind", "hop", "--step-freq", "nan"),
    ], ids=["jitter-nan", "jitter-2", "plate-noise-nan", "amplitude-nan", "kd-inf", "x0-nan",
            "duration-1e12", "ballistic-duration-1e12", "hop-freq-1e-300", "freq-negative",
            "duration-nan", "frame-rate-nan", "freq-nan", "hop-speed-negative",
            "hop-step-freq-nan"])
    def test_bad_generator_parameter_is_runtime_error(self, tmp_path, capsys, flags):
        assert run("gen", *flags, "--out-dir", tmp_path) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("physgrd: error: ValidationError: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, flag", [
        (("gen", "--kind", "hop"), ("--gravity-z", "1.62")),
        (("gen", "--kind", "hop"), ("--mode", "open_loop")),
        (("predict", "--manifest", "m.json", "--checkpoint", "c.json"), ("--gravity-z", "nan")),
        (("predict", "--manifest", "m.json", "--checkpoint", "c.json"), ("--mode", "open_loop")),
        (("metrics", "--manifest", "m.json", "--pred-dir", "p"), ("--mode", "open_loop")),
    ], ids=["gravity-z", "mode", "predict-gravity-z", "predict-mode", "metrics-mode"])
    def test_simulation_flags_are_usage_errors(self, tmp_path, capsys, command, flag):
        # none of these commands runs a PD simulation, so none takes --mode; gen and
        # predict integrate nothing, so neither takes --gravity-z
        with pytest.raises(SystemExit) as exc:
            run(*command, *flag, "--out-dir", tmp_path)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("physgrd: usage-error: unrecognized")


class TestCalibrate:
    def test_singleton_cell(self, tmp_path):
        manifest = gen_small(tmp_path / "data")
        assert run(
            "calibrate", "--manifest", manifest, "--kp", "70", "--kd", "3",
            "--out-dir", tmp_path / "calib",
        ) == 0
        doc = json.loads((tmp_path / "calib" / "best_gains.json").read_text())
        assert (doc["kp"], doc["kd"]) == (70.0, 3.0)
        assert doc["mode"] == "closed_loop"

    def test_recovers_generating_gains_with_extra_cell(self, tmp_path):
        manifest = gen_small(
            tmp_path / "data", kind="spring_tracked", subjects=3, duration=2.0,
            extra=("--kp", "50", "--kd", "6"),
        )
        assert run(
            "calibrate", "--manifest", manifest, "--extra-cell", "50,6",
            "--out-dir", tmp_path / "calib",
        ) == 0
        doc = json.loads((tmp_path / "calib" / "best_gains.json").read_text())
        assert (doc["kp"], doc["kd"]) == (50.0, 6.0)
        report = (tmp_path / "calib" / "calibration_report.csv").read_text().splitlines()
        assert report[0] == "kp,kd,S1,S2,S3,avg,std"
        assert len(report) == 12  # ten default cells plus the extra one

    @pytest.mark.parametrize("cells, message", [
        (("--kp-values", "10,20"), "--kp-values and --kd-values must be given together"),
        (("--kd-values", "1"), "--kp-values and --kd-values must be given together"),
        (("--kp", "70", "--kd", "3", "--kp-values", "nan", "--kd-values", "1"),
         "--kp/--kd and --kp-values/--kd-values cannot be combined"),
    ], ids=["kp-values-alone", "kd-values-alone", "single-cell-and-grid"])
    def test_grid_flags_that_would_be_ignored_are_usage_errors(
        self, tmp_path, capsys, cells, message,
    ):
        manifest = gen_small(tmp_path / "data", subjects=1)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run("calibrate", "--manifest", manifest, *cells, "--out-dir", tmp_path / "calib")
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [f"physgrd: usage-error: {message}"]
        assert not (tmp_path / "calib").exists()

    def test_missing_manifest_is_runtime_error(self, tmp_path, capfd):
        assert run(
            "calibrate", "--manifest", tmp_path / "nope.json", "--out-dir", tmp_path
        ) == 1
        err = capfd.readouterr().err.strip()
        # errors are a single machine-parseable line
        assert len(err.splitlines()) == 1
        assert err.startswith("physgrd: error:")

    @pytest.mark.parametrize("cells", [
        ("--kp-values", "10,nan", "--kd-values", "0"),
        ("--kp-values", "10,inf", "--kd-values", "0"),
        ("--kp-values", "10", "--kd-values", "0,nan"),
        ("--extra-cell=-5,0",),
        ("--extra-cell", "nan,3"),
        ("--kp=-5", "--kd", "0"),
        ("--kp", "inf", "--kd", "0"),
    ], ids=["grid-kp-nan", "grid-kp-inf", "grid-kd-nan", "extra-negative", "extra-nan",
            "single-negative", "single-inf"])
    def test_invalid_gain_is_runtime_error(self, tmp_path, capsys, cells):
        manifest = gen_small(tmp_path / "data")
        capsys.readouterr()
        assert run("calibrate", "--manifest", manifest, *cells, "--out-dir", tmp_path / "c") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("physgrd: error: ")
        assert "must be finite and non-negative" in err[0]
        assert not (tmp_path / "c" / "calibration_report.csv").exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["subjects"][0].pop("mass_kg"),
        lambda doc: doc["subjects"][1].pop("id"),
        lambda doc: doc["subjects"][0].pop("clips"),
        lambda doc: doc.update(subjects="S1"),
    ], ids=["no-mass", "no-id", "no-clips", "subjects-not-list"])
    def test_malformed_manifest_is_runtime_error(self, tmp_path, capsys, edit):
        manifest = gen_small(tmp_path / "data")
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("calibrate", "--manifest", manifest, "--out-dir", tmp_path / "calib") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("physgrd: error: ParseError: ")

    def test_infinite_plate_cell_is_runtime_error(self, tmp_path, capsys):
        manifest = gen_small(tmp_path / "data")
        plate = tmp_path / "data" / "S2_hop_000_plate.csv"
        lines = plate.read_text().splitlines()
        cells = lines[3].split(",")
        cells[3] = "inf"  # L_fz
        lines[3] = ",".join(cells)
        plate.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("calibrate", "--manifest", manifest, "--out-dir", tmp_path / "calib") == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"physgrd: error: ValidationError: {plate}: row 3: infinite value in column 'L_fz'"
        ]
        assert not (tmp_path / "calib").exists()

    @pytest.mark.parametrize("column, value, message", [
        (6, "0.5", "row 3: contact flag in column 'L_contact' must be 0 or 1, got 0.5"),
        (12, "nan", "row 3: contact flag in column 'R_contact' must be 0 or 1, got nan"),
        (0, "nan", "row 3: plate time nan is not the clip's frame time 0.02 (+-1e-06 s)"),
        (0, "0.03", "row 3: plate time 0.03 is not the clip's frame time 0.02 (+-1e-06 s)"),
    ], ids=["contact-half", "contact-nan", "time-nan", "time-shifted"])
    def test_bad_plate_contact_or_time_is_runtime_error(
        self, tmp_path, capsys, column, value, message,
    ):
        manifest = gen_small(tmp_path / "data")
        plate = tmp_path / "data" / "S2_hop_000_plate.csv"
        lines = plate.read_text().splitlines()
        cells = lines[3].split(",")
        cells[column] = value
        lines[3] = ",".join(cells)
        plate.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("calibrate", "--manifest", manifest, "--out-dir", tmp_path / "calib") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("physgrd: error: ValidationError: ")
        assert err[0].endswith(message)
        assert not (tmp_path / "calib").exists()


class TestSimulate:
    def test_writes_sim_files(self, tmp_path):
        manifest = gen_small(tmp_path / "data")
        assert run(
            "simulate", "--manifest", manifest, "--kp", "70", "--kd", "3",
            "--out-dir", tmp_path / "sim",
        ) == 0
        files = sorted(p.name for p in (tmp_path / "sim").iterdir())
        assert "S1_hop_000_sim.csv" in files
        assert "simulate_summary.csv" in files
        header = (tmp_path / "sim" / "S1_hop_000_sim.csv").read_text().splitlines()[0]
        assert header == "t,px,py,pz,vx,vy,vz,fx,fy,fz"

    def test_sim_times_are_the_clip_times(self, tmp_path):
        # the sim CSV once wrote t as frame * dt: 0.35000000000000003 where the clip has 0.35
        manifest = gen_small(tmp_path / "data", subjects=1, duration=10.0)
        assert run("simulate", "--manifest", manifest, "--out-dir", tmp_path / "sim") == 0

        def times(path):
            return [line.split(",", 1)[0] for line in path.read_text().splitlines()]

        clip_t = times(tmp_path / "data" / "S1_hop_000_clip.csv")
        assert len(clip_t) == 1001
        assert times(tmp_path / "sim" / "S1_hop_000_sim.csv") == clip_t

    @pytest.mark.parametrize("text", [
        '{"kp": 70}', "[70, 3]", "not json", '{"kp": "x", "kd": 3}', '{"kp": NaN, "kd": 3}',
        '{"kp": true, "kd": "3"}', '{"kp": -1, "kd": 3}',
    ])
    def test_malformed_gains_file_is_runtime_error(self, tmp_path, capsys, text):
        manifest = gen_small(tmp_path / "data", subjects=1)
        gains = tmp_path / "gains.json"
        gains.write_text(text)
        capsys.readouterr()
        assert run(
            "simulate", "--manifest", manifest, "--gains", gains, "--out-dir", tmp_path / "sim",
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("physgrd: error: ")
        assert "Traceback" not in err[0]
        assert err[0].split(": ", 3)[3].startswith(f"{gains}: ")  # after the error's class

    @pytest.mark.parametrize("value", ["1e308", "-1e308"])
    def test_open_loop_overflowing_clip_is_one_line(self, tmp_path, capsys, value):
        manifest = gen_small(tmp_path / "data", subjects=1)
        clip = tmp_path / "data" / "S1_hop_000_clip.csv"
        lines = clip.read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = value  # pz
        lines[5] = ",".join(cells)
        clip.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(
            "simulate", "--manifest", manifest, "--mode", "open_loop",
            "--out-dir", tmp_path / "sim",
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("physgrd: error: SimulationDivergedError")

    def test_nan_mass_manifest_is_runtime_error(self, tmp_path, capsys):
        manifest = gen_small(tmp_path / "data", subjects=1)
        doc = json.loads(manifest.read_text())
        doc["subjects"][0]["mass_kg"] = float("nan")
        manifest.write_text(json.dumps(doc))  # written as the JSON extension NaN
        capsys.readouterr()
        assert run(
            "simulate", "--manifest", manifest, "--kp", "70", "--kd", "3",
            "--out-dir", tmp_path / "sim",
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("physgrd: error: UnitError: ")


    @pytest.mark.parametrize("edit, error", [
        (lambda doc: doc["subjects"][0].update(id="../x"), "ValidationError: {}: subject_id"),
        (lambda doc: doc["subjects"][0].update(id="S" * 250), "ValidationError: {}: subject_id"),
        (lambda doc: doc["subjects"][0]["clips"][0].update(motion_label="a,b"),
         "ValidationError: {}: motion_label"),
        (lambda doc: doc["subjects"][0].update(mass_kg=float("inf")), "UnitError: {}: mass_kg"),
        (lambda doc: doc["subjects"][0].update(mass_kg=-5), "UnitError: {}: mass_kg"),
        (lambda doc: doc["subjects"][0].update(mass_kg=True), "ParseError: {}: subject 0"),
        (lambda doc: doc["subjects"][0].update(mass_kg="70"), "ParseError: {}: subject 0"),
        (lambda doc: doc["subjects"].append({**doc["subjects"][0], "mass_kg": 99}),
         "ParseError: {}: subject id 'S1' is repeated"),
        (lambda doc: doc["subjects"][0]["clips"][0].update(force_unit="kgf"),
         "UnitError: {}: force_unit"),
    ], ids=["id-parent-dir", "id-too-long", "label-comma", "mass-inf", "mass-negative", "mass-bool",
            "mass-string", "repeated-id", "unit-unknown"])
    def test_unsafe_name_or_infinite_mass_is_runtime_error(self, tmp_path, capsys, edit, error):
        manifest = gen_small(tmp_path / "data" / "in", subjects=1)
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))  # inf is written as the JSON extension Infinity
        before = tree_bytes(tmp_path)
        capsys.readouterr()
        assert run("simulate", "--manifest", manifest, "--out-dir", tmp_path / "data" / "sim") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"physgrd: error: {error.format(manifest)}")
        written = set(tree_bytes(tmp_path)) - set(before)
        assert written == set()

    @pytest.mark.parametrize("command", ["simulate", "plot"])
    def test_mass_flag_is_gone(self, tmp_path, capsys, command):
        # a bare clip's mass reached no output of either command
        manifest = gen_small(tmp_path / "data", subjects=1)
        clip = manifest.parent / "S1_hop_000_clip.csv"
        with pytest.raises(SystemExit) as exc:
            run(command, "--clip", clip, "--mass", "70", "--out-dir", tmp_path / "out")
        assert exc.value.code == 2
        assert "unrecognized arguments: --mass 70" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, kp", [("closed_loop", 50000.0), ("open_loop", 1e12)])
    def test_diverging_clip_stops_after_the_clips_before_it(self, tmp_path, capsys, mode, kp):
        # only the middle clip diverges, in a bucket of its own: closed loop,
        # kp = 50000 without damping is stable at 200 Hz and not at 100 Hz;
        # open loop, kp = 1e12 pushes only a moving clip away
        still = np.tile([0.0, 0.0, 1.0], (100, 1))
        hop = gen_synthetic("hop", {"subject_id": "S2", "duration": 0.5}, seed=1)[0]
        clips = [MotionClip("S1", "still", 200.0, 70.0, still, still), hop,
                 MotionClip("S3", "still", 200.0, 70.0, still, still)]
        manifest = write_manifest(Dataset(tuple(map(DatasetEntry, clips))), tmp_path / "data")
        ds = load_manifest(manifest)
        gains = PDGains(kp, 0.0)
        with pytest.raises(SimulationDivergedError) as ref:
            euler_reference.simulate(ds.clips()[1], gains, mode=mode)
        euler_reference.simulate(ds.clips()[2], gains, mode=mode)
        expected = tmp_path / "expected.csv"
        write_sim_csv(simulate(ds.clips()[0], gains, mode=mode), expected, 200.0)
        capsys.readouterr()
        out = tmp_path / "sim"
        assert run("simulate", "--manifest", manifest, "--kp", kp, "--kd", "0",
                   "--mode", mode, "--out-dir", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"physgrd: error: SimulationDivergedError: {ref.value}"]
        assert tree_bytes(out) == {"S1_still_000_sim.csv": expected.read_bytes()}

    def test_summary_vrpe_reads_back_bit_for_bit(self, tmp_path):
        manifest = gen_small(tmp_path / "data", subjects=2)
        assert run("simulate", "--manifest", manifest, "--out-dir", tmp_path / "sim") == 0
        lines = (tmp_path / "sim" / "simulate_summary.csv").read_text().splitlines()
        assert lines[0] == "subject,motion,file,vrpe"
        ds = load_manifest(manifest)
        assert len(lines) == len(ds) + 1
        for entry, line in zip(ds, lines[1:]):
            expected = metrics.vrpe(simulate(entry.clip, PDGains(70.0, 3.0)), entry.clip)
            assert float(line.split(",")[3]).hex() == expected.hex()


class TestTrainPredictMetrics:
    def pipeline(self, tmp_path, lambda2="0.005"):
        manifest = gen_small(tmp_path / "data", kind="walk", subjects=2, duration=1.5)
        assert run(
            "train", "--manifest", manifest, "--test-subject", "S2",
            "--epochs", "2", "--batch-size", "8", "--learning-rate", "1e-3",
            "--window-len", "100", "--conv-channels", "6,6,6,6", "--fc-widths", "8,6",
            "--lambda2", lambda2, "--out-dir", tmp_path / "train",
        ) == 0
        assert run(
            "predict", "--manifest", manifest,
            "--checkpoint", tmp_path / "train" / "checkpoint.json",
            "--subject", "S2", "--out-dir", tmp_path / "pred",
        ) == 0
        assert run(
            "metrics", "--manifest", manifest, "--pred-dir", tmp_path / "pred",
            "--subject", "S2", "--out-dir", tmp_path / "metrics",
        ) == 0
        return manifest

    def test_metrics_reproduce_final_log_row(self, tmp_path):
        self.pipeline(tmp_path)
        log = (tmp_path / "train" / "train_log.csv").read_text().splitlines()
        last = [float(v) for v in log[-1].split(",")]
        vgrf_l, vgrf_r, vrpe = last[4], last[5], last[6]

        rows = (tmp_path / "metrics" / "metrics_summary.csv").read_text().splitlines()[1:]
        vals = np.array([[float(v) for v in r.split(",")[3:]] for r in rows])
        means = vals.mean(axis=0)
        assert means[0] == pytest.approx(vgrf_l, abs=1e-9)
        assert means[1] == pytest.approx(vgrf_r, abs=1e-9)
        assert means[2] == pytest.approx(vrpe, abs=1e-9)

    def test_metrics_on_perfect_predictions_zero_table(self, tmp_path):
        manifest = gen_small(tmp_path / "data", kind="walk", subjects=1, duration=1.0)
        ds = load_manifest(manifest)
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        for entry, stem in zip(ds, entry_stems(ds)):
            write_prediction_csv(
                Prediction(forces=entry.plate.per_foot_force),
                pred_dir / f"{stem}_pred.csv",
                entry.clip.frame_rate,
            )
        assert run(
            "metrics", "--manifest", manifest, "--pred-dir", pred_dir,
            "--out-dir", tmp_path / "metrics",
        ) == 0
        table = (tmp_path / "metrics" / "table_vgrf.csv").read_text().splitlines()
        for line in table[1:]:
            _, left, right = line.split(",")
            assert float(left) == 0.0 and float(right) == 0.0
        vrpe_table = (tmp_path / "metrics" / "table_vrpe.csv").read_text().splitlines()
        assert float(vrpe_table[1].split(",")[1]) < 1e-9

    @pytest.mark.parametrize("row", ["0,1,2,x,4,5,6", "0,1,2,3,4,5"],
                             ids=["non-numeric", "short-row"])
    def test_malformed_prediction_is_runtime_error(self, tmp_path, capsys, row):
        manifest = gen_small(tmp_path / "data", kind="walk", subjects=1, duration=1.0)
        ds = load_manifest(manifest)
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        for entry, stem in zip(ds, entry_stems(ds)):
            path = pred_dir / f"{stem}_pred.csv"
            write_prediction_csv(
                Prediction(forces=np.zeros((len(entry.clip), 2, 3))), path, entry.clip.frame_rate
            )
        lines = path.read_text().splitlines()
        lines[2] = row
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(
            "metrics", "--manifest", manifest, "--pred-dir", pred_dir,
            "--out-dir", tmp_path / "metrics",
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"physgrd: error: ParseError: {path}: row 2")

    def test_prediction_time_nan_is_runtime_error(self, tmp_path, capsys):
        manifest = gen_small(tmp_path / "data", kind="walk", subjects=1, duration=1.0)
        ds = load_manifest(manifest)
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        for entry, stem in zip(ds, entry_stems(ds)):
            path = pred_dir / f"{stem}_pred.csv"
            write_prediction_csv(
                Prediction(forces=np.zeros((len(entry.clip), 2, 3))), path, entry.clip.frame_rate
            )
        set_cell(path, 4, 0, "nan")
        capsys.readouterr()
        assert run(
            "metrics", "--manifest", manifest, "--pred-dir", pred_dir,
            "--out-dir", tmp_path / "metrics",
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"physgrd: error: ValidationError: {path}: row 4: prediction time nan is not "
            "the clip's frame time 0.03 (+-1e-06 s)"
        ]
        assert not (tmp_path / "metrics").exists()

    def test_infinite_prediction_cell_names_file_row_and_column(self, tmp_path, capsys):
        manifest = gen_small(tmp_path / "data", kind="walk", subjects=1, duration=1.0)
        clip = load_manifest(manifest).entries[0].clip
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        path = pred_dir / "S1_walk_000_pred.csv"
        write_prediction_csv(Prediction(forces=np.zeros((len(clip), 2, 3))), path,
                             clip.frame_rate)
        set_cell(path, 3, 6, "inf")
        capsys.readouterr()
        assert run(
            "metrics", "--manifest", manifest, "--pred-dir", pred_dir,
            "--out-dir", tmp_path / "metrics",
        ) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"physgrd: error: ValidationError: {path}: row 3: non-finite value in column 'R_fz'"
        ]

    def test_predict_unknown_subject_is_runtime_error(self, tmp_path, capsys):
        manifest = gen_small(tmp_path / "data", kind="walk", subjects=2, duration=1.0)
        width = load_manifest(manifest).entries[0].clip.feature_width
        cfg = TrainConfig(conv_channels=(4, 4, 4, 4), fc_widths=(4, 4))
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(TemporalConvNet(width, cfg.conv_channels, cfg.fc_widths), cfg, ckpt)
        capsys.readouterr()
        assert run(
            "predict", "--manifest", manifest, "--checkpoint", ckpt, "--subject", "S9",
            "--out-dir", tmp_path / "pred",
        ) == 1
        assert capsys.readouterr().err.splitlines() == [
            "physgrd: error: ValidationError: subject 'S9' not in dataset ['S1', 'S2']"
        ]
        assert not (tmp_path / "pred").exists()

    def test_metrics_unknown_subject_is_named(self, tmp_path, capsys):
        manifest = gen_small(tmp_path / "data", kind="walk", subjects=2, duration=1.0)
        capsys.readouterr()
        assert run(
            "metrics", "--manifest", manifest, "--pred-dir", tmp_path / "pred",
            "--subject", "S9", "--out-dir", tmp_path / "metrics",
        ) == 1
        assert capsys.readouterr().err.splitlines() == [
            "physgrd: error: ValidationError: subject 'S9' not in dataset ['S1', 'S2']"
        ]
        assert not (tmp_path / "metrics").exists()

    def test_plateless_metrics_write_nan(self, tmp_path):
        manifest = gen_small(tmp_path / "data", kind="walk", subjects=1, duration=1.0)
        doc = json.loads(manifest.read_text())
        for clip in doc["subjects"][0]["clips"]:
            clip["plate_path"] = None
        manifest.write_text(json.dumps(doc))
        ds = load_manifest(manifest)
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        for entry, stem in zip(ds, entry_stems(ds)):
            forces = np.zeros((len(entry.clip), 2, 3))
            write_prediction_csv(Prediction(forces=forces), pred_dir / f"{stem}_pred.csv",
                                 entry.clip.frame_rate)
        assert run(
            "metrics", "--manifest", manifest, "--pred-dir", pred_dir,
            "--out-dir", tmp_path / "metrics",
        ) == 0
        lines = (tmp_path / "metrics" / "metrics_summary.csv").read_text().splitlines()
        assert lines[0] == "subject,motion,file,vgrf_l,vgrf_r,vrpe"
        assert lines[1].startswith("S1,walk,S1_walk_000_pred.csv,NaN,NaN,")
        assert not (tmp_path / "metrics" / "table_vgrf.csv").exists()

    def test_nan_learning_rate_is_runtime_error(self, tmp_path, capsys):
        manifest = gen_small(tmp_path / "data", kind="walk", subjects=2, duration=1.0)
        capsys.readouterr()
        assert run(
            "train", "--manifest", manifest, "--learning-rate", "nan",
            "--out-dir", tmp_path / "train",
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "physgrd: error: ValidationError: learning_rate must be finite and positive, got nan"
        ]

    def test_missing_prediction_is_runtime_error(self, tmp_path):
        manifest = gen_small(tmp_path / "data", kind="walk", subjects=1, duration=1.0)
        (tmp_path / "pred").mkdir()
        assert run(
            "metrics", "--manifest", manifest, "--pred-dir", tmp_path / "pred",
            "--out-dir", tmp_path / "metrics",
        ) == 1

    def test_bad_checkpoint_version_is_runtime_error(self, tmp_path):
        manifest = gen_small(tmp_path / "data", kind="walk", subjects=2, duration=1.5)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps({"format_version": 99}))
        assert run(
            "predict", "--manifest", manifest, "--checkpoint", ckpt,
            "--out-dir", tmp_path / "pred",
        ) == 1

    @pytest.mark.parametrize("edit", [
        lambda doc: [1, 2],
        lambda doc: {"format_version": 1},
        lambda doc: {**doc, "train_config": {}},
        lambda doc: {**doc, "fc_layers": [{"weights": "AAA", "bias": "AAA"}] * 3},
        lambda doc: {**doc, "train_config": {**doc["train_config"], "epochs": float("nan"),
                                              "window_len": 2.5}},
        lambda doc: {**doc, "train_config": {**doc["train_config"], "seed": float("nan")}},
        lambda doc: {**doc, "train_config": {**doc["train_config"],
                                              "conv_channels": [6.5, 6, 6, 6]}},
        lambda doc: {"format_version": 7},
        lambda doc: {**doc, "conv_layers": doc["conv_layers"][:3]},
        lambda doc: None,  # no file
    ], ids=["json-list", "no-keys", "empty-train-config", "bad-base64", "non-integer-counts",
            "seed-nan", "fractional-width", "version-7", "three-conv", "missing"])
    def test_malformed_checkpoint_is_runtime_error(self, tmp_path, capsys, edit):
        manifest = gen_small(tmp_path / "data", kind="walk", subjects=1, duration=1.0)
        width = load_manifest(manifest).entries[0].clip.feature_width
        cfg = TrainConfig(conv_channels=(6, 6, 6, 6), fc_widths=(8, 6))
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(TemporalConvNet(width, cfg.conv_channels, cfg.fc_widths), cfg, ckpt)
        doc = edit(json.loads(ckpt.read_text()))
        if doc is None:
            ckpt.unlink()
        else:
            ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(
            "predict", "--manifest", manifest, "--checkpoint", ckpt,
            "--out-dir", tmp_path / "pred",
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"physgrd: error: CheckpointError: {ckpt}: ")

    def test_physics_weight_improves_held_out_vrpe(self, tmp_path):
        # plates go missing during the walk's ramp-up, so the physics term is
        # the only supervision covering the start of every rollout
        manifest = gen_small(
            tmp_path / "data", kind="walk", subjects=3, duration=4.0, seed=11,
            extra=("--missing-lead", "0.3", "--jitter", "0.3"),
        )
        scores = {}
        for lam2 in ("0", "0.005"):
            out = tmp_path / f"train_{lam2}"
            assert run(
                "train", "--manifest", manifest, "--test-subject", "S3",
                "--epochs", "25", "--batch-size", "8", "--learning-rate", "1e-3",
                "--window-len", "120", "--conv-channels", "12,12,12,12",
                "--fc-widths", "12,8", "--lambda2", lam2, "--seed", "0",
                "--out-dir", out,
            ) == 0
            last = (out / "train_log.csv").read_text().splitlines()[-1]
            scores[lam2] = float(last.split(",")[-1])
        assert scores["0.005"] <= scores["0"]


class TestNumericFlags:
    """Out-of-range and overflowing numbers exit 1 with one line."""

    def one_error_line(self, capsys, argv, prefix):
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"physgrd: error: {prefix}"), err

    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_negative_seed(self, tmp_path, capsys, command):
        if command == "gen":
            argv = ["gen", "--kind", "hop"]
        else:
            argv = ["train", "--manifest", gen_small(tmp_path / "data")]
        self.one_error_line(capsys, [*argv, "--seed=-1", "--out-dir", tmp_path / "out"],
                            "ValidationError: seed must be an integer >= 0")

    @pytest.mark.parametrize("command", ["calibrate", "simulate", "train", "metrics", "plot"])
    def test_overflowing_gravity(self, tmp_path, capsys, command):
        manifest = gen_small(tmp_path / "data")
        inputs = {
            "metrics": ["--manifest", manifest, "--pred-dir", tmp_path / "pred"],
            "plot": ["--clip", tmp_path / "data" / "S1_hop_000_clip.csv"],
        }.get(command, ["--manifest", manifest])
        argv = [command, *inputs, "--gravity-z", "1e155", "--out-dir", tmp_path / "out"]
        self.one_error_line(capsys, argv, "UnitError: gravity magnitude")

    @pytest.mark.parametrize("flag", ["--learning-rate", "--lambda1", "--lambda2"])
    def test_overflowing_training_weight(self, tmp_path, capsys, flag):
        manifest = gen_small(tmp_path / "data", kind="walk", duration=1.0)
        argv = ["train", "--manifest", manifest, flag, "1e308", "--epochs", "1",
                "--window-len", "16", "--conv-channels", "4,4,4,4", "--fc-widths", "4,4",
                "--out-dir", tmp_path / "out"]
        self.one_error_line(capsys, argv, "ValidationError: non-finite")

    def test_oversized_width_fails_before_allocating(self, tmp_path, capsys):
        argv = ["train", "--manifest", gen_small(tmp_path / "data"),
                "--conv-channels", f"{2**63},4,4,4", "--out-dir", tmp_path / "out"]
        self.one_error_line(capsys, argv,
                            "ValidationError: conv_channels must be an integer >= 1 and <= 1024")


class TestPlot:
    def test_svg_outputs_with_gaps(self, tmp_path):
        gen_small(tmp_path / "data", kind="walk", subjects=1, duration=1.5,
                  extra=("--missing-lead", "0.3"))
        data = tmp_path / "data"
        assert run(
            "plot", "--clip", data / "S1_walk_000_clip.csv",
            "--plate", data / "S1_walk_000_plate.csv",
            "--out-dir", tmp_path / "plots",
        ) == 0
        force_svg = (tmp_path / "plots" / "force.svg").read_text()
        assert force_svg.startswith("<svg")
        assert force_svg.rstrip().endswith("</svg>")
        # the masked lead span must not be drawn: the plate series splits
        # into polylines that begin after the gap
        sidecar = (tmp_path / "plots" / "force.csv").read_text().splitlines()
        lead_vals = [l.split(",")[2] for l in sidecar[1:10] if l.startswith("plate")]
        assert all(v == "NaN" for v in lead_vals)

    def test_identical_series_coincide(self, tmp_path):
        gen_small(tmp_path / "data", kind="hop", subjects=1, duration=1.0)
        data = tmp_path / "data"
        assert run(
            "plot", "--clip", data / "S1_hop_000_clip.csv",
            "--out-dir", tmp_path / "plots",
        ) == 0
        assert (tmp_path / "plots" / "trajectory.svg").exists()

    @pytest.mark.parametrize("mode", ["closed_loop", "open_loop"])
    def test_physics_series_is_the_standalone_series(self, tmp_path, mode):
        """The force plot's bytes are those drawn from ``physics_force_series``."""
        gen_small(tmp_path / "data", kind="walk", subjects=1, duration=1.0)
        clip_path = tmp_path / "data" / "S1_walk_000_clip.csv"
        assert run("plot", "--clip", clip_path, "--kp", "50", "--kd", "4", "--mode", mode,
                   "--out-dir", tmp_path / "plots") == 0
        clip = load_clip_csv(clip_path)
        phys_bw = to_bodyweight(physics_force_series(clip, PDGains(50.0, 4.0), mode=mode))
        series = [svgplot.LineSeries("physics vGRF", clip.times, phys_bw[:, 2])]
        svgplot.write_svg(series, tmp_path / "force.svg",
                          title="vertical reaction force", ylabel="force [BW]")
        svgplot.write_series_csv(series, tmp_path / "force.csv")
        for name in ("force.svg", "force.csv"):
            assert (tmp_path / "plots" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_mismatched_plate_length_is_runtime_error(self, tmp_path):
        gen_small(tmp_path / "a", kind="walk", subjects=1, duration=1.0)
        gen_small(tmp_path / "b", kind="walk", subjects=1, duration=2.0)
        assert run(
            "plot", "--clip", tmp_path / "a" / "S1_walk_000_clip.csv",
            "--plate", tmp_path / "b" / "S1_walk_000_plate.csv",
            "--out-dir", tmp_path / "plots",
        ) == 1

    @pytest.mark.parametrize("value, message", [
        ("nan", "row 3: plate time nan is not the clip's frame time 0.02 (+-1e-06 s)"),
        ("5.02", "row 3: plate time 5.02 is not the clip's frame time 0.02 (+-1e-06 s)"),
    ], ids=["time-nan", "time-shifted"])
    def test_plate_off_the_clip_frame_times_is_runtime_error(
        self, tmp_path, capsys, value, message,
    ):
        gen_small(tmp_path / "data", kind="hop", subjects=1, duration=1.0)
        plate = tmp_path / "data" / "S1_hop_000_plate.csv"
        set_cell(plate, 3, 0, value)
        capsys.readouterr()
        assert run(
            "plot", "--clip", tmp_path / "data" / "S1_hop_000_clip.csv", "--plate", plate,
            "--out-dir", tmp_path / "plots",
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"physgrd: error: ValidationError: {plate}: {message}"]
        assert not (tmp_path / "plots").exists()

    def test_prediction_off_the_clip_frame_times_is_runtime_error(self, tmp_path, capsys):
        gen_small(tmp_path / "data", kind="hop", subjects=1, duration=1.0)
        clip = load_clip_csv(tmp_path / "data" / "S1_hop_000_clip.csv")
        pred = tmp_path / "pred.csv"
        # the right length at half the clip's frame rate
        write_prediction_csv(Prediction(forces=np.zeros((len(clip), 2, 3))), pred,
                             clip.frame_rate / 2)
        capsys.readouterr()
        assert run(
            "plot", "--clip", tmp_path / "data" / "S1_hop_000_clip.csv", "--pred", pred,
            "--out-dir", tmp_path / "plots",
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"physgrd: error: ValidationError: {pred}: row 2: prediction time 0.02 is not "
            "the clip's frame time 0.01 (+-1e-06 s)"
        ]
        assert not (tmp_path / "plots").exists()


class TestGainsFileMode:
    @pytest.fixture
    def open_loop_gains(self, tmp_path):
        manifest = gen_small(tmp_path / "data", subjects=2, duration=0.6)
        assert run("calibrate", "--manifest", manifest, "--mode", "open_loop",
                   "--out-dir", tmp_path / "calib") == 0
        return manifest, tmp_path / "calib" / "best_gains.json"

    @pytest.mark.parametrize("command", ["simulate", "train", "plot"])
    def test_gains_of_another_mode_are_rejected(self, tmp_path, capsys, open_loop_gains, command):
        manifest, gains = open_loop_gains
        inputs = {
            "simulate": ["--manifest", manifest],
            "train": ["--manifest", manifest, "--epochs", "1", "--batch-size", "4",
                      "--window-len", "20", "--conv-channels", "2,2,2,2", "--fc-widths", "2,2"],
            "plot": ["--clip", tmp_path / "data" / "S1_hop_000_clip.csv"],
        }[command]
        capsys.readouterr()
        assert run(command, *inputs, "--gains", gains, "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"physgrd: error: ValidationError: {gains}: gains were calibrated in open_loop "
            "mode; this run is in closed_loop mode"
        ]
        assert not (tmp_path / "out").exists()
        if command == "simulate":  # the file's own mode runs
            assert run(command, *inputs, "--gains", gains, "--mode", "open_loop",
                       "--out-dir", tmp_path / "out") == 0


class TestIdempotence:
    def test_simulate_twice_byte_identical(self, tmp_path):
        manifest = gen_small(tmp_path / "data")
        run("simulate", "--manifest", manifest, "--out-dir", tmp_path / "s1")
        run("simulate", "--manifest", manifest, "--out-dir", tmp_path / "s2")
        assert tree_bytes(tmp_path / "s1") == tree_bytes(tmp_path / "s2")
