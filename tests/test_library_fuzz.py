"""Fuzzing the library's array arguments.

Every array argument of an exported callable goes through one rule,
``motion_data._numeric``. Whatever one argument holds (a wrong shape, zero
frames, non-finite values, a string, a complex value or a ragged nesting),
the call must return a value or raise a PhysgrdError: never another
exception, nor a warning, which pytest makes an error. The records' array
fields are fuzzed the same way in test_motion_data.py. A record argument of
the wrong type is one ValidationError naming it, and a writer raises it
before the file is opened.
"""

import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import physgrd
from physgrd.calibration import calibrate, write_best_gains, write_report_csv
from physgrd.dynamics import PDGains, euler_step, pd_force, physics_force_series, rollout_forces
from physgrd.dynamics import simulate, write_sim_csv
from physgrd.errors import PhysgrdError, ValidationError
from physgrd.grf_model import Prediction, TemporalConvNet, TrainConfig, TrainLogRow
from physgrd.grf_model import composite_loss, elu, save_checkpoint, train, write_prediction_csv
from physgrd.grf_model import write_train_log
from physgrd.metrics import aggregate, evaluate_prediction, vgrf_mse, vrpe, write_metric_table
from physgrd.motion_data import Dataset, DatasetEntry, entry_stems, finite_diff_velocity
from physgrd.motion_data import from_bodyweight, to_bodyweight, write_clip_csv, write_force_plate
from physgrd.motion_data import write_manifest
from physgrd.svgplot import LineSeries, write_series_csv, write_svg
from physgrd.synthetic import build_features, gen_synthetic, make_dataset
from test_motion_data import _ARRAY_FIELDS

# an 8-frame walk whose first two plate frames are missing, and a toy net
CLIP, PLATE = gen_synthetic("walk", {"duration": 0.08, "missing_lead": 0.25}, seed=0)
T, D, B = len(CLIP), CLIP.feature_width, 2
NET = TemporalConvNet(D, (2, 2, 2, 2), (2, 2), seed=0)
DATASET = make_dataset(["hop"], 2, 1, seed=0, base_params={"duration": 0.2})
_RNG = np.random.default_rng(0)
_BATCH_PLATE = np.where(np.resize(PLATE.valid_mask, (B, T))[..., None, None],
                        np.resize(PLATE.per_foot_force, (B, T, 2, 3)), np.nan)


def _aggregate_one(value, kind):
    return aggregate({("S1", "walk"): value, ("S2", "walk"): value}, kind)


# each callable with a valid call of it; every array argument is drawn in turn
CALLS = {
    "pd_force": (pd_force, dict(target_next=np.ones(3), current_pos=np.zeros(3),
                                current_vel=np.zeros(3), gains=PDGains(0.0, 3.0))),
    "euler_step": (euler_step, dict(pos=np.zeros(3), vel=np.array([0.0, 0.0, -1.0]),
                                    normalized_force=np.array([0.0, 0.0, 9.81]),
                                    gravity=None, dt=0.01)),
    "rollout_forces": (rollout_forces, dict(clip=CLIP, forces=np.tile([0.0, 0.0, 9.81], (T, 1)))),
    "elu": (elu, dict(x=np.linspace(-2.0, 2.0, 5))),
    "TemporalConvNet.forward": (NET.forward, dict(features=CLIP.features)),
    "TemporalConvNet.loss_and_grads": (NET.loss_and_grads, dict(
        features=_RNG.normal(size=(B, T, D)), plate_force=_BATCH_PLATE,
        valid=np.isfinite(_BATCH_PLATE).all(axis=(2, 3)), phys_bw=_RNG.normal(size=(B, T, 3)),
        lambda1=1.0, lambda2=1.0)),
    "composite_loss": (composite_loss, dict(pred=np.ones((T, 2, 3)), plate=PLATE,
                                            phys_force_bw=np.ones((T, 3)), cfg=TrainConfig())),
    "vgrf_mse": (vgrf_mse, dict(pred=np.ones((T, 2, 3)), plate=PLATE)),
    "evaluate_prediction": (evaluate_prediction, dict(clip=CLIP, plate=PLATE,
                                                      pred_bw=np.full((T, 2, 3), 0.5))),
    "aggregate[vrpe]": (_aggregate_one, dict(value=np.array(0.5), kind="vrpe")),
    "aggregate[vgrf]": (_aggregate_one, dict(value=np.array([0.1, 0.2]), kind="vgrf")),
    "to_bodyweight": (to_bodyweight, dict(force=np.ones((T, 3)), mass=70.0)),
    "from_bodyweight": (from_bodyweight, dict(force_bw=np.ones((T, 3)))),
    "build_features": (build_features, dict(positions=CLIP.root_positions, frame_rate=100.0)),
}
ARRAY_ARGS = [(call, name) for call, (_, kwargs) in CALLS.items()
              for name, value in kwargs.items() if isinstance(value, np.ndarray)]


def _bad_values(valid: np.ndarray):
    """A wrong shape, zero frames, non-finite values, a string, a complex value
    or a ragged nesting, each drawn from the valid array."""
    shape = valid.shape
    shapes = [shape + (2,), shape[:-1]] + [
        shape[:i] + (n + step,) + shape[i + 1:] for i, n in enumerate(shape) for step in (-1, 1)]

    def poke(at_value):
        out = valid.astype(float)
        out.flat[at_value[0]] = at_value[1]
        return out

    rows = valid.tolist() if valid.ndim else [valid.tolist()]
    ragged = [rows[0], [rows[0], rows[0]]] if len(rows) else [[1.0], [1.0, 1.0]]
    bad = [st.sampled_from(shapes).map(lambda s: np.ones(s)),
           st.just(np.ones((0,) + shape[1:])),
           st.text(max_size=3),
           st.sampled_from([valid.astype(str), valid + 0j, valid + 1j, ragged])]
    if valid.size:
        bad.append(st.tuples(st.integers(0, valid.size - 1),
                             st.sampled_from([np.nan, np.inf, -np.inf])).map(poke))
    return st.one_of(bad)


@settings(max_examples=250, deadline=None)
@given(case=st.sampled_from(ARRAY_ARGS).flatmap(
    lambda arg: st.tuples(st.just(arg), _bad_values(CALLS[arg[0]][1][arg[1]]))))
# each of these raised numpy's ValueError or an IndexError, or let a warning out
@example(case=(("TemporalConvNet.forward", "features"), "abc"))
@example(case=(("elu", "x"), "x"))
@example(case=(("vgrf_mse", "pred"), "x"))
@example(case=(("rollout_forces", "forces"), "abc"))
@example(case=(("TemporalConvNet.loss_and_grads", "valid"), "x"))
@example(case=(("euler_step", "pos"), "abc"))
@example(case=(("pd_force", "target_next"), np.array([np.inf, 0.0, 0.0])))
@example(case=(("composite_loss", "pred"), np.full((T, 2, 3), np.inf)))
@example(case=(("build_features", "positions"), np.full((T, 3), np.inf)))
def test_bad_array_argument_raises_physgrd_error_or_returns(case):
    (call, name), value = case
    func, kwargs = CALLS[call]
    try:
        func(**{**kwargs, name: value})
    except PhysgrdError:
        pass


@pytest.mark.parametrize("call", sorted(CALLS))
def test_valid_call_returns(call):
    func, kwargs = CALLS[call]
    func(**kwargs)


def test_every_exported_array_parameter_is_fuzzed():
    """Each parameter annotated as an array, of a callable physgrd exports or
    of TemporalConvNet's forward and loss_and_grads, is in CALLS or, for a
    record, in test_motion_data's record fuzz; an ``out`` buffer is output."""
    exported = {name: obj for name, obj in vars(physgrd).items()
                if callable(obj) and not name.startswith("_") and not inspect.ismodule(obj)}
    exported.update({f"TemporalConvNet.{m}": getattr(TemporalConvNet, m)
                     for m in ("forward", "loss_and_grads")})
    wanted = {(name, p.name) for name, obj in exported.items()
              for p in inspect.signature(obj).parameters.values()
              if "ndarray" in str(p.annotation) and p.name != "out"}
    assert ("pd_force", "target_next") in wanted and ("GravitySpec", "g_accel") in wanted
    assert wanted - set(ARRAY_ARGS) - set(_ARRAY_FIELDS) == set()


# a record argument of the wrong type, by test id: the (callable, parameter)
# it covers, the call and its one error. Each raised AttributeError or
# TypeError, or named the wrong length, before it was checked
RECORD_CASES = {
    "simulate-gains": (("simulate", "gains"), lambda: simulate(CLIP, (1.0, 2.0)),
                       "gains must be of type PDGains, got tuple"),
    "simulate-clip": (("simulate", "clip"), lambda: simulate("c", PDGains(70.0, 3.0)),
                      "clip must be of type MotionClip, got str"),
    "physics-clip": (("physics_force_series", "clip"),
                     lambda: physics_force_series(None, PDGains(70.0, 3.0)),
                     "clip must be of type MotionClip, got NoneType"),
    "physics-gains": (("physics_force_series", "gains"),
                      lambda: physics_force_series(CLIP, {"kp": 70.0}),
                      "gains must be of type PDGains, got dict"),
    "rollout-clip": (("rollout_forces", "clip"), lambda: rollout_forces("c", np.zeros((99, 3))),
                     "clip must be of type MotionClip, got str"),
    "calibrate-one-clip": (("calibrate", "clips"), lambda: calibrate(CLIP),
                           "clips must be of type Iterable, got MotionClip"),
    "calibrate-plate": (("calibrate", "clips"), lambda: calibrate([CLIP, PLATE]),
                        "clip must be of type MotionClip, got ForcePlateRecord"),
    "vgrf-plate": (("vgrf_mse", "plate"), lambda: vgrf_mse(np.ones((T, 2, 3)), "x"),
                   "plate must be of type ForcePlateRecord, got str"),
    "evaluate-plate": (("evaluate_prediction", "plate"),
                       lambda: evaluate_prediction(CLIP, "x", np.ones((T, 2, 3))),
                       "plate must be of type ForcePlateRecord, got str"),
    "evaluate-clip": (("evaluate_prediction", "clip"),
                      lambda: evaluate_prediction(PLATE, None, np.ones((T, 2, 3))),
                      "clip must be of type MotionClip, got ForcePlateRecord"),
    "loss-cfg": (("composite_loss", "cfg"),
                 lambda: composite_loss(np.ones((T, 2, 3)), PLATE, np.ones((T, 3)), "x"),
                 "cfg must be of type TrainConfig, got str"),
    "loss-plate": (("composite_loss", "plate"),
                   lambda: composite_loss(np.ones((T, 2, 3)), CLIP, np.ones((T, 3)), TrainConfig()),
                   "plate must be of type ForcePlateRecord, got MotionClip"),
    "train-dataset": (("train", "dataset"), lambda: train("ds", TrainConfig(), (["S1"], "S2")),
                      "dataset must be of type Dataset, got str"),
    "train-cfg": (("train", "cfg"), lambda: train(DATASET, "cfg", (["S1"], "S2")),
                  "cfg must be of type TrainConfig, got str"),
    "train-gains": (("train", "gains"),
                    lambda: train(DATASET, TrainConfig(), (["S1"], "S2"), gains=(70.0, 3.0)),
                    "gains must be of type PDGains, got tuple"),
    "vrpe-clip": (("vrpe", "clip"), lambda: vrpe(simulate(CLIP, PDGains(70.0, 3.0)), "c"),
                  "clip must be of type MotionClip, got str"),
    "vrpe-sim": (("vrpe", "sim"), lambda: vrpe(PLATE, CLIP),
                 "sim must be of type SimResult, got ForcePlateRecord"),
    "pd-force-gains": (("pd_force", "gains"),
                       lambda: pd_force(np.ones(3), np.zeros(3), np.zeros(3), (70.0, 3.0)),
                       "gains must be of type PDGains, got tuple"),
    "velocity-clip": (("finite_diff_velocity", "clip"), lambda: finite_diff_velocity(PLATE),
                      "clip must be of type MotionClip, got ForcePlateRecord"),
    "stems-dataset": (("entry_stems", "dataset"), lambda: entry_stems([CLIP]),
                      "dataset must be of type Dataset, got list"),
    "entry-clip": (("DatasetEntry", "clip"), lambda: DatasetEntry(PLATE),
                   "clip must be of type MotionClip, got ForcePlateRecord"),
    "entry-plate": (("DatasetEntry", "plate"), lambda: DatasetEntry(CLIP, CLIP),
                    "plate must be of type ForcePlateRecord, got MotionClip"),
    "dataset-entry": (("Dataset", "entries"), lambda: Dataset([CLIP]),
                      "entry must be of type DatasetEntry, got MotionClip"),
    "dataset-entries": (("Dataset", "entries"), lambda: Dataset(3),
                        "entries must be of type Iterable, got int"),
}


@pytest.mark.parametrize("case", list(RECORD_CASES))
def test_record_argument_of_wrong_type_is_named(case):
    _, call, message = RECORD_CASES[case]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


def test_every_exported_record_parameter_is_checked():
    """Each parameter annotated with a record type, of a callable physgrd
    exports, has a wrong-type case in RECORD_CASES or WRITERS. A gravity goes
    through one check, _gravity, tested in test_dynamics; calibrate's grid
    is checked cell by cell as (kp, kd) pairs; CalibrationReport is a
    result that calibrate builds."""
    exported = {name: obj for name, obj in vars(physgrd).items()
                if callable(obj) and not name.startswith("_") and not inspect.ismodule(obj)}
    records = re.compile(r"\b(%s)\b" % "|".join(
        name for name, obj in exported.items() if inspect.isclass(obj)))
    wanted = {(name, p.name) for name, obj in exported.items()
              for p in inspect.signature(obj).parameters.values()
              if records.search(str(p.annotation))}
    covered = {covers for covers, _, _ in RECORD_CASES.values()} | {
        ("write_manifest", "dataset"), ("write_clip_csv", "clip"), ("write_force_plate", "record")}
    exempt = {(name, "gravity") for name, _ in wanted} | {
        ("calibrate", "grid"), ("CalibrationReport", "best")}
    assert ("train", "cfg") in wanted and ("Dataset", "entries") in wanted
    assert wanted - covered - exempt == set()


# each writer over a file it wrote before, called with a record of the wrong
# type: the call raises before the file is opened, so a streamed JSON dump
# cannot leave it truncated
REPORT = calibrate([CLIP], [(70.0, 3.0)])
NET_CFG = TrainConfig(conv_channels=(2, 2, 2, 2), fc_widths=(2, 2))
WRITERS = {
    "checkpoint": (lambda path, net: save_checkpoint(net, NET_CFG, path), NET,
                   "net must be of type TemporalConvNet, got str"),
    "checkpoint-cfg": (lambda path, cfg: save_checkpoint(NET, cfg, path), NET_CFG,
                       "cfg must be of type TrainConfig, got str"),
    "manifest": (lambda path, ds: write_manifest(ds, path.parent), DATASET,
                 "dataset must be of type Dataset, got str"),
    "best-gains": (lambda path, report: write_best_gains(report, path), REPORT,
                   "report must be of type CalibrationReport, got str"),
    "report-csv": (lambda path, report: write_report_csv(report, path), REPORT,
                   "report must be of type CalibrationReport, got str"),
    "clip-csv": (lambda path, clip: write_clip_csv(clip, path), CLIP,
                 "clip must be of type MotionClip, got str"),
    "plate-csv": (lambda path, plate: write_force_plate(plate, path, CLIP.frame_rate), PLATE,
                  "record must be of type ForcePlateRecord, got str"),
    "prediction-csv": (lambda path, pred: write_prediction_csv(pred, path, CLIP.frame_rate),
                       Prediction(np.ones((T, 2, 3))), "pred must be of type Prediction, got str"),
    "sim-csv": (lambda path, sim: write_sim_csv(sim, path, CLIP.frame_rate),
                simulate(CLIP, PDGains(70.0, 3.0)), "result must be of type SimResult, got str"),
    "metric-table": (lambda path, table: write_metric_table(table, path),
                     _aggregate_one(np.array(0.5), "vrpe"),
                     "table must be of type MetricTable, got str"),
    "train-log": (lambda path, rows: write_train_log(rows, path),
                  [TrainLogRow(1, 0.5, 0.2, 0.3, 0.1, 0.1, 2.0)],
                  "log row must be of type TrainLogRow, got str"),
    "series-csv": (lambda path, series: write_series_csv(series, path),
                   [LineSeries("a", np.arange(3.0), np.ones(3))],
                   "series must be of type LineSeries, got str"),
    "svg": (lambda path, series: write_svg(series, path, "title", "y"),
            [LineSeries("a", np.arange(3.0), np.ones(3))],
            "series must be of type LineSeries, got str"),
}
WRITER_FILES = {"manifest": "manifest.json"}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_checks_record_before_opening_file(tmp_path, writer):
    write, record, message = WRITERS[writer]
    path = tmp_path / WRITER_FILES.get(writer, "artifact")
    write(path, record)
    before = path.read_bytes()
    with pytest.raises(ValidationError, match=f"^{message}$"):
        write(path, "x")
    assert path.read_bytes() == before


@pytest.mark.parametrize("writer", ["checkpoint", "manifest", "best-gains"])
def test_json_artifact_bytes(tmp_path, writer):
    """Each JSON artifact is json.dumps(doc, indent=2, sort_keys=True) and a newline."""
    write, record, _ = WRITERS[writer]
    path = tmp_path / WRITER_FILES.get(writer, "artifact")
    write(path, record)
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
