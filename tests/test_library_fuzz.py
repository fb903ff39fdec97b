"""Fuzzing the library's array and scalar arguments.

Every array argument of an exported callable goes through one rule,
``motion_data._numeric``. Whatever one argument holds (a wrong shape, zero
frames, non-finite values, a string, a complex value or a ragged nesting),
the call must return a value or raise a PhysgrdError: never another
exception, nor a warning, which pytest makes an error. The records' array
fields are fuzzed the same way in test_motion_data.py. A record argument of
the wrong type is one ValidationError naming it, and a writer raises it
before the file is opened. A scalar argument takes one number, not a bool,
through ``errors.check_range`` or ``errors.check_int``: a one-item list,
tuple or array is an error too.
"""

import dataclasses
import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import physgrd
from physgrd.calibration import calibrate, write_best_gains, write_report_csv
from physgrd.dynamics import PDGains, SimResult, euler_step, pd_force, physics_force_series
from physgrd.dynamics import rollout_forces, simulate, write_sim_csv
from physgrd.errors import PhysgrdError, UnitError, ValidationError
from physgrd.grf_model import Prediction, TemporalConvNet, TrainConfig, TrainLogRow
from physgrd.grf_model import composite_loss, elu, load_checkpoint, save_checkpoint, train
from physgrd.grf_model import write_prediction_csv
from physgrd.grf_model import write_train_log
from physgrd.metrics import aggregate, evaluate_prediction, vgrf_mse, vrpe, write_metric_table
from physgrd.motion_data import Dataset, DatasetEntry, MotionClip, entry_stems
from physgrd.motion_data import finite_diff_velocity, from_bodyweight, load_clip_csv
from physgrd.motion_data import load_force_plate, load_manifest, to_bodyweight, write_clip_csv
from physgrd.motion_data import write_force_plate, write_manifest
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


def _exported(*methods):
    """Each callable physgrd exports, and the named methods of TemporalConvNet."""
    exported = {name: obj for name, obj in vars(physgrd).items()
                if callable(obj) and not name.startswith("_") and not inspect.ismodule(obj)}
    exported.update({f"TemporalConvNet.{m}": getattr(TemporalConvNet, m) for m in methods})
    return exported


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
    wanted = {(name, p.name) for name, obj in _exported("forward", "loss_and_grads").items()
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
    exported = _exported()
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


def _load_clip(**kwargs):
    write_clip_csv(CLIP, "clip.csv")
    return load_clip_csv("clip.csv", **kwargs)


def _load_plate(**kwargs):
    write_force_plate(PLATE, "plate.csv", CLIP.frame_rate)
    return load_force_plate("plate.csv", force_unit="newton", **kwargs)


# each callable with a valid call of it and its scalar arguments, each drawn
# in turn; files are written in the test's working directory
SCALAR_CALLS = {
    **{call: (*CALLS[call], names) for call, names in (
        ("euler_step", ("dt",)), ("TemporalConvNet.loss_and_grads", ("lambda1", "lambda2")),
        ("to_bodyweight", ("mass",)), ("build_features", ("frame_rate",)))},
    "MotionClip": (MotionClip, dict(subject_id="S1", motion_label="walk", frame_rate=100.0,
                                    mass=70.0, root_positions=CLIP.root_positions,
                                    features=CLIP.features), ("frame_rate", "mass")),
    "PDGains": (PDGains, dict(kp=70.0, kd=3.0), ("kp", "kd")),
    "SimResult": (SimResult, dict(positions=np.zeros((2, 3)), velocities=np.zeros((2, 3)),
                                  total_force=np.zeros((1, 3)), dt=0.01), ("dt",)),
    "TrainConfig": (TrainConfig, dataclasses.asdict(NET_CFG),
                    ("epochs", "batch_size", "learning_rate", "seed", "lambda1", "lambda2",
                     "window_len")),
    "TemporalConvNet": (TemporalConvNet, dict(input_width=D, conv_channels=(2, 2, 2, 2),
                                              fc_widths=(2, 2), seed=0), ("input_width", "seed")),
    "gen_synthetic": (gen_synthetic, dict(kind="ballistic", params={"duration": 0.05}, seed=0),
                      ("seed",)),
    "make_dataset": (make_dataset, dict(kinds=["ballistic"], n_subjects=1, clips_per_subject=1,
                                        seed=0, base_params={"duration": 0.05}),
                     ("n_subjects", "clips_per_subject", "seed")),
    "load_clip_csv": (_load_clip, dict(mass=70.0, frame_rate=100.0), ("mass", "frame_rate")),
    "load_force_plate": (_load_plate, dict(mass=70.0), ("mass",)),
    "write_force_plate": (write_force_plate, dict(record=PLATE, path="plate.csv",
                                                  frame_rate=100.0), ("frame_rate",)),
    "write_prediction_csv": (write_prediction_csv, dict(pred=Prediction(np.ones((T, 2, 3))),
                                                        path="pred.csv", frame_rate=100.0),
                             ("frame_rate",)),
    "write_sim_csv": (write_sim_csv, dict(result=simulate(CLIP, PDGains(70.0, 3.0)),
                                          path="sim.csv", frame_rate=100.0), ("frame_rate",)),
}
SCALAR_ARGS = [(call, name) for call, (_, _, names) in SCALAR_CALLS.items() for name in names]
REAL_ARGS = [(call, name) for call, name in SCALAR_ARGS
             if isinstance(SCALAR_CALLS[call][1][name], float)]


@pytest.mark.parametrize("wrap", [list, tuple, np.array, bool],
                         ids=["list", "tuple", "array", "bool"])
@pytest.mark.parametrize("call, name", SCALAR_ARGS, ids=[f"{c}-{n}" for c, n in SCALAR_ARGS])
def test_scalar_argument_takes_one_number(tmp_path, monkeypatch, call, name, wrap):
    """A one-item list, tuple or array, or True, in a number's place is one
    ValidationError or UnitError. A list once passed the range check item
    by item: MotionClip(frame_rate=[100.0]) made a clip whose dt raised
    TypeError, and euler_step took a dt for each component."""
    monkeypatch.chdir(tmp_path)
    func, kwargs, _ = SCALAR_CALLS[call]
    func(**kwargs)
    value = True if wrap is bool else wrap([kwargs[name]])
    with pytest.raises((ValidationError, UnitError)):
        func(**{**kwargs, name: value})


def _bits(value):
    """value in a form that compares every bit and type of its numbers: an
    array by dtype, shape and bytes, a number by type and repr."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return [_bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [_bits(item) for item in value]
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    return type(value).__name__, repr(value)


@pytest.mark.parametrize("call, name", REAL_ARGS, ids=[f"{c}-{n}" for c, n in REAL_ARGS])
def test_real_argument_of_any_real_type_gives_the_same_bits(tmp_path, monkeypatch, call, name):
    """A Python float v, np.float64(v) and, where v is exact in float32,
    np.float32(v) give the same returned values and written files, bit for
    bit; so do int(v) and np.int64(v) for an integral v. A record stores the
    number as a float. MotionClip(frame_rate=np.float32(100.0)) once kept
    its float32 rate, so its dt was np.float32(0.01)."""
    monkeypatch.chdir(tmp_path)
    func, kwargs, _ = SCALAR_CALLS[call]
    v = kwargs[name]

    def run(value):
        out = func(**{**kwargs, name: value})
        if dataclasses.is_dataclass(out) and hasattr(out, name):
            assert type(getattr(out, name)) is float
        return _bits(out), {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}

    expected = run(v)
    kinds = [np.float64] + [np.float32] * (float(np.float32(v)) == v)
    kinds += [int, np.int64] * v.is_integer()
    for kind in kinds:
        assert run(kind(v)) == expected, kind.__name__


@pytest.mark.parametrize("call, name", REAL_ARGS, ids=[f"{c}-{n}" for c, n in REAL_ARGS])
def test_integer_beyond_the_float_range_is_one_error(tmp_path, monkeypatch, call, name):
    """10**400 once passed the range check, lo <= x < hi, and then raised
    OverflowError inside float() or arithmetic, or was stored as it came."""
    monkeypatch.chdir(tmp_path)
    func, kwargs, _ = SCALAR_CALLS[call]
    with pytest.raises((ValidationError, UnitError), match=name.replace("_", "[_ ]")):
        func(**{**kwargs, name: 10**400})


def test_float32_frame_rate_simulates_as_its_float():
    """A mocap header may store its rate as a 32-bit float, as C3D's POINT:RATE
    does. A clip at np.float32(100.0) once stepped with dt = np.float32(0.01),
    and a 1 s hop ended at z = 0.6360813539962887, not 0.6360813383492292."""
    clip, _ = gen_synthetic("hop", {"duration": 1.0}, seed=0)
    as32 = dataclasses.replace(clip, frame_rate=np.float32(clip.frame_rate))
    for mode in ("closed_loop", "open_loop"):
        assert _bits(simulate(as32, PDGains(70.0, 3.0), mode=mode)) == _bits(
            simulate(clip, PDGains(70.0, 3.0), mode=mode))


def test_checkpoint_of_a_float32_learning_rate_loads(tmp_path):
    """save_checkpoint once raised TypeError for a numpy learning rate, which
    TrainConfig kept as it came; now the config saves and loads as floats."""
    cfg = dataclasses.replace(NET_CFG, learning_rate=np.float32(2**-15))
    save_checkpoint(NET, cfg, tmp_path / "checkpoint.json")
    _, loaded = load_checkpoint(tmp_path / "checkpoint.json")
    assert loaded == cfg and type(loaded.learning_rate) is float


def test_every_exported_scalar_parameter_is_fuzzed():
    """Each parameter annotated as a number, of a callable physgrd exports or
    of TemporalConvNet's loss_and_grads, is in SCALAR_CALLS; a calibration
    report's best_score is a result that calibrate builds."""
    wanted = {(name, p.name) for name, obj in _exported("loss_and_grads").items()
              for p in inspect.signature(obj).parameters.values()
              if str(p.annotation) in ("float", "int", "float | None")}
    assert ("MotionClip", "mass") in wanted and ("euler_step", "dt") in wanted
    assert wanted - set(SCALAR_ARGS) == {("CalibrationReport", "best_score")}


@pytest.mark.parametrize("mass", [(70.0,), True], ids=["tuple", "bool"])
def test_manifest_reads_back_the_mass_of_every_clip_it_takes(tmp_path, mass):
    """write_manifest writes a clip's mass as its subject's mass_kg. A clip of
    mass (70.0,) or True once wrote a manifest that load_manifest rejected;
    now the clip is rejected, and a clip of one number round-trips. A numpy
    mass once made write_manifest raise TypeError; now it is written as a float."""
    def clip(m):
        return MotionClip("S1", "walk", CLIP.frame_rate, m, CLIP.root_positions, CLIP.features)

    with pytest.raises(UnitError, match="^mass must be finite and positive, got "):
        clip(mass)
    for good in (70.0, np.int64(70), np.float32(70.5)):
        write_manifest(Dataset((DatasetEntry(clip(good), PLATE),)), tmp_path)
        written = json.loads((tmp_path / "manifest.json").read_text())["subjects"][0]["mass_kg"]
        assert type(written) is float and written == good
        assert load_manifest(tmp_path / "manifest.json").clips()[0].mass == good
