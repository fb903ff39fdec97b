"""Fuzzing the library's array arguments.

Every array argument of an exported callable goes through one rule,
``motion_data._numeric``. Whatever one argument holds (a wrong shape, zero
frames, non-finite values, a string, a complex value or a ragged nesting),
the call must return a value or raise a PhysgrdError: never another
exception, nor a warning, which pytest makes an error. The records' array
fields are fuzzed the same way in test_motion_data.py. The record arguments
of the PD entry points are checked for their type.
"""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import physgrd
from physgrd.calibration import calibrate
from physgrd.dynamics import PDGains, euler_step, pd_force, physics_force_series, rollout_forces
from physgrd.dynamics import simulate
from physgrd.errors import PhysgrdError, ValidationError
from physgrd.grf_model import TemporalConvNet, TrainConfig, composite_loss, elu
from physgrd.metrics import aggregate, evaluate_prediction, vgrf_mse
from physgrd.motion_data import from_bodyweight, to_bodyweight
from physgrd.synthetic import build_features, gen_synthetic
from test_motion_data import _ARRAY_FIELDS

# an 8-frame walk whose first two plate frames are missing, and a toy net
CLIP, PLATE = gen_synthetic("walk", {"duration": 0.08, "missing_lead": 0.25}, seed=0)
T, D, B = len(CLIP), CLIP.feature_width, 2
NET = TemporalConvNet(D, (2, 2, 2, 2), (2, 2), seed=0)
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


# each raised AttributeError or TypeError, or named the wrong length
@pytest.mark.parametrize("call, message", [
    (lambda: simulate(CLIP, (1.0, 2.0)), "gains must be of type PDGains, got tuple"),
    (lambda: simulate("c", PDGains(70.0, 3.0)), "clip must be of type MotionClip, got str"),
    (lambda: physics_force_series(None, PDGains(70.0, 3.0)),
     "clip must be of type MotionClip, got NoneType"),
    (lambda: physics_force_series(CLIP, {"kp": 70.0}), "gains must be of type PDGains, got dict"),
    (lambda: rollout_forces("c", np.zeros((99, 3))), "clip must be of type MotionClip, got str"),
    (lambda: calibrate(CLIP), "clips must be of type Iterable, got MotionClip"),
    (lambda: calibrate([CLIP, PLATE]), "clip must be of type MotionClip, got ForcePlateRecord"),
], ids=["simulate-gains", "simulate-clip", "physics-clip", "physics-gains", "rollout-clip",
        "calibrate-one-clip", "calibrate-plate"])
def test_record_argument_of_wrong_type_is_named(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()
