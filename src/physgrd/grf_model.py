"""Temporal-convolution force predictor trained with a composite loss.

The network is four 1D temporal convolutions (kernel 7, zero-padded to
preserve length) followed by three frame-wise fully-connected layers, with
an ELU after every convolution and after the first two FC layers. It maps
per-frame feature vectors to per-foot 3D reaction forces in body-weight
units (output width 6 = 2 feet x 3 components).

Each convolution is one GEMM (im2col): the layer input, zero-padded and
laid out channels first, is copied into a (C_in*K, B*T) column matrix with
K contiguous slice copies, and the (C_out, C_in*K) weights multiply it. The
backward pass rebuilds that matrix from the cached padded input for the
weight gradient (the last layer's is still in place from the forward), and
correlates the doubly padded output gradient's column matrix with the
flipped kernel for the input gradient. Operand order and memory layout
match what numpy's einsum hands BLAS for the same contractions, so the
results are bit-identical to the direct einsum form (tests/conv_reference.py)
at every shape.

The conv stack runs in a workspace held by the net: a few named, flat,
grow-only float64 buffers, each viewed at the shape a use needs, so
repeated calls do not allocate (and page-fault) the conv stack's large
arrays again. A training step uses the column matrix (sized for the
backward's largest build), each layer's padded input and pre-activation,
and one spare buffer: the last layer's padded input, then the conv stack's
output, then the backward's padded output gradient and input gradient.
ELU writes straight into the next layer's padded buffer, and the backward
overwrites each pre-activation with its ELU gradient and then with the
gradient at that layer's output. forward() passes one padded buffer and
one pre-activation buffer through every layer.

So only one cache per net is live: any later call on the net invalidates
the cache of an earlier _forward, and a net must not be used from two
threads at once. Nothing returned (loss, gradients, predictions) aliases
the workspace, and train() empties it before it returns the net.

The training objective combines a force-plate term (masked frames skipped,
renormalized per window) and a physics-consistency term tying the summed
two-foot prediction to the PD reaction force computed from the trajectory.
All gradients are analytic and checked against central finite differences
in the test suite.
"""

from __future__ import annotations

import base64
import json
import math
import numbers
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .dynamics import GravitySpec, PDGains, SimMode, physics_force_series, to_bodyweight
from .errors import CheckpointError, ValidationError
from .metrics import evaluate_prediction
from .motion_data import Dataset, ForcePlateRecord, _read_lines, _read_rows, _write_rows
from .motion_data import _write_table

KERNEL = 7
PAD = KERNEL // 2
OUT_WIDTH = 6  # two feet x three force components
CHECKPOINT_VERSION = 1


def elu(x, out=None):
    """ELU with alpha = 1: x for x > 0, exp(x) - 1 otherwise.

    Computed as max(x, expm1(min(x, 0))), which is exact because
    expm1(x) >= x. With out (which must not overlap x) the result is
    written there.
    """
    arr = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty_like(arr)
    np.expm1(np.minimum(arr, 0.0, out=out), out=out)
    np.maximum(arr, out, out=out)
    return float(out) if out.ndim == 0 else out


def _elu_grad(pre: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ELU derivative exp(min(pre, 0)), exactly 1.0 where pre > 0; out=pre
    computes it in place."""
    out = np.minimum(pre, 0.0, out=out)
    return np.exp(out, out=out)


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; channel widths beyond the canonical plan
    exist so tests and demos can run at desk scale."""

    epochs: int = 11
    batch_size: int = 64
    learning_rate: float = 3e-5
    seed: int = 42
    lambda1: float = 0.002
    lambda2: float = 0.005
    window_len: int = 240
    conv_channels: tuple[int, ...] = (128, 128, 128, 128)
    fc_widths: tuple[int, ...] = (64, 32)

    def __post_init__(self):
        object.__setattr__(self, "conv_channels", tuple(int(c) for c in self.conv_channels))
        object.__setattr__(self, "fc_widths", tuple(int(w) for w in self.fc_widths))
        counts = (self.epochs, self.batch_size, self.window_len)
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1
                   for n in counts):
            raise ValidationError("epochs, batch_size and window_len must be integers >= 1")
        # written "not (... < inf)" so that NaN is rejected too
        if not (0 < self.learning_rate < math.inf):
            raise ValidationError("learning_rate must be finite and positive")
        if not (0 <= self.lambda1 < math.inf and 0 <= self.lambda2 < math.inf):
            raise ValidationError("loss weights must be finite and non-negative")
        if len(self.conv_channels) != 4:
            raise ValidationError("the network has exactly four conv layers")
        if len(self.fc_widths) != 2:
            raise ValidationError("the network has exactly three FC layers (two hidden widths)")
        if any(c <= 0 for c in self.conv_channels) or any(w <= 0 for w in self.fc_widths):
            raise ValidationError("layer widths must be positive")


@dataclass(frozen=True)
class Prediction:
    """Per-frame per-foot force prediction, (T, 2, 3), body weights."""

    forces: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.forces, dtype=float)
        if f.ndim != 3 or f.shape[1:] != (2, 3):
            raise ValidationError(f"prediction must be (T, 2, 3), got {f.shape}")
        if not np.all(np.isfinite(f)):
            raise ValidationError("non-finite value in prediction")
        f = np.ascontiguousarray(f)
        f.flags.writeable = False
        object.__setattr__(self, "forces", f)

    def __len__(self) -> int:
        return len(self.forces)

    def total(self) -> np.ndarray:
        return self.forces.sum(axis=1)


class TemporalConvNet:
    """4 x conv(kernel 7, same padding) -> 3 x frame-wise FC, ELU inside.

    Weights initialize uniform in +-sqrt(1/fan_in) from the given seed;
    biases start at zero.
    """

    def __init__(
        self,
        input_width: int,
        conv_channels: Sequence[int] = (128, 128, 128, 128),
        fc_widths: Sequence[int] = (64, 32),
        seed: int = 0,
    ):
        if input_width < 1:
            raise ValidationError(f"input width must be >= 1, got {input_width}")
        if len(conv_channels) != 4 or len(fc_widths) != 2:
            raise ValidationError("architecture is fixed at four conv and three FC layers")
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x6E7)))
        self.input_width = int(input_width)
        self.conv_channels = tuple(int(c) for c in conv_channels)
        self.fc_widths = tuple(int(w) for w in fc_widths)

        self.conv: list[list[np.ndarray]] = []
        in_ch = self.input_width
        for out_ch in self.conv_channels:
            limit = math.sqrt(1.0 / (in_ch * KERNEL))
            w = rng.uniform(-limit, limit, size=(out_ch, in_ch, KERNEL))
            self.conv.append([w, np.zeros(out_ch)])
            in_ch = out_ch
        self.fc: list[list[np.ndarray]] = []
        for out_w in (*self.fc_widths, OUT_WIDTH):
            limit = math.sqrt(1.0 / in_ch)
            w = rng.uniform(-limit, limit, size=(out_w, in_ch))
            self.fc.append([w, np.zeros(out_w)])
            in_ch = out_w
        self._ws: dict[str, np.ndarray] = {}  # the conv workspace, see _buf

    def _buf(self, name: str, *shape: int) -> np.ndarray:
        """Workspace buffer `name` viewed at shape; its values are stale.

        Each buffer is flat and grow-only: it is replaced, the old storage
        dropped first, only when shape needs more values than it holds.
        """
        size = math.prod(shape)
        flat = self._ws.get(name)
        if flat is None or flat.size < size:
            self._ws.pop(name, None)
            flat = self._ws[name] = np.empty(size)
        return flat[:size].reshape(shape)

    def _padded(self, name: str, C: int, B: int, T: int, pad: int) -> np.ndarray:
        """Channels-first (C, B, T + 2*pad) buffer with zeroed pad frames;
        the caller fills frames pad..pad+T."""
        hp = self._buf(name, C, B, T + 2 * pad)
        hp[:, :, :pad] = 0.0
        hp[:, :, pad + T:] = 0.0
        return hp

    def _cols(self, hp: np.ndarray, n: int) -> np.ndarray:
        """Column matrix of a padded (C, B, n + K - 1) buffer: shape
        (C*K, B*n), where row c*K + k, column b*n + t holds padded frame
        t + k of channel c. Built with K contiguous slice copies into the
        workspace's one column buffer (im2col)."""
        C, B = hp.shape[:2]
        cols = self._buf("cols", C, KERNEL, B, n)
        for k in range(KERNEL):
            cols[:, k] = hp[:, :, k:k + n]
        return cols.reshape(C * KERNEL, B * n)

    def _reserve(self, B: int, T: int) -> None:
        """Grow cols and spare to the largest size a (B, T) training step
        uses, so neither is replaced (and briefly held twice) mid-step."""
        widths = (self.input_width, *self.conv_channels)
        n = T + KERNEL - 1  # frames of the input-gradient correlation
        below = zip(widths[1:-1], widths[2:])  # (C_in, C_out) of layers 1..
        self._buf("cols", KERNEL * max(
            max(c * B * T for c in widths[:-1]),
            max(o * B * n for o in widths[2:]),
        ))
        self._buf("spare", max(
            widths[-2] * B * (T + 2 * PAD),
            widths[-1] * B * T,
            *(max(o * B * (n + KERNEL - 1), c * B * n) for c, o in below),
        ))

    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays in a fixed order (conv then FC, W then b)."""
        out: list[np.ndarray] = []
        for w, b in self.conv + self.fc:
            out += [w, b]
        return out

    def _forward(self, x: np.ndarray, want_cache: bool = False):
        if x.ndim != 3 or x.shape[2] != self.input_width:
            raise ValidationError(
                f"expected input (B, T, {self.input_width}), got {x.shape}"
            )
        B, T = x.shape[:2]
        n_conv = len(self.conv)
        # layer i reads pads[i] and writes its output to pads[i + 1]. A
        # padded input is dead once its columns are built, so without a
        # cache one buffer serves every layer; a training step keeps each
        # for the backward but the last, whose columns stay in place
        if want_cache:
            cache = {"conv": [], "fc": []}
            self._reserve(B, T)
            pads = [f"pad{i}" for i in range(n_conv - 1)] + ["spare", "spare"]
            pres = [f"pre{i}" for i in range(n_conv)]
        else:
            cache = None
            pads, pres = ["pad0"] * (n_conv + 1), ["pre0"] * n_conv
        hp = self._padded(pads[0], self.input_width, B, T, PAD)
        hp[:, :, PAD:PAD + T] = x.transpose(2, 0, 1)
        for i, (w, b) in enumerate(self.conv):
            O = len(w)
            cols = self._cols(hp, T)
            # keep the (C_out, B, T) memory order: the gradient sums that
            # derive from pre add in that order
            pre = np.dot(w.reshape(O, -1), cols, out=self._buf(pres[i], O, B * T))
            pre = pre.reshape(O, B, T).transpose(1, 2, 0)
            pre += b
            if want_cache:
                # the backward rebuilds a layer's columns from its padded
                # input; the last layer's are still in the column buffer
                cache["conv"].append((cols if i == n_conv - 1 else hp, pre))
            if i < n_conv - 1:
                hp = self._padded(pads[i + 1], O, B, T, PAD)
                elu(pre, out=hp[:, :, PAD:PAD + T].transpose(1, 2, 0))
            else:
                h = elu(pre, out=self._buf(pads[i + 1], O, B, T).transpose(1, 2, 0))
        n_fc = len(self.fc)
        for i, (w, b) in enumerate(self.fc):
            pre = h @ w.T
            pre += b
            if want_cache:
                cache["fc"].append((h, pre))
            h = pre if i == n_fc - 1 else elu(pre)
        return h, cache

    def _backward(self, dout: np.ndarray, cache) -> list[np.ndarray]:
        """Gradients w.r.t. every parameter, aligned with parameters().

        dout is dLoss/d(final pre-activation), (B, T, 6); all loss
        normalization is already folded into it. The cache is used up: each
        hidden layer's pre-activation is overwritten by its ELU gradient
        and, in the conv stack, then by the gradient at that layer's output.
        """
        B, T = dout.shape[:2]
        fc_grads: list[list[np.ndarray]] = [None] * len(self.fc)
        g = dout
        for i in reversed(range(len(self.fc))):
            w, _ = self.fc[i]
            h_in, _ = cache["fc"][i]
            fc_grads[i] = [
                np.einsum("bto,bti->oi", g, h_in, optimize=True),
                g.sum(axis=(0, 1)),
            ]
            g = g @ w  # gradient at this layer's input
            if i > 0:
                pre = cache["fc"][i - 1][1]
                g *= _elu_grad(pre, out=pre)

        conv = cache["conv"]
        conv_grads: list[list[np.ndarray]] = [None] * len(conv)
        # through the last conv's ELU, as a product of two temporaries: numpy
        # may store it in either (a large one goes into the ELU gradient's
        # (C_out, B, T) order), and the bias-gradient sum adds in that order
        g = g * _elu_grad(conv[-1][1])
        n = T + KERNEL - 1
        for i in reversed(range(len(conv))):
            w, _ = self.conv[i]
            O, C = w.shape[:2]
            src, _ = conv[i]
            cols = src if i == len(conv) - 1 else self._cols(src, T)
            dw = np.dot(cols, g.reshape(B * T, O))  # (C_in*K, C_out)
            conv_grads[i] = [dw.reshape(C, KERNEL, O).transpose(2, 0, 1), g.sum(axis=(0, 1))]
            if i > 0:
                # full correlation with the flipped kernel over all T+K-1
                # positions, then keep the T that line up with the input
                gp = self._padded("spare", O, B, T, KERNEL - 1)
                gp[:, :, KERNEL - 1:KERNEL - 1 + T] = g.transpose(2, 0, 1)
                w_flip = w[:, :, ::-1].transpose(1, 0, 2).reshape(C, O * KERNEL)
                dxpad = np.dot(w_flip, self._cols(gp, n), out=self._buf("spare", C, B * n))
                dx = dxpad.reshape(C, B, n).transpose(1, 2, 0)[:, PAD:PAD + T]
                pre = conv[i - 1][1]
                g = np.multiply(dx, _elu_grad(pre, out=pre), out=pre)

        flat: list[np.ndarray] = []
        for dw, db in conv_grads + fc_grads:
            flat += [dw, db]
        return flat

    def forward(self, features: np.ndarray) -> Prediction:
        """Predict per-foot forces for one clip's (T, D) feature matrix."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ValidationError(f"features must be (T, D), got {features.shape}")
        out, _ = self._forward(features[None])
        T = len(features)
        return Prediction(forces=out[0].reshape(T, 2, 3))

    def loss_and_grads(
        self,
        features: np.ndarray,
        plate_force: np.ndarray,
        valid: np.ndarray,
        phys_bw: np.ndarray,
        lambda1: float,
        lambda2: float,
    ):
        """Composite loss over a batch of windows plus analytic gradients.

        features (B, T, D); plate_force (B, T, 2, 3) with NaN allowed at
        invalid frames; valid (B, T) bool; phys_bw (B, T, 3). Returns
        (loss, term1, term2, grads) with terms averaged over the batch.
        """
        out, cache = self._forward(features, want_cache=True)
        B, T = out.shape[:2]
        pred = out.reshape(B, T, 2, 3)
        term1, term2, dpred = _loss_terms(
            pred, plate_force, valid, phys_bw, lambda1, lambda2, want_grad=True
        )
        grads = self._backward(dpred.reshape(B, T, OUT_WIDTH), cache)
        return float(term1 + term2), float(term1), float(term2), grads


def _loss_terms(
    pred: np.ndarray,
    plate_force: np.ndarray,
    valid: np.ndarray,
    phys_bw: np.ndarray,
    lambda1: float,
    lambda2: float,
    want_grad: bool = False,
):
    """Both composite-loss terms, averaged over the leading batch axis.

    Invalid frames are dropped from the plate term by boolean masking (their
    stored values are never touched, so NaN placeholders cannot leak) and
    the term renormalizes by each window's valid-frame count. The physics
    term uses every frame.
    """
    B, T = pred.shape[:2]
    valid = np.asarray(valid, dtype=bool)
    mask = valid[:, :, None, None]
    plate_safe = np.where(mask, plate_force, 0.0)
    diff1 = (pred - plate_safe) * mask
    counts = valid.sum(axis=1).astype(float)
    w1 = np.zeros(B)
    has_valid = counts > 0
    w1[has_valid] = lambda1 / counts[has_valid]
    term1 = float(((diff1**2).sum(axis=(1, 2, 3)) * w1).mean())

    diff2 = pred.sum(axis=2) - phys_bw
    term2 = float(((diff2**2).sum(axis=(1, 2)) * (lambda2 / T)).mean())

    if not want_grad:
        return term1, term2, None
    dpred = diff1 * (2.0 * w1 / B)[:, None, None, None]
    dpred = dpred + (diff2 * (2.0 * lambda2 / (T * B)))[:, :, None, :]
    return term1, term2, dpred


def composite_loss(
    pred: Prediction | np.ndarray,
    plate: ForcePlateRecord,
    phys_force_bw: np.ndarray,
    cfg: TrainConfig,
) -> float:
    """Composite objective for one clip; every force input in body weights.

    The physics series from the dynamics module is mass-normalized
    (acceleration units) and must go through to_bodyweight before it gets
    here; train() does that conversion.
    """
    pred = np.asarray(getattr(pred, "forces", pred), dtype=float)
    phys = np.asarray(phys_force_bw, dtype=float)
    if not (len(pred) == len(plate) == len(phys)):
        raise ValidationError(
            f"misaligned lengths: pred {len(pred)}, plate {len(plate)}, phys {len(phys)}"
        )
    t1, t2, _ = _loss_terms(
        pred[None],
        plate.per_foot_force[None],
        plate.valid_mask[None],
        phys[None],
        cfg.lambda1,
        cfg.lambda2,
    )
    return float(t1 + t2)


class Adam:
    """Adam with bias correction; updates parameters in place."""

    def __init__(self, params: Sequence[np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            p -= self.lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + self.eps)


@dataclass(frozen=True)
class TrainLogRow:
    epoch: int
    train_loss: float
    term1: float
    term2: float
    test_vgrf_l: float
    test_vgrf_r: float
    test_vrpe: float


def write_train_log(log: Sequence[TrainLogRow], path: str | Path) -> None:
    _write_table(path, [f.name for f in fields(TrainLogRow)], map(astuple, log))


def train(
    dataset: Dataset,
    cfg: TrainConfig,
    split: tuple[Sequence[str], str],
    gains: PDGains = PDGains(70.0, 3.0),
    gravity: GravitySpec | None = None,
    mode: SimMode = "closed_loop",
) -> tuple[TemporalConvNet, list[TrainLogRow]]:
    """Train on the given subjects and evaluate each epoch on the held-out one.

    Windows of cfg.window_len frames are drawn at seeded random offsets each
    epoch (clips shorter than the window contribute themselves whole) and
    optimized with Adam. The physics supervision series is computed once per
    clip with the given gains and converted to body weights. The whole run
    is a pure function of (dataset, cfg, split, gains, gravity, mode).
    """
    gravity = gravity or GravitySpec()
    train_subjects, test_subject = split
    train_keep = set(train_subjects)
    train_set = [e for e in dataset if e.clip.subject_id in train_keep and e.plate is not None]
    if not train_set:
        raise ValidationError("empty training set (no clips with plate data)")
    test_set = [e for e in dataset if e.clip.subject_id == test_subject]

    widths = {e.clip.feature_width for e in list(train_set) + list(test_set)}
    if len(widths) != 1:
        raise ValidationError(f"inconsistent feature widths across clips: {sorted(widths)}")
    D = widths.pop()

    prepared = []
    for e in train_set:
        phys_bw = to_bodyweight(physics_force_series(e.clip, gains, gravity, mode))
        prepared.append(
            (e.clip.features, e.plate.per_foot_force, e.plate.valid_mask, phys_bw)
        )

    net = TemporalConvNet(D, cfg.conv_channels, cfg.fc_widths, seed=cfg.seed)
    adam = Adam(net.parameters(), cfg.learning_rate)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))

    log: list[TrainLogRow] = []
    for epoch in range(1, cfg.epochs + 1):
        windows: list[tuple[int, int, int]] = []
        for ci, (feat, _, _, _) in enumerate(prepared):
            T = len(feat)
            wl = min(cfg.window_len, T)
            n_win = max(1, int(round(T / cfg.window_len)))
            offsets = rng.integers(0, T - wl + 1, size=n_win)
            windows += [(ci, int(o), wl) for o in offsets]
        order = rng.permutation(len(windows))
        windows = [windows[i] for i in order]
        by_len: dict[int, list[tuple[int, int, int]]] = {}
        for wdw in windows:
            by_len.setdefault(wdw[2], []).append(wdw)

        sums = np.zeros(3)
        n_seen = 0
        batch = 0
        for wl in sorted(by_len):
            group = by_len[wl]
            for start in range(0, len(group), cfg.batch_size):
                batch += 1
                chunk = group[start:start + cfg.batch_size]
                feats = np.stack([prepared[ci][0][o:o + wl] for ci, o, _ in chunk])
                plate = np.stack([prepared[ci][1][o:o + wl] for ci, o, _ in chunk])
                valid = np.stack([prepared[ci][2][o:o + wl] for ci, o, _ in chunk])
                phys = np.stack([prepared[ci][3][o:o + wl] for ci, o, _ in chunk])
                loss, t1, t2, grads = net.loss_and_grads(
                    feats, plate, valid, phys, cfg.lambda1, cfg.lambda2
                )
                if not math.isfinite(loss):
                    raise ValidationError(
                        f"non-finite training loss ({loss}) at epoch {epoch}, batch {batch}"
                    )
                adam.step(net.parameters(), grads)
                sums += np.array([loss, t1, t2]) * len(chunk)
                n_seen += len(chunk)
        train_loss, term1, term2 = (sums / max(n_seen, 1)).tolist()

        if test_set:
            scores = np.array(
                [
                    evaluate_prediction(e.clip, e.plate, net.forward(e.clip.features).forces, gravity)
                    for e in test_set
                ]
            )
            vgrf_l, vgrf_r, test_vrpe = scores.mean(axis=0).tolist()
        else:
            vgrf_l = vgrf_r = test_vrpe = float("nan")
        log.append(
            TrainLogRow(epoch, train_loss, term1, term2, vgrf_l, vgrf_r, test_vrpe)
        )
    net._ws.clear()  # a returned net holds no training-sized buffers
    return net, log


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _decode(text: str, shape: tuple[int, ...]) -> np.ndarray:
    raw = np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8")
    if raw.size != int(np.prod(shape)):
        raise CheckpointError(f"parameter blob has {raw.size} values, expected {shape}")
    return raw.reshape(shape).copy()


def save_checkpoint(net: TemporalConvNet, cfg: TrainConfig, path: str | Path) -> None:
    """Versioned JSON container; parameters as little-endian float64 blobs."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "input_width": net.input_width,
        "conv_channels": list(net.conv_channels),
        "fc_widths": list(net.fc_widths),
        "train_config": asdict(cfg),
        "conv_layers": [{"weights": _encode(w), "bias": _encode(b)} for w, b in net.conv],
        "fc_layers": [{"weights": _encode(w), "bias": _encode(b)} for w, b in net.fc],
        # choices the architecture text leaves open, recorded for reproducibility
        "notes": {
            "optimizer": "adam(beta1=0.9, beta2=0.999, eps=1e-8)",
            "padding": "zero, same-length",
            "init": "weights uniform(+-sqrt(1/fan_in)), biases zero",
            "activation": "elu after every conv and the first two fc layers",
        },
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> tuple[TemporalConvNet, TrainConfig]:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # unreadable, undecodable or bad JSON
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} is not supported (expected {CHECKPOINT_VERSION})"
        )
    try:
        tc = doc["train_config"]
        cfg = TrainConfig(**{f.name: tc[f.name] for f in fields(TrainConfig)})
        widths = (tuple(doc["conv_channels"]), tuple(doc["fc_widths"]))
        if widths != (cfg.conv_channels, cfg.fc_widths):
            raise ValidationError(f"widths {widths} differ from the train_config's")
        net = TemporalConvNet(doc["input_width"], *widths, seed=0)
        blobs = (doc["conv_layers"], doc["fc_layers"])
        if [len(b) for b in blobs] != [len(net.conv), len(net.fc)]:
            raise CheckpointError(
                f"checkpoint {path} has {len(blobs[0])} conv and {len(blobs[1])} fc layers, "
                f"expected {len(net.conv)} and {len(net.fc)}"
            )
        for layers, layer_blobs in zip((net.conv, net.fc), blobs):
            for layer, blob in zip(layers, layer_blobs):
                layer[0] = _decode(blob["weights"], layer[0].shape)
                layer[1] = _decode(blob["bias"], layer[1].shape)
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise CheckpointError(
            f"malformed checkpoint {path}: {type(exc).__name__}: {exc}"
        ) from None
    return net, cfg


_PREDICTION_HEADER = ("t", "L_fx", "L_fy", "L_fz", "R_fx", "R_fy", "R_fz")


def write_prediction_csv(pred: Prediction, path: str | Path, frame_rate: float) -> None:
    """Per-frame per-foot body-weight forces: t,L_fx..L_fz,R_fx..R_fz."""
    T = len(pred)
    times = np.arange(T) / frame_rate
    _write_rows(path, _PREDICTION_HEADER, np.column_stack([times, pred.forces.reshape(T, 6)]))


def load_prediction_csv(path: str | Path) -> Prediction:
    path = Path(path)
    lines = _read_lines(path)
    if not lines or lines[0] != ",".join(_PREDICTION_HEADER):
        raise ValidationError(f"{path}: not a prediction file")
    data = _read_rows(path, lines, _PREDICTION_HEADER)
    return Prediction(forces=data[:, 1:].reshape(len(data), 2, 3))

