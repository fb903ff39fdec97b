"""Temporal-convolution force predictor trained with a composite loss.

The network is four 1D temporal convolutions (kernel 7, zero-padded to
preserve length) followed by three frame-wise fully-connected layers, with
an ELU after every convolution and after the first two FC layers. It maps
per-frame feature vectors to per-foot 3D reaction forces in body-weight
units (output width 6 = 2 feet x 3 components).

Each convolution is a GEMM on an im2col column matrix: the layer input,
zero-padded and laid out channels first, gives a (C_in*K, B*T) matrix
whose row c*K + k, column b*T + t holds padded frame t + k of channel c,
and the (C_out, C_in*K) weights multiply it. The backward pass multiplies
the matrix, rebuilt from the layer's padded input, by the output gradient
for the weight gradient, and correlates the doubly padded output
gradient's column matrix with the flipped kernel over all T+K-1 positions
for the input gradient. Operand order and memory layout match what numpy's
einsum hands BLAS for the same contractions, so the results are
bit-identical to the direct einsum form (tests/conv_reference.py).

No column matrix is held whole. Each GEMM builds and multiplies it one
span at a time, writing into its slice of the preallocated result: the
forward and input-gradient GEMMs split along their output columns, the
flattened b*T + t axis (so a span may start or end inside a window), and
the weight-gradient GEMM along the matrix's rows. A training step's spans
hold at most _SPAN_VALUES values (16 MB), forward()'s at most
_INFERENCE_SPAN_VALUES (4 MB). The budgets differ because the costs do.
Every weight-gradient span repacks the whole (B*T, C_out) output gradient
inside BLAS, so narrower row spans cost time, and since "cols" holds a
row span that wide anyway, a step's column spans take the same budget (at
4 MB their extra GEMM calls made a canonical step 8% slower). Inference
builds no row span, and a (128 x 896) @ (896 x N) GEMM runs at one rate
for every N from 448 to 1000, so a wider inference span buys no speed,
only memory. Two rules, measured on OpenBLAS, keep the bits of the whole
GEMM, whatever the budget. An element's bits depend on the micro-kernel
tile that computes it, so every cut falls on a multiple of 64 lines, and
the spans are nearly equal with the ragged lines in the last, which is
never the short one. Output columns past the last multiple of 8 come from
edge kernels whose bits depend on the span that holds them, so a matrix
with such columns is not split along them. A span holds at least 64 lines
even where that exceeds the budget (a weight gradient with B*T > 32768).

The conv stack runs in a workspace held by the net: named, flat,
grow-only float64 buffers, each viewed at the shape a use needs, so
repeated calls do not allocate (and page-fault) its large arrays again.
One padded buffer, "pad", takes each conv layer's input in turn: the
features, then the ELU of the previous layer's pre-activation, and after
the last conv GEMM the stack's output (fc0's input). A training step also
uses "cols", one column-matrix span, which from the last conv GEMM to the
backward's first weight-gradient span holds the hidden FC layers'
pre-activations instead (and grows where they need more than a span);
three slots, "pre1".."pre3", with conv layers 1..3's pre-activations,
which the backward overwrites with their ELU gradient and then with the
gradient at the layer's output, all in the (C_out, B, T) memory order;
and "grad", the padded output gradient of one column span's windows.
Layer 0's pre-activation is dead once layer 1's input is built:
the forward writes it into "pre3" before layer 3 does, and the backward
recomputes it there, with the same bits, once layer 3's gradient is used.
So a step keeps only the conv output and three pre-activations, and the
backward recomputes every ELU output it needs: each FC layer's input just
before that layer's weight gradient, and each conv layer's input, refilled
into "pad" from the features or a pre-activation not yet overwritten, with
the same bits. The backward writes fc0's input gradient over the conv
output, and each conv layer's input gradient over "pad" (the (C, B, T+K-1)
shape is the same) once that layer's weight gradient is done. forward()
uses "pre3" for every layer. A training step holds no workspace view in a
local across a call that may regrow that buffer, so a regrow frees the old
storage first.
Outside the workspace, a step frees each transient at its last use, and
train() drops a batch's gradients after its Adam step.

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
import math
from collections.abc import Collection, Iterable
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import GravitySpec, PDGains, SimMode, physics_force_series, to_bodyweight
from .errors import NON_NEGATIVE, POSITIVE, CheckpointError, NoValidFramesError, ValidationError
from .errors import check_int, check_range
from .metrics import evaluate_prediction
from .motion_data import Dataset, ForcePlateRecord, _check_cells, _check_finite, _check_subjects
from .motion_data import _frame_times, _gravity, _instance, _numeric, _read_json, _read_table
from .motion_data import _readonly
from .motion_data import _write_json, _write_rows, _write_table

KERNEL = 7
PAD = KERNEL // 2
OUT_WIDTH = 6  # two feet x three force components
MAX_WIDTH = 1024  # widest layer, input included: one 1024x1024 conv weight is 59 MB
_SPAN_VALUES = 2**21  # column-matrix values (16 MB) one span of a training step builds at most
_INFERENCE_SPAN_VALUES = 2**19  # the same (4 MB) for a span of forward()
_ALIGN = 64  # GEMM spans are cut at multiples of this many rows or columns
CHECKPOINT_VERSION = 1
DEFAULT_GAINS = PDGains(70.0, 3.0)  # train's physics-series gains, and the CLI's --kp/--kd


def _windows(hp: np.ndarray, n: int) -> np.ndarray:
    """(C, K, B, n) view of a padded (C, B, n + K - 1) buffer, [c, k, b, t] =
    hp[c, b, k + t]: reshaped to (C*K, B*n) it is the column matrix (im2col)."""
    return sliding_window_view(hp, n, axis=2).transpose(0, 2, 1, 3)


def _pieces(start: int, stop: int, length: int) -> list[tuple[int, int, int, int]]:
    """Cut the flat range start..stop of a grid `length` wide into at most
    three (row, rows, col, cols) blocks: the end of a partial first row,
    the whole rows, and the start of a partial last row."""
    out = []
    row, col = divmod(start, length)
    if col:
        cols = min(length - col, stop - start)
        out.append((row, 1, col, cols))
        start += cols
        row += 1
    rows = (stop - start) // length
    if rows:
        out.append((row, rows, 0, length))
        start += rows * length
        row += rows
    if start < stop:
        out.append((row, 1, 0, stop - start))
    return out


def _spans(lines: int, line_values: int, budget: int) -> list[tuple[int, int]]:
    """Cut `lines` lines of `line_values` values each into the fewest
    nearly equal GEMM spans of at most `budget` values, or of one unit of
    _ALIGN lines (the last with the ragged lines) where that holds more.

    Every cut falls on a multiple of _ALIGN lines and the ragged lines past
    the last one join the last span, whose unit count is never below the
    others', so no short span ends the matrix.
    """
    units = max(1, lines // _ALIGN)
    per = max(1, (budget // line_values - lines % _ALIGN) // _ALIGN)
    n = -(-units // per)
    q, extra = divmod(units, n)
    cuts = [_ALIGN * (q * k + max(0, k - (n - extra))) for k in range(1, n)]
    return list(zip([0, *cuts], [*cuts, lines]))


def _column_spans(columns: int, rows: int, budget: int) -> list[tuple[int, int]]:
    """_spans of a (rows, columns) column matrix split along its columns,
    which are the GEMM's output columns. OpenBLAS computes the output
    columns past the last multiple of 8 with edge kernels whose bits
    depend on the span that holds them, so such a matrix stays whole."""
    return _spans(columns, rows, budget) if columns % 8 == 0 else [(0, columns)]


def elu(x: np.ndarray | float, out: np.ndarray | None = None):
    """ELU with alpha = 1: x for x > 0, exp(x) - 1 otherwise.

    Computed as max(x, expm1(min(x, 0))), which is exact because
    expm1(x) >= x. With out (which must not overlap x) the result is
    written there.
    """
    arr = _numeric("x", x, None)
    if out is None:
        out = np.empty_like(arr)
    np.expm1(np.minimum(arr, 0.0, out=out), out=out)
    np.maximum(arr, out, out=out)
    return float(out) if out.ndim == 0 else out


def _elu_grad(pre: np.ndarray) -> np.ndarray:
    """ELU derivative exp(min(pre, 0)), exactly 1.0 where pre > 0, computed
    in place: pre is overwritten and returned."""
    np.minimum(pre, 0.0, out=pre)
    return np.exp(pre, out=pre)


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
        # integers are stored as ints, so that asdict(self) is JSON for numpy ints too
        for name, lo in (("epochs", 1), ("batch_size", 1), ("window_len", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo))
        for name in ("conv_channels", "fc_widths"):
            widths = tuple(check_int(name, w, 1, MAX_WIDTH) for w in getattr(self, name))
            object.__setattr__(self, name, widths)
        check_range("learning_rate", self.learning_rate, POSITIVE)
        check_range("lambda1", self.lambda1, NON_NEGATIVE)
        check_range("lambda2", self.lambda2, NON_NEGATIVE)
        if len(self.conv_channels) != 4 or len(self.fc_widths) != 2:
            raise ValidationError("architecture is fixed at four conv and three FC layers")


@dataclass(frozen=True)
class Prediction:
    """Per-frame per-foot force prediction, (T, 2, 3), body weights, T >= 1."""

    forces: np.ndarray

    def __post_init__(self):
        if len(_readonly(self, "forces", (None, 2, 3), finite=True)) < 1:
            raise ValidationError("prediction must have at least one frame")

    def __len__(self) -> int:
        return len(self.forces)

    def total_force(self) -> np.ndarray:
        """Summed two-foot force, (T, 3), body weights."""
        return self.forces.sum(axis=1)


class TemporalConvNet:
    """4 x conv(kernel 7, same padding) -> 3 x frame-wise FC, ELU inside.

    Weights initialize uniform in +-sqrt(1/fan_in) from the given seed;
    biases start at zero.
    """

    def __init__(
        self,
        input_width: int,
        conv_channels: Sequence[int] = TrainConfig.conv_channels,
        fc_widths: Sequence[int] = TrainConfig.fc_widths,
        seed: int = 0,
    ):
        seed = check_int("seed", seed, lo=0)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6E7)))

        def layer(shape: tuple[int, ...]) -> list[np.ndarray]:
            limit = math.sqrt(1.0 / math.prod(shape[1:]))  # fan_in
            return [rng.uniform(-limit, limit, size=shape), np.zeros(shape[0])]

        self._build(input_width, conv_channels, fc_widths, layer)

    def _build(self, input_width: int, conv_channels: Sequence[int], fc_widths: Sequence[int],
               layer: Callable[[tuple[int, ...]], list[np.ndarray]]) -> None:
        """Check the widths and make each layer's [W, b] with layer(W's
        shape), in order: the conv weights (out, in, KERNEL), then the FC
        weights (out, in). __init__ draws them; load_checkpoint decodes them."""
        if len(conv_channels) != 4 or len(fc_widths) != 2:
            raise ValidationError("architecture is fixed at four conv and three FC layers")
        self.input_width = check_int("input_width", input_width, 1, MAX_WIDTH)
        self.conv_channels = tuple(check_int("conv_channels", c, 1, MAX_WIDTH)
                                   for c in conv_channels)
        self.fc_widths = tuple(check_int("fc_widths", w, 1, MAX_WIDTH) for w in fc_widths)

        self.conv: list[list[np.ndarray]] = []
        in_ch = self.input_width
        for out_ch in self.conv_channels:
            self.conv.append(layer((out_ch, in_ch, KERNEL)))
            in_ch = out_ch
        self.fc: list[list[np.ndarray]] = []
        for out_w in (*self.fc_widths, OUT_WIDTH):
            self.fc.append(layer((out_w, in_ch)))
            in_ch = out_w
        self._ws: dict[str, np.ndarray] = {}  # the conv workspace, see _buf

    def _buf(self, name: str, *shape: int) -> np.ndarray:
        """Workspace buffer `name` viewed at shape; its values are stale.

        Each buffer is flat and grow-only: it is replaced, the old storage
        dropped first, only when shape needs more values than it holds.
        """
        size = math.prod(shape)
        if name not in self._ws or self._ws[name].size < size:
            self._ws.pop(name, None)
            self._ws[name] = np.empty(size)
        return self._ws[name][:size].reshape(shape)

    def _padded(self, name: str, C: int, B: int, T: int, pad: int) -> np.ndarray:
        """Channels-first (C, B, T + 2*pad) buffer with zeroed pad frames;
        the caller fills frames pad..pad+T."""
        hp = self._buf(name, C, B, T + 2 * pad)
        hp[:, :, :pad] = 0.0
        hp[:, :, pad + T:] = 0.0
        return hp

    def _cols(self, win: np.ndarray, rows: tuple[int, int],
              cols: tuple[int, int]) -> np.ndarray:
        """Rows r0..r1, columns s..e of the column matrix of a window view
        (see _windows), copied into the workspace's "cols" buffer with at
        most three copies per axis: a partial channel or window at each
        end and the whole ones between."""
        (r0, r1), (s, e) = rows, cols
        n = win.shape[3]
        out = self._buf("cols", r1 - r0, e - s)
        i = 0
        for c, nc, k, nk in _pieces(r0, r1, KERNEL):
            j = 0
            for b, nb, t, nt in _pieces(s, e, n):
                out[i:i + nc * nk, j:j + nb * nt].reshape(nc, nk, nb, nt)[...] = (
                    win[c:c + nc, k:k + nk, b:b + nb, t:t + nt])
                j += nb * nt
            i += nc * nk
        return out

    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays in a fixed order (conv then FC, W then b)."""
        out: list[np.ndarray] = []
        for w, b in self.conv + self.fc:
            out += [w, b]
        return out

    def _conv_input(self, i: int, src: np.ndarray) -> np.ndarray:
        """Conv layer i's padded (C, B, T + K - 1) input, written into the
        workspace's one "pad" buffer: the (B, T, D) features for layer 0,
        the ELU of layer i - 1's (B, T, C) pre-activation for the others."""
        B, T, C = src.shape
        hp = self._padded("pad", C, B, T, PAD)
        if i == 0:
            hp[:, :, PAD:PAD + T] = src.transpose(2, 0, 1)
        else:
            elu(src, out=hp[:, :, PAD:PAD + T].transpose(1, 2, 0))
        return hp

    def _conv_pre(self, i: int, src: np.ndarray, name: str, budget: int) -> np.ndarray:
        """Conv layer i's (B, T, C_out) pre-activation from its source (see
        _conv_input), in workspace buffer name, one column span of at most
        budget values at a time. It keeps the (C_out, B, T) memory order: the
        gradient sums that derive from it add in that order."""
        w, b = self.conv[i]
        O = len(w)
        B, T = src.shape[:2]
        a = w.reshape(O, -1)
        win = _windows(self._conv_input(i, src), T)
        out = self._buf(name, O, B * T)
        # one span of output columns at a time
        for s, e in _column_spans(B * T, a.shape[1], budget):
            np.matmul(a, self._cols(win, (0, a.shape[1]), (s, e)), out=out[:, s:e])
        pre = out.reshape(O, B, T).transpose(1, 2, 0)
        pre += b
        return pre

    def _input_grad(self, w: np.ndarray, g: np.ndarray, out: np.ndarray) -> None:
        """Write into out, a (C, B, T + K - 1) buffer, the full correlation
        of the (B, T, C_out) output gradient g with the flipped kernel of
        conv weights w over all T+K-1 positions. Each span of output
        columns pads only its own windows b0..b1 of g, in "grad"."""
        O, C = w.shape[:2]
        B, T = g.shape[:2]
        n = T + KERNEL - 1
        w_flip = w[:, :, ::-1].transpose(1, 0, 2).reshape(C, O * KERNEL)
        spans = _column_spans(B * n, O * KERNEL, _SPAN_VALUES)
        gp = self._padded("grad", O, max(-(-e // n) - s // n for s, e in spans), T, KERNEL - 1)
        win = _windows(gp, n)
        out = out.reshape(C, B * n)
        for s, e in spans:
            b0, b1 = s // n, -(-e // n)
            gp[:, :b1 - b0, KERNEL - 1:KERNEL - 1 + T] = g[b0:b1].transpose(2, 0, 1)
            # no local holds the span: the next _cols call may regrow "cols"
            np.matmul(w_flip, self._cols(win, (0, O * KERNEL), (s - b0 * n, e - b0 * n)),
                      out=out[:, s:e])

    def _forward(self, x: np.ndarray, want_cache: bool = False):
        # forward and loss_and_grads have checked that x is (B, T, input_width)
        if 0 in x.shape[:2]:
            raise ValidationError(f"input needs a window and a frame, got {x.shape}")
        B, T = x.shape[:2]
        finite = np.isfinite(x).all(axis=(1, 2))
        if not finite.all():
            b = int(finite.argmin())
            _check_finite("features" if B == 1 else f"features[{b}]", x[b])
        n_conv = len(self.conv)
        # a padded input is dead once its GEMM is done, so "pad" takes each
        # layer's input in turn. A training step keeps the features and the
        # pre-activations of layers 1.., from which the backward refills
        # "pad". Layer 0's pre-activation is dead once layer 1's input is
        # built: it shares the last layer's slot, as does every layer of
        # inference, and the backward recomputes it
        cache = {"x": x, "pre": [None], "fc": []} if want_cache else None
        budget = _SPAN_VALUES if want_cache else _INFERENCE_SPAN_VALUES
        pre = x
        for i in range(n_conv):
            pre = self._conv_pre(i, pre, f"pre{i if want_cache and i else n_conv - 1}", budget)
            if want_cache and i:
                cache["pre"].append(pre)
        # "pad" is idle after the last conv GEMM: it takes the stack's output
        h = elu(pre, out=self._buf("pad", pre.shape[2], B, T).transpose(1, 2, 0))
        if want_cache:
            cache["h"] = h
            # "cols" is idle from the last conv GEMM to the backward's first
            # weight-gradient span: it keeps the hidden FC pre-activations,
            # from which the backward recomputes their ELU
            fc_pre = self._buf("cols", B * T * sum(self.fc_widths))
        n_fc = len(self.fc)
        for i, (w, b) in enumerate(self.fc):
            if want_cache and i < n_fc - 1:
                pre = np.matmul(h, w.T, out=fc_pre[:B * T * len(w)].reshape(B, T, -1))
                fc_pre = fc_pre[pre.size:]
                cache["fc"].append(pre)
            else:
                pre = h @ w.T
            pre += b
            h = pre if i == n_fc - 1 else elu(pre)
        return h, cache

    def _backward(self, dout: np.ndarray, cache) -> list[np.ndarray]:
        """Gradients w.r.t. every parameter, aligned with parameters().

        dout is dLoss/d(final pre-activation), (B, T, 6); all loss
        normalization is already folded into it. The cache is used up: each
        hidden layer's pre-activation is overwritten by its ELU gradient and,
        in the conv stack, then by the gradient at that layer's output.
        Conv layer 0's pre-activation, which the cache does not hold, is
        recomputed.
        """
        B, T = dout.shape[:2]
        fc_grads: list[list[np.ndarray]] = [None] * len(self.fc)
        fc_pres = cache.pop("fc")
        g = dout
        for i in reversed(range(len(self.fc))):
            w, _ = self.fc[i]
            # layer i's input: the conv output, or the ELU of the layer below's
            # pre-activation, recomputed for this product only
            h = elu(fc_pres[i - 1]) if i else cache.pop("h")
            fc_grads[i] = [np.einsum("bto,bti->oi", g, h, optimize=True), g.sum(axis=(0, 1))]
            del h
            if i > 0:
                g = g @ w  # gradient at this layer's input
                g *= _elu_grad(fc_pres[i - 1])
            else:
                # fc0's input, the conv output, is dead: its "pad" buffer
                # takes the gradient
                g = np.matmul(g, w, out=self._buf("pad", B, T, w.shape[1]))
        del fc_pres  # "cols" is idle now

        pres = cache["pre"]
        n_conv = len(pres)
        conv_grads: list[list[np.ndarray]] = [None] * n_conv
        # through the last conv's ELU in place, like the layers below: the
        # gradient takes the pre-activation's (C_out, B, T) order
        pre = pres[-1]
        g = np.multiply(g, _elu_grad(pre), out=pre)
        for i in reversed(range(n_conv)):
            w, _ = self.conv[i]
            O, C = w.shape[:2]
            if i == 1:
                # layer 0's pre-activation, recomputed with the forward's bits
                # into the slot the forward wrote it to, dead since the last
                # layer's input gradient
                pres[0] = self._conv_pre(0, cache["x"], f"pre{n_conv - 1}", _SPAN_VALUES)
            # fc0's or layer i + 1's input gradient is over "pad":
            # rebuild layer i's input from the features or a pre-activation
            # not yet overwritten
            hp = self._conv_input(i, pres[i - 1] if i else cache["x"])
            g2 = g.reshape(B * T, O)
            dw = np.empty((C * KERNEL, O))
            win = _windows(hp, T)
            for r0, r1 in _spans(C * KERNEL, B * T, _SPAN_VALUES):
                np.matmul(self._cols(win, (r0, r1), (0, B * T)), g2, out=dw[r0:r1])
            conv_grads[i] = [dw.reshape(C, KERNEL, O).transpose(2, 0, 1), g.sum(axis=(0, 1))]
            if i > 0:
                # layer i's input gradient, written over its padded input
                # (dead now, and of the same shape); keep the T frames that
                # line up with the input
                self._input_grad(w, g, hp)
                dx = hp[:, :, PAD:PAD + T].transpose(1, 2, 0)
                pre = pres[i - 1]
                g = np.multiply(dx, _elu_grad(pre), out=pre)

        flat: list[np.ndarray] = []
        for dw, db in conv_grads + fc_grads:
            flat += [dw, db]
        return flat

    def forward(self, features: np.ndarray) -> Prediction:
        """Predict per-foot forces for one clip's (T, D) feature matrix."""
        features = _numeric("features", features, (None, self.input_width))
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

        features (B, T, D); plate_force (B, T, 2, 3), not infinite, NaN allowed
        at invalid frames; valid (B, T) bool; phys_bw (B, T, 3), finite. Returns
        (loss, term1, term2, grads) with terms averaged over the batch.
        """
        features = _numeric("features", features, (None, None, self.input_width))
        B, T = features.shape[:2]
        plate_force = _numeric("plate_force", plate_force, (B, T, 2, 3), finite=True, nan_ok=True)
        valid = _numeric("valid", valid, (B, T), bool)
        phys_bw = _numeric("phys_bw", phys_bw, (B, T, 3), finite=True)
        check_range("lambda1 and lambda2", (lambda1, lambda2), NON_NEGATIVE)
        out, cache = self._forward(features, want_cache=True)
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
    pred: np.ndarray,
    plate: ForcePlateRecord,
    phys_force_bw: np.ndarray,
    cfg: TrainConfig,
) -> float:
    """Composite objective for one clip; every force input in body weights.

    The physics series from the dynamics module is mass-normalized
    (acceleration units) and must go through to_bodyweight before it gets
    here; train() does that conversion. Both force inputs must be finite.
    """
    T = len(_instance("plate", plate, ForcePlateRecord))
    _instance("cfg", cfg, TrainConfig)
    pred = _numeric("pred", pred, (T, 2, 3), finite=True)
    phys = _numeric("phys_force_bw", phys_force_bw, (T, 3), finite=True)
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

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: Sequence[np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            # m = beta1 * m + (1 - beta1) * g, and likewise v, in place
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


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
    rows = [_instance("log row", row, TrainLogRow) for row in _instance("log", log, Iterable)]
    _write_table(path, [f.name for f in fields(TrainLogRow)], map(astuple, rows))


def train(
    dataset: Dataset,
    cfg: TrainConfig,
    split: tuple[Sequence[str], str],
    gains: PDGains = DEFAULT_GAINS,
    gravity: GravitySpec | None = None,
    mode: SimMode = "closed_loop",
) -> tuple[TemporalConvNet, list[TrainLogRow]]:
    """Train on the split's subjects, all in the dataset, and test each epoch on the held-out one.

    Windows of cfg.window_len frames are drawn at seeded random offsets each
    epoch (clips shorter than the window contribute themselves whole) and
    optimized with Adam. The physics supervision series is computed once per
    clip with the given gains and converted to body weights. The whole run
    is a pure function of (dataset, cfg, split, gains, gravity, mode).
    """
    _instance("dataset", dataset, Dataset)
    _instance("cfg", cfg, TrainConfig)
    gravity = _gravity(gravity)
    if not (isinstance(split, (tuple, list)) and len(split) == 2
            and isinstance(split[0], Collection) and isinstance(split[1], str)):
        raise ValidationError(
            f"split must be a (training subjects, test subject) pair, got {split!r}")
    train_subjects, test_subject = split
    if isinstance(train_subjects, str):  # not its characters
        raise ValidationError(f"training subjects must be a collection of ids, got the string "
                              f"{train_subjects!r}")
    if test_subject in train_subjects:  # its held-out metrics would score training clips
        raise ValidationError(f"test subject {test_subject!r} is also a training subject")
    _check_subjects(dataset, [*train_subjects, test_subject])
    train_keep = set(train_subjects)
    train_set = [e for e in dataset if e.clip.subject_id in train_keep and e.plate is not None]
    if not train_set:
        raise ValidationError("empty training set (no clips with plate data)")
    test_set = [e for e in dataset if e.clip.subject_id == test_subject]
    for e in test_set:  # each epoch scores every held-out plate
        if e.plate is not None and not e.plate.valid_mask.any():
            raise NoValidFramesError(f"held-out clip '{e.clip.subject_id}/{e.clip.motion_label}' "
                                     "has no valid plate frames to score against")

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
    # a diverging run is caught by the loss and prediction checks, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
                    del grads  # not held through the next batch's step
                    sums += np.array([loss, t1, t2]) * len(chunk)
                    n_seen += len(chunk)
            train_loss, term1, term2 = (sums / max(n_seen, 1)).tolist()

            if test_set:
                scores = []
                for e in test_set:
                    try:  # the clip's features are finite, so only a diverged net fails here
                        pred = net.forward(e.clip.features)
                    except ValidationError as err:
                        raise ValidationError(
                            f"non-finite held-out prediction at epoch {epoch}, clip "
                            f"'{e.clip.subject_id}/{e.clip.motion_label}' ({err})") from err
                    scores.append(evaluate_prediction(e.clip, e.plate, pred.forces, gravity))
                vgrf_l, vgrf_r, test_vrpe = np.array(scores).mean(axis=0).tolist()
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
        raise ValueError(f"parameter blob has {raw.size} values, expected {shape}")
    return raw.reshape(shape).copy()


def save_checkpoint(net: TemporalConvNet, cfg: TrainConfig, path: str | Path) -> None:
    """Versioned JSON container; parameters as little-endian float64 blobs."""
    _instance("net", net, TemporalConvNet)
    _instance("cfg", cfg, TrainConfig)
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
    _write_json(path, doc)


def load_checkpoint(path: str | Path) -> tuple[TemporalConvNet, TrainConfig]:
    try:
        doc = _read_json(Path(path), "checkpoint", CheckpointError)
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path}: checkpoint is not a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version!r} is not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    try:
        tc = doc["train_config"]
        cfg = TrainConfig(**{f.name: tc[f.name] for f in fields(TrainConfig)})
        widths = (tuple(doc["conv_channels"]), tuple(doc["fc_widths"]))
        if widths != (cfg.conv_channels, cfg.fc_widths):
            raise ValidationError(f"widths {widths} differ from the train_config's")
        conv, fc = doc["conv_layers"], doc["fc_layers"]
        if [len(conv), len(fc)] != [len(widths[0]), len(widths[1]) + 1]:
            raise ValidationError(
                f"{len(conv)} conv and {len(fc)} fc layers, "
                f"expected {len(widths[0])} and {len(widths[1]) + 1}"
            )
        blobs = iter([*conv, *fc])

        def layer(shape: tuple[int, ...]) -> list[np.ndarray]:
            blob = next(blobs)
            weights, bias = blob["weights"], blob["bias"]
            del blob["weights"], blob["bias"]  # the document drops each blob as it is decoded
            return [_decode(weights, shape), _decode(bias, shape[:1])]

        # built from the blobs, without the random draw of __init__
        net = TemporalConvNet.__new__(TemporalConvNet)
        net._build(doc["input_width"], *widths, layer)
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise CheckpointError(
            f"{path}: malformed checkpoint: {type(exc).__name__}: {exc}"
        ) from None
    return net, cfg


_PREDICTION_HEADER = ("t", "L_fx", "L_fy", "L_fz", "R_fx", "R_fy", "R_fz")


def write_prediction_csv(pred: Prediction, path: str | Path, frame_rate: float) -> None:
    """Per-frame per-foot body-weight forces: t,L_fx..L_fz,R_fx..R_fz."""
    T = len(_instance("pred", pred, Prediction))
    _write_rows(path, _PREDICTION_HEADER,
                np.column_stack([_frame_times(T, frame_rate), pred.forces.reshape(T, 6)]))


def load_prediction_csv(path: str | Path) -> Prediction:
    return _load_prediction(path)[1]


def _load_prediction(path: str | Path) -> tuple[np.ndarray, Prediction]:
    """load_prediction_csv, and the file's time column."""
    path = Path(path)
    data = _read_table(path, lambda n: _PREDICTION_HEADER)
    _check_cells(path, _PREDICTION_HEADER, data, slice(1, None))  # t: motion_data._aligned
    return data[:, 0], Prediction(forces=data[:, 1:].reshape(len(data), 2, 3))

