"""Computed work counts for physgrd's kernels, derived from shapes alone.

Nothing here is measured. FLOPs count a multiply and an add for every
multiply-accumulate of the conv and FC contractions; bias adds, ELUs and
padding are left out. Window bytes are the float64 bytes of the
sliding-window views handed to each conv einsum, which einsum copies into a
contiguous operand before its GEMM, so they approximate the bytes those
copies move.
"""

from __future__ import annotations

from physgrd.grf_model import KERNEL, OUT_WIDTH

F64_BYTES = 8


def _shapes(net) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(in, out) widths of the conv layers and of the FC layers."""
    widths = [net.input_width, *net.conv_channels]
    conv = list(zip(widths[:-1], widths[1:]))
    fc_widths = [net.conv_channels[-1], *net.fc_widths, OUT_WIDTH]
    fc = list(zip(fc_widths[:-1], fc_widths[1:]))
    return conv, fc


def forward_counts(net, batch: int, frames: int) -> tuple[int, int]:
    """(flops, window_bytes) of one forward pass over a (batch, frames, D) input."""
    conv, fc = _shapes(net)
    bt = batch * frames
    flops = sum(2 * bt * ci * KERNEL * co for ci, co in conv)
    flops += sum(2 * bt * fi * fo for fi, fo in fc)
    window_bytes = sum(bt * ci * KERNEL * F64_BYTES for ci, _ in conv)
    return flops, window_bytes


def train_step_counts(net, batch: int, frames: int) -> tuple[int, int]:
    """(flops, window_bytes) of one loss_and_grads call: forward plus backward.

    The backward pass forms every weight gradient, the input gradient of
    every FC layer, and the input gradient of every conv layer but the
    first, which correlates a (frames + KERNEL - 1)-long padded window.
    """
    flops, window_bytes = forward_counts(net, batch, frames)
    conv, fc = _shapes(net)
    bt = batch * frames
    padded = batch * (frames + KERNEL - 1)
    flops += sum(4 * bt * fi * fo for fi, fo in fc)
    flops += sum(2 * bt * ci * KERNEL * co for ci, co in conv)
    flops += sum(2 * padded * co * KERNEL * ci for ci, co in conv[1:])
    window_bytes += sum(bt * ci * KERNEL * F64_BYTES for ci, _ in conv)
    window_bytes += sum(padded * co * KERNEL * F64_BYTES for _, co in conv[1:])
    return flops, window_bytes


def integrator_steps(clips, n_cells: int = 1) -> int:
    """Semi-implicit Euler steps to simulate every clip once per gain cell."""
    return n_cells * sum(max(len(clip) - 1, 0) for clip in clips)
