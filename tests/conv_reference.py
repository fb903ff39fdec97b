"""Reference forward and backward passes of TemporalConvNet, with every conv
layer written as an einsum over sliding-window views.

This is the direct form of the convolution: each layer contracts a
(B, T, C_in, K) window view of the zero-padded input with the (C_out, C_in, K)
weights, and the input gradient correlates the doubly padded output
gradient with the flipped kernel. ELU and its derivative are written with
np.where on fresh arrays. The network's column-matrix GEMMs and in-place
activations must match it bit for bit.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from physgrd.grf_model import KERNEL, PAD


def elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def _elu_grad(pre):
    return np.where(pre > 0, 1.0, np.exp(np.minimum(pre, 0.0)))


def forward(net, x):
    """(output (B, T, 6), cache) for a (B, T, D) batch."""
    cache = {"conv": [], "fc": []}
    h = x
    for w, b in net.conv:
        hp = np.pad(h, ((0, 0), (PAD, PAD), (0, 0)))
        win = sliding_window_view(hp, KERNEL, axis=1)  # (B, T, C_in, K)
        pre = np.einsum("btck,ock->bto", win, w, optimize=True) + b
        cache["conv"].append((win, pre))
        h = elu(pre)
    n_fc = len(net.fc)
    for i, (w, b) in enumerate(net.fc):
        pre = h @ w.T + b
        cache["fc"].append((h, pre))
        h = pre if i == n_fc - 1 else elu(pre)
    return h, cache


def backward(net, dout, cache):
    """Gradients aligned with net.parameters() for dLoss/d(output) dout."""
    T = dout.shape[1]
    fc_grads = [None] * len(net.fc)
    g = dout
    for i in reversed(range(len(net.fc))):
        w, _ = net.fc[i]
        h_in, _ = cache["fc"][i]
        fc_grads[i] = [np.einsum("bto,bti->oi", g, h_in, optimize=True), g.sum(axis=(0, 1))]
        g = g @ w
        if i > 0:
            g = g * _elu_grad(cache["fc"][i - 1][1])

    conv_grads = [None] * len(net.conv)
    # stored in the network's (C_out, B, T) memory order, in which the bias
    # gradient's sum adds
    B, O = g.shape[0], len(net.conv[-1][0])
    g = np.multiply(g, _elu_grad(cache["conv"][-1][1]),
                    out=np.empty((O, B, T)).transpose(1, 2, 0))
    for i in reversed(range(len(net.conv))):
        w, _ = net.conv[i]
        win, _ = cache["conv"][i]
        conv_grads[i] = [
            np.einsum("bto,btck->ock", g, win, optimize=True),
            g.sum(axis=(0, 1)),
        ]
        if i > 0:
            gp = np.pad(g, ((0, 0), (KERNEL - 1, KERNEL - 1), (0, 0)))
            gw = sliding_window_view(gp, KERNEL, axis=1)  # (B, T+K-1, C_out, K)
            dxpad = np.einsum("btok,ock->btc", gw, w[:, :, ::-1], optimize=True)
            g = dxpad[:, PAD:PAD + T] * _elu_grad(cache["conv"][i - 1][1])

    flat = []
    for dw, db in conv_grads + fc_grads:
        flat += [dw, db]
    return flat
