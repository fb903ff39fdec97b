"""Central finite-difference check of TemporalConvNet's analytic gradients."""

import numpy as np

from physgrd.grf_model import TemporalConvNet, _loss_terms


def gradient_check(
    net: TemporalConvNet,
    features: np.ndarray,
    plate_force: np.ndarray,
    valid: np.ndarray,
    phys_bw: np.ndarray,
    lambda1: float = 1.0,
    lambda2: float = 1.0,
    step: float = 1e-6,
) -> np.ndarray:
    """Relative error of every analytic gradient entry against central
    finite differences of the composite loss. Returns a flat array, one
    value per parameter entry."""

    def loss_only() -> float:
        out, _ = net._forward(features)
        B, T = out.shape[:2]
        t1, t2, _ = _loss_terms(
            out.reshape(B, T, 2, 3), plate_force, valid, phys_bw, lambda1, lambda2
        )
        return t1 + t2

    _, _, _, grads = net.loss_and_grads(
        features, plate_force, valid, phys_bw, lambda1, lambda2
    )
    errs: list[float] = []
    for p, g in zip(net.parameters(), grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            up = loss_only()
            flat_p[i] = orig - step
            down = loss_only()
            flat_p[i] = orig
            numeric = (up - down) / (2.0 * step)
            # floor keeps finite-difference roundoff on near-zero gradients
            # from registering as disagreement
            denom = max(abs(numeric) + abs(flat_g[i]), 1e-5)
            errs.append(abs(numeric - flat_g[i]) / denom)
    return np.array(errs)
