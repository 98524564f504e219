"""Closed-form objectives and gradients, written apart from the package.

Replays and oracle checks take their references from here.  The chained
bowl is evaluated in the same floating-point order as the package, so a
replay that must match a run bit for bit can use it too.
"""

import numpy as np


def bowl_grad(scale, x):
    """Gradient of sum_j [scale * (x_{j+1} - x_j^2)^2 + (1 - x_j)^2]."""
    gap = x[1:] - x[:-1] * x[:-1]
    grad_gap = np.zeros(x.shape)
    grad_gap[:-1] = -4.0 * x[:-1] * gap
    grad_gap[1:] += 2.0 * gap
    grad_base = np.zeros(x.shape)
    grad_base[:-1] = -2.0 * (1.0 - x[:-1])
    return scale * grad_gap + grad_base


def bowl_value(scale, x):
    gap = x[1:] - x[:-1] * x[:-1]
    miss = 1.0 - x[:-1]
    return scale * float(gap @ gap) + float(miss @ miss)


def softmax_grad(features, label, x):
    """Cross-entropy gradient of one sample, flat like the parameter vector."""
    W = x.reshape(features.size, -1)
    z = features @ W
    p = np.exp(z - z.max())
    p /= p.sum()
    p[label] -= 1.0
    return np.outer(features, p).ravel()


def softmax_loss(features, label, x):
    z = features @ x.reshape(features.size, -1)
    return float(np.log(np.exp(z - z.max()).sum()) - (z[label] - z.max()))
