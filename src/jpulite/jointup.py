"""Closed-form joint upsampling with a per-pixel channel-affine hypothesis class.

Given low-res guidance x_l, low-res target y_l, and high-res guidance x_h, fit
the affine map h minimizing the summed squared error ||y_l - h(x_l)||^2 over
pixels (normal equations with the fixed Tikhonov damping `DAMPING` on the Gram
matrix), then apply it per pixel to x_h. This is the linear oracle for what the
learned upsampling module approximates: the guidance is the pre-downsampling
feature and the target is the stride-path output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor

DAMPING = 1e-8  # added to the Gram matrix's diagonal


class DegenerateProblemError(ValueError):
    """Guidance Gram matrix unusable even after damping."""


@dataclass(frozen=True, eq=False)
class LinearMap:
    matrix: np.ndarray  # (target_channels, guidance_channels)
    bias: np.ndarray  # (target_channels,)

    def apply(self, x: Tensor) -> Tensor:
        out = np.einsum("tc,nchw->nthw", self.matrix.astype(x.dtype), x.data)
        out += self.bias[None, :, None, None].astype(x.dtype)
        return Tensor(out)


@dataclass(frozen=True, eq=False)
class JointUpsampleResult:
    map: LinearMap
    y_h: Tensor
    residual: float  # RMS of the minimized objective on (x_l, y_l)


def _pixels(x: Tensor) -> np.ndarray:
    """(n*h*w, c) matrix of per-pixel channel vectors."""
    n, c, h, w = x.shape
    return x.data.transpose(0, 2, 3, 1).reshape(n * h * w, c)


def solve_joint_upsample(x_l: Tensor, y_l: Tensor, x_h: Tensor) -> JointUpsampleResult:
    if x_l.shape[0] != y_l.shape[0] or x_l.shape[2:] != y_l.shape[2:]:
        raise ShapeError(f"guidance {x_l.shape} and target {y_l.shape} must share (n, h, w)")
    if x_h.shape[1] != x_l.shape[1]:
        raise ShapeError(f"high-res guidance has {x_h.shape[1]} channels, expected {x_l.shape[1]}")
    gc = x_l.shape[1]
    X = _pixels(x_l).astype(np.float64)
    Y = _pixels(y_l).astype(np.float64)
    if X.shape[0] < gc + 1:
        raise ShapeError(f"{X.shape[0]} pixels cannot determine {gc}+1 affine coefficients")
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    gram = Xa.T @ Xa + DAMPING * np.eye(gc + 1)
    try:
        sol = np.linalg.solve(gram, Xa.T @ Y)  # (gc+1, tc)
    except np.linalg.LinAlgError as e:
        raise DegenerateProblemError(str(e)) from e
    if not np.all(np.isfinite(sol)):
        raise DegenerateProblemError("non-finite least-squares solution")
    mapping = LinearMap(matrix=sol[:gc].T.copy(), bias=sol[gc].copy())
    pred = Xa @ sol
    residual = float(np.sqrt(np.mean((Y - pred) ** 2)))
    return JointUpsampleResult(mapping, mapping.apply(x_h), residual)
