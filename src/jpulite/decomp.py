"""Parity split/merge/reduce and the dilated-vs-stride stage composers.

A "stage" is one leading 3x3 convolution (the head) followed by n 3x3 body
convolutions. Run with a dilation-2 body it is the dilated form of a backbone
stage; run with a stride-2 head and a regular body it is the stride form. Both
factor through the same intermediate feature, which is what the checkers here
verify numerically:

  * the dilated body equals split -> regular body per phase -> merge; the
    composer runs the four phases as one batch of 4n samples, with the bytes
    of running each alone, since a conv's GEMMs are per sample and of sizes
    the batch does not change,
  * a stride-2 conv equals the full conv followed by even-index subsampling,
  * the stride stage output is exactly the even-even phase of the dilated one.

All identities hold exactly (up to float roundoff) under zero padding with
padding = dilation; inputs with odd spatial dims are rejected rather than
padded so the phase decomposition stays clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .conv import ConvSpec, ConvWeights, conv2d
from .tensor import ShapeError, Tensor


def split_parity(x: Tensor) -> tuple[Tensor, ...]:
    """The four parity phases x[..., a::2, b::2], in row-major (a, b) order."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"parity split needs even spatial dims, got {(h, w)}")
    d = x.data
    return tuple(Tensor(np.ascontiguousarray(d[:, :, a::2, b::2])) for a in (0, 1) for b in (0, 1))


def merge_parity(phases: Sequence[Tensor]) -> Tensor:
    """Interleave four phases of one shape, given in split_parity's (a, b) order."""
    shapes = [t.shape for t in phases]
    if len(shapes) != 4 or len(set(shapes)) != 1:
        raise ShapeError(f"parity merge needs four phases of one shape, got {shapes}")
    n, c, hh, hw = shapes[0]
    out = np.empty((n, c, 2 * hh, 2 * hw), dtype=phases[0].dtype)
    for k, t in enumerate(phases):
        out[:, :, k // 2::2, k % 2::2] = t.data
    return Tensor(out)


def reduce_even(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"even reduction needs even spatial dims, got {(h, w)}")
    return Tensor(np.ascontiguousarray(x.data[:, :, 0::2, 0::2]))


# ---------------------------------------------------------------------------
# stage composers


@dataclass(frozen=True, eq=False)
class StageWeights:
    """Head conv (3x3) plus an n-deep chain of 3x3 body convs, all size-preserving."""

    head: ConvWeights
    body: list[ConvWeights]

    @property
    def in_channels(self) -> int:
        return self.head.weight.shape[1]

    @property
    def channels(self) -> int:
        return self.head.weight.shape[0]


@lru_cache(maxsize=256, typed=True)  # every composer call asks; a handful of stage geometries recur
def stage_specs(in_channels: int, channels: int, depth: int, stride: int, head_dilation: int, body_dilation: int):
    """(head spec, body specs) of one stage: a 3x3 head of the given stride and
    dilation, then `depth` size-preserving 3x3 body convs; padding = dilation.
    The only place a stage's geometry is written."""
    head = ConvSpec(in_channels, channels, kernel=(3, 3), stride=(stride, stride),
                    dilation=(head_dilation, head_dilation), padding=(head_dilation, head_dilation))
    body = ConvSpec(channels, channels, kernel=(3, 3),
                    dilation=(body_dilation, body_dilation), padding=(body_dilation, body_dilation))
    return head, (body,) * depth


DILATED_OS, STRIDE_OS = 8, 32  # where each wiring's output stride stops


def frozen(output_stride: int, stride: int, target: int) -> tuple[int, int]:
    """(stride, dilation) of a conv of stride `stride` that reads a map at
    `output_stride` of the fully strided network, in a wiring that stops at output
    stride `target`: DILATED_OS, or STRIDE_OS, where the backbones drop no stride.
    Every stride dropped before a conv dilates it (DeepLab's atrous rule), so its
    output is a phase of the strided one. Each conv of either wiring asks it."""
    held = min(output_stride, target)
    return min(output_stride * stride, target) // held, output_stride // held


class StageOutput(NamedTuple):
    y: Tensor


def _run_body(y: Tensor, sw: StageWeights, specs) -> Tensor:
    for bw, spec in zip(sw.body, specs):
        y = conv2d(y, bw, spec)
    return y


def _run_stage(x: Tensor, sw: StageWeights, stride: int, head_dilation: int, body_dilation: int) -> StageOutput:
    head, body = stage_specs(sw.in_channels, sw.channels, len(sw.body), stride, head_dilation, body_dilation)
    return StageOutput(_run_body(conv2d(x, sw.head, head), sw, body))


def dilated_stage(x: Tensor, sw: StageWeights, head_dilation: int = 1, body_dilation: int = 2) -> StageOutput:
    """Regular (or dilated) head then a dilated body chain; spatial dims preserved."""
    return _run_stage(x, sw, 1, head_dilation, body_dilation)


def dilated_stage_decomposed(x: Tensor, sw: StageWeights) -> StageOutput:
    """Same result as dilated_stage (body dilation 2) via split -> regular body
    -> merge, the four phases running through the body as one batch, phase
    after phase."""
    head, body = stage_specs(sw.in_channels, sw.channels, len(sw.body), 1, 1, 1)
    phases = split_parity(conv2d(x, sw.head, head))
    y = _run_body(Tensor(np.concatenate([p.data for p in phases])), sw, body).data
    n = x.shape[0]
    return StageOutput(merge_parity([Tensor(y[k * n : (k + 1) * n]) for k in range(4)]))


def stride_stage(x: Tensor, sw: StageWeights) -> StageOutput:
    """Stride-2 head then a regular body chain; spatial dims halved."""
    return _run_stage(x, sw, 2, 1, 1)


@dataclass(frozen=True)
class ConsistencyReport:
    max_abs_diff: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_abs_diff <= self.tolerance


def check_phase_consistency(x: Tensor, sw: StageWeights, tolerance: float = 1e-12) -> ConsistencyReport:
    """The stride-path output must be exactly the even-even phase of the dilated one."""
    y_d = dilated_stage(x, sw).y
    y_s = stride_stage(x, sw).y
    diff = float(np.max(np.abs(reduce_even(y_d).data - y_s.data)))
    return ConsistencyReport(diff, tolerance)
