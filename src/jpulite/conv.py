"""2-D convolution (regular / dilated / strided / grouped / depthwise) with exact gradients.

Forward and backward share one tap walk ("shift-GEMM", no full column matrix). The
zero-padded input is written once into a buffer of its stride phases, each
flattened to rows of one common pitch, with the samples one after another in
each channel's line, and the output is computed on a "wide" grid of that
pitch. Neighbouring rows and samples share one zero band: the zeros after one
row's input are the padding before the next row's, and the zero rows below
one sample are the padding above the next, so a row is only as wide as its
input plus the wider of its two paddings (or the output, if that is wider).
Each kernel tap then reads one contiguous slice of one phase per sample,
`slot` cells apart from sample to sample, and is one BLAS `matmul` per
sample, accumulated in a fixed tap order; the wide grid's extra columns are
dropped. Padding is always zero padding, and every conv adds a per-channel
bias (a BatchNorm folded in for inference is one).

The backward puts grad_out on the wide grid of the whole stacked line, zero
in the columns and rows the forward drops. A tap's weight gradient is then
one GEMM, `slice @ grad` over the whole batch at once. The input gradient
starts at zero, and each tap, in the forward's order, adds its `grad @ W`
into its phase, reading the grid shifted back by its offset: the adjoint of
the forward's slices, with no scatter. A phase no tap reads stays zero. The
grid keeps the output channels innermost, so each sample's part of that
product is a GEMM of the same shape and strides whatever the batch, and runs
as one. `conv2d_weight_grads` runs only the weight-gradient GEMMs, for a conv
whose input needs no gradient; its weight and bias gradients are
`conv2d_backward`'s, byte for byte.

Only the taps that read input at some output position run. A tap whose every
read lands in the padding contributes exact zeros, so it is skipped, its
weight gradient is 0, and the buffer holds only the padding the running taps
reach: at a rate of at least the map size a 3x3 filter runs as its centre tap
alone, the 1x1 degeneracy DeepLabv3 notes. Against running every tap, only
the sign of an exact zero can change and, where the buffer gets narrower, how
BLAS rounds GEMMs of the new width. A non-finite weight on a skipped tap no
longer turns the output into NaN. `count_macs=True` and the cost model still
count every tap. The weights are held per running tap only: each pass
gathers them once, as (groups, cg_out, taps, cg_in) in tap order, and the
backward scatters their gradients once into a zeroed kernel.

Inputs with at most 8 channels per group (a stem on RGB, depthwise convs) are
too thin for one GEMM per tap: the forward copies each row block's live taps
into a column block (unrolled convolution, Chellapilla et al. 2006) and sums
all taps in one GEMM against the gathered weights read as one (cg_out, taps x
cg_in) matrix, the split Anderson et al. 2017 measure between thin and wide
inputs. At stride 1 the live taps are one grid, dilation x pitch cells apart
down and dilation across, so the block is filled by one copy from one strided
view of the phase buffer, (sample, group, kernel row, kernel column,
channel, cell); at larger strides, by one copy per tap. Their outputs match
the per-tap sum to rounding, not bit for bit; wider convs, and the backward,
run one GEMM per tap. A 1x1 output with one output channel per group also
reads the column block, whatever its width (see below).

All scratch of both directions (phase buffers, accumulators, column block,
the stacked gradient grid) lives in one workspace per thread
(`threading.local`) that grows to the largest size the thread has needed and
is kept, so a forward allocates nothing but its output and a backward nothing
but its gradients. Those are always new arrays, never views of the
workspace, so the Tensors they become can still be shared across threads.
`relu=True` applies the ReLU in place on the forward's output.

Each thread also keeps one plan per (pass, spec, input shape, dtype), built
on the first call, like an FFTW plan: every view of the workspace that pass
reads or writes. For the forward, those are the phase buffer's zero bands
and input slots, and per row block the accumulator and column-block slices,
each tap's read (or the stride-1 block read) and the output columns kept.
For the backward, they are the gradient grid and the part grad_out fills,
and per tap its phase read, weight-gradient slot, shifted grid and input
gradient phase. A later call builds no view of the workspace: it runs its
copies and GEMMs, in the tap walk's order, through the plan's views. When
the workspace grows, every plan is dropped, so none keeps old memory alive;
past `_PLAN_LIMIT` plans the oldest is dropped. A plan is a few kB of numpy
views, one per tap and row block.

Sums inside a tap are up to BLAS: results are byte-identical on one machine at
a fixed BLAS thread count and agree to rounding elsewhere. How OpenBLAS rounds
a column can also depend on the GEMM's width, so a new row pitch can move
outputs by rounding even where K stays the same. Every sample of a
batch goes through GEMMs of the same sizes, so neither its output nor its
input gradient depends on the rest of the batch (a GEMM over the whole batch
would round the columns at its end differently, and a 1-pixel map's as a dot
product of other strides). Only the row stride of a forward GEMM's input,
one phase line, grows with the batch. That stride picks the BLAS kernel of
a dot product, the per-sample product of a 1x1 output with one output
channel per group, so that product reads the column block, whose stride does
not grow. The tests that compare each sample of a batch with a conv of that
sample alone, byte for byte, back this. The weight gradient sums the batch
inside one GEMM per tap, so it matches the sum of per-sample weight
gradients to rounding, not bit for bit.

`count_macs=True` runs apart from the tap walk: it unrolls every tap of the
zero-padded input, dead ones included, into windows up to kh x kw times the
padded input's size, runs one GEMM per group and returns the multiplies those
GEMMs perform, read off their operand shapes. Its output agrees with the
walk's to rounding. It is for tests and traced runs: the windows of the
traced 256x256 forwards' convs are up to 7.1 MB (24 channels at 64x64).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import Rng, ShapeError, Tensor, _is_count, _is_int


def _is_pair(v) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and all(map(_is_int, v))


@dataclass(frozen=True)
class ConvSpec:
    in_channels: int
    out_channels: int
    kernel: tuple[int, int] = (3, 3)
    stride: tuple[int, int] = (1, 1)
    dilation: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    groups: int = 1

    def __post_init__(self):
        for name in ("in_channels", "out_channels", "groups"):
            if not _is_count(getattr(self, name)):
                raise ShapeError(f"{name} must be a positive int, got {getattr(self, name)!r}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ShapeError(
                f"channels ({self.in_channels}, {self.out_channels}) not divisible by groups={self.groups}"
            )
        for name in ("kernel", "stride", "dilation", "padding"):
            if not _is_pair(getattr(self, name)):
                raise ShapeError(f"{name} must be a tuple of two ints, got {getattr(self, name)!r}")
        for name in ("kernel", "stride", "dilation"):
            if any(v < 1 for v in getattr(self, name)):
                raise ShapeError(f"{name} must be >= 1")
        if any(p < 0 for p in self.padding):
            raise ShapeError("padding must be >= 0")

    def out_hw(self, in_hw: tuple[int, int]) -> tuple[int, int]:
        if not (isinstance(in_hw, (tuple, list)) and len(in_hw) == 2 and all(map(_is_count, in_hw))):
            raise ShapeError(f"input grid must be two positive ints, got {in_hw!r}")
        out = []
        for size, k, s, d, p in zip(in_hw, self.kernel, self.stride, self.dilation, self.padding):
            o = (size + 2 * p - d * (k - 1) - 1) // s + 1
            if o < 1:
                raise ShapeError(f"non-positive output dim for input {in_hw} with {self}")
            out.append(o)
        return tuple(out)

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels // self.groups, *self.kernel)


@dataclass(frozen=True, eq=False)
class ConvWeights:
    weight: Tensor  # (out_channels, in_channels/groups, kh, kw)
    bias: np.ndarray  # (out_channels,)

    def __post_init__(self):
        b = np.asarray(self.bias)
        if b.shape != (self.weight.shape[0],):
            raise ShapeError(f"bias shape {b.shape} vs out_channels {self.weight.shape[0]}")
        b.flags.writeable = False
        object.__setattr__(self, "bias", b)


def init_weights(spec: ConvSpec, rng: Rng, dtype=np.float64) -> ConvWeights:
    """Fan-in-scaled uniform init: bound = sqrt(1 / fan_in); zero biases."""
    o, cg, kh, kw = spec.weight_shape
    fan_in = cg * kh * kw
    bound = float(np.sqrt(1.0 / fan_in))
    w = rng.uniform(o * cg * kh * kw, -bound, bound).reshape(spec.weight_shape).astype(dtype)
    return ConvWeights(Tensor(w), np.zeros(o, dtype=dtype))


def _check_input(x: Tensor, w: ConvWeights, spec: ConvSpec) -> None:
    if x.shape[1] != spec.in_channels:
        raise ShapeError(f"input has {x.shape[1]} channels, spec wants {spec.in_channels}")
    if w.weight.shape != spec.weight_shape:
        raise ShapeError(f"weight shape {w.weight.shape} vs spec {spec.weight_shape}")


class _TapWalk:
    """The geometry conv2d and conv2d_backward share for one (spec, input shape);
    `_tap_walk` builds each one once.

    `taps` lists each tap that runs, the product of the kernel rows and columns
    `_axis_taps` keeps, as (phase row, phase column, flat offset in the
    phase), in the order both passes accumulate them; tap i's weights are
    those of kernel cell `kernel_taps[i]` (row * kw + column). `phases(x, buf)`
    writes the input, zero-padded only as far as those taps reach and split
    into its sh x sw stride phases, into a buffer of `shape`,
    (sh, sw, groups, cg_in, line). Each phase is one flat line per channel: a
    leading zero band of `base` cells, then one slot per sample of `slot_rows`
    rows of `pitch` cells, then a zero tail for the last tap's over-read. A
    row holds its input at the front and zeros behind it, and those zeros are
    also the leading padding of the next row; the rows below the input in a
    slot are the bottom padding, and also the top padding of the next
    sample's slot. So every tap reads whole rows of the wide output grid
    (pitch columns, at least the output's width) at one offset from the
    start of a sample's slot minus `base`: a tap at offset off reads every
    sample at once in one slice of length (n - 1) * slot + oh * pitch. Per
    axis, the pitch and the slot's rows are `_axis_layout`'s; a read never
    reaches another row's or sample's input.
    """

    def __init__(self, spec: ConvSpec, x_shape: tuple[int, int, int, int]):
        n, c, h, w = x_shape
        self.n, self.h, self.w = n, h, w
        self.oh, self.ow = spec.out_hw((h, w))
        axes = zip((h, w), spec.kernel, spec.stride, spec.dilation, spec.padding, (self.oh, self.ow), strict=True)
        (row_taps, (lo_h, hi_h)), (col_taps, (lo_w, hi_w)) = (_axis_taps(*axis) for axis in axes)
        sh, sw = spec.stride
        (self.slot_rows, lead_h, row_phases), (self.pitch, lead_w, col_phases) = (
            _axis_layout(*axis) for axis in ((h, sh, lo_h, hi_h, self.oh), (w, sw, lo_w, hi_w, self.ow))
        )
        self.slot = self.slot_rows * self.pitch
        self.base = lead_h * self.pitch + lead_w  # the leading zero band; tap offsets count from the line's start
        self.taps = tuple((a, b, r * self.pitch + q) for _, a, r in row_taps for _, b, q in col_taps)
        self.kernel_taps = np.array([u * spec.kernel[1] + v for u, *_ in row_taps for v, *_ in col_taps])
        # at stride 1 the live taps are one grid of (rows, columns), dilation·pitch cells
        # apart down and dilation across, that `block` reads as one view
        self.grid = (len(row_taps), len(col_taps)) if spec.stride == (1, 1) else None
        self.dilation = spec.dilation
        reach = max(off for *_, off in self.taps) - self.base  # the furthest a tap reads past a slot's start
        self.tail = max(0, reach + self.oh * self.pitch - self.slot)
        self.margin = max(0, reach)  # the backward's zeros before its gradient grid
        g, cg = spec.groups, c // spec.groups
        self.shape = (sh, sw, g, cg, self.base + n * self.slot + self.tail)
        # per phase: (where its slots hold input, the grouped-input view of what they hold)
        self.views = tuple(
            ((a, b, ..., rows, cols), (..., in_rows, in_cols))
            for a, rows, in_rows in row_phases
            for b, cols, in_cols in col_phases
        )
        # the rest of each phase's slots, zero: the rows above and below its
        # input, then the cells left and right of it in the input rows
        self.pads = tuple(
            (a, b, ..., *band)
            for (a, b, _, rows, cols), _ in self.views
            for band, size in (
                ((slice(0, rows.start), slice(None)), rows.start),
                ((slice(rows.stop, None), slice(None)), self.slot_rows - rows.stop),
                ((rows, slice(0, cols.start)), (rows.stop - rows.start) * cols.start),
                ((rows, slice(cols.stop, None)), (rows.stop - rows.start) * (self.pitch - cols.stop)),
            )
            if size > 0
        )
        # else `phases` zeroes only the bands around the input; with no bands the copy writes every cell
        self.zero_whole = w <= _ZERO_WHOLE_WIDTH and bool(self.pads or self.base or self.tail)

    def writes(self, buf: np.ndarray):
        """What `phases` writes into buf (of `shape`): the views it zeroes
        (the whole buffer, or the bands around the input), then per phase the
        view of its slots that holds input and the grouped-input index it reads."""
        slots = buf[..., self.base : self.base + self.n * self.slot]
        slots = slots.reshape(*buf.shape[:-1], self.n, self.slot_rows, self.pitch)
        if self.zero_whole:
            zeros = (buf,)
        else:
            zeros = tuple(slots[at] for at in self.pads)
            zeros += (buf[..., : self.base],) if self.base else ()
            zeros += (buf[..., -self.tail :],) if self.tail else ()
        return zeros, tuple((slots[at], src) for at, src in self.views)

    def phases(self, x: np.ndarray, writes) -> None:
        """Write the phase buffer of x through `writes(buf)`; buf may hold anything before."""
        zeros, copies = writes
        xg = x.reshape(self.n, *self.shape[2:4], *x.shape[2:]).transpose(1, 2, 0, 3, 4)
        for z in zeros:
            z[...] = 0
        for dst, src in copies:
            dst[...] = xg[src]

    def reads(self, slots: np.ndarray):
        """What `unphase` reads of slots, (sh, sw, n, groups, slot, cg_in): per
        phase the grouped-input index it fills and the view of its slots."""
        sh, sw, g, cg = self.shape[:4]
        slots = slots.reshape(sh, sw, self.n, g, self.slot_rows, self.pitch, cg).transpose(0, 1, 2, 3, 6, 4, 5)
        return tuple((src, slots[at]) for at, src in self.views)

    def unphase(self, reads) -> np.ndarray:
        """A new (n, c, h, w) array read out of each sample's slots through `reads(slots)`."""
        g, cg = self.shape[2:4]
        x = np.empty((self.n, g * cg, self.h, self.w), dtype=reads[0][1].dtype)
        xg = x.reshape(self.n, g, cg, self.h, self.w)
        for src, read in reads:
            xg[src] = read
        return x

    def samples(self, buf: np.ndarray) -> np.ndarray:
        """A phase buffer seen as (sh, sw, n, groups, cg_in, base + slot + tail):
        each sample's line starts `slot` cells after the previous sample's, so
        neighbouring lines overlap. Only read it."""
        s_a, s_b, s_g, s_c, cell = buf.strides
        shape = (*self.shape[:2], self.n, *self.shape[2:4], self.base + self.slot + self.tail)
        return np.ndarray(shape, buf.dtype, buf, 0, (s_a, s_b, self.slot * cell, s_g, s_c, cell))

    def tap(self, lines: np.ndarray, a: int, b: int, off: int, r0: int, r1: int) -> np.ndarray:
        """What a tap reads for wide output rows r0 to r1 of every sample, from
        `samples(buf)`: per sample one contiguous slice of phase (a, b)."""
        return lines[a, b, ..., off + r0 * self.pitch : off + r1 * self.pitch]

    def block(self, buf: np.ndarray, r0: int, r1: int) -> np.ndarray:
        """Every tap's read for wide output rows r0 to r1 at once, from the phase
        buffer of a stride-1 walk (one with a `grid`), as (n, groups, tap rows,
        tap columns, cg_in, cells): the column block's order."""
        s_g, s_c, cell = buf.strides[2:]
        (dh, dw), pitch = self.dilation, self.pitch
        shape = (self.n, self.shape[2], *self.grid, self.shape[3], (r1 - r0) * pitch)
        strides = (self.slot * cell, s_g, dh * pitch * cell, dw * cell, s_c, cell)
        return np.ndarray(shape, buf.dtype, buf, (self.taps[0][2] + r0 * pitch) * cell, strides)


@lru_cache(maxsize=1024)  # a walk is 8-12 us of Python; a handful of geometries recur, forward and backward
def _tap_walk(spec: ConvSpec, x_shape: tuple[int, int, int, int]) -> _TapWalk:
    return _TapWalk(spec, x_shape)


def _axis_taps(size: int, k: int, s: int, d: int, p: int, o: int):
    """One axis of the walk: (kernel index, stride phase, offset in the phase)
    for each tap that reads input, and the (low, high) zero padding they reach.

    Tap u reads input index u*d - p + s*i at output position i; it is kept if
    that lands in [0, size) for some i < o, tested at the first i that is not
    below the input. If no tap reads input, all are kept: the reads are all
    zeros then, so the result is the same.
    """

    def reads_input(e: int) -> bool:  # e: the index tap u reads at output position 0
        i = max(0, -(e // s))
        return i < o and e + s * i < size

    live = [u for u in range(k) if reads_input(u * d - p)] or list(range(k))
    lo = max(0, p - live[0] * d)
    hi = max(0, live[-1] * d - p + s * (o - 1) - (size - 1))
    return tuple((u, (u * d - p + lo) % s, (u * d - p + lo) // s) for u in live), (lo, hi)


def _axis_layout(size: int, stride: int, lo: int, hi: int, o: int):
    """One axis of the shared zero bands: (pitch, lead, phases).

    The axis padded by (lo, hi) splits into stride phases of `span` cells,
    phase a holding its t input cells behind t0 zeros. Laid out at a pitch
    of at least t + max(t0, span - t0 - t) per phase, a phase's zeros on
    either side of its input are the other side's zeros of its neighbour, so
    reads from t0 before its input to span - t0 after stay clear of any other
    input; the pitch is also at least the output size o. All phases sit
    `lead` (their fewest leading zeros) cells behind one shared band, so a tap
    offset is the same in every phase. `phases` lists per phase a: (a, its
    cells that hold input, the input indices they hold).
    """
    span = -(-(lo + size + hi) // stride)
    held = []
    for a in range(stride):
        t0 = max(0, -(-(lo - a) // stride))  # first cell of phase a inside the unpadded input
        start = a + t0 * stride - lo
        held.append((a, t0, len(range(start, size, stride)), slice(start, size, stride)))
    lead = min(t0 for _, t0, t, _ in held if t)
    pitch = max(o, *(t + max(t0, span - t0 - t) for _, t0, t, _ in held if t))
    return pitch, lead, tuple((a, slice(t0 - lead, t0 - lead + t), src) for a, t0, t, src in held)


# Cap on one sample's row-block accumulator. It sets the GEMM sizes, so a new
# value can change how BLAS rounds; with the blocks in the workspace, 64 KiB to
# 4 MiB ran the 256x256 forwards within 25% of each other, 256 KiB and 1 MiB fastest.
_BLOCK_BYTES = 1 << 18
# Inputs with at most this many channels per group copy their taps into one
# column block and run one GEMM with K = taps x channels: per-tap GEMMs that
# thin run far below BLAS speed.
_THIN_CHANNELS = 8

# Inputs at most this wide zero their whole phase buffer before the copy, if
# it has any padding: one fill beats a short strided band per row there, and
# not on wider maps.
_ZERO_WHOLE_WIDTH = 16

# Plans kept per thread; a new one past this many drops the oldest. A cycle
# through more geometries than this builds a plan on every call. The
# benchmark's `identity_checks` batch cycles through 230 (f64 and f32), a
# `train_64` run through 42, a `forward_256` operation through 20. A plan
# holds one numpy view per tap and row block, about 3 kB at 8x8 maps and 7 kB
# on average at 256x256, so a full cache is about 1-2 MB.
_PLAN_LIMIT = 256


class _Scratch(threading.local):
    """This thread's scratch memory (`mem`), its first 64-byte boundary
    (`start`) and the plans whose views are in it, by (pass, spec, input
    shape, dtype)."""

    def __init__(self):
        self.mem, self.start, self.plans = None, 0, {}


_scratch = _Scratch()


def _workspace(dtype, *shapes) -> list[np.ndarray]:
    """One C-contiguous view per shape, each 64-byte aligned, into this
    thread's scratch memory. The memory grows to the largest size the thread
    has asked for and is never given back, so a conv allocates nothing but
    its results; the next call on the thread overwrites it, so no array a
    conv returns may be a view of it. Growing it drops every plan, which
    holds views of the old memory."""
    itemsize = np.dtype(dtype).itemsize
    slots = [-(-math.prod(shape) * itemsize // 64) * 64 for shape in shapes]
    mem = _scratch.mem
    if mem is None or mem.size - _scratch.start < sum(slots):
        _scratch.plans.clear()
        mem = _scratch.mem = np.empty(sum(slots) + 63, dtype=np.uint8)
        _scratch.start = -mem.ctypes.data % 64
    views, at = [], _scratch.start
    for shape, slot in zip(shapes, slots):
        views.append(np.ndarray(shape, dtype, mem, at))
        at += slot
    return views


def _plan(build, spec: ConvSpec, x_shape: tuple[int, int, int, int], dtype):
    """This thread's plan of one pass (`_ForwardPlan` or `_BackwardPlan`) for
    (spec, input shape, dtype), built on first use."""
    key = (build, spec, x_shape, dtype)
    plan = _scratch.plans.get(key)
    if plan is None:
        plan = build(_tap_walk(spec, x_shape), spec, dtype)
        plans = _scratch.plans  # after the build, which may have grown the workspace and dropped them all
        if len(plans) >= _PLAN_LIMIT:
            del plans[next(iter(plans))]
        plans[key] = plan
    return plan


def _tap_weights(w: ConvWeights, spec: ConvSpec, walk: _TapWalk, dtype) -> np.ndarray:
    """The running taps' weights, in tap order, as a new (groups, cg_out, taps, cg_in) array."""
    o, cg = spec.weight_shape[:2]
    wt = w.weight.data.astype(dtype, copy=False).reshape(spec.groups, o // spec.groups, cg, -1)
    return wt.transpose(0, 1, 3, 2).take(walk.kernel_taps, axis=2)


def conv2d(x: Tensor, w: ConvWeights, spec: ConvSpec, count_macs: bool = False, relu: bool = False):
    """Convolution of an (n, c, h, w) input. With relu=True the ReLU is applied
    in place to the new output, byte-identical to relu(conv2d(...)). With
    count_macs=True it runs the unrolled convolution of `_counted_conv2d`
    instead and also returns the number of weight multiplies performed (for
    cost-model cross-checks)."""
    _check_input(x, w, spec)
    out, macs = _counted_conv2d(x, w, spec) if count_macs else (_forward(x.data, w, spec), None)
    if relu:
        np.maximum(out, 0, out=out)
    return (Tensor(out), macs) if count_macs else Tensor(out)


class _ForwardPlan:
    """The workspace views of one forward geometry: the phase buffer `buf`
    and its `writes`, and per row block of the wide output grid its output
    rows, its accumulator and tmp slices, the column block's (target, read)
    copies, each tap's read and the accumulator's columns kept in the output."""

    def __init__(self, walk: _TapWalk, spec: ConvSpec, dtype):
        n, g, o, pitch, taps = walk.n, spec.groups, spec.out_channels, walk.pitch, walk.taps
        cg = spec.in_channels // g
        # rows per block from one sample's size, so each sample's GEMMs are the same whatever the batch
        rows = max(1, min(walk.oh, _BLOCK_BYTES // (o * pitch * dtype.itemsize)))
        # A one-cell product with one output channel per group is a dot product, and BLAS
        # picks its kernel by the column's stride: one phase line, which grows with the
        # batch. The column block's stride does not, so that product reads the block.
        self.thin = (cg <= _THIN_CHANNELS and len(taps) > 1) or (o == g and rows * pitch == 1)
        acc_shape = (n, g, o // g, rows * pitch)
        # tmp: in the thin path the column block, each tap's cg rows in tap order
        tmp_shape = (n, g, len(taps) * cg, rows * pitch) if self.thin else acc_shape
        buf, acc, tmp = _workspace(dtype, walk.shape, acc_shape, tmp_shape)
        self.walk, self.buf, self.writes = walk, buf, walk.writes(buf)
        lines = walk.samples(buf)
        self.blocks = []
        for r0 in range(0, walk.oh, rows):
            r1 = min(walk.oh, r0 + rows)
            cells = (r1 - r0) * pitch
            acc_r, tmp_r = acc[..., :cells], tmp[..., :cells]
            if self.thin and walk.grid:  # every tap in one copy
                reads, copies = (), ((tmp.reshape(n, g, *walk.grid, cg, -1)[..., :cells], walk.block(buf, r0, r1)),)
            else:
                reads = tuple(walk.tap(lines, a, b, off, r0, r1) for a, b, off in taps)
                copies = tuple((tmp_r[:, :, i * cg : (i + 1) * cg], read) for i, read in enumerate(reads) if self.thin)
            kept = acc_r.reshape(n, o, r1 - r0, pitch)[..., : walk.ow]
            self.blocks.append((slice(r0, r1), acc_r, tmp_r, copies, reads, kept))


def _forward(x: np.ndarray, w: ConvWeights, spec: ConvSpec) -> np.ndarray:
    """The tap walk over row blocks of the wide output grid, in this thread's workspace."""
    plan = _plan(_ForwardPlan, spec, x.shape, x.dtype)
    walk, g, o = plan.walk, spec.groups, spec.out_channels
    walk.phases(x, plan.writes)
    wt = _tap_weights(w, spec, walk, x.dtype)
    out = np.empty((walk.n, o, walk.oh, walk.ow), dtype=x.dtype)
    for rows, acc, tmp, copies, reads, kept in plan.blocks:
        if plan.thin:  # the weights as (groups, cg_out, taps x cg_in), in the column block's order
            for target, read in copies:
                target[...] = read
            np.matmul(wt.reshape(g, o // g, -1), tmp, out=acc)
        else:
            for i, read in enumerate(reads):
                prod = np.matmul(wt[:, :, i], read, out=tmp if i else acc)
                if i:
                    acc += prod
        out[:, :, rows] = kept
    out += w.bias.astype(x.dtype, copy=False)[:, None, None]
    return out


def _counted_conv2d(x: Tensor, w: ConvWeights, spec: ConvSpec):
    """The unrolled convolution over every tap, dead ones included, counting
    every weight multiply: the zero-padded input's windows, (n, groups,
    cg_in·kh·kw, oh·ow), up to kh·kw times the padded input, times each group's
    weights in one `matmul`; the count is the multiplies those GEMMs perform,
    read off their operand shapes. It does not use the tap walk, so it counts
    the taps the walk skips."""
    n, _, h, wd = x.shape
    oh, ow = spec.out_hw((h, wd))
    (kh, kw), (sh, sw), (dh, dw), (ph, pw) = spec.kernel, spec.stride, spec.dilation, spec.padding
    g, cg_in, cg_out = spec.groups, spec.in_channels // spec.groups, spec.out_channels // spec.groups
    xp = np.zeros((n, g, cg_in, h + 2 * ph, wd + 2 * pw), dtype=x.dtype)
    xp[..., ph : ph + h, pw : pw + wd] = x.data.reshape(n, g, cg_in, h, wd)
    s_n, s_g, s_c, s_h, s_w = xp.strides
    strides = (s_n, s_g, s_c, dh * s_h, dw * s_w, sh * s_h, sw * s_w)
    windows = np.ndarray((n, g, cg_in, kh, kw, oh, ow), xp.dtype, xp, 0, strides)
    cols = windows.reshape(n, g, cg_in * kh * kw, oh * ow)  # a copy
    wt = w.weight.data.astype(x.dtype, copy=False).reshape(g, cg_out, cg_in * kh * kw)
    y = np.empty((n, g, cg_out, oh * ow), dtype=x.dtype)
    macs = 0
    for i in range(g):
        np.matmul(wt[i], cols[:, i], out=y[:, i])
        macs += cols.shape[0] * math.prod(wt[i].shape) * cols.shape[-1]
    y = y.reshape(n, spec.out_channels, oh, ow)
    y += w.bias[None, :, None, None].astype(x.dtype)
    return y, macs


def conv2d_backward(x: Tensor, w: ConvWeights, spec: ConvSpec, grad_out: Tensor):
    """Gradients of sum(grad_out * conv2d(x, w, spec)) w.r.t. x, weight, bias.

    grad_out sits on the stacked wide grid behind a zero margin, zero in the
    columns and rows past the output; a tap's read shifted back by its offset
    meets grad_out only at the outputs that read that input cell, so the
    sums are exact."""
    return _backward(x, w, spec, grad_out, True)


def conv2d_weight_grads(x: Tensor, w: ConvWeights, spec: ConvSpec, grad_out: Tensor):
    """conv2d_backward's weight and bias gradients, byte for byte, without
    its input gradient: for a conv whose input needs none (a fixed input),
    this skips about half of the backward's work."""
    return _backward(x, w, spec, grad_out, False)[1:]


class _BackwardPlan:
    """The workspace views of one backward geometry: the phase buffer `buf`
    and its `writes`, the stacked gradient grid, the part of it grad_out
    fills and the part a tap's weight-gradient GEMM reads, per running tap
    its read of the phase buffer, its weight-gradient slot, the grid shifted
    back by its offset and its phase of the input gradient, then the weight
    gradients in the kernel's order and the input gradient's `reads`."""

    def __init__(self, walk: _TapWalk, spec: ConvSpec, dtype):
        n, g, oh, ow, pitch = walk.n, spec.groups, walk.oh, walk.ow, walk.pitch
        og, cg = spec.out_channels // g, spec.in_channels // g
        size = n * walk.slot  # the stacked slots, which hold every input cell
        k = size - walk.slot + oh * pitch  # what one tap reads of the stacked line
        m = walk.margin
        buf, self.grad_slots, self.grid, self.tmp, grad_w = _workspace(
            dtype,
            walk.shape,
            (*spec.stride, n, g, walk.slot, cg),
            (g, m + walk.base + size, og),
            (n, g, walk.slot, cg),
            (len(walk.taps), g, cg, og),
        )
        self.walk, self.buf, self.writes = walk, buf, walk.writes(buf)
        self.grad_out = self.grid[:, m : m + size].reshape(g, n, walk.slot_rows, pitch, og)[:, :, :oh, :ow]
        self.grads = self.grid[:, m : m + k]
        self.taps = []
        for i, (a, b, off) in enumerate(walk.taps):
            at = m + walk.base - off  # the grid under the slots, shifted back by the tap's offset
            shifted = self.grid[:, at : at + size].reshape(g, n, walk.slot, og).swapaxes(0, 1)
            self.taps.append((buf[a, b, ..., off : off + k], grad_w[i], shifted, self.grad_slots[a, b]))
        self.grad_w = grad_w.transpose(1, 3, 2, 0)
        self.reads = walk.reads(self.grad_slots)


def _backward(x: Tensor, w: ConvWeights, spec: ConvSpec, grad_out: Tensor, input_grad: bool):
    """(gx, gw, gb) of both backward entry points; gx is None unless input_grad.
    Every tap runs its weight-gradient GEMM; with input_grad it also adds its
    input-gradient product into its phase."""
    _check_input(x, w, spec)
    plan = _plan(_BackwardPlan, spec, x.shape, x.dtype)
    walk, g, o = plan.walk, spec.groups, spec.out_channels
    n, oh, ow = walk.n, walk.oh, walk.ow
    if grad_out.shape != (n, o, oh, ow):
        raise ShapeError(f"grad_out shape {grad_out.shape} vs {(n, o, oh, ow)}")
    walk.phases(x.data, plan.writes)
    plan.grid[...] = 0
    plan.grad_out[...] = grad_out.data.reshape(n, g, o // g, oh, ow).transpose(1, 0, 3, 4, 2)
    if input_grad:
        plan.grad_slots[...] = 0  # 0 in phases that no tap reads
        wt = _tap_weights(w, spec, walk, x.dtype)
    for i, (read, grad_w, shifted, grad_slots) in enumerate(plan.taps):
        np.matmul(read, plan.grads, out=grad_w)
        if input_grad:
            grad_slots += np.matmul(shifted, wt[:, :, i], out=plan.tmp)
    gw = np.zeros(spec.weight_shape, dtype=x.dtype)  # 0 at the kernel cells of taps that do not run
    gw.reshape(g, o // g, spec.in_channels // g, -1)[..., walk.kernel_taps] = plan.grad_w
    gx = Tensor(walk.unphase(plan.reads)) if input_grad else None
    return gx, Tensor(gw), grad_out.data.sum(axis=(0, 2, 3))


def relu(x: Tensor) -> Tensor:
    return Tensor(np.maximum(x.data, 0))


def relu_backward(x: Tensor, grad_out: Tensor) -> Tensor:
    if x.shape != grad_out.shape:
        raise ShapeError(f"shape mismatch {x.shape} vs {grad_out.shape}")
    # np.where(x > 0, grad_out, 0) bit for bit: grad_out's bits times 1 where
    # x > 0, else 0 (+0.0); np.where on a mask of random signs runs ~3x slower
    bits = grad_out.data.view(f"i{grad_out.dtype.itemsize}")
    return Tensor((bits * (x.data > 0)).view(grad_out.dtype))
