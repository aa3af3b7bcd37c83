import itertools
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jpulite import conv
from jpulite.conv import (
    ConvSpec,
    ConvWeights,
    conv2d,
    conv2d_backward,
    conv2d_weight_grads,
    init_weights,
    relu,
    relu_backward,
)
from jpulite.cost import conv_cost_from_spec
from jpulite.jpu import DILATION_RATES, JpuConfig
from jpulite.tensor import Rng, ShapeError, Tensor, max_abs_diff, random_uniform

from reference import central_difference, naive_conv2d, naive_conv2d_backward


def random_case(seed, *, max_k=3, max_dim=9, groups_ok=True):
    """One random (x, weights, spec) with valid output dims."""
    r = np.random.default_rng(seed)
    g = int(r.choice([1, 1, 2])) if groups_ok else 1
    cin = g * int(r.integers(1, 4))
    cout = g * int(r.integers(1, 4))
    kh, kw = int(r.integers(1, max_k + 1)), int(r.integers(1, max_k + 1))
    sh, sw = int(r.integers(1, 3)), int(r.integers(1, 3))
    dh, dw = int(r.integers(1, 3)), int(r.integers(1, 3))
    ph, pw = int(r.integers(0, 3)), int(r.integers(0, 3))
    h = int(r.integers(max(1, dh * (kh - 1) + 1 - 2 * ph), max_dim + 1))
    w = int(r.integers(max(1, dw * (kw - 1) + 1 - 2 * pw), max_dim + 1))
    spec = ConvSpec(cin, cout, (kh, kw), (sh, sw), (dh, dw), (ph, pw), g)
    rng = Rng(seed)
    x = random_uniform((int(r.integers(1, 3)), cin, h, w), rng, -1.0, 1.0)
    weights = init_weights(spec, rng)
    bias = rng.uniform(cout, -0.5, 0.5)
    return x, ConvWeights(weights.weight, bias), spec


# Field values for validation tests: ints around the valid range, plus bools,
# floats and None, bare or in tuples and lists of length 0-3.
FIELD_VALUES = st.one_of(st.integers(-2, 4), st.booleans(), st.floats(-2, 4), st.none())
PAIR_VALUES = st.one_of(
    FIELD_VALUES, st.lists(FIELD_VALUES, max_size=3).map(tuple), st.lists(st.integers(-1, 3), max_size=3)
)


def is_pair(v, lo):
    return type(v) is tuple and len(v) == 2 and all(type(e) is int and e >= lo for e in v)


def is_count(v):
    return type(v) is int and v >= 1


@given(counts=st.tuples(FIELD_VALUES, FIELD_VALUES, FIELD_VALUES), pairs=st.tuples(*[PAIR_VALUES] * 4))
@example(counts=(2, 4, 1), pairs=((3, 3), (2,), (1, 1), (0, 0)))
@example(counts=(True, 4, 1), pairs=((3, 3), (1, 1), (1, 1), (0, 0)))
@example(counts=(2.0, 4, 1), pairs=((3, 3), (1, 1), (1, 1), (0, 0)))
def test_spec_accepts_only_positive_int_counts_and_int_pairs(counts, pairs):
    (cin, cout, groups), (kernel, stride, dilation, padding) = counts, pairs
    args = (cin, cout, kernel, stride, dilation, padding, groups)
    valid = (
        all(map(is_count, counts)) and cin % groups == 0 and cout % groups == 0
        and all(is_pair(p, 1) for p in (kernel, stride, dilation)) and is_pair(padding, 0)
    )
    if valid:
        spec = ConvSpec(*args)
        big = tuple(d * (k - 1) + 1 for k, d in zip(kernel, dilation))
        assert len(spec.out_hw(big)) == 2
    else:
        with pytest.raises(ShapeError):
            ConvSpec(*args)


def test_weights_need_a_bias():
    with pytest.raises(TypeError):
        ConvWeights(Tensor(np.ones((1, 1, 1, 1))))
    with pytest.raises(ShapeError):  # nor can None stand in for one
        ConvWeights(Tensor(np.ones((1, 1, 1, 1))), None)


def test_identity_kernel():
    x = random_uniform((1, 1, 4, 4), Rng(0))
    w = ConvWeights(Tensor(np.ones((1, 1, 1, 1))), np.zeros(1))
    y = conv2d(x, w, ConvSpec(1, 1, kernel=(1, 1)))
    assert max_abs_diff(y, x) == 0.0


def test_1d_dilated_example():
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 4))
    w = ConvWeights(Tensor(np.array([1.0, 0.0, -1.0]).reshape(1, 1, 1, 3)), np.zeros(1))
    spec = ConvSpec(1, 1, kernel=(1, 3), dilation=(1, 2), padding=(0, 2))
    assert conv2d(x, w, spec).data.ravel().tolist() == [-3.0, -4.0, 1.0, 2.0]


@pytest.mark.parametrize("seed", range(40))
def test_matches_naive_oracle(seed):
    x, w, spec = random_case(seed)
    got = conv2d(x, w, spec)
    want, _ = naive_conv2d(x.data, w.weight.data, w.bias, spec.stride, spec.dilation, spec.padding, spec.groups)
    assert np.max(np.abs(got.data - want)) <= 1e-12


def test_dilation_one_degeneracy():
    # d=1 through the general dilated path equals an explicitly-regular spec
    x = random_uniform((1, 2, 6, 6), Rng(5), -1, 1)
    w = init_weights(ConvSpec(2, 3, (3, 3), padding=(1, 1)), Rng(6))
    a = conv2d(x, w, ConvSpec(2, 3, (3, 3), padding=(1, 1), dilation=(1, 1)))
    b = conv2d(x, w, ConvSpec(2, 3, (3, 3), padding=(1, 1)))
    assert a.data.tobytes() == b.data.tobytes()


def test_linearity():
    rng = Rng(8)
    spec = ConvSpec(2, 3, (3, 3), padding=(1, 1))
    w = init_weights(spec, rng)  # zero biases
    x1 = random_uniform((1, 2, 5, 5), rng, -1, 1)
    x2 = random_uniform((1, 2, 5, 5), rng, -1, 1)
    a, b = 0.7, -1.3
    mix = Tensor(a * x1.data + b * x2.data)
    lhs = conv2d(mix, w, spec)
    rhs = Tensor(a * conv2d(x1, w, spec).data + b * conv2d(x2, w, spec).data)
    assert max_abs_diff(lhs, rhs) <= 1e-10


def test_translation_covariance_interior():
    rng = Rng(13)
    spec = ConvSpec(1, 1, (3, 3), padding=(1, 1))
    w = init_weights(spec, rng)
    x = random_uniform((1, 1, 10, 10), rng, -1, 1)
    shifted = np.zeros_like(x.data)
    shifted[:, :, 2:, :] = x.data[:, :, :-2, :]
    y = conv2d(x, w, spec)
    ys = conv2d(Tensor(shifted), w, spec)
    # interior rows of the shifted output equal the unshifted output moved down 2
    assert np.allclose(ys.data[:, :, 3:9, 1:9], y.data[:, :, 1:7, 1:9], atol=1e-13)


def test_conv_rejects_channel_mismatch():
    x = random_uniform((1, 2, 4, 4), Rng(0))
    w = init_weights(ConvSpec(3, 1, (1, 1)), Rng(0))
    with pytest.raises(ShapeError):
        conv2d(x, w, ConvSpec(3, 1, (1, 1)))


def test_conv_rejects_too_small_input():
    x = random_uniform((1, 1, 2, 2), Rng(0))
    spec = ConvSpec(1, 1, (3, 3))
    with pytest.raises(ShapeError):
        conv2d(x, init_weights(spec, Rng(0)), spec)


ORACLE_TOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-5}


def close(got, want, tol):
    """Within tol relative to the result's magnitude, at least 1."""
    return got.shape == want.shape and np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


def oracle_forward(x, w, spec):
    """The scalar-loop forward in f64."""
    geometry = (spec.stride, spec.dilation, spec.padding, spec.groups)
    f64 = (a.astype(np.float64) for a in (x.data, w.weight.data, w.bias))
    return naive_conv2d(*f64, *geometry)[0]


def oracle_backward(x, w, spec, grad_out):
    """The scalar-loop backward in f64: (gx, gw, gb)."""
    geometry = (spec.stride, spec.dilation, spec.padding, spec.groups)
    f64 = (a.astype(np.float64) for a in (x.data, w.weight.data, grad_out.data))
    return naive_conv2d_backward(*f64, *geometry)


def oracle_case(spec, hw, n, dtype, seed):
    """(x, weights, spec, grad_out) for one geometry, drawn from `seed`."""
    rng = Rng(seed)
    x = random_uniform((n, spec.in_channels, *hw), rng, -1.0, 1.0, dtype=dtype)
    bias = rng.uniform(spec.out_channels, -0.5, 0.5).astype(dtype)
    w = ConvWeights(init_weights(spec, rng, dtype=dtype).weight, bias)
    grad_out = random_uniform((n, spec.out_channels, *spec.out_hw(hw)), rng, -1.0, 1.0, dtype=dtype)
    return x, w, spec, grad_out


LAYOUT_EDGES = (
    # stride 2 leaves less padding below the map than above it (lo != hi)
    oracle_case(ConvSpec(3, 2, stride=(2, 2), padding=(1, 1)), (8, 6), 3, np.float64, 8),
    # an output wider than its input (ow = w + 2), so the row pitch is the output's width
    oracle_case(ConvSpec(2, 3, (1, 1), padding=(1, 1)), (3, 4), 3, np.float64, 9),
    # 1-pixel maps
    oracle_case(ConvSpec(3, 2, padding=(1, 1)), (1, 1), 3, np.float64, 10),
    # stride 3 on 8x7: phases of unequal length, one with a zero cell before its input
    oracle_case(ConvSpec(2, 2, stride=(3, 3), padding=(1, 1)), (8, 7), 2, np.float64, 11),
    # N 6 at rate 4 on 8x8, the JPU's widest training slots
    oracle_case(ConvSpec(6, 2, dilation=(4, 4), padding=(4, 4)), (8, 8), 6, np.float64, 12),
)


DEAD_TAPS = (
    # JPU rate 8 on an 8x8 map: only the centre tap reads input
    oracle_case(ConvSpec(4, 3, dilation=(8, 8), padding=(8, 8)), (8, 8), 2, np.float64, 1),
    # rate 12 on a 4x4 map, depthwise, f32
    oracle_case(ConvSpec(3, 3, dilation=(12, 12), padding=(12, 12), groups=3), (4, 4), 1, np.float32, 2),
    # a 1x1 kernel with stride 2 and padding 1 on a 1x1 map: no tap reads input, the output is the bias
    oracle_case(ConvSpec(2, 3, (1, 1), stride=(2, 2), padding=(1, 1)), (1, 1), 2, np.float64, 3),
    # taps dead in the row axis only
    oracle_case(ConvSpec(2, 2, (3, 3), stride=(2, 1), dilation=(5, 1), padding=(6, 1)), (2, 5), 1, np.float64, 4),
)


def examples(cases):
    """A decorator adding each of `cases` as an example of a `case` test."""

    def add(test):
        for case in cases:
            test = example(case=case)(test)
        return test

    return add


layout_edges = examples(LAYOUT_EDGES)  # the geometries at the edges of the tap walk's layout


@st.composite
def oracle_cases(draw, max_cg_in=3, max_extra=5, max_n=3):
    """(x, weights, spec, grad_out): dense and grouped convs (cg_in up to
    max_cg_in, cg_out up to 3), depthwise convs (C up to 24), general geometry
    (kernels up to 5x5, stride 1-3, dilation 1-3, padding up to 2 past the
    dilated reach) or JPU-branch geometry (3x3, padding = dilation up to 12);
    maps from 1 pixel to max_extra past the smallest valid size, so some taps
    read only padding, in one axis or both, and in some geometries no tap
    reads input; N 1 to max_n; f64 or f32."""
    if draw(st.booleans()):
        g, cg_in, cg_out = draw(st.integers(1, 24)), 1, 1
    else:
        g, cg_in, cg_out = draw(st.integers(1, 3)), draw(st.integers(1, max_cg_in)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        kernel, stride, dilation = (tuple(draw(st.integers(1, hi)) for _ in range(2)) for hi in (5, 3, 3))
        padding = tuple(draw(st.integers(0, d * (k - 1) + 2)) for k, d in zip(kernel, dilation))
    else:
        d = draw(st.integers(1, 12))
        kernel, stride, dilation, padding = (3, 3), (1, 1), (d, d), (d, d)
    spec = ConvSpec(g * cg_in, g * cg_out, kernel, stride, dilation, padding, g)
    hw = [max(1, d * (k - 1) + 1 - 2 * p) + draw(st.integers(0, max_extra)) for k, d, p in zip(kernel, dilation, padding)]
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    n, seed = draw(st.integers(1, max_n)), draw(st.integers(0, 2**32 - 1))
    return oracle_case(spec, hw, n, dtype, seed)


@settings(max_examples=200, deadline=None)
@given(case=oracle_cases())
# a 1x1 output with one output channel: each sample's product is a dot product
@example(case=oracle_case(ConvSpec(2, 1, (3, 3), padding=(1, 1)), (1, 1), 2, np.float32, 1))
@examples(DEAD_TAPS)
@layout_edges
def test_conv_and_backward_match_scalar_oracles(case):
    x, w, spec, grad_out = case
    tol = ORACLE_TOL[x.dtype]
    y = conv2d(x, w, spec)
    assert y.dtype == x.dtype
    assert close(y.data, oracle_forward(x, w, spec), tol)
    counted, macs = conv2d(x, w, spec, count_macs=True)
    assert close(counted.data, y.data, tol)
    assert macs == conv_cost_from_spec(spec, x.shape[2:]).macs * x.shape[0]
    for k in range(x.shape[0]):  # a sample's output does not depend on the rest of its batch
        assert conv2d(Tensor(x.data[k : k + 1]), w, spec).data.tobytes() == y.data[k : k + 1].tobytes()

    gx, gw, gb = conv2d_backward(x, w, spec, grad_out)
    want_gx, want_gw, want_gb = oracle_backward(x, w, spec, grad_out)
    assert close(gx.data, want_gx, tol) and close(gw.data, want_gw, tol)
    assert close(gb, want_gb, tol)


@pytest.mark.parametrize("case", DEAD_TAPS + LAYOUT_EDGES)
def test_counted_conv_is_the_oracle_and_the_cost_model(case):
    """count_macs=True runs every tap, the dead ones too: it counts the cost
    model's MACs times N, and its output, with or without the fused ReLU, is
    the scalar oracle's."""
    x, w, spec, _ = case
    plain = oracle_forward(x, w, spec)
    for fused, want in ((False, plain), (True, np.maximum(plain, 0))):
        y, macs = conv2d(x, w, spec, count_macs=True, relu=fused)
        assert macs == conv_cost_from_spec(spec, x.shape[2:]).macs * x.shape[0]
        assert y.dtype == x.dtype and close(y.data, want, ORACLE_TOL[x.dtype])


# (kernel, stride, dilation, padding, input grid) of convs with a 1x1 output
ONE_CELL_OUTPUTS = (
    ((3, 3), (1, 1), (1, 1), (1, 1), (1, 1)),  # the centre tap alone
    ((1, 1), (1, 1), (1, 1), (0, 0), (1, 1)),
    ((3, 3), (1, 1), (1, 1), (0, 0), (3, 3)),  # 9 taps
    ((3, 3), (2, 2), (1, 1), (1, 1), (2, 2)),  # 4 taps at stride 2
    ((3, 3), (1, 1), (4, 4), (4, 4), (1, 1)),
    ((1, 1), (2, 2), (1, 1), (0, 0), (2, 2)),
    ((3, 3), (1, 1), (2, 2), (2, 2), (1, 1)),
    ((1, 3), (1, 1), (1, 1), (0, 1), (1, 1)),
    ((2, 2), (1, 1), (1, 1), (0, 0), (2, 2)),
)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_one_cell_outputs_do_not_depend_on_the_batch(dtype):
    """At a 1x1 output with one output channel per group, a sample's product
    is a dot product, whose BLAS kernel depends on its operands' strides; a
    sample's output is still the bytes of a conv of that sample alone, for
    groups 1-3, 1-8 input and 1-3 output channels per group and N 2, 3, 5."""
    broken = []
    for geometry, g, cg_in, cg_out, n in itertools.product(
        ONE_CELL_OUTPUTS, range(1, 4), range(1, 9), range(1, 4), (2, 3, 5)
    ):
        *shape, hw = geometry
        spec = ConvSpec(g * cg_in, g * cg_out, *shape, g)
        x, w, _, _ = oracle_case(spec, hw, n, dtype, cg_in)
        assert spec.out_hw(hw) == (1, 1)
        y = conv2d(x, w, spec).data
        if any(conv2d(Tensor(x.data[k : k + 1]), w, spec).data.tobytes() != y[k : k + 1].tobytes() for k in range(n)):
            broken.append((spec, hw, n))
    assert broken == []


@settings(max_examples=60, deadline=None)
@given(
    hw=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    past=st.integers(0, 4),
    depthwise=st.booleans(),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
    nan_off_centre=st.booleans(),
)
def test_rate_past_the_map_is_the_centre_tap_1x1_conv(hw, past, depthwise, dtype, seed, nan_off_centre):
    """DeepLabv3 (Chen et al. 2017, sec. 3.3): at a rate of at least the map
    size, a size-preserving 3x3 atrous conv is the 1x1 conv of its centre
    weights, byte for byte. The off-centre taps read only padding and do not
    run, so their weight gradients are exactly 0 and even NaN weights there
    leave the results unchanged."""
    rate = max(hw) + past
    c, o, g = (3, 3, 3) if depthwise else (4, 2, 1)
    spec3 = ConvSpec(c, o, (3, 3), dilation=(rate, rate), padding=(rate, rate), groups=g)
    spec1 = ConvSpec(c, o, (1, 1), groups=g)
    x, w3, _, grad_out = oracle_case(spec3, hw, 2, dtype, seed)
    weight = w3.weight.data.copy()
    if nan_off_centre:
        centre = weight[..., 1, 1].copy()
        weight[...] = np.nan
        weight[..., 1, 1] = centre
    w3 = ConvWeights(Tensor(weight), w3.bias)
    w1 = ConvWeights(Tensor(weight[..., 1:2, 1:2]), w3.bias)

    assert conv2d(x, w3, spec3).data.tobytes() == conv2d(x, w1, spec1).data.tobytes()
    gx3, gw3, gb3 = conv2d_backward(x, w3, spec3, grad_out)
    gx1, gw1, gb1 = conv2d_backward(x, w1, spec1, grad_out)
    assert gx3.data.tobytes() == gx1.data.tobytes()
    assert gw3.data[..., 1:2, 1:2].tobytes() == gw1.data.tobytes()
    off_centre = np.ones((3, 3), dtype=bool)
    off_centre[1, 1] = False
    assert np.all(gw3.data[..., off_centre] == 0)
    assert gb3.tobytes() == gb1.tobytes()


# --- workspace -----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(cases=st.lists(oracle_cases(max_cg_in=10, max_extra=12), min_size=2, max_size=5))
def test_back_to_back_convs_match_scalar_oracle(cases):
    """Convs of any geometry and dtype, thin and wide, run forward and backward
    one after another in one thread's workspace: what an earlier call left
    there never reaches the padding or the zero margins of a later one."""
    for x, w, spec, grad_out in cases:
        tol = ORACLE_TOL[x.dtype]
        assert close(conv2d(x, w, spec).data, oracle_forward(x, w, spec), tol)
        gx, gw, gb = conv2d_backward(x, w, spec, grad_out)
        want_gx, want_gw, want_gb = oracle_backward(x, w, spec, grad_out)
        assert close(gx.data, want_gx, tol) and close(gw.data, want_gw, tol)
        assert close(gb, want_gb, tol)


@settings(max_examples=60, deadline=None)
@given(case=oracle_cases(max_cg_in=10, max_n=6))
# JPU fusion at train shapes: wide, every tap reads input
@example(case=oracle_case(ConvSpec(32, 32, padding=(1, 1)), (8, 8), 6, np.float64, 5))
# stride 3, grouped, thin
@example(case=oracle_case(ConvSpec(6, 4, stride=(3, 3), padding=(1, 2), groups=2), (7, 8), 5, np.float64, 6))
@layout_edges
def test_backward_batch_is_the_per_sample_backwards(case):
    """The backward sums the batch's weight gradient in one GEMM per tap, yet
    each sample's input gradient is byte-identical to a backward of that
    sample alone, and the weight and bias gradients are the sums of the
    per-sample ones to rounding."""
    x, w, spec, grad_out = case
    gx, gw, gb = conv2d_backward(x, w, spec, grad_out)
    singles = [
        conv2d_backward(Tensor(x.data[k : k + 1]), w, spec, Tensor(grad_out.data[k : k + 1])) for k in range(x.shape[0])
    ]
    for k, (gx_k, _, _) in enumerate(singles):
        assert gx.data[k : k + 1].tobytes() == gx_k.data.tobytes()
    tol = ORACLE_TOL[x.dtype]
    assert close(gw.data, sum(gw_k.data for _, gw_k, _ in singles), tol)
    assert close(gb, sum(gb_k for *_, gb_k in singles), tol)


@pytest.mark.parametrize(
    "rate, hw, slot, k",
    [(1, (8, 8), 81, 477), (2, (8, 8), 100, 580), (4, (8, 8), 144, 816), (8, (8, 8), 64, 384),
     (1, (4, 4), 25, 145), (1, (2, 2), 9, 51)],
)
def test_slots_share_their_zero_bands(rate, hw, slot, k):
    """At the JPU's training shapes (N 6; 8x8, 4x4 and 2x2 maps), a sample's
    slot is its map plus one band of `rate` zeros per axis, shared with the next
    row and sample, so a tap's GEMM sums over k = 5 slots plus one output grid
    of the row pitch. At rate 8 only the centre tap runs and no band is left.
    The forward and the backward lay the phases out alike: each pass's plan
    holds a phase buffer of the walk's one shape."""
    spec = ConvSpec(8, 8, dilation=(rate, rate), padding=(rate, rate))
    walk = conv._tap_walk(spec, (6, 8, *hw))
    assert walk.slot == slot
    assert (walk.n - 1) * walk.slot + walk.oh * walk.pitch == k
    for build in (conv._ForwardPlan, conv._BackwardPlan):
        plan = conv._plan(build, spec, (6, 8, *hw), np.dtype(np.float64))
        assert plan.walk is walk and plan.buf.shape == walk.shape


# (name, spec, input grid, row blocks at f64 and f32): forwards of the bench
# config at 256x256 whose output spans several row blocks of the workspace
MULTI_BLOCK = (
    ("stage5.body0", ConvSpec(64, 64, dilation=(4, 4), padding=(4, 4)), (32, 32), (3, 2)),
    ("stem", ConvSpec(3, 16, stride=(2, 2), padding=(1, 1)), (256, 256), (9, 5)),
    ("stage2.head", ConvSpec(16, 24, stride=(2, 2), padding=(1, 1)), (128, 128), (4, 2)),
)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name, spec, hw, blocks", MULTI_BLOCK, ids=[case[0] for case in MULTI_BLOCK])
def test_forwards_over_several_row_blocks(name, spec, hw, blocks, dtype):
    """The wide rate-4 body, the thin stride-2 stem (one copy per tap) and the
    wide stride-2 head run their output in several row blocks; each matches
    the unrolled `count_macs=True` conv to rounding, and each sample's bytes
    at N 2 are its bytes at N 1."""
    x, w, _, _ = oracle_case(spec, hw, 2, dtype, 3)
    plan = conv._plan(conv._ForwardPlan, spec, x.shape, x.dtype)
    assert len(plan.blocks) == blocks[dtype == np.float32]
    assert plan.thin == (spec.in_channels == 3)
    y = conv2d(x, w, spec).data
    assert close(y, conv2d(x, w, spec, count_macs=True)[0].data, ORACLE_TOL[x.dtype])
    for k in range(2):
        assert conv2d(Tensor(x.data[k : k + 1]), w, spec).data.tobytes() == y[k : k + 1].tobytes()


def test_plans_keep_no_old_workspace_and_stay_bounded(monkeypatch):
    """On a fresh thread: a conv that grows the workspace drops every plan, so
    the old memory is freed; a geometry planned before it then reruns to the
    same bytes, in the new memory; and past `_PLAN_LIMIT` plans the oldest go."""
    monkeypatch.setattr(conv, "_PLAN_LIMIT", 4)
    small = oracle_case(ConvSpec(4, 6, padding=(1, 1)), (6, 6), 2, np.float64, 0)
    big = oracle_case(ConvSpec(12, 8, dilation=(2, 2), padding=(2, 2)), (40, 40), 2, np.float64, 1)
    others = [oracle_case(ConvSpec(4, 6, padding=(1, 1)), (6, 6 + i), 1, np.float32, i) for i in range(6)]
    seen, errors = {}, []

    def run(case):
        gx, gw, gb = conv2d_backward(*case)
        return [conv2d(*case[:3]).data.tobytes(), gx.data.tobytes(), gw.data.tobytes(), gb.tobytes()]

    def work():
        try:
            before = run(small)
            run(small)  # each pass planned, in the workspace both need
            seen["plans before"] = len(conv._scratch.plans)
            old = weakref.ref(conv._scratch.mem)
            run(big)
            seen["old memory freed"] = old() is None
            seen["same bytes"] = run(small) == before
            for case in others:
                run(case)
            seen["plans after"] = len(conv._scratch.plans)
            seen["newest kept"] = (conv._ForwardPlan, others[-1][2], others[-1][0].shape, np.dtype(np.float32)) in conv._scratch.plans
        except Exception as e:  # reported by the assertion below
            errors.append(repr(e))

    thread = threading.Thread(target=work)
    thread.start()
    thread.join()
    assert errors == []
    assert seen == {"plans before": 2, "old memory freed": True, "same bytes": True, "plans after": 4, "newest kept": True}


_WARM_SPECS = {
    "stride1": ConvSpec(8, 8, padding=(1, 1)),
    "stride2": ConvSpec(8, 8, stride=(2, 2), padding=(1, 1)),
    "depthwise": ConvSpec(8, 8, padding=(1, 1), groups=8),
    "centre_tap": ConvSpec(8, 8, dilation=(32, 32), padding=(32, 32)),  # past the 32x32 map: one tap runs
}


@pytest.mark.parametrize(
    "spec, backward",
    [pytest.param(spec, conv2d_backward, id=name) for name, spec in _WARM_SPECS.items()]
    + [pytest.param(spec, conv2d_weight_grads, id=f"{name}-weight_grads") for name, spec in _WARM_SPECS.items()],
)
def test_warm_backward_allocates_only_its_outputs(spec, backward):
    """Once the thread's workspace has grown, a backward's scratch (phase
    buffers, padded gradient grid, tap products, the running taps' weight
    gradients) comes from it: what it allocates beyond its outputs, gx (if
    it computes one), gw and gb, stays far below the size of its input."""
    x, w, spec, grad_out = oracle_case(spec, (32, 32), 6, np.float64, 7)
    backward(x, w, spec, grad_out)
    tracemalloc.start()
    try:
        grads = backward(x, w, spec, grad_out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(getattr(g, "data", g).nbytes for g in grads) < x.data.nbytes / 4  # Tensors, then the bias ndarray


def test_output_never_shares_the_workspace():
    small = oracle_case(ConvSpec(3, 4, padding=(1, 1)), (6, 6), 1, np.float64, 0)
    pointwise = oracle_case(ConvSpec(4, 4, (1, 1)), (5, 5), 2, np.float64, 2)
    big = oracle_case(ConvSpec(12, 8, dilation=(2, 2), padding=(2, 2)), (40, 40), 2, np.float64, 1)
    outputs = [conv2d(*small[:3]), conv2d(*small[:3], relu=True), conv2d(*small[:3], count_macs=True)[0]]
    outputs = [y.data for y in outputs]
    for case in (small, pointwise):
        gx, gw, gb = conv2d_backward(*case)
        outputs += [gx.data, gw.data, gb]
    assert not any(np.shares_memory(y, conv._scratch.mem) for y in outputs)
    kept = [y.tobytes() for y in outputs]
    conv2d(*big[:3])  # grows the workspace and overwrites what the small convs left there
    conv2d_backward(*big)
    assert not any(np.shares_memory(y, conv._scratch.mem) for y in outputs)
    assert [y.tobytes() for y in outputs] == kept


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_workspace_views_are_contiguous_aligned_and_disjoint(dtype):
    """On a fresh thread, and again once the workspace has grown, each view is
    C-contiguous, starts on a 64-byte boundary and overlaps no other, also
    for shapes whose byte size is not a multiple of 64."""
    batches = [[(3,), (5, 7), (1, 1, 1), (16,), (2, 3, 5)], [(3, 1), (100, 9), (7,), (2, 2, 2, 2)]]
    seen, errors = [], []

    def work():
        try:
            for shapes in batches:
                views = conv._workspace(np.dtype(dtype), *shapes)
                seen.append((
                    [(v.shape, v.dtype, v.flags.c_contiguous, v.ctypes.data % 64) for v in views],
                    any(np.shares_memory(a, b) for i, a in enumerate(views) for b in views[i + 1 :]),
                ))
        except Exception as e:  # reported by the assertion below
            errors.append(repr(e))

    thread = threading.Thread(target=work)
    thread.start()
    thread.join()
    assert errors == []
    assert seen == [([(shape, np.dtype(dtype), True, 0) for shape in shapes], False) for shapes in batches]


def test_concurrent_threads_give_serial_bytes():
    """Four threads (more than this suite assumes cores) run different convs,
    thin and wide, forward and backward, at once; each output is
    byte-identical to a serial run."""
    cases = [
        oracle_case(ConvSpec(3, 16, stride=(2, 2), padding=(1, 1)), (64, 64), 1, np.float64, 0),
        oracle_case(ConvSpec(16, 8, dilation=(2, 2), padding=(2, 2)), (24, 24), 2, np.float64, 1),
        oracle_case(ConvSpec(6, 6, groups=6, dilation=(4, 4), padding=(4, 4)), (9, 9), 3, np.float32, 2),
        oracle_case(ConvSpec(24, 12, (1, 1)), (16, 16), 1, np.float32, 3),
    ]

    def run(i):
        """Case i's forward, then its backward, as bytes."""
        gx, gw, gb = conv2d_backward(*cases[i])
        return [conv2d(*cases[i][:3]).data.tobytes(), gx.data.tobytes(), gw.data.tobytes(), gb.tobytes()]

    serial = [run(i) for i in range(len(cases))]
    mismatches, done = [], []

    def work(k):
        try:
            for _ in range(15):
                for i in range(k, k + len(cases)):
                    if run(i % len(cases)) != serial[i % len(cases)]:
                        mismatches.append((k, i % len(cases)))
            done.append(k)
        except Exception as e:  # reported by the assertion below
            mismatches.append((k, repr(e)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == [] and sorted(done) == [0, 1, 2, 3]


@settings(max_examples=50, deadline=None)
@given(case=oracle_cases(max_cg_in=10))
def test_fused_relu_is_relu_of_the_conv(case):
    x, w, spec, _ = case
    assert conv2d(x, w, spec, relu=True).data.tobytes() == relu(conv2d(x, w, spec)).data.tobytes()
    fused, fused_macs = conv2d(x, w, spec, count_macs=True, relu=True)
    counted, macs = conv2d(x, w, spec, count_macs=True)
    assert fused.data.tobytes() == relu(counted).data.tobytes() and fused_macs == macs


# --- separable (the JPU's branches) ---------------------------------------------


def branch_specs(config: JpuConfig, dilation: int) -> tuple[ConvSpec, ConvSpec]:
    """The (depthwise, pointwise) specs of the JPU branch at one dilation rate."""
    specs = {name: spec for name, spec, _ in config.layers()}
    i = DILATION_RATES.index(dilation)
    return specs[f"branch{i}.depthwise"], specs[f"branch{i}.pointwise"]


def test_separable_delta_identity():
    # a centre-tap depthwise and a pointwise that keeps the first `width` channels pass those through
    width = 2
    c = 3 * width
    dw = np.zeros((c, 1, 3, 3))
    dw[:, 0, 1, 1] = 1.0
    pw = np.eye(width, c).reshape(width, c, 1, 1)
    x = random_uniform((1, c, 6, 6), Rng(2), -1, 1)
    dspec, pspec = branch_specs(JpuConfig((1, 1, 1), width), 2)
    y = conv2d(conv2d(x, ConvWeights(Tensor(dw), np.zeros(c)), dspec), ConvWeights(Tensor(pw), np.zeros(width)), pspec)
    assert max_abs_diff(y, Tensor(x.data[:, :width])) == 0.0


@pytest.mark.parametrize("dilation", DILATION_RATES)
def test_separable_shape_preserved(dilation):
    rng = Rng(dilation)
    width = 2
    dspec, pspec = branch_specs(JpuConfig((1, 1, 1), width), dilation)
    assert dspec.dilation == dspec.padding == (dilation, dilation)
    dw = init_weights(dspec, rng)
    pw = init_weights(pspec, rng)
    x = random_uniform((2, 3 * width, 16, 16), rng, -1, 1)
    y = conv2d(conv2d(x, dw, dspec), pw, pspec)
    assert y.shape == (2, width, 16, 16)


# --- backward ----------------------------------------------------------------


def test_backward_zero_grad():
    x, w, spec = random_case(3)
    go = Tensor(np.zeros((x.shape[0], spec.out_channels, *spec.out_hw(x.shape[2:]))))
    gx, gw, gb = conv2d_backward(x, w, spec, go)
    assert not gx.data.any() and not gw.data.any() and not gb.any()


def test_backward_identity_passthrough():
    x = random_uniform((1, 1, 3, 3), Rng(4))
    w = ConvWeights(Tensor(np.ones((1, 1, 1, 1))), np.zeros(1))
    spec = ConvSpec(1, 1, (1, 1))
    gx, _, _ = conv2d_backward(x, w, spec, Tensor(np.ones((1, 1, 3, 3))))
    assert np.array_equal(gx.data, np.ones((1, 1, 3, 3)))


def test_backward_phases_no_tap_reads_are_exact_zeros():
    """A stride-2 1x1 conv reads only the even rows and columns; the input
    gradient of every other cell is exactly 0, even after a larger backward
    has left nonzero values in the thread's workspace."""
    conv2d_backward(*oracle_case(ConvSpec(8, 8), (32, 32), 2, np.float64, 0))
    x, w, spec, grad_out = oracle_case(ConvSpec(2, 3, (1, 1), stride=(2, 2)), (7, 6), 2, np.float64, 1)
    gx = conv2d_backward(x, w, spec, grad_out)[0].data
    assert gx[..., ::2, ::2].all()
    assert not gx[..., 1::2, :].any() and not gx[..., :, 1::2].any()


@settings(max_examples=60, deadline=None)
@given(case=oracle_cases(max_cg_in=10))
# stride 2, N 3
@example(case=oracle_case(ConvSpec(6, 4, stride=(2, 2), padding=(1, 1)), (8, 7), 3, np.float64, 20))
# rate 8 on an 8x8 map: only the centre tap runs, the dead taps' weight gradients are 0
@example(case=oracle_case(ConvSpec(4, 3, dilation=(8, 8), padding=(8, 8)), (8, 8), 2, np.float64, 21))
# depthwise at rate 4, N 1, f32
@example(case=oracle_case(ConvSpec(6, 6, dilation=(4, 4), padding=(4, 4), groups=6), (8, 8), 1, np.float32, 22))
# the bilinear student's head at training shapes
@example(case=oracle_case(ConvSpec(16, 16, padding=(1, 1)), (8, 8), 6, np.float64, 23))
@layout_edges
def test_weight_grads_are_the_backwards_byte_for_byte(case):
    """conv2d_weight_grads leaves out the input gradient and nothing else: its
    weight and bias gradients are conv2d_backward's, byte for byte, whether it
    runs before or after a backward in the thread's workspace."""
    first = conv2d_weight_grads(*case)
    _, gw, gb = conv2d_backward(*case)
    after = conv2d_weight_grads(*case)
    want = (gw.data.dtype, gw.shape, gw.data.tobytes(), gb.dtype, gb.shape, gb.tobytes())
    for got_w, got_b in (first, after):
        assert (got_w.data.dtype, got_w.shape, got_w.data.tobytes(), got_b.dtype, got_b.shape, got_b.tobytes()) == want


def _bad_backward_args():
    """(x, w, spec, grad_out) with one shape wrong, for a 3->2 3x3 conv on 5x5, N 2."""
    x, w, spec, grad_out = oracle_case(ConvSpec(3, 2, padding=(1, 1)), (5, 5), 2, np.float64, 0)
    other = init_weights(ConvSpec(3, 4, padding=(1, 1)), Rng(1))
    return {
        "input channels": (random_uniform((2, 4, 5, 5), Rng(2)), w, spec, grad_out),
        "weight shape": (x, other, spec, grad_out),
        "grad grid": (x, w, spec, Tensor(grad_out.data[:, :, :4])),
        "grad batch": (x, w, spec, Tensor(grad_out.data[:1])),
    }


@pytest.mark.parametrize("bad", list(_bad_backward_args()))
def test_weight_grads_reject_what_the_backward_rejects(bad):
    args = _bad_backward_args()[bad]
    with pytest.raises(ShapeError) as full:
        conv2d_backward(*args)
    with pytest.raises(ShapeError) as weights_only:
        conv2d_weight_grads(*args)
    assert str(weights_only.value) == str(full.value)


@pytest.mark.parametrize("width", [conv._ZERO_WHOLE_WIDTH, conv._ZERO_WHOLE_WIDTH + 1])
@pytest.mark.parametrize(
    "spec",
    [
        ConvSpec(4, 4, stride=(2, 2), padding=(1, 1)),
        ConvSpec(4, 4, dilation=(2, 2), padding=(2, 2)),
        ConvSpec(4, 4, groups=4, dilation=(4, 4), padding=(4, 4)),
        ConvSpec(4, 4, (1, 1), stride=(2, 2)),
        ConvSpec(4, 4, (1, 1)),
    ],
    ids=["stride2", "rate2", "depthwise_rate4", "1x1_stride2", "1x1_no_padding"],
)
def test_phase_buffer_zeroed_whole_or_by_bands_is_the_same(spec, width, monkeypatch):
    """Inputs at most _ZERO_WHOLE_WIDTH wide zero the whole phase buffer
    before the copy, unless the input fills it; wider ones zero only the bands
    around the input. Written into a buffer full of NaN, both ways give the
    bytes of the bands alone, and no NaN is left."""
    x = random_uniform((3, 4, 7, width), Rng(width), -1.0, 1.0)
    walk = conv._TapWalk(spec, x.shape)
    has_bands = bool(walk.pads or walk.base or walk.tail)
    assert has_bands == (spec.padding != (0, 0) or spec.stride != (1, 1))
    assert walk.zero_whole == (width <= conv._ZERO_WHOLE_WIDTH and has_bands)
    monkeypatch.setattr(conv, "_ZERO_WHOLE_WIDTH", 0)
    bands = conv._TapWalk(spec, x.shape)
    assert not bands.zero_whole
    got, want = (np.full(w.shape, np.nan) for w in (walk, bands))
    for w, buf in ((walk, got), (bands, want)):
        w.phases(x.data, w.writes(buf))
    assert not np.isnan(want).any()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(10))
def test_backward_matches_finite_differences(seed):
    x, w, spec = random_case(seed + 100, max_dim=5)
    oh, ow = spec.out_hw(x.shape[2:])
    go = random_uniform((x.shape[0], spec.out_channels, oh, ow), Rng(seed), -1.0, 1.0)
    gx, gw, gb = conv2d_backward(x, w, spec, go)

    xv = x.data.copy()
    wv = w.weight.data.copy()
    bv = w.bias.copy()

    def loss():
        y = conv2d(Tensor(xv.copy()), ConvWeights(Tensor(wv.copy()), bv.copy()), spec)
        return float(np.sum(y.data * go.data))

    for got, arr in ((gx.data, xv), (gw.data, wv), (gb, bv)):
        num = central_difference(loss, arr)
        denom = np.maximum(np.abs(num), 1e-3)
        assert np.max(np.abs(got - num) / denom) <= 1e-6


def test_relu_and_backward():
    x = Tensor(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]).reshape(1, 1, 1, 5))
    y = relu(x)
    assert y.data.ravel().tolist() == [0.0, 0.0, 0.0, 0.5, 2.0]
    g = relu_backward(x, Tensor(np.ones_like(x.data)))
    assert g.data.ravel().tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]
    neg = Tensor(-np.ones((1, 1, 2, 2)))
    assert not relu(neg).data.any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_backward_is_where_bit_for_bit(dtype):
    """The gradient where x > 0, +0.0 elsewhere, with every sign, NaN and
    infinity of both arguments, exactly as np.where(x > 0, grad, 0)."""
    specials = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e-30]
    xv, gv = (np.array(v, dtype=dtype).reshape(1, 1, 8, 8) for v in zip(*itertools.product(specials, repeat=2)))
    got = relu_backward(Tensor(xv), Tensor(gv)).data
    want = np.where(xv > 0, gv, 0)
    assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()


def test_relu_finite_difference_away_from_zero():
    rng = Rng(21)
    xv = random_uniform((1, 2, 3, 3), rng, -1.0, 1.0).data.copy()
    xv[np.abs(xv) <= 1e-3] = 0.5
    go = random_uniform((1, 2, 3, 3), rng, -1.0, 1.0)
    got = relu_backward(Tensor(xv.copy()), go).data

    def loss():
        return float(np.sum(relu(Tensor(xv.copy())).data * go.data))

    num = central_difference(loss, xv)
    assert np.max(np.abs(got - num)) <= 1e-8
