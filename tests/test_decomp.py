import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpulite.conv import ConvSpec, ConvWeights, conv2d, init_weights, relu
from jpulite.decomp import (
    DILATED_OS,
    STRIDE_OS,
    StageWeights,
    check_phase_consistency,
    dilated_stage,
    dilated_stage_decomposed,
    frozen,
    merge_parity,
    reduce_even,
    split_parity,
    stage_specs,
    stride_stage,
)
from jpulite.experiments import (
    DILATED,
    STRIDE,
    MiniBackboneConfig,
    MiniBackboneParams,
    init_mini_backbone,
    mini_backbone_forward,
)
from jpulite.tensor import Rng, ShapeError, Tensor, max_abs_diff, random_uniform


def make_stage(seed, cin=2, ch=3, depth=1, dtype=np.float64):
    rng = Rng(seed)
    head = init_weights(ConvSpec(cin, ch, (3, 3), padding=(1, 1)), rng, dtype=dtype)
    body = [init_weights(ConvSpec(ch, ch, (3, 3), padding=(1, 1)), rng, dtype=dtype) for _ in range(depth)]
    return StageWeights(head, body)


def delta_stage(cin, depth):
    """Stage whose every kernel is a centered delta (identity chain)."""
    def delta(ci, co):
        w = np.zeros((co, ci, 3, 3))
        for i in range(min(ci, co)):
            w[i, i, 1, 1] = 1.0
        return ConvWeights(Tensor(w), np.zeros(co))

    return StageWeights(delta(cin, cin), [delta(cin, cin) for _ in range(depth)])


def test_split_2x2():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    p = split_parity(x)
    assert tuple(ph.data.item() for ph in p) == (1, 2, 3, 4)
    assert max_abs_diff(merge_parity(p), x) == 0.0


def test_split_constant():
    x = Tensor(np.full((1, 2, 4, 6), 3.5))
    for ph in split_parity(x):
        assert np.all(ph.data == 3.5)


def test_split_rejects_odd_dims():
    with pytest.raises(ShapeError):
        split_parity(Tensor(np.zeros((1, 1, 3, 4))))
    with pytest.raises(ShapeError):
        reduce_even(Tensor(np.zeros((1, 1, 4, 5))))


@given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=25)
def test_split_merge_inverse(seed, hh, hw):
    x = random_uniform((1, 2, 2 * hh, 2 * hw), Rng(seed), -1.0, 1.0)
    p = split_parity(x)
    assert merge_parity(p).data.tobytes() == x.data.tobytes()
    p2 = split_parity(merge_parity(p))
    for a, b in zip(p, p2):
        assert a.data.tobytes() == b.data.tobytes()


def test_merge_constant_tiling():
    phases = [Tensor(np.full((1, 1, 2, 2), float(k))) for k in range(4)]
    m = merge_parity(phases)
    want = np.array(
        [[0, 1, 0, 1], [2, 3, 2, 3], [0, 1, 0, 1], [2, 3, 2, 3]], dtype=float
    ).reshape(1, 1, 4, 4)
    assert np.array_equal(m.data, want)


@pytest.mark.parametrize("shapes", [
    [(1, 1, 2, 2)] * 3,
    [(1, 1, 2, 2)] * 5,
    [(1, 1, 2, 2)] * 3 + [(1, 1, 2, 3)],
], ids=["three", "five", "one_shape_differs"])
def test_merge_rejects_anything_but_four_phases_of_one_shape(shapes):
    with pytest.raises(ShapeError):
        merge_parity([Tensor(np.zeros(s)) for s in shapes])


def test_reduce_even_examples():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    assert reduce_even(x).data.item() == 1.0
    y = random_uniform((1, 3, 6, 8), Rng(1), -1, 1)
    assert np.array_equal(reduce_even(y).data, y.data[:, :, 0::2, 0::2])
    p = split_parity(y)
    assert reduce_even(merge_parity(p)).data.tobytes() == p[0].data.tobytes()


def test_dilated_stage_delta_identity():
    x = random_uniform((1, 2, 6, 6), Rng(2), -1, 1)
    out = dilated_stage(x, delta_stage(2, 1))
    assert max_abs_diff(out.y, x) == 0.0


def test_dilated_stage_shape():
    sw = make_stage(0, cin=4, ch=5, depth=2)
    x = random_uniform((1, 4, 8, 8), Rng(3), -1, 1)
    assert dilated_stage(x, sw).y.shape == (1, 5, 8, 8)


@pytest.mark.parametrize("seed", range(20))
def test_dilated_equals_decomposed(seed):
    r = np.random.default_rng(seed)
    sw = make_stage(seed, cin=int(r.integers(1, 4)), ch=int(r.integers(1, 6)), depth=int(r.integers(1, 4)))
    x = random_uniform((1, sw.in_channels, 2 * int(r.integers(2, 8)), 2 * int(r.integers(2, 8))), Rng(seed), -1, 1)
    a = dilated_stage(x, sw)
    b = dilated_stage_decomposed(x, sw)
    assert max_abs_diff(a.y, b.y) <= 1e-12


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)], ids=["f64", "f32"])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_decomposed_batch_is_each_phase_alone(n, depth, dtype, tol):
    """The composer runs the four phases through the body as one batch of 4n
    samples. Its bytes are those of each phase run alone, so with n > 1 a
    sample or a phase read from the wrong place in that batch shows."""
    sw = make_stage(10 * n + depth, cin=3, ch=4, depth=depth, dtype=dtype)
    x = random_uniform((n, 3, 8, 6), Rng(n + depth), -1, 1, dtype=dtype)
    head, body = stage_specs(3, 4, depth, 1, 1, 1)

    def alone(y):
        for bw, spec in zip(sw.body, body, strict=True):
            y = conv2d(y, bw, spec)
        return y

    want = merge_parity([alone(p) for p in split_parity(conv2d(x, sw.head, head))])
    got = dilated_stage_decomposed(x, sw).y
    assert got.dtype == dtype and got.data.tobytes() == want.data.tobytes()
    assert max_abs_diff(got, dilated_stage(x, sw).y) <= tol


def test_parity_separation():
    # signal on the even-even lattice of the intermediate feature never leaks
    sw = make_stage(9, cin=1, ch=1, depth=2)
    base = np.zeros((1, 1, 8, 8))
    base[:, :, 0::2, 0::2] = np.random.default_rng(0).normal(size=(1, 1, 4, 4))
    y = base
    spec = ConvSpec(1, 1, (3, 3), dilation=(2, 2), padding=(2, 2))
    for bw in sw.body:
        y = conv2d(Tensor(y), bw, spec).data
    assert np.all(y[:, :, 0::2, 1::2] == 0)
    assert np.all(y[:, :, 1::2, 0::2] == 0)
    assert np.all(y[:, :, 1::2, 1::2] == 0)


def test_stride_stage_1d_example():
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 4))
    w = ConvWeights(Tensor(np.ones((1, 1, 1, 3))), np.zeros(1))
    spec_s = ConvSpec(1, 1, (1, 3), stride=(1, 2), padding=(0, 1))
    spec_f = ConvSpec(1, 1, (1, 3), padding=(0, 1))
    full = conv2d(x, w, spec_f)
    assert full.data.ravel().tolist() == [3.0, 6.0, 9.0, 7.0]
    strided = conv2d(x, w, spec_s)
    assert strided.data.ravel().tolist() == [3.0, 9.0]


def test_stride_stage_delta_reduce():
    x = random_uniform((1, 2, 6, 6), Rng(12), -1, 1)
    out = stride_stage(x, delta_stage(2, 1))
    assert max_abs_diff(out.y, reduce_even(x)) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_stride_equals_full_then_reduce(seed):
    sw = make_stage(seed + 50, cin=2, ch=3, depth=2)
    x = random_uniform((1, 2, 8, 10), Rng(seed), -1, 1)
    got = stride_stage(x, sw).y
    spec_f = ConvSpec(2, 3, (3, 3), padding=(1, 1))
    y = reduce_even(conv2d(x, sw.head, spec_f))
    spec_b = ConvSpec(3, 3, (3, 3), padding=(1, 1))
    for bw in sw.body:
        y = conv2d(y, bw, spec_b)
    assert max_abs_diff(got, y) <= 1e-12


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_phase_consistency(depth):
    sw = make_stage(depth, cin=3, ch=4, depth=depth)
    x = random_uniform((2, 3, 8, 8), Rng(depth), -1, 1)
    rep = check_phase_consistency(x, sw, tolerance=1e-12)
    assert rep.passed, rep


def test_phase_consistency_delta():
    x = random_uniform((1, 2, 4, 4), Rng(0), -1, 1)
    rep = check_phase_consistency(x, delta_stage(2, 1))
    assert rep.max_abs_diff == 0.0


def test_phase_consistency_detects_corruption():
    sw = make_stage(31, cin=2, ch=3, depth=1)
    bad_body = sw.body[0].weight.data.copy()
    bad_body[0, 0, 0, 0] += 1e-3
    # corrupt only the dilated path by checking manually with mismatched weights
    x = random_uniform((1, 2, 8, 8), Rng(31), -1, 1)
    y_d = dilated_stage(x, StageWeights(sw.head, [ConvWeights(Tensor(bad_body), sw.body[0].bias)])).y
    y_s = stride_stage(x, sw).y
    diff = max_abs_diff(reduce_even(y_d), y_s)
    assert diff > 1e-12


def test_float32_tolerance():
    sw = make_stage(7, cin=2, ch=4, depth=2, dtype=np.float32)
    x = random_uniform((1, 2, 8, 8), Rng(7), -1, 1, dtype=np.float32)
    a = dilated_stage(x, sw)
    b = dilated_stage_decomposed(x, sw)
    assert max_abs_diff(a.y, b.y) <= 1e-5
    rep = check_phase_consistency(x, sw, tolerance=1e-5)
    assert rep.passed


@pytest.mark.parametrize("output_stride, stride, routed", [
    # {stop: (stride, dilation)}. At the stride wiring's stop every conv that either backbone
    # asks keeps its stride, undilated; only a stride past 32 would be dropped
    # stride-2 convs: the mini backbone's stage heads read output stride 2, 4, 8 and 16, and a
    # ResNet's first 1x1 conv of stages 2-4 reads 4, 8 and 16; both wirings keep the first two
    (2, 2, {8: (2, 1), 32: (2, 1)}), (4, 2, {8: (2, 1), 32: (2, 1)}), (8, 2, {8: (1, 1), 32: (2, 1)}),
    (16, 2, {8: (1, 2), 32: (2, 1)}), (32, 2, {8: (1, 4), 32: (1, 1)}),
    # stride-1 convs: the mini backbone's bodies and a ResNet's 3x3s of stages 1-4 read 4, 8, 16
    # and 32; the dilated wiring reads each at 8 at most, dilated by the strides it dropped
    (1, 1, {8: (1, 1), 32: (1, 1)}), (4, 1, {8: (1, 1), 32: (1, 1)}), (8, 1, {8: (1, 1), 32: (1, 1)}),
    (16, 1, {8: (1, 2), 32: (1, 1)}), (32, 1, {8: (1, 4), 32: (1, 1)}), (64, 1, {8: (1, 8), 32: (1, 2)}),
])
def test_frozen_literal(output_stride, stride, routed):
    assert {stop: frozen(output_stride, stride, stop) for stop in routed} == routed


@given(strides=st.lists(st.sampled_from([1, 2]), max_size=8).map(tuple), output_stride=st.sampled_from([1, 2, 4, 8, 16, 32]))
def test_frozen_rule(strides, output_stride):
    # a chain of convs entered at `output_stride` of the stride wiring, whose twin in a wiring
    # that stops at `target` enters at most at the stop: the dilated wiring's, OS 16 and the stride's
    for target in (DILATED_OS, 16, STRIDE_OS):
        a, os = output_stride, min(output_stride, target)
        for s in strides:
            stride, dilation = frozen(a, s, target)
            assert stride in (1, s)  # a conv keeps its stride or drops it whole
            assert dilation == a // os  # the strides dropped before a conv dilate it, and its own does not
            a, os = a * s, os * stride
            assert os <= target
        assert os == min(target, output_stride * math.prod(strides))  # and no more stride is dropped than that takes


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)], ids=["f64", "f32"])
def test_c5_at_output_stride_16_is_the_phase_at_8(dtype, tol):
    """Criterion 3 at a stop no command asks for: the default mini backbone routed by
    `frozen` at output stride 16, built here, gives the [::2, ::2] phase of its c5 at 8,
    and c5 at 32 is in turn the [::2, ::2] phase of that. The routes at 8 and 32 are the
    dilated and stride wirings, byte for byte."""
    def cast(w):
        return ConvWeights(Tensor(w.weight.data.astype(dtype)), w.bias.astype(dtype))

    config = MiniBackboneConfig()
    p = init_mini_backbone(config, Rng(16))
    params = MiniBackboneParams(cast(p.stem), tuple(StageWeights(cast(sw.head), [*map(cast, sw.body)]) for sw in p.stages))
    x = random_uniform((2, 3, 64, 64), Rng(17), -1, 1, dtype=dtype)

    def c5(target):
        a = conv2d(x, params.stem, config.layers(STRIDE)[0][1], relu=True)
        for sw, os in zip(params.stages, (2, 4, 8, 16)):  # each stage's head reads output stride os
            (stride, head_dilation), (_, body_dilation) = frozen(os, 2, target), frozen(2 * os, 1, target)
            a = relu((dilated_stage(a, sw, head_dilation, body_dilation) if stride == 1 else stride_stage(a, sw)).y)
        return a

    c5_8, c5_16, c5_32 = c5(DILATED_OS), c5(16), c5(STRIDE_OS)
    assert c5_16.shape == (2, 16, 4, 4)
    assert max_abs_diff(reduce_even(c5_8), c5_16) <= tol
    assert max_abs_diff(reduce_even(c5_16), c5_32) <= tol
    for y, mode in ((c5_8, DILATED), (c5_32, STRIDE)):
        assert y.data.tobytes() == mini_backbone_forward(x, params, config, mode)[2].data.tobytes()
