import numpy as np
import pytest

from jpulite.conv import (
    ConvSpec,
    ConvWeights,
    conv2d,
    conv2d_backward,
    init_weights,
    relu,
    relu_backward,
    separable_spec,
)
from jpulite.tensor import Rng, ShapeError, Tensor, max_abs_diff, random_uniform

from reference import central_difference, naive_conv2d


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


def test_identity_kernel():
    x = random_uniform((1, 1, 4, 4), Rng(0))
    w = ConvWeights(Tensor(np.ones((1, 1, 1, 1))), np.zeros(1))
    y = conv2d(x, w, ConvSpec(1, 1, kernel=(1, 1)))
    assert max_abs_diff(y, x) == 0.0


def test_1d_dilated_example():
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 4))
    w = ConvWeights(Tensor(np.array([1.0, 0.0, -1.0]).reshape(1, 1, 1, 3)))
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
    w = init_weights(spec, rng, with_bias=False)
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


# --- separable ---------------------------------------------------------------


def test_separable_delta_identity():
    c = 3
    dw = np.zeros((c, 1, 3, 3))
    dw[:, 0, 1, 1] = 1.0
    pw = np.eye(c).reshape(c, c, 1, 1)
    x = random_uniform((1, c, 6, 6), Rng(2), -1, 1)
    dspec, pspec = separable_spec(c, c, 2)
    y = conv2d(conv2d(x, ConvWeights(Tensor(dw)), dspec), ConvWeights(Tensor(pw)), pspec)
    assert max_abs_diff(y, x) == 0.0


@pytest.mark.parametrize("dilation", [1, 2, 4, 8])
def test_separable_shape_preserved(dilation):
    rng = Rng(dilation)
    c, out = 4, 6
    dspec, pspec = separable_spec(c, out, dilation)
    dw = init_weights(dspec, rng)
    pw = init_weights(pspec, rng)
    x = random_uniform((2, c, 16, 16), rng, -1, 1)
    y = conv2d(conv2d(x, dw, dspec), pw, pspec)
    assert y.shape == (2, out, 16, 16)


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
