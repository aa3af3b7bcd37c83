import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpulite.tensor import (
    Rng,
    ShapeError,
    Tensor,
    bilinear_resize,
    concat_channels,
    load_jt,
    max_abs_diff,
    random_uniform,
    save_jt,
    zeros,
)

from reference import naive_bilinear_resize

dims = st.integers(min_value=1, max_value=5)
shapes = st.tuples(dims, dims, dims, dims)


def test_zeros_basic():
    t = zeros((1, 1, 2, 2))
    assert t.shape == (1, 1, 2, 2)
    assert np.all(t.data == 0.0)
    assert zeros((2, 3, 4, 5)).data.size == 120


def test_zeros_rejects_zero_dim():
    with pytest.raises(ShapeError):
        zeros((1, 0, 2, 2))


@given(shapes)
def test_zeros_sum(shape):
    assert zeros(shape).data.sum() == 0.0


def test_rng_determinism():
    a = random_uniform((2, 3, 4, 5), Rng(0))
    b = random_uniform((2, 3, 4, 5), Rng(0))
    assert a.data.tobytes() == b.data.tobytes()
    c = random_uniform((2, 3, 4, 5), Rng(1))
    assert a.data.tobytes() != c.data.tobytes()


def test_rng_range_and_mean():
    one = random_uniform((1, 1, 1, 1), Rng(7))
    assert 0.0 <= one.data[0, 0, 0, 0] < 1.0
    big = Rng(123).uniform(100_000)
    assert np.all((big >= 0.0) & (big < 1.0))
    assert abs(big.mean() - 0.5) < 0.01


def test_rng_rejects_bad_range():
    with pytest.raises(ValueError):
        random_uniform((1, 1, 1, 1), Rng(0), lo=1.0, hi=1.0)


def test_bilinear_constant_preserved():
    x = Tensor(np.full((1, 2, 3, 3), 7.0))
    y = bilinear_resize(x, 9, 5)
    assert np.max(np.abs(y.data - 7.0)) <= np.finfo(np.float64).eps * 8


def test_bilinear_identity_exact():
    x = random_uniform((2, 3, 5, 4), Rng(9))
    assert max_abs_diff(bilinear_resize(x, 5, 4), x) == 0.0


def test_bilinear_row_against_scalar_reference():
    x = Tensor(np.array([0.0, 1.0]).reshape(1, 1, 1, 2))
    got = bilinear_resize(x, 1, 4)
    want = naive_bilinear_resize(x.data, 1, 4)
    assert np.allclose(got.data, want, atol=1e-15)
    # frozen values from the half-pixel formula: s = (d+0.5)/2 - 0.5
    assert np.allclose(got.data.ravel(), [0.0, 0.25, 0.75, 1.0], atol=1e-15)


@given(st.integers(0, 2**16), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=30)
def test_bilinear_matches_reference(seed, oh, ow):
    x = random_uniform((1, 2, 3, 4), Rng(seed), -1.0, 1.0)
    got = bilinear_resize(x, oh, ow)
    want = naive_bilinear_resize(x.data, oh, ow)
    assert np.max(np.abs(got.data - want)) < 1e-13


def test_concat_single_identity():
    a = random_uniform((1, 3, 2, 2), Rng(0))
    assert max_abs_diff(concat_channels([a]), a) == 0.0


def test_concat_shapes_and_layout():
    rng = Rng(3)
    a = random_uniform((1, 8, 4, 4), rng)
    b = random_uniform((1, 16, 4, 4), rng)
    c = random_uniform((1, 32, 4, 4), rng)
    out = concat_channels([a, b, c])
    assert out.shape == (1, 56, 4, 4)
    assert np.array_equal(out.data[:, 8:24], b.data)


def test_concat_associative():
    rng = Rng(4)
    a, b, c = (random_uniform((2, i, 3, 3), rng) for i in (1, 2, 3))
    left = concat_channels([a, concat_channels([b, c])])
    flat = concat_channels([a, b, c])
    assert left.data.tobytes() == flat.data.tobytes()


def test_concat_rejects_mismatch():
    with pytest.raises(ShapeError):
        concat_channels([zeros((1, 1, 2, 2)), zeros((1, 1, 3, 2))])


def test_max_abs_diff():
    a = random_uniform((1, 2, 3, 3), Rng(1))
    assert max_abs_diff(a, a) == 0.0
    assert max_abs_diff(zeros((1, 1, 2, 2)), Tensor(np.ones((1, 1, 2, 2)))) == 1.0
    b = random_uniform((1, 2, 3, 3), Rng(2))
    loop = max(abs(x - y) for x, y in zip(a.data.ravel(), b.data.ravel()))
    assert max_abs_diff(a, b) == loop
    with pytest.raises(ShapeError):
        max_abs_diff(a, zeros((1, 2, 3, 4)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_jt_round_trip(tmp_path, dtype):
    x = random_uniform((2, 3, 4, 5), Rng(11), -2.0, 2.0, dtype=dtype)
    path = tmp_path / "t.jt"
    save_jt(path, x)
    y = load_jt(path)
    assert y.dtype == x.dtype
    assert y.data.tobytes() == x.data.tobytes()


def test_jt_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.jt"
    p.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError):
        load_jt(p)


@given(shape=st.tuples(*[st.integers(1, 2)] * 4), dtype=st.sampled_from([np.float32, np.float64]))
@settings(max_examples=10, deadline=None)
def test_jt_rejects_every_malformed_file(tmp_path_factory, shape, dtype):
    d = tmp_path_factory.mktemp("jt")
    save_jt(d / "good.jt", random_uniform(shape, Rng(5), -1.0, 1.0, dtype=dtype))
    good = (d / "good.jt").read_bytes()
    bad = d / "bad.jt"
    for cut in range(len(good)):
        bad.write_bytes(good[:cut])
        with pytest.raises(ValueError):
            load_jt(bad)
    for code in range(2, 256):
        bad.write_bytes(good[:4] + bytes([code]) + good[5:])
        with pytest.raises(ValueError, match=f"unknown dtype code {code}"):
            load_jt(bad)
    bad.write_bytes(good + b"\x00")
    with pytest.raises(ValueError, match="size mismatch"):
        load_jt(bad)


def test_tensor_immutable():
    t = zeros((1, 1, 2, 2))
    with pytest.raises(ValueError):
        t.data[0, 0, 0, 0] = 1.0
