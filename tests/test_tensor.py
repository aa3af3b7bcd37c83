import contextlib
import hashlib
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpulite.tensor import (
    Rng,
    ShapeError,
    Tensor,
    _axis_weights,
    bilinear_resize,
    bilinear_resize_backward,
    concat_channels,
    load_jt,
    max_abs_diff,
    random_uniform,
    save_jt,
)

from reference import naive_bilinear_resize

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


def test_rng_takes_only_uint64_seeds():
    assert Rng(2**64 - 1).next_u64(1).dtype == np.uint64
    for seed in (-1, 2**64, 1.0, "1", None, True):
        with pytest.raises(ValueError, match="seed"):
            Rng(seed)


@pytest.mark.parametrize("draw", ["next_u64", "uniform"])
@pytest.mark.parametrize("count", [-2, -1, 2.5, 1.0, True, False, None, "3", np.int64(3)])
def test_rng_takes_only_non_negative_int_counts(draw, count):
    rng = Rng(0)
    rng.uniform(2)
    with pytest.raises(ValueError, match="count"):
        getattr(rng, draw)(count)
    assert rng.counter == 2
    assert rng.next_u64(1).tobytes() == Rng(0).next_u64(3)[2:].tobytes()  # the stream goes on at draw 2


def test_rng_draws_nothing_at_count_zero():
    rng = Rng(0)
    assert rng.next_u64(0).shape == rng.uniform(0).shape == (0,)
    assert rng.counter == 0


def test_rng_counter_is_not_an_argument():
    assert Rng(0).counter == 0
    with pytest.raises(TypeError):
        Rng(0, 5)


def test_rng_rejects_bad_range():
    with pytest.raises(ValueError):
        random_uniform((1, 1, 1, 1), Rng(0), lo=1.0, hi=1.0)


@pytest.mark.parametrize(
    "lo, hi",
    [(0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308), (math.nan, 1.0), (0, 10**400), (-10**400, 0), (0.0, 2**1024)],
    ids=["infinite_hi", "infinite_lo", "width_overflows", "nan_lo", "int_hi_past_float", "int_lo_past_float",
         "int_hi_at_2_1024"],
)
def test_rng_uniform_takes_only_a_finite_width(lo, hi):
    # an infinite or overflowing hi - lo would draw inf or NaN, the latter with a RuntimeWarning;
    # an int bound past the float range would raise OverflowError, after the draw or from the width
    rng = Rng(0)
    rng.uniform(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            rng.uniform(3, lo, hi)
    assert rng.counter == 2
    assert rng.next_u64(1).tobytes() == Rng(0).next_u64(3)[2:].tobytes()  # the stream goes on at draw 2
    assert np.all(np.isfinite(Rng(0).uniform(1000, -1e307, 1e307)))  # the widest finite ranges still draw


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


def test_axis_weights_cached_read_only():
    # the cache hands one matrix to every caller, so none of them may write into it
    x = random_uniform((2, 3, 5, 4), Rng(12), -1.0, 1.0, dtype=np.float32)
    y = bilinear_resize(x, 9, 7)
    ah, aw = _axis_weights(5, 9, x.dtype), _axis_weights(4, 7, x.dtype)
    assert ah is _axis_weights(5, 9, x.dtype)
    for a in (ah, aw):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    fresh_h, fresh_w = _axis_weights.__wrapped__(5, 9, x.dtype), _axis_weights.__wrapped__(4, 7, x.dtype)
    assert fresh_h.tobytes() == ah.tobytes() and fresh_w.tobytes() == aw.tobytes()
    assert y.data.tobytes() == (fresh_h @ (x.data @ fresh_w.T)).tobytes()
    g = random_uniform(y.shape, Rng(13), -1.0, 1.0, dtype=np.float32).data
    assert bilinear_resize_backward(g, 5, 4).tobytes() == (fresh_h.T @ (g @ fresh_w)).tobytes()


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
        concat_channels([Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 2)))])


def test_max_abs_diff():
    a = random_uniform((1, 2, 3, 3), Rng(1))
    assert max_abs_diff(a, a) == 0.0
    assert max_abs_diff(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.ones((1, 1, 2, 2)))) == 1.0
    b = random_uniform((1, 2, 3, 3), Rng(2))
    loop = max(abs(x - y) for x, y in zip(a.data.ravel(), b.data.ravel()))
    assert max_abs_diff(a, b) == loop
    with pytest.raises(ShapeError):
        max_abs_diff(a, Tensor(np.zeros((1, 2, 3, 4))))


@contextlib.contextmanager
def short_io(write_max: int = 7, read_max: int = 5):
    """os.write and os.read cut to at most write_max and read_max bytes a call,
    as a pipe or a signal may cut them."""
    write, read = os.write, os.read
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "write", lambda fd, data: write(fd, memoryview(data)[:write_max]))
        mp.setattr(os, "read", lambda fd, n: read(fd, min(n, read_max)))
        yield


# sha256 of the .jt file of random_uniform((2, 3, 4, 5), Rng(11), -2.0, 2.0, dtype)
JT_DIGESTS = {
    "float32": "e68b0804aabc196189f64d3768a0433c71be633b0c94c98f3c9d01ed04d57146",
    "float64": "639b10ef5e8c5b4e69c78d0fad019e4d0b7c109dc9e8b82ba7e5d2963fdc4aee",
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_jt_round_trip(tmp_path, dtype):
    x = random_uniform((2, 3, 4, 5), Rng(11), -2.0, 2.0, dtype=dtype)
    path = tmp_path / "t.jt"
    path.write_bytes(b"\xff" * 4096)  # a longer file already there leaves none of its bytes
    save_jt(path, x)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == JT_DIGESTS[np.dtype(dtype).name]
    y = load_jt(path)
    assert y.dtype == x.dtype
    assert y.data.tobytes() == x.data.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_jt_survives_short_writes_and_reads(tmp_path, dtype):
    x = random_uniform((2, 3, 4, 5), Rng(11), -2.0, 2.0, dtype=dtype)
    path = tmp_path / "t.jt"
    with short_io():
        save_jt(path, x)
        y = load_jt(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == JT_DIGESTS[np.dtype(dtype).name]
    assert y.dtype == x.dtype
    assert y.data.tobytes() == x.data.tobytes()


def test_jt_save_replaces_symlink_not_its_target(tmp_path):
    # a file is written new, not truncated: a link at the path is replaced, its target kept
    target, link = tmp_path / "target.jt", tmp_path / "link.jt"
    target.write_bytes(b"keep me")
    link.symlink_to(target)
    x = random_uniform((1, 2, 3, 1), Rng(15))
    save_jt(link, x)
    assert not link.is_symlink()
    assert target.read_bytes() == b"keep me"
    assert load_jt(link).data.tobytes() == x.data.tobytes()


def test_jt_save_writes_through_link_to_device(tmp_path):
    # only regular files are unlinked: a path leading to a device is written in place
    link = tmp_path / "null.jt"
    link.symlink_to(os.devnull)
    save_jt(link, random_uniform((1, 1, 1, 1), Rng(16)))
    assert link.is_symlink() and os.readlink(link) == os.devnull


def test_jt_load_of_a_directory_names_it(tmp_path):
    with pytest.raises(IsADirectoryError, match=re.escape(repr(str(tmp_path)))):
        load_jt(tmp_path)


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

    def rejects(data, msg):  # the same message whether the file arrives in one read or in many
        bad.write_bytes(data)
        for io in (contextlib.nullcontext, short_io):
            with io(), pytest.raises(ValueError, match=msg):
                load_jt(bad)

    for cut in range(len(good)):
        rejects(good[:cut], "bad magic" if cut < 4 else "truncated header" if cut < 21 else "size mismatch")
    for code in range(2, 256):
        rejects(good[:4] + bytes([code]) + good[5:], f"unknown dtype code {code}")
    rejects(good + b"\x00", "size mismatch")


def test_tensor_immutable():
    t = Tensor(np.zeros((1, 1, 2, 2)))
    with pytest.raises(ValueError):
        t.data[0, 0, 0, 0] = 1.0
