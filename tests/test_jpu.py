import contextlib
import copy
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpulite import experiments, jpu
from jpulite.conv import ConvWeights, conv2d
from jpulite.experiments import TeacherDataset, train_approximator
from jpulite.jpu import (
    DILATION_RATES,
    JpuConfig,
    JpuParams,
    jpu_backward,
    jpu_forward,
    jpu_init,
    jpu_param_grads,
    load_jpu_params,
    save_jpu_params,
)
from jpulite.tensor import Rng, ShapeError, Tensor, max_abs_diff, random_uniform, save_jt

from reference import central_difference
from test_tensor import short_io

TINY = JpuConfig((3, 4, 5), width=2)


def pyramid(cfg, seed, n=1, h=8, w=8, lo=-1.0, hi=1.0):
    rng = Rng(seed)
    c3 = random_uniform((n, cfg.in_channels[0], h, w), rng, lo, hi)
    c4 = random_uniform((n, cfg.in_channels[1], h // 2, w // 2), rng, lo, hi)
    c5 = random_uniform((n, cfg.in_channels[2], h // 4, w // 4), rng, lo, hi)
    return c3, c4, c5


def test_config_validation():
    assert [f.name for f in dataclasses.fields(JpuConfig)] == ["in_channels", "width"]
    assert JpuConfig((1, 2, 3), 4).out_channels == 16
    with pytest.raises(TypeError):
        JpuConfig((1, 2, 3), 4, dilation_rates=(1, 2))
    with pytest.raises(TypeError):
        JpuConfig((1, 2, 3), 4, out_channels=16)


_FIELD_VALUES = st.one_of(st.integers(-1, 6), st.floats(-1, 6), st.booleans(), st.none(), st.text(max_size=2))


@given(in_channels=st.lists(_FIELD_VALUES, max_size=5), width=_FIELD_VALUES)
def test_config_accepts_only_three_positive_int_channels(in_channels, width):
    if len(in_channels) == 3 and all(type(v) is int and v >= 1 for v in in_channels + [width]):
        assert JpuConfig(tuple(in_channels), width).in_channels == tuple(in_channels)
    else:
        with pytest.raises(ShapeError):
            JpuConfig(tuple(in_channels), width)


def test_init_deterministic():
    a = jpu_init(TINY, Rng(5))
    b = jpu_init(TINY, Rng(5))
    for (na, ta), (nb, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert na == nb
        assert np.asarray(ta).tobytes() == np.asarray(tb).tobytes()


def test_init_shapes():
    cfg = JpuConfig((8, 16, 32), width=8)
    p = jpu_init(cfg, Rng(0))
    assert [lw.weight.shape for lw in p.levels] == [(8, 8, 3, 3), (8, 16, 3, 3), (8, 32, 3, 3)]
    for dw, pw in p.branches:
        assert dw.weight.shape == (24, 1, 3, 3)
        assert pw.weight.shape == (8, 24, 1, 1)
    assert p.fusion.weight.shape == (32, 32, 3, 3)
    for _, arr in p.named_tensors():
        if np.asarray(arr).ndim == 1:
            assert not np.asarray(arr).any()  # biases start at zero


def test_layer_table_matches_params():
    cfg = JpuConfig((3, 4, 5), width=3)
    p = jpu_init(cfg, Rng(21))
    table = cfg.layers()
    assert [(name, spec.weight_shape) for name, spec, _ in table] == [
        (name, w.weight.shape) for name, w in p.convs()
    ]
    assert [level for _, _, level in table] == [0, 1, 2] + [0] * 9
    rebuilt = JpuParams.from_convs(w for _, w in p.convs())
    assert [id(w) for _, w in rebuilt.convs()] == [id(w) for _, w in p.convs()]
    assert [n for n, _ in rebuilt.named_tensors()] == [n for n, _ in p.named_tensors()]


def test_layer_table_is_one_cached_tuple():
    cfg = JpuConfig((3, 4, 5), width=3)
    table = cfg.layers()
    assert isinstance(table, tuple)  # the cached table cannot be changed in place
    assert cfg.layers() is table
    assert JpuConfig((3, 4, 5), width=3).layers() is table  # equal configs share it


def test_init_weight_std():
    cfg = JpuConfig((64, 64, 64), width=64)
    p = jpu_init(cfg, Rng(3))
    w = p.levels[0].weight.data  # fan_in = 64*9
    bound = np.sqrt(1.0 / (64 * 9))
    assert abs(w.std() - bound / np.sqrt(3)) / (bound / np.sqrt(3)) < 0.05
    assert np.max(np.abs(w)) <= bound


def test_forward_shapes():
    cfg = JpuConfig((8, 16, 32), width=8)
    p = jpu_init(cfg, Rng(1))
    rng = Rng(2)
    c3 = random_uniform((1, 8, 16, 16), rng, -1, 1)
    c4 = random_uniform((1, 16, 8, 8), rng, -1, 1)
    c5 = random_uniform((1, 32, 4, 4), rng, -1, 1)
    y, cache = jpu_forward(c3, c4, c5, p, cfg)
    assert list(cache.convs) == ["level0", "level1", "level2", "branch0", "branch1", "branch2", "branch3", "fusion"]
    assert cache.convs["branch0"][2].shape == (1, 24, 16, 16)  # the concatenated pyramid
    assert y.shape == (1, 32, 16, 16)
    assert cache.convs["fusion"][3] is y


@pytest.mark.parametrize(
    "level, bad, expect",
    [(0, (1, 4, 8, 8), (1, 3, 8, 8)), (1, (1, 4, 3, 3), (1, 4, 4, 4)), (2, (1, 5, 3, 3), (1, 5, 2, 2))],
    ids=["level0", "level1", "level2"],
)
def test_forward_rejects_bad_pyramid(level, bad, expect):
    p = jpu_init(TINY, Rng(0))
    levels = list(pyramid(TINY, 0))
    levels[level] = random_uniform(bad, Rng(1))
    with pytest.raises(ShapeError, match=re.escape(f"level{level} input shape {bad}, expected {expect}")):
        jpu_forward(*levels, p, TINY)


@pytest.mark.parametrize("level, dtypes", [(1, (np.float64, np.float32)), (2, (np.float32, np.float64))])
def test_forward_rejects_mixed_dtype_pyramid(level, dtypes, monkeypatch):
    """A pyramid level in another dtype than level0's is named before any conv runs."""
    p = jpu_init(TINY, Rng(0))
    levels = [Tensor(t.data.astype(dtypes[0])) for t in pyramid(TINY, 0)]
    levels[level] = Tensor(levels[level].data.astype(dtypes[1]))
    convs = []
    monkeypatch.setattr(jpu, "conv2d", lambda *args, **kw: convs.append(args) or conv2d(*args, **kw))
    want = f"level{level} input dtype {np.dtype(dtypes[1])}, expected level0's {np.dtype(dtypes[0])}"
    with pytest.raises(ShapeError, match=re.escape(want)):
        jpu_forward(*levels, p, TINY)
    assert convs == []


# One weight of another shape per layer kind of TINY (width 2, so each branch reads
# 3w = 6 channels). Folding would read the depthwise and pointwise ones only in part
# (the first input slice, the [0, 0] tap), so only the check can reject them.
_BAD_WEIGHTS = {
    "level1": (2, 5, 3, 3),
    "branch2.depthwise": (6, 2, 3, 3),
    "branch0.pointwise": (2, 6, 3, 3),
    "fusion": (8, 8, 1, 1),
}


def _with_weight(params, name, shape):
    """params with layer `name`'s weight swapped for a random one of `shape`."""
    convs = dict(params.convs())
    convs[name] = ConvWeights(random_uniform(shape, Rng(3)), np.zeros(shape[0]))
    return JpuParams.from_convs(convs.values())


def _assert_rejected_everywhere(edit, msg, tmp_path, monkeypatch):
    """jpu_forward, save_jpu_params (before writing any file) and, through
    jpu_forward, train_approximator reject `edit` of TINY's params with `msg`."""
    msg = "^" + re.escape(msg) + "$"
    params = edit(jpu_init(TINY, Rng(0)))
    with pytest.raises(ShapeError, match=msg):
        jpu_forward(*pyramid(TINY, 0), params, TINY)
    with pytest.raises(ShapeError, match=msg):
        save_jpu_params(tmp_path, params, TINY)
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(experiments, "jpu_init", lambda cfg, rng: edit(jpu_init(cfg, rng)))
    data = TeacherDataset(*pyramid(TINY, 1, n=4), random_uniform((4, 5, 8, 8), Rng(2)))
    with pytest.raises(ShapeError, match=msg):
        train_approximator("jpu", data, 1, 0.1, 0, TINY.width)


@pytest.mark.parametrize("name, shape", list(_BAD_WEIGHTS.items()), ids=list(_BAD_WEIGHTS))
def test_a_weight_of_another_shape_fails_naming_its_layer(name, shape, tmp_path, monkeypatch):
    """Every entry point rejects it with save_jpu_params's message, before any conv runs."""
    need = {n: spec.weight_shape for n, spec, _ in TINY.layers()}[name]
    msg = f"{name} holds a {shape} weight, the config needs {need}"
    _assert_rejected_everywhere(lambda p: _with_weight(p, name, shape), msg, tmp_path, monkeypatch)


_BAD_LAYERS = {
    "missing_branch": (lambda p: JpuParams(p.levels, p.branches[:3], p.fusion),
                       "the params hold no branch3.depthwise layer, which the config needs"),
    "extra_branch": (lambda p: JpuParams(p.levels, p.branches + p.branches[:1], p.fusion),
                     "the params hold a branch4.depthwise layer, which the config lacks"),
    "missing_level": (lambda p: JpuParams(p.levels[:2], p.branches, p.fusion),
                      "the params hold no level2 layer, which the config needs"),
}


@pytest.mark.parametrize("edit, msg", list(_BAD_LAYERS.values()), ids=list(_BAD_LAYERS))
def test_a_missing_or_extra_layer_fails_naming_it(edit, msg, tmp_path, monkeypatch):
    _assert_rejected_everywhere(edit, msg, tmp_path, monkeypatch)


def test_zero_weights_zero_output():
    def zero_like(w: ConvWeights) -> ConvWeights:
        return ConvWeights(Tensor(np.zeros_like(w.weight.data)), np.zeros_like(w.bias))

    p = jpu_init(TINY, Rng(2))
    pz = JpuParams(
        [zero_like(w) for w in p.levels],
        [(zero_like(d), zero_like(q)) for d, q in p.branches],
        zero_like(p.fusion),
    )
    y, _ = jpu_forward(*pyramid(TINY, 3), pz, TINY)
    assert not y.data.any()


def test_input_doubling_scales_concat_stage():
    # with zero biases everything up to the first concat is linear
    p = jpu_init(TINY, Rng(4))
    c3, c4, c5 = pyramid(TINY, 5, lo=0.01, hi=1.0)  # positive: ReLU transparent-free check uses y_c pre-branch
    _, cache1 = jpu_forward(c3, c4, c5, p, TINY)
    double = [Tensor(2 * t.data) for t in (c3, c4, c5)]
    _, cache2 = jpu_forward(*double, p, TINY)

    def level_pre(cache):  # the level convs' pre-activations, recomputed from their cached inputs
        return [conv2d(x, w, spec) for name, (spec, w, x, _) in cache.convs.items() if name.startswith("level")]

    # pre-activation level outputs double exactly (biases are zero at init)
    for z1, z2 in zip(level_pre(cache1), level_pre(cache2), strict=True):
        assert max_abs_diff(Tensor(2 * z1.data), z2) <= 1e-12
    y_c1, y_c2 = cache1.convs["branch0"][2], cache2.convs["branch0"][2]
    assert max_abs_diff(Tensor(2 * y_c1.data), y_c2) <= 1e-12


def test_determinism():
    p = jpu_init(TINY, Rng(6))
    y1, _ = jpu_forward(*pyramid(TINY, 7), p, TINY)
    y2, _ = jpu_forward(*pyramid(TINY, 7), p, TINY)
    assert y1.data.tobytes() == y2.data.tobytes()


@pytest.mark.parametrize("rate", DILATION_RATES)
def test_branch_receptive_field(rate):
    # a one-hot probe through the dilation-d depthwise conv responds only at offsets {-d,0,+d}^2
    cfg = JpuConfig((1, 1, 1), width=1)
    i = DILATION_RATES.index(rate)
    size = 4 * rate + 4
    probe = np.zeros((1, 3, size, size))
    probe[0, :, size // 2, size // 2] = 1.0
    p = jpu_init(cfg, Rng(8))
    dspec = {name: spec for name, spec, _ in cfg.layers()}[f"branch{i}.depthwise"]
    assert dspec.dilation == (rate, rate)
    resp = conv2d(Tensor(probe), p.branches[i][0], dspec).data
    nz = np.argwhere(np.abs(resp).sum(axis=(0, 1)) > 0)
    offsets = {tuple(v) for v in (nz - size // 2)}
    allowed = {(dy, dx) for dy in (-rate, 0, rate) for dx in (-rate, 0, rate)}
    assert offsets <= allowed


def test_backward_zero_grad():
    p = jpu_init(TINY, Rng(11))
    y, cache = jpu_forward(*pyramid(TINY, 12), p, TINY)
    grads, in_grads = jpu_backward(cache, Tensor(np.zeros_like(y.data)))
    for _, arr in grads.named_tensors():
        assert not np.asarray(arr).any()
    for g in in_grads:
        assert not g.data.any()


def test_step_folds_each_branch_once(monkeypatch):
    """The forward folds each branch's weights once and the backward reads
    them from the cache; its gradients are byte-identical to those of a
    backward that folds every branch afresh."""
    folds = []
    fold = jpu._fold_branch
    monkeypatch.setattr(jpu, "_fold_branch", lambda *a: folds.append(a) or fold(*a))
    p = jpu_init(TINY, Rng(19))
    y, cache = jpu_forward(*pyramid(TINY, 20, n=3), p, TINY)
    go = random_uniform(y.shape, Rng(21), -1, 1)
    grads, in_grads = jpu_backward(cache, go)
    assert len(folds) == len(DILATION_RATES)

    convs = dict(cache.convs)
    for i in range(len(DILATION_RATES)):  # each branch folded afresh; its input and output kept
        convs[f"branch{i}"] = (*fold(cache.layers, i), *convs[f"branch{i}"][2:])
    refolded = dataclasses.replace(cache, convs=convs)
    want_grads, want_in = jpu_backward(refolded, go)
    got = [np.asarray(a).tobytes() for _, a in grads.named_tensors()] + [g.data.tobytes() for g in in_grads]
    want = [np.asarray(a).tobytes() for _, a in want_grads.named_tensors()] + [g.data.tobytes() for g in want_in]
    assert got == want


@pytest.fixture(scope="module")
def teacher():
    """The default config's 64x64 teacher, 6 samples: the pyramid train-demo and criterion 8 train on."""
    return experiments.synthetic_teacher(0, 6, experiments.MiniBackboneConfig())


@pytest.mark.parametrize("n, dtype", [(6, np.float64), (3, np.float32)])
def test_param_grads_are_the_backwards_byte_for_byte(teacher, n, dtype):
    """jpu_param_grads leaves out the pyramid's gradients and nothing else: on
    the training pyramid its parameter gradients are jpu_backward's, byte for
    byte, in f64 and f32."""
    cfg = JpuConfig(experiments.MiniBackboneConfig().level_channels, width=8)
    params = JpuParams.from_convs(
        ConvWeights(Tensor(w.weight.data.astype(dtype)), w.bias.astype(dtype)) for _, w in jpu_init(cfg, Rng(1)).convs()
    )
    levels = (Tensor(t.data[:n].astype(dtype)) for t in (teacher.c3, teacher.c4, teacher.c5))
    y, cache = jpu_forward(*levels, params, cfg)
    go = random_uniform(y.shape, Rng(2), -1.0, 1.0, dtype=dtype)
    want, got = jpu_backward(cache, go)[0], jpu_param_grads(cache, go)
    for (name, a), (got_name, b) in zip(want.named_tensors(), got.named_tensors(), strict=True):
        assert (got_name, b.dtype, b.shape, b.tobytes()) == (name, a.dtype, a.shape, a.tobytes())


def test_backward_finite_differences():
    cfg = TINY
    p = jpu_init(cfg, Rng(13))
    c3, c4, c5 = pyramid(cfg, 14)
    y, cache = jpu_forward(c3, c4, c5, p, cfg)
    go = random_uniform(y.shape, Rng(15), -1, 1)
    grads, in_grads = jpu_backward(cache, go)

    mutable = {name: np.asarray(arr).copy() for name, arr in p.named_tensors()}

    def rebuild():
        return JpuParams.from_convs(
            ConvWeights(Tensor(mutable[f"{name}.weight"].copy()), mutable[f"{name}.bias"].copy())
            for name, _, _ in cfg.layers()
        )

    def loss():
        out, _ = jpu_forward(c3, c4, c5, rebuild(), cfg)
        return float(np.sum(out.data * go.data))

    # Along one parameter the loss is piecewise linear, so the step only has to stay
    # inside the ReLU pieces: a rate-8 branch pre-activation here lies 3.4e-6 from its kink.
    analytic = dict(grads.named_tensors())
    for name, arr in mutable.items():
        num = central_difference(loss, arr, eps=1e-6)
        got = np.asarray(analytic[name])
        denom = np.maximum(np.abs(num), 1e-3)
        assert np.max(np.abs(got - num) / denom) <= 1e-5, name


def test_dead_path_zero_gradient():
    # force the fusion pre-activation everywhere negative: upstream params get no gradient
    p = jpu_init(TINY, Rng(16))
    fb = p.fusion.bias - 1e3
    pdead = JpuParams(p.levels, p.branches, ConvWeights(p.fusion.weight, fb))
    y, cache = jpu_forward(*pyramid(TINY, 17), pdead, TINY)
    assert not y.data.any()
    grads, _ = jpu_backward(cache, random_uniform(y.shape, Rng(18), -1, 1))
    for name, arr in grads.named_tensors():
        assert not np.asarray(arr).any(), name


def test_serialization_round_trip(tmp_path):
    cfg = JpuConfig((3, 4, 5), width=3)
    p = jpu_init(cfg, Rng(19))
    save_jpu_params(tmp_path / "params", p, cfg)
    p2, cfg2 = load_jpu_params(tmp_path / "params")
    assert cfg2 == cfg
    for (na, a), (nb, b) in zip(p.named_tensors(), p2.named_tensors()):
        assert na == nb
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    y1, _ = jpu_forward(*pyramid(cfg, 20), p, cfg)
    y2, _ = jpu_forward(*pyramid(cfg, 20), p2, cfg)
    assert y1.data.tobytes() == y2.data.tobytes()


# sha256 over the name, size and bytes of every file save_jpu_params writes for
# jpu_init(TINY, Rng(26)) cast to the dtype, in name order
CHECKPOINT_DIGESTS = {
    "float32": "45c646b3984746760c4acefdd5db948d4c927b261012145198b3fae9628b233a",
    "float64": "0739e3d3e0066c49c28a5009fd5065459a59f4c3aa3bc8a41a058f70c0ac3831",
}


@pytest.mark.parametrize("io", [contextlib.nullcontext, short_io], ids=["whole_io", "short_io"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_bytes_golden(tmp_path, dtype, io):
    convs = jpu_init(TINY, Rng(26)).convs()
    p = JpuParams.from_convs(ConvWeights(Tensor(cw.weight.data.astype(dtype)), cw.bias.astype(dtype)) for _, cw in convs)
    with io():
        save_jpu_params(tmp_path, p, TINY)
        p2, cfg2 = load_jpu_params(tmp_path)
    h = hashlib.sha256()
    for f in sorted(tmp_path.iterdir()):
        data = f.read_bytes()
        h.update(f"{f.name}\0{len(data)}\0".encode() + data)
    assert h.hexdigest() == CHECKPOINT_DIGESTS[np.dtype(dtype).name]
    assert cfg2 == TINY
    for (na, a), (nb, b) in zip(p.named_tensors(), p2.named_tensors(), strict=True):
        assert na == nb and a.dtype == b.dtype and np.array_equal(a, b), na


def test_save_over_a_wider_checkpoint(tmp_path):
    # every file is written new, so what a wider config left behind cannot survive in a narrower one's files
    wide, narrow = JpuConfig((3, 4, 5), width=4), JpuConfig((3, 4, 5), width=2)
    p = jpu_init(narrow, Rng(21))
    save_jpu_params(tmp_path / "fresh", p, narrow)
    save_jpu_params(tmp_path / "reused", jpu_init(wide, Rng(20)), wide)
    save_jpu_params(tmp_path / "reused", p, narrow)
    fresh = sorted(f.name for f in (tmp_path / "fresh").iterdir())
    assert sorted(f.name for f in (tmp_path / "reused").iterdir()) == fresh
    for name in fresh:
        assert (tmp_path / "reused" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name
    p2, cfg2 = load_jpu_params(tmp_path / "reused")
    assert cfg2 == narrow
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(p.named_tensors(), p2.named_tensors(), strict=True))


def test_save_rejects_params_of_another_config(tmp_path):
    # saving width-2 params under a width-3 config fails before any file is written,
    # so the checkpoint already in the directory stays as it was and still loads
    cfg = JpuConfig((3, 4, 5), width=3)
    p = jpu_init(cfg, Rng(23))
    save_jpu_params(tmp_path, p, cfg)
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    with pytest.raises(ValueError, match=r"^level0 holds a \(2, 3, 3, 3\) weight"):
        save_jpu_params(tmp_path, jpu_init(JpuConfig((3, 4, 5), width=2), Rng(24)), cfg)
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
    p2, cfg2 = load_jpu_params(tmp_path)
    assert cfg2 == cfg
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(p.named_tensors(), p2.named_tensors(), strict=True))
    with pytest.raises(ValueError, match=r"^level2 holds a \(3, 6, 3, 3\) weight"):
        save_jpu_params(tmp_path / "fresh", jpu_init(JpuConfig((3, 4, 6), width=3), Rng(25)), cfg)
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("name, shape", [("fusion.weight", (12, 12, 1, 1)), ("branch1.pointwise.bias", (1, 2, 1, 1))])
def test_load_rejects_tensor_shape_mismatch(tmp_path, name, shape):
    cfg = JpuConfig((3, 4, 5), width=3)
    save_jpu_params(tmp_path, jpu_init(cfg, Rng(22)), cfg)
    save_jt(tmp_path / f"{name}.jt", Tensor(np.zeros(shape)))
    with pytest.raises(ValueError, match=name):
        load_jpu_params(tmp_path)


@pytest.mark.parametrize("key, value", [("dilation_rates", [1, 2, 4]), ("dilation_rates", [1, 2, 3, 4]), ("out_channels", 6)])
def test_load_rejects_another_jpu_design(tmp_path, key, value):
    # the rates and the output width are fixed, so a manifest that names others is no checkpoint of this module
    save_jpu_params(tmp_path, jpu_init(TINY, Rng(23)), TINY)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["dilation_rates"] == list(DILATION_RATES)
    assert manifest["config"]["out_channels"] == TINY.out_channels
    manifest["config"][key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_jpu_params(tmp_path)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    d = tmp_path_factory.mktemp("checkpoint")
    save_jpu_params(d, jpu_init(TINY, Rng(24)), TINY)
    return d, json.loads((d / "manifest.json").read_text())


def _manifest_edits(good):
    """Strategy: `good` with one key dropped, one value swapped for one of
    another type, or a drawn schema value or in_channels list."""
    paths = [(k,) for k in good] + [("config", k) for k in good["config"]]

    def parent(m, path):
        return m if len(path) == 1 else m[path[0]]

    def drop(path):
        m = copy.deepcopy(good)
        del parent(m, path)[path[-1]]
        return m

    def swap(path, value):
        m = copy.deepcopy(good)
        parent(m, path)[path[-1]] = value
        return m

    def retyped(path):
        old = type(parent(good, path)[path[-1]])
        return _FIELD_VALUES.filter(lambda v: type(v) is not old).map(lambda v: swap(path, v))

    return st.one_of(
        st.sampled_from(paths).map(drop),
        st.sampled_from(paths).flatmap(retyped),
        _FIELD_VALUES.map(lambda v: swap(("schema",), v)),
        st.lists(st.integers(1, 6), max_size=6).map(lambda v: swap(("config", "in_channels"), v)),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_rejects_every_malformed_manifest(checkpoint, data):
    path, good = checkpoint
    manifest = data.draw(_manifest_edits(good))
    (path / "manifest.json").write_text(json.dumps(manifest))
    if json.dumps(manifest, sort_keys=True) == json.dumps(good, sort_keys=True):
        assert load_jpu_params(path)[1] == TINY
    else:
        with pytest.raises(ValueError):
            load_jpu_params(path)
