#!/usr/bin/env sh
# Capture the outputs a refactor must leave byte-identical. Each check NAME
# writes OUTDIR/NAME.out (stdout), NAME.err (stderr) and NAME.code (exit code):
# the cost, equiv, jointup-demo, train-demo and bench commands, the file that
# `equiv --output` writes (OUTDIR/equiv_output.json), the key set of a timed
# bench's environment, criterion 8's two MSEs, a sha256 of the
# mini-backbone's weights, layer tables and outputs for the default config and
# the bench config (perfbench's Forward256.config), a sha256 of each ResNet
# preset's layer table (`BackboneSpec(name).layers(mode, (512, 512))`, strides
# and dilations included) in each cost mode, and the name and sha256 of
# each file `save_jpu_params` writes for the bench config's width-8 JPU (saved
# twice into one directory, so the second save writes over the first's
# files), with whether `load_jpu_params` reads back an equal config, and a
# sha256 of the JPU output and of every parameter and input gradient of one
# `jpu_forward` and `jpu_backward` at training shapes (the default config's
# 64x64 teacher pyramid, N 6 in f64, then N 3 in f32), and a sha256 of the
# `conv2d` outputs of thin convs (at most 8 input channels per group: stride
# 1 and 2, dilation 1-4, taps dead at rates past the map, the test suite's
# layout edges, groups above 1; N 1-3, f32 and f64).
#
# scripts/diff_outputs.sh [REV] runs it on a `git archive` copy of REV and on
# this checkout and diffs the two; an empty diff is the check. By hand:
#   scripts/capture_outputs.sh /tmp/before   # in the parent checkout
#   scripts/capture_outputs.sh /tmp/after    # in the change
#   diff -r /tmp/before /tmp/after
# BLAS runs on one thread, so GEMM sums round the same way in both runs.
set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
mkdir -p "$1" && out=$(cd "$1" && pwd) && cd "$(dirname "$0")/.." || exit 2
export PYTHONPATH=src:perfbench PYTHONDONTWRITEBYTECODE=1
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

capture() {  # capture NAME COMMAND...
    name=$1
    shift
    "$@" >"$out/$name.out" 2>"$out/$name.err"
    echo $? >"$out/$name.code"
}

criterion_8() {  # only the MSEs: the criterion's line also prints its wall time
    log=$(python3 -m pytest -q -s -p no:cacheprovider tests/test_acceptance.py -k criterion_8 2>&1)
    status=$?
    printf '%s\n' "$log" | grep -o 'jpu=[^ ]* bilinear=[^ ]*'
    return $status
}

cli() {
    python3 -m jpulite.cli "$@"
}

bench_environment_keys() {  # only the keys: the values and the timings vary by machine and run
    cli bench --input 64 64 --repeats 10 |
        python3 -c 'import json, sys; print(sorted(json.load(sys.stdin)["environment"]))'
}

capture cost_resnet101_compare cli cost --backbone resnet101 --compare
capture cost_resnet50_compare_96x2048 cli cost --backbone resnet50 --compare --input 96 2048
capture cost_resnet101_dilated cli cost --backbone resnet101 --mode dilated
capture cost_resnet50_dilated cli cost --backbone resnet50 --mode dilated
capture cost_resnet50_jpu_width64 cli cost --backbone resnet50 --mode jpu --jpu-width 64
capture cost_resnet101_jpu_96x2048 cli cost --backbone resnet101 --mode jpu --input 96 2048
capture equiv_f64 cli equiv --cases 30 --seed 3
capture equiv_f32 cli equiv --cases 30 --seed 3 --dtype f32
capture equiv_output cli equiv --cases 2 --seed 3 --output "$out/equiv_output.json"
capture jointup_demo_seed4 cli jointup-demo --seed 4
capture jointup_demo_seed5 cli jointup-demo --seed 5
capture train_demo cli train-demo --seeds 1 --steps 5 --samples 4 --image 32
capture bench cli bench --repeats 10 --input 64 64 --no-timing
capture bench_environment_keys bench_environment_keys
capture criterion_8 criterion_8
capture mini_backbone python3 - <<'EOF'
import hashlib

from jpulite import experiments as exp
from jpulite.tensor import Rng, random_uniform
from workloads import Forward256


def sha(chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


for label, config in (("default", exp.MiniBackboneConfig()), ("bench", Forward256.config)):
    params = exp.init_mini_backbone(config, Rng(0))
    convs = [params.stem, *(w for sw in params.stages for w in (sw.head, *sw.body))]
    print(label, "weights", sha(a.tobytes() for w in convs for a in (w.weight.data, w.bias)))
    img = random_uniform((2, config.in_channels, 64, 64), Rng(1), -1.0, 1.0)
    for mode in (exp.STRIDE, exp.DILATED):
        print(label, mode, "layers", sha([repr(config.layers(mode)).encode()]))
        print(label, mode, "outputs", sha(t.data.tobytes() for t in exp.mini_backbone_forward(img, params, config, mode)))
EOF
capture resnet_tables python3 - <<'EOF'
import hashlib

from jpulite.cost import MODES, RESNET_BLOCKS, BackboneSpec

for name in RESNET_BLOCKS:
    for mode in MODES:
        table = BackboneSpec(name).layers(mode, (512, 512))
        print(name, mode, hashlib.sha256(repr(table).encode()).hexdigest())
EOF
capture jpu_checkpoint python3 - <<'EOF'
import hashlib
import tempfile
from pathlib import Path

from jpulite.experiments import BENCH_CONFIG
from jpulite.jpu import JpuConfig, jpu_init, load_jpu_params, save_jpu_params
from jpulite.tensor import Rng

config = JpuConfig(BENCH_CONFIG.level_channels, width=8)
with tempfile.TemporaryDirectory() as d:
    for _ in range(2):
        save_jpu_params(d, jpu_init(config, Rng(0)), config)
    for path in sorted(Path(d).iterdir()):
        print(path.name, hashlib.sha256(path.read_bytes()).hexdigest())
    print("loads an equal config:", load_jpu_params(d)[1] == config)
EOF
capture jpu_train_step python3 - <<'EOF'
import hashlib

import numpy as np

from jpulite import experiments as exp
from jpulite.conv import ConvWeights
from jpulite.jpu import JpuConfig, JpuParams, jpu_backward, jpu_forward, jpu_init
from jpulite.tensor import Rng, Tensor, random_uniform


def sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


config = exp.MiniBackboneConfig()
data = exp.synthetic_teacher(0, 6, config)
jpu_config = JpuConfig(config.level_channels, width=8)
for n, dtype in ((6, np.float64), (3, np.float32)):
    params = JpuParams.from_convs(
        ConvWeights(Tensor(w.weight.data.astype(dtype)), w.bias.astype(dtype))
        for _, w in jpu_init(jpu_config, Rng(1)).convs()
    )
    pyramid = (Tensor(t.data[:n].astype(dtype)) for t in (data.c3, data.c4, data.c5))
    out, cache = jpu_forward(*pyramid, params, jpu_config)
    grads, input_grads = jpu_backward(cache, random_uniform(out.shape, Rng(2), -1.0, 1.0, dtype=dtype))
    label = f"n{n} {np.dtype(dtype).name}"
    print(label, "output", sha(out.data))
    for name, arr in grads.named_tensors():
        print(label, name, sha(arr))
    for level, g in zip(("c3", "c4", "c5"), input_grads):
        print(label, level, sha(g.data))
EOF
capture thin_forward python3 - <<'EOF'
import hashlib
import itertools

import numpy as np

from jpulite.conv import ConvSpec, ConvWeights, conv2d, init_weights
from jpulite.tensor import Rng, random_uniform

cases = [  # (spec, input grid)
    (ConvSpec(c, o, stride=(s, s), dilation=(d, d), padding=(d, d), groups=g), hw)
    for s, d, (c, o, g), hw in itertools.product(
        (1, 2), (1, 2, 3, 4), ((3, 8, 1), (8, 4, 2), (6, 6, 6)), ((3, 3), (3, 7), (7, 5), (8, 8))
    )
] + [
    (ConvSpec(3, 2, stride=(2, 2), padding=(1, 1)), (8, 6)),
    (ConvSpec(2, 3, (1, 1), padding=(1, 1)), (3, 4)),
    (ConvSpec(3, 2, padding=(1, 1)), (1, 1)),
    (ConvSpec(2, 2, stride=(3, 3), padding=(1, 1)), (8, 7)),
    (ConvSpec(6, 2, dilation=(4, 4), padding=(4, 4)), (8, 8)),
    (ConvSpec(2, 2, stride=(2, 1), dilation=(5, 1), padding=(6, 1)), (2, 5)),
    (ConvSpec(4, 4, (5, 3), dilation=(2, 3), padding=(3, 2)), (9, 10)),
    (ConvSpec(3, 16, (7, 7), stride=(2, 2), padding=(3, 3)), (32, 32)),
]
for i, (spec, hw) in enumerate(cases):
    h = hashlib.sha256()
    for n, dtype in itertools.product((1, 2, 3), (np.float32, np.float64)):
        rng = Rng(i)
        x = random_uniform((n, spec.in_channels, *hw), rng, -1.0, 1.0, dtype=dtype)
        w = ConvWeights(init_weights(spec, rng, dtype=dtype).weight, rng.uniform(spec.out_channels, -0.5, 0.5).astype(dtype))
        h.update(conv2d(x, w, spec).data.tobytes())
    print(spec, hw, h.hexdigest())
EOF
