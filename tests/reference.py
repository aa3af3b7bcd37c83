"""Independent scalar-loop oracles used to pin expected values.

Deliberately dumb: plain nested Python loops, no vectorization, no code shared
with the library paths they check.
"""

from types import SimpleNamespace

import numpy as np


def naive_conv2d(x, weight, bias, stride, dilation, padding, groups=1):
    """x: (n,c,h,w); weight: (o, c/groups, kh, kw); returns (n,o,oh,ow)."""
    n, cin, h, w = x.shape
    o, cg, kh, kw = weight.shape
    sh, sw = stride
    dh, dw = dilation
    ph, pw = padding
    oh = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    ow = (w + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    og = o // groups
    y = np.zeros((n, o, oh, ow), dtype=x.dtype)
    mults = 0
    for ni in range(n):
        for oi in range(o):
            g = oi // og
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0 if bias is None else bias[oi]
                    for c in range(cg):
                        for u in range(kh):
                            for v in range(kw):
                                yy = i * sh - ph + u * dh
                                xx = j * sw - pw + v * dw
                                if 0 <= yy < h and 0 <= xx < w:
                                    acc += weight[oi, c, u, v] * x[ni, g * cg + c, yy, xx]
                                mults += 1
                    y[ni, oi, i, j] = acc
    return y, mults


def naive_conv2d_backward(x, weight, grad_out, stride, dilation, padding, groups=1):
    """Adjoint of naive_conv2d: (grad_x, grad_weight, grad_bias) of
    sum(grad_out * conv), accumulated one scalar product at a time."""
    n, cin, h, w = x.shape
    o, cg, kh, kw = weight.shape
    _, _, oh, ow = grad_out.shape
    sh, sw = stride
    dh, dw = dilation
    ph, pw = padding
    og = o // groups
    gx = np.zeros_like(x)
    gw = np.zeros_like(weight)
    gb = np.zeros(o, dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            g = oi // og
            for i in range(oh):
                for j in range(ow):
                    go = grad_out[ni, oi, i, j]
                    gb[oi] += go
                    for c in range(cg):
                        for u in range(kh):
                            for v in range(kw):
                                yy = i * sh - ph + u * dh
                                xx = j * sw - pw + v * dw
                                if 0 <= yy < h and 0 <= xx < w:
                                    gx[ni, g * cg + c, yy, xx] += weight[oi, c, u, v] * go
                                    gw[oi, c, u, v] += x[ni, g * cg + c, yy, xx] * go
    return gx, gw, gb


def naive_bilinear_resize(x, out_h, out_w):
    """Half-pixel-center bilinear resampling, one output pixel at a time."""
    n, c, h, w = x.shape
    y = np.zeros((n, c, out_h, out_w), dtype=x.dtype)
    for i in range(out_h):
        sy = min(max((i + 0.5) * (h / out_h) - 0.5, 0.0), h - 1)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(out_w):
            sx = min(max((j + 0.5) * (w / out_w) - 0.5, 0.0), w - 1)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            top = (1 - fx) * x[:, :, y0, x0] + fx * x[:, :, y0, x1]
            bot = (1 - fx) * x[:, :, y1, x0] + fx * x[:, :, y1, x1]
            y[:, :, i, j] = (1 - fy) * top + fy * bot
    return y


def central_difference(f, arr, eps=1e-5):
    """Gradient of scalar f w.r.t. every element of arr by central differences."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + eps
        fp = f()
        arr[idx] = orig - eps
        fm = f()
        arr[idx] = orig
        g[idx] = (fp - fm) / (2 * eps)
    return g


def per_sample_train_approximator(method, dataset, steps, lr, seed, jpu_width=8, holdout=None):
    """Oracle for experiments.train_approximator: the same SGD run one sample at
    a time (n=1 forward and backward per sample, gradients summed in Python).

    Built from the library's n=1 conv, JPU and resize primitives, which have
    their own oracles above; what this checks is the batching along N.
    Returns (loss_curve, final_mse, param_count).
    """
    from jpulite.conv import ConvSpec, ConvWeights, conv2d, conv2d_backward, init_weights
    from jpulite.jpu import JpuConfig, JpuParams, jpu_backward, jpu_forward, jpu_init
    from jpulite.tensor import Rng, Tensor, bilinear_resize

    # each sample's c3, c4, c5 and target as n=1 Tensors, sliced out of the stacked dataset
    fields = {f: getattr(dataset, f) for f in ("c3", "c4", "c5", "target")}
    samples = [SimpleNamespace(**{f: Tensor(t.data[i : i + 1]) for f, t in fields.items()})
               for i in range(dataset.target.shape[0])]
    if holdout is None:
        holdout = max(1, len(samples) // 4)
    train, held = samples[: len(samples) - holdout], samples[len(samples) - holdout :]
    target_ch, out_h, out_w = train[0].target.shape[1:]
    level_channels = tuple(fields[f].shape[1] for f in ("c3", "c4", "c5"))
    rng = Rng(seed)
    jpu_cfg = jpu_params = None
    if method == "jpu":
        jpu_cfg = JpuConfig(level_channels, width=jpu_width)
        jpu_params = jpu_init(jpu_cfg, rng)
        head_in = jpu_cfg.out_channels
    else:
        head_in = level_channels[2]
    head_spec = ConvSpec(head_in, target_ch, kernel=(3, 3), padding=(1, 1))
    head = init_weights(head_spec, rng)

    def sgd(w, gw, gb, scale):
        return ConvWeights(Tensor(w.weight.data - scale * gw), w.bias - scale * gb)

    def forward(sample):
        if method == "bilinear":
            feat, cache = bilinear_resize(sample.c5, out_h, out_w), None
        else:
            feat, cache = jpu_forward(sample.c3, sample.c4, sample.c5, jpu_params, jpu_cfg)
        return conv2d(feat, head, head_spec), feat, cache

    loss_curve = []
    for _ in range(steps):
        g_head_w = np.zeros_like(head.weight.data)
        g_head_b = np.zeros_like(head.bias)
        jpu_grads = []
        total_loss = 0.0
        for sample in train:
            pred, feat, cache = forward(sample)
            diff = pred.data - sample.target.data
            total_loss += float(np.mean(diff**2))
            g_feat, g_w, g_b = conv2d_backward(feat, head, head_spec, Tensor(2.0 * diff / diff.size))
            g_head_w += g_w.data
            g_head_b += g_b
            if method == "jpu":
                jpu_grads.append(jpu_backward(cache, g_feat)[0])
        loss_curve.append(total_loss / len(train))
        scale = lr / len(train)
        head = sgd(head, g_head_w, g_head_b, scale)
        if jpu_grads:
            jpu_params = JpuParams.from_convs(
                sgd(w, sum(g.weight.data for _, g in gs), sum(g.bias for _, g in gs), scale)
                for (_, w), *gs in zip(jpu_params.convs(), *(g.convs() for g in jpu_grads))
            )

    final = float(np.mean([np.mean((forward(s)[0].data - s.target.data) ** 2) for s in held]))
    n_params = head.weight.data.size + head.bias.size
    if method == "jpu":
        n_params += sum(np.asarray(a).size for _, a in jpu_params.named_tensors())
    return loss_curve, final, int(n_params)
