import numpy as np
import pytest

from jpulite.jointup import DegenerateProblemError, LinearMap, solve_joint_upsample
from jpulite.tensor import Rng, ShapeError, Tensor, max_abs_diff, random_uniform


def planted_problem(seed, gc=3, tc=2, h=6, w=6):
    rng = Rng(seed)
    x_l = random_uniform((1, gc, h, w), rng, -1.0, 1.0)
    x_h = random_uniform((1, gc, 2 * h, 2 * w), rng, -1.0, 1.0)
    truth = LinearMap(rng.uniform(tc * gc, -1, 1).reshape(tc, gc), rng.uniform(tc, -1, 1))
    return x_l, truth.apply(x_l), x_h, truth


def test_identity_relation():
    rng = Rng(0)
    x_l = random_uniform((1, 3, 6, 6), rng, -1, 1)
    x_h = random_uniform((1, 3, 12, 12), rng, -1, 1)
    res = solve_joint_upsample(x_l, x_l, x_h)
    assert np.max(np.abs(res.map.matrix - np.eye(3))) <= 1e-6
    assert np.max(np.abs(res.map.bias)) <= 1e-6
    assert max_abs_diff(res.y_h, x_h) <= 1e-6
    assert res.residual <= 1e-6


def test_scaling_relation():
    rng = Rng(1)
    x_l = random_uniform((1, 2, 5, 5), rng, -1, 1)
    x_h = random_uniform((1, 2, 9, 9), rng, -1, 1)
    y_l = Tensor(2.0 * x_l.data)
    res = solve_joint_upsample(x_l, y_l, x_h)
    assert max_abs_diff(res.y_h, Tensor(2.0 * x_h.data)) <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_plant_and_recover(seed):
    x_l, y_l, x_h, truth = planted_problem(seed)
    res = solve_joint_upsample(x_l, y_l, x_h)
    assert max_abs_diff(res.y_h, truth.apply(x_h)) <= 1e-8


def test_optimality_under_perturbation():
    x_l, y_l, x_h, _ = planted_problem(9)
    # add noise so the optimum is interior, not an exact fit
    noisy = Tensor(y_l.data + Rng(10).uniform(y_l.data.size, -0.1, 0.1).reshape(y_l.shape))
    res = solve_joint_upsample(x_l, noisy, x_h)

    X = x_l.data.transpose(0, 2, 3, 1).reshape(-1, x_l.shape[1])
    Y = noisy.data.transpose(0, 2, 3, 1).reshape(-1, noisy.shape[1])

    def objective(mat, bias):
        return float(np.sum((Y - X @ mat.T - bias) ** 2))

    base = objective(res.map.matrix, res.map.bias)
    r = np.random.default_rng(0)
    for _ in range(20):
        dm = r.normal(scale=1e-3, size=res.map.matrix.shape)
        db = r.normal(scale=1e-3, size=res.map.bias.shape)
        assert objective(res.map.matrix + dm, res.map.bias + db) >= base - 1e-12


def test_scale_equivariance():
    x_l, y_l, x_h, _ = planted_problem(4)
    alpha = 3.7
    a = solve_joint_upsample(x_l, y_l, x_h)
    b = solve_joint_upsample(x_l, Tensor(alpha * y_l.data), x_h)
    assert max_abs_diff(b.y_h, Tensor(alpha * a.y_h.data)) <= 1e-10


def test_underdetermined_rejected():
    x_l = random_uniform((1, 8, 1, 2), Rng(0))  # 2 pixels < 8+1 unknowns
    with pytest.raises(ShapeError):
        solve_joint_upsample(x_l, x_l, x_l)


def test_shape_mismatch_rejected():
    a = random_uniform((1, 2, 4, 4), Rng(0))
    b = random_uniform((1, 2, 4, 5), Rng(0))
    with pytest.raises(ShapeError):
        solve_joint_upsample(a, b, a)


def test_nonfinite_guidance_rejected():
    x_l = random_uniform((1, 2, 4, 4), Rng(0))
    bad = x_l.data.copy()
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(DegenerateProblemError):
        solve_joint_upsample(Tensor(bad), x_l, x_l)


def test_degenerate_guidance_still_deterministic():
    # rank-deficient guidance (all channels identical); damping keeps it solvable
    base = random_uniform((1, 1, 6, 6), Rng(3), -1, 1)
    x_l = Tensor(np.repeat(base.data, 3, axis=1))
    y_l = Tensor(2.0 * base.data)
    r1 = solve_joint_upsample(x_l, y_l, x_l)
    r2 = solve_joint_upsample(x_l, y_l, x_l)
    assert r1.y_h.data.tobytes() == r2.y_h.data.tobytes()
    assert np.all(np.isfinite(r1.y_h.data))
