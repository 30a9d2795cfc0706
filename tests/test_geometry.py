"""Geometry oracles: norms, divergences, closed-form proximal steps."""

import math

import numpy as np
import pytest
from scipy import optimize

from clipopt import geometry as geo
from clipopt.clipping import clip_batch
from clipopt.geometry import shrink_factors

GEOMETRIES = {
    "euclidean": geo.euclidean(3),
    "ball": geo.ball(3, radius=2.0, center=np.array([0.5, -0.5, 0.0])),
    "simplex": geo.simplex(3),
}


def test_norm_values():
    g2 = geo.euclidean(2)
    assert g2.norm([3.0, 4.0]) == pytest.approx(5.0)
    g1 = geo.simplex(3)
    assert g1.norm([1.0, -2.0, 0.5]) == pytest.approx(3.5)
    assert g1.dual_norm([1.0, -2.0, 0.5]) == pytest.approx(2.0)


def test_norm_dimension_mismatch():
    with pytest.raises(geo.GeometryError):
        geo.euclidean(2).norm([1.0, 2.0, 3.0])


def test_bregman_values():
    g = geo.euclidean(2)
    assert g.bregman([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert g.bregman([1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)
    s = geo.simplex(2)
    # closed-form KL with the 0 log 0 convention
    assert s.bregman([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_bregman_boundary_error():
    s = geo.simplex(2)
    with pytest.raises(geo.GeometryError, match="divergence undefined"):
        s.bregman([0.5, 0.5], [1.0, 0.0])
    # matching zero coordinates are fine
    assert s.bregman([1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_bregman_many_rows_equal_scalar(name):
    g = GEOMETRIES[name]
    rng = np.random.default_rng(4)
    X = np.array([g.sample(rng) for _ in range(6)])
    Y = np.array([g.sample(rng) for _ in range(6)])
    np.testing.assert_array_equal(g.bregman_many(X, Y), [g.bregman(x, y) for x, y in zip(X, Y)])
    # one first argument for every row, as the diagnostics pass the minimizer
    np.testing.assert_array_equal(g.bregman_many(X[0], Y), [g.bregman(X[0], y) for y in Y])


def test_bregman_many_keeps_domain_checks():
    s = geo.simplex(2)
    with pytest.raises(geo.GeometryError, match="divergence undefined"):
        s.bregman_many([0.5, 0.5], [[0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(geo.GeometryError, match="outside the simplex"):
        s.bregman_many([0.5, 0.5], [[1.5, -0.5]])
    with pytest.raises(geo.GeometryError, match="finite"):
        geo.euclidean(2).bregman_many([0.0, 0.0], [[1.0, 0.0], [np.nan, 0.0]])
    np.testing.assert_array_equal(s.bregman_many([1.0, 0.0], [[1.0, 0.0], [0.5, 0.5]]),
                                  [0.0, s.bregman([1.0, 0.0], [0.5, 0.5])])


def test_mirror_step_values():
    g = geo.euclidean(2)
    np.testing.assert_allclose(g.mirror_step([1.0, 1.0], [1.0, 0.0], 0.5), [0.5, 1.0])
    s = geo.simplex(2)
    np.testing.assert_allclose(
        s.mirror_step([0.5, 0.5], [1.0, 0.0], math.log(2.0)),
        [1.0 / 3.0, 2.0 / 3.0], atol=1e-14)
    b = geo.ball(2, radius=1.0)
    np.testing.assert_allclose(b.mirror_step([0.8, 0.0], [-1.0, 0.0], 1.0), [1.0, 0.0])


def test_entropy_step_never_overflows():
    s = geo.simplex(4)
    x = np.array([0.25, 0.25, 0.25, 0.25])
    out = s.mirror_step(x, np.array([1e6, -1e6, 0.0, 0.0]), 1.0)
    assert np.all(np.isfinite(out))
    assert out.sum() == pytest.approx(1.0)
    assert np.all(out > 0) or out[0] == 0.0  # coordinates may underflow, never overflow


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_three_point_identity(name):
    g = GEOMETRIES[name]
    rng = np.random.default_rng(3)
    for _ in range(200):
        x, y, z = (g.sample(rng) for _ in range(3))
        lhs = g.bregman(x, z)
        rhs = g.bregman(x, y) + g.bregman(y, z) + (g.grad_psi(y) - g.grad_psi(z)) @ (x - y)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_strong_convexity(name):
    g = GEOMETRIES[name]
    rng = np.random.default_rng(4)
    for _ in range(1000):
        x, y = g.sample(rng), g.sample(rng)
        assert g.bregman(x, y) >= 0.5 * g.norm(x - y) ** 2 - 1e-12


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_step_optimality(name):
    g = GEOMETRIES[name]
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = g.sample(rng)
        grad = rng.standard_normal(g.dim)
        eta = rng.uniform(0.01, 0.5)
        x_next = g.mirror_step(x, grad, eta)
        for _ in range(100):
            u = g.sample(rng)
            assert g.step_optimality_gap(x, grad, eta, x_next, u) >= -1e-8


def _numeric_prox(g, x, grad, eta):
    def objective(u):
        return eta * float(grad @ u) + g.bregman(u, x)

    if g.kind == "euclidean":
        res = optimize.minimize(objective, x, method="BFGS", tol=1e-12)
    elif g.kind == "ball":
        cons = [{"type": "ineq",
                 "fun": lambda u: g.radius ** 2 - float((u - g.center) @ (u - g.center))}]
        res = optimize.minimize(objective, x, method="SLSQP", constraints=cons,
                                options={"ftol": 1e-14, "maxiter": 500})
    else:
        cons = [{"type": "eq", "fun": lambda u: float(np.sum(u)) - 1.0}]
        bounds = [(1e-12, 1.0)] * g.dim
        res = optimize.minimize(objective, x, method="SLSQP", bounds=bounds,
                                constraints=cons, options={"ftol": 1e-14, "maxiter": 500})
    return res.x


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_closed_form_matches_numeric_minimizer(name):
    g = GEOMETRIES[name]
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = g.sample(rng)
        grad = rng.standard_normal(g.dim)
        eta = rng.uniform(0.05, 0.3)
        exact = g.mirror_step(x, grad, eta)
        numeric = _numeric_prox(g, x, grad, eta)
        np.testing.assert_allclose(exact, numeric, atol=1e-6)


def test_mirror_step_keeps_simplex_interior():
    s = geo.simplex(3)
    x = np.array([0.2, 0.3, 0.5])
    for _ in range(50):
        x = s.mirror_step(x, np.array([1.0, -0.5, 0.2]), 0.1)
        assert np.all(x > 0)
        assert x.sum() == pytest.approx(1.0)


def test_entropy_step_floors_underflow_and_keeps_other_bits():
    s = geo.simplex(4)
    X = np.array([[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]])
    G = np.array([[1e6, -1e6, 0.0, 0.0], [1.0, -0.5, 0.2, 0.0]])
    out = s.mirror_step_many(X, G, 1.0)
    assert out[0, 0] == np.nextafter(0.0, 1.0)  # exp underflowed to 0: held at the floor
    logits = np.log(X[1]) - G[1]
    W = np.exp(logits - np.max(logits))
    np.testing.assert_array_equal(out[1], W / np.sum(W))
    assert np.all(np.isfinite(s.mirror_step_many(out, G, 1.0)))  # log of the floor is finite


def test_simplex_mix_floors_underflow_and_keeps_other_bits():
    s = geo.simplex(3)
    tiny = np.nextafter(0.0, 1.0)
    A = np.array([[0.5, tiny, 0.5 - tiny], [0.2, 0.3, 0.5]])
    B = np.array([[1.0 - tiny, tiny, tiny], [0.6, 0.1, 0.3]])
    out = s.mix_many(A, B, 0.5)
    assert 0.5 * A[0, 1] + 0.5 * B[0, 1] == 0.0  # the plain mix underflows
    assert out[0, 1] == tiny
    np.testing.assert_array_equal(out[1], 0.5 * A[1] + 0.5 * B[1])
    e = geo.euclidean(3)
    np.testing.assert_array_equal(e.mix_many(A, B, 0.25), 0.75 * A + 0.25 * B)


def test_ball_projection_inside_is_identity():
    b = geo.ball(2, radius=5.0)
    out = b.mirror_step(np.array([1.0, 1.0]), np.array([0.5, -0.5]), 0.1)
    np.testing.assert_allclose(out, [0.95, 1.05])


def test_shrink_factor_is_the_clip_and_the_ball_projection():
    level = 1.5
    norms = np.array([0.0, 1e-300, 0.5, level, level * (1 + 1e-15), 2.0, 1e300, np.inf, np.nan])
    # min{1, level / n}, NaN included, in the form the ball branch once wrote inline
    with np.errstate(invalid="ignore"):
        reference = np.where(norms <= level, 1.0, level / np.maximum(norms, 1e-300))
    np.testing.assert_array_equal(shrink_factors(norms, level), reference)
    b = geo.ball(2, radius=level, center=np.array([0.5, -0.5]))
    X = np.array([[0.5, -0.5], [1.0, 0.0], [0.0, 0.2]])
    G = np.array([[3.0, 4.0], [0.1, 0.0], [-1.0, np.nan]])
    np.testing.assert_array_equal(b.mirror_step_many(X, G, 0.5) - b.center,
                                  clip_batch(X - 0.5 * G - b.center, level))


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 32])
@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize("order", ["C", "F"])
def test_coordinate_reductions_match_numpy_bitwise(d, n, order):
    """The loops' sum and dot over coordinates give numpy's bits in either layout."""
    rng = np.random.default_rng(1000 * d + n)

    def wide():  # signs, zeros of both signs and exponents across 2^-60..2^60
        A = rng.standard_normal((n, d)) * np.exp2(rng.integers(-60, 61, size=(n, d)))
        A[rng.random((n, d)) < 0.1] = 0.0
        A[rng.random((n, d)) < 0.1] = -0.0
        return np.asarray(A, order=order)

    A, B = wide(), wide()
    assert A.flags.f_contiguous == (order == "F" or n == 1 or d == 1)
    for got, ref in ((geo.coord_sum(A), np.sum(np.ascontiguousarray(A), axis=-1)),
                     (geo.coord_dot(A, B), np.einsum("ij,ij->i", np.ascontiguousarray(A),
                                                     np.ascontiguousarray(B))),
                     (geo.coord_dot(A, A), np.einsum("ij,ij->i", np.ascontiguousarray(A),
                                                     np.ascontiguousarray(A)))):
        assert got.shape == (n,)
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
