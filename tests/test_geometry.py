"""Geometry oracles: norms, divergences, closed-form proximal steps."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from clipopt import geometry as geo
from clipopt.clipping import clip_batch
from clipopt.geometry import shrink_factors

GEOMETRIES = {
    "euclidean": geo.euclidean(3),
    "ball": geo.ball(3, radius=2.0, center=np.array([0.5, -0.5, 0.0])),
    "simplex": geo.simplex(3),
}


def sample_point(g, rng):
    """A random point of ``g``'s domain, strictly interior on the simplex."""
    if g.kind == "euclidean":
        return rng.standard_normal(g.dim)
    if g.kind == "ball":
        u = rng.standard_normal(g.dim)
        u /= np.linalg.norm(u)
        r = g.radius * rng.random() ** (1.0 / g.dim)
        return g.center + r * u
    w = rng.dirichlet(np.ones(g.dim))
    w = np.maximum(w, 1e-12)
    return w / np.sum(w)


def grad_psi(g, x):
    """The gradient of ``g``'s mirror map: x, or 1 + log x on the simplex."""
    return 1.0 + np.log(x) if g.kind == "simplex" else x


def test_norm_values():
    g2 = geo.euclidean(2)
    assert g2.norm([3.0, 4.0]) == pytest.approx(5.0)
    g1 = geo.simplex(3)
    assert g1.norm([1.0, -2.0, 0.5]) == pytest.approx(3.5)
    assert g1.dual_norm([1.0, -2.0, 0.5]) == pytest.approx(2.0)


@pytest.mark.parametrize("v", [[1e200, 1e200], [1e300, -3e299, 2.0], [1.2e308, 1e308],
                               [-1e160] * 9, [5e200, 0.0, 0.0, 1e-300], [1.7e308, 1e308]])
def test_norm_of_a_large_finite_vector_is_finite(v):
    """A finite vector whose square overflows keeps its l2 norm (``math.hypot``'s: finite but
    for the last, whose norm is past the largest double), with no overflow warning; the rows
    beside it keep their bits."""
    g = geo.euclidean(len(v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g.norm(v) == pytest.approx(math.hypot(*v), rel=1e-15)
        V = np.array([v, [1.0] * len(v), [np.inf] + [0.0] * (len(v) - 1)])
        norms = g.norm_many(V)
    assert norms[0] == g.norm(v)
    assert norms[1] == np.sqrt(V[1] @ V[1]) and norms[2] == np.inf


@pytest.mark.parametrize("v", [[1e200, 1e200], [1e300, -3e299, 2.0], [1.2e308, 1e308],
                               [-1e160] * 9, [5e200, 0.0, 0.0, 1e-300], [1.7e308, 1e308]])
@pytest.mark.parametrize("make", [geo.euclidean, lambda d: geo.ball(d, 1.0)])
def test_dual_norm_of_a_large_finite_vector_is_finite(v, make):
    """The public l2 dual norm rescues a finite vector whose square overflows, as ``norm``
    does, with no overflow warning; the row variant, which the run loops call, still reads
    inf there, and every finite result keeps the row variant's bits."""
    g = make(len(v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g.dual_norm(v) == g.norm(v) == pytest.approx(math.hypot(*v), rel=1e-15)
        with np.errstate(over="ignore"):
            assert g.dual_norm_many(np.array([v]))[0] == np.inf
        for w in ([3.0, 4.0] + [0.0] * (len(v) - 2), np.linspace(-2.0, 7.0, len(v)),
                  [np.inf] + [0.0] * (len(v) - 1)):
            assert g.dual_norm(w) == g.dual_norm_many(np.array([w]))[0]


def test_norm_of_a_tiny_nonzero_vector_does_not_underflow():
    """A finite nonzero row whose sum of squares is not a normal double keeps its l2 norm
    (within 1 ulp of ``np.hypot``) with no warning; a zero row stays 0 and every other row
    keeps the bits of the root of its dot product."""
    g = geo.euclidean(2)
    rows = np.array([[1e-300, 1e-300], [3e-160, 4e-160], [0.0, 0.0], [-5e-324, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = g.norm_many(rows)
        assert g.norm(rows[1]) == norms[1]
    hypot = np.hypot(rows[:, 0], rows[:, 1])
    assert np.all(np.abs(norms - hypot) <= np.spacing(hypot))
    assert norms[2] == 0.0 and norms[3] == 5e-324
    V = np.random.default_rng(7).normal(size=(4096, 2))
    assert np.array_equal(g.norm_many(V), g.dual_norm_many(V))


@pytest.mark.parametrize("make", [geo.euclidean, lambda d: geo.ball(d, 1.0)])
def test_l2_dual_norm_is_the_norm_and_does_not_underflow(make):
    """On the l2 kinds the public dual norm is ``norm`` bit for bit, on tiny, ordinary and
    overflowing vectors alike, so a tiny nonzero vector keeps its norm (within 1 ulp of
    ``np.hypot``); the suite turns any floating-point warning into an error."""
    g = make(2)
    for v in ([1e-300, 1e-300], [3e-160, 4e-160], [-5e-324, 0.0], [0.0, 0.0], [3.0, 4.0],
              [0.1, -0.7], [1e200, 1e200], [1.2e308, 1e308]):
        assert g.dual_norm(v) == g.norm(v)
    hypot = np.hypot(1e-300, 1e-300)
    assert abs(g.dual_norm([1e-300, 1e-300]) - hypot) <= np.spacing(hypot)


MAKERS = {"euclidean": geo.euclidean, "ball": lambda d: geo.ball(d, radius=1.0),
          "simplex": geo.simplex}
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]


@st.composite
def bound_blocks(draw):
    """A geometry and an (n, d) or (k, n, d) block, C-ordered or seed-contiguous, of
    coordinates +-m, fractions of m (m from 1e-300 to 1e300: a row of d copies of +-m is the
    l2 bound's tightest case), and a few of +-0.0, the least subnormal, inf and NaN."""
    kind = draw(st.sampled_from(sorted(MAKERS)))
    d = draw(st.sampled_from([1, 2, 3, 9, 32, 129]))
    shape = draw(st.sampled_from([(1,), (3,), (2, 2)])) + (d,)
    # exponents over the whole range, and more often where squares are subnormal or overflow
    exponent = st.integers(-300, 299) | st.integers(-163, -153) | st.integers(150, 156)
    m = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(exponent)
    size = int(np.prod(shape))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # a drawn share of the coordinates at +-m, the rest at +-m times a uniform fraction
    at_m = rng.random(shape) < draw(st.floats(0.0, 1.0))
    block = rng.choice([-m, m], shape) * np.where(at_m, 1.0, rng.random(shape))
    for i, value in draw(st.lists(st.tuples(st.integers(0, size - 1), st.sampled_from(SPECIALS)),
                                  max_size=3)):
        block.flat[i] = value
    if draw(st.booleans()):  # the loops' layout: each coordinate's rows adjacent
        block = np.ascontiguousarray(block.swapaxes(-1, -2)).swapaxes(-1, -2)
    return MAKERS[kind](d), block


@settings(max_examples=400, deadline=None)
@given(bound_blocks(), st.floats(0.0, 1e300))
# a square that rounds up to the least subnormal (its norm is 1.15 m), and rows whose
# squares overflow where m does not
@example((geo.euclidean(1), np.array([[1.924965543538208e-162]])), 0.0)
@example((geo.ball(2, 1.0), np.array([[1e154, -1e154]])), 1e300)
def test_dual_norm_bound_covers_every_row(case, level):
    """A block whose bound is at or below a level has every computed dual norm at or below
    it too; a block holding a NaN or an inf passes no finite level; on the simplex the bound
    is the largest row norm exactly.  Levels tried: the bound itself, the ulp below and above
    it, and a drawn one."""
    geom, V = case
    with np.errstate(over="ignore"):
        norms = geom.dual_norm_many(V)
    bound = geom.dual_norm_bound(V)
    assert np.isnan(bound) == np.isnan(V).any() == np.isnan(norms).any()
    if not np.isfinite(V).all():
        assert not bound <= np.finfo(float).max
    if geom.kind == geo.SIMPLEX:
        assert bound == norms.max() or np.isnan(bound)
    elif np.isfinite(bound):  # no looser than sqrt(d) m, m at least 2^-511
        assert bound <= math.sqrt(geom.dim) * max(np.abs(V).max(), 2.0 ** -511) * (1 + 1e-13)
    for lam in (bound, np.nextafter(bound, 0.0), np.nextafter(bound, np.inf), level):
        if bound <= lam:
            assert norms.max() <= lam


@pytest.mark.parametrize("d", [1, 2, 3, 9, 32, 129])
@pytest.mark.parametrize("m", [3e-160, 2.0 ** -511, 0.1, 1.0 / 3.0, 7.0, 1e150])
@pytest.mark.parametrize("make", [geo.euclidean, lambda d: geo.ball(d, 1.0)])
def test_a_row_one_ulp_over_its_level_fails_the_bound(d, m, make):
    """A row of d copies of m, the l2 bound's tightest case: at a level one ulp under its
    computed norm the bound does not pass and the exact test finds the row over the level;
    at the norm itself the bound is at least the norm."""
    g = make(d)
    V = np.full((1, d), m)
    norm = g.dual_norm_many(V)[0]
    under = np.nextafter(norm, 0.0)
    assert not g.dual_norm_bound(V) <= under and norm > under
    assert g.dual_norm_bound(V) >= norm
    assert g.bound_factor >= math.sqrt(d) and g.bound_factor <= math.sqrt(d) * (1 + 1e-13)


def test_simplex_dual_norm_bound_is_the_largest_coordinate():
    g = geo.simplex(3)
    V = np.array([[0.5, -2.0, 1.0], [-0.0, 0.0, 1.5]])
    assert g.bound_factor == 1.0 and g.dual_norm_bound(V) == 2.0 == g.dual_norm_many(V).max()
    assert np.isnan(g.dual_norm_bound(np.array([[np.nan, 1.0, 0.0]])))
    assert g.dual_norm_bound(np.array([[-np.inf, 1.0, 0.0]])) == np.inf


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
    X = np.array([sample_point(g, rng) for _ in range(6)])
    Y = np.array([sample_point(g, rng) for _ in range(6)])
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
        x, y, z = (sample_point(g, rng) for _ in range(3))
        lhs = g.bregman(x, z)
        rhs = g.bregman(x, y) + g.bregman(y, z) + (grad_psi(g, y) - grad_psi(g, z)) @ (x - y)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_strong_convexity(name):
    g = GEOMETRIES[name]
    rng = np.random.default_rng(4)
    for _ in range(1000):
        x, y = sample_point(g, rng), sample_point(g, rng)
        assert g.bregman(x, y) >= 0.5 * g.norm(x - y) ** 2 - 1e-12


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_step_optimality(name):
    """The step x+ meets its first-order optimality condition: the residual
    ``<eta g + grad_psi(x+) - grad_psi(x), u - x+>`` is nonnegative, up to roundoff, at
    every domain point u."""
    g = GEOMETRIES[name]
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = sample_point(g, rng)
        grad = rng.standard_normal(g.dim)
        eta = rng.uniform(0.01, 0.5)
        x_next = g.mirror_step(x, grad, eta)
        r = eta * grad + grad_psi(g, x_next) - grad_psi(g, x)
        for _ in range(100):
            u = sample_point(g, rng)
            assert float(r @ (u - x_next)) >= -1e-8


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
        x = sample_point(g, rng)
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


def _reference_step(geom, X, G, eta):
    """The proximal steps as numpy expressions on fresh arrays, reducing C-ordered copies."""
    if geom.kind == "euclidean":
        return X - eta * G
    if geom.kind == "ball":
        V = X - eta * G - geom.center
        C = np.ascontiguousarray(V)
        norms = np.sqrt(np.einsum("ij,ij->i", C, C))
        return geom.center + V * (geom.radius / np.maximum(norms, geom.radius))[:, None]
    logits = np.log(X) - eta * G
    W = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    W = W / np.sum(np.ascontiguousarray(W), axis=1)[:, None]
    return np.maximum(W, np.nextafter(0.0, 1.0))


def _reference_mix(geom, A, B, alpha):
    M = (1 - alpha) * A + alpha * B
    return np.maximum(M, np.nextafter(0.0, 1.0)) if geom.kind == "simplex" else M


@pytest.mark.parametrize("kind", ["euclidean", "ball", "simplex"])
@pytest.mark.parametrize("d", [3, 9, 32, 129])
@pytest.mark.parametrize("n", [1, 7, 500])
@pytest.mark.parametrize("order", ["C", "F"])
def test_steps_and_mixes_match_numpy_expressions_bitwise(kind, d, n, order):
    """``mirror_step_many`` and ``mix_many`` give the bits of the plain numpy expressions,
    with no ``out``, into a fresh ``out``, in place over their first argument, and with
    their scaled term written into a ``scratch`` array."""
    rng = np.random.default_rng(10_000 * d + n)
    geom = {"euclidean": geo.euclidean(d), "simplex": geo.simplex(d),
            "ball": geo.ball(d, radius=1.5, center=np.linspace(-0.5, 0.5, d))}[kind]
    if kind == "simplex":  # some coordinates at the floor, steps that underflow some more
        X = rng.dirichlet(np.full(d, 0.3), size=n)
        X[rng.random((n, d)) < 0.05] = np.nextafter(0.0, 1.0)
    elif kind == "ball":
        X = geom.center + rng.standard_normal((n, d)) / np.sqrt(d)
    else:
        X = rng.standard_normal((n, d))
    G = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, d))
    X, G = np.asarray(X, order=order), np.asarray(G, order=order)
    Z = geom.mirror_step_many(X, G, 0.7)  # a second domain point to mix with X
    X_bits = X.copy().view(np.int64)
    cases = ((lambda A, B, **kw: geom.mirror_step_many(A, B, 0.7, **kw),
              _reference_step(geom, X, G, 0.7), G),
             (lambda A, B, **kw: geom.mix_many(A, B, 0.3, **kw),
              _reference_mix(geom, X, Z, 0.3), Z))
    for method, ref, second in cases:
        fresh, first = np.empty_like(X), X.copy(order="K")
        assert method(X, second, out=fresh) is fresh and method(first, second, out=first) is first
        scratched = method(X, second, scratch=np.empty_like(X))
        in_place = X.copy(order="K")
        assert method(in_place, second, out=in_place, scratch=np.empty_like(X)) is in_place
        for got in (method(X, second), fresh, first, scratched, in_place):
            assert got.shape == (n, d)
            np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
        np.testing.assert_array_equal(X.view(np.int64), X_bits)  # X itself is not written


@pytest.mark.parametrize("d", [1, 2, 3, 6, 7, 8, 9, 33, 130])
def test_l2_row_reductions_are_layout_free_and_shared(d):
    """Row norms, dual norms and divergences have the same bits on C- and Fortran-ordered
    rows, and on the l2 kinds the primal and dual row norms agree bitwise where the squares
    are normal: every l2 row reduction goes through ``coord_dot``."""
    rng = np.random.default_rng(d)
    X, Y = rng.standard_normal((2, 300, d))
    P, Q = rng.dirichlet(np.ones(d), size=(2, 300))
    for g in (geo.euclidean(d), geo.ball(d, 1.0), geo.simplex(d)):
        A, B = (P, Q) if g.kind == geo.SIMPLEX else (X, Y)
        Af, Bf = np.asfortranarray(A), np.asfortranarray(B)
        assert A.flags.c_contiguous and (d == 1 or not Af.flags.c_contiguous)
        for got, ref in ((g.norm_many(Af), g.norm_many(A)),
                         (g.dual_norm_many(Af), g.dual_norm_many(A)),
                         (g.bregman_many(Af, Bf), g.bregman_many(A, B))):
            np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
        if g.kind != geo.SIMPLEX:
            np.testing.assert_array_equal(g.dual_norm_many(A).view(np.int64),
                                          g.norm_many(A).view(np.int64))


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
    V = X - 0.5 * G - b.center
    np.testing.assert_array_equal(b.mirror_step_many(X, G, 0.5) - b.center,
                                  clip_batch(V, level, b.dual_norm_many(V)))


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 15, 16, 17, 32, 128, 129, 257])
@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize("order", ["C", "F"])
def test_coordinate_reductions_match_numpy_bitwise(d, n, order):
    """The loops' sum and dot over coordinates give numpy's bits in either layout; a sum
    of terms none of which is -0.0 gives them with or without numpy's +0.0 start."""
    rng = np.random.default_rng(1000 * d + n)

    def wide():  # signs, zeros of both signs and exponents across 2^-60..2^60
        A = rng.standard_normal((n, d)) * np.exp2(rng.integers(-60, 61, size=(n, d)))
        A[rng.random((n, d)) < 0.1] = 0.0
        A[rng.random((n, d)) < 0.1] = -0.0
        return np.asarray(A, order=order)

    A, B = wide(), wide()
    assert A.flags.f_contiguous == (order == "F" or n == 1 or d == 1)
    P = np.abs(A)  # +0.0 or more, some rows all +0.0
    P[::3] = 0.0
    for got, ref in ((geo.coord_sum(A), np.sum(np.ascontiguousarray(A), axis=-1)),
                     (geo.coord_sum(P, nonnegative=True), np.sum(np.ascontiguousarray(P), axis=-1)),
                     (geo.coord_dot(A, B), np.einsum("ij,ij->i", np.ascontiguousarray(A),
                                                     np.ascontiguousarray(B))),
                     (geo.coord_dot(A, A), np.einsum("ij,ij->i", np.ascontiguousarray(A),
                                                     np.ascontiguousarray(A)))):
        assert got.shape == (n,)
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
