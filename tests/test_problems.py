"""Problem factory oracles: values, gradients, constants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_geometry import sample_point

from clipopt import algorithms
from clipopt import geometry as geo
from clipopt import problems


def central_difference(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


ALL_PROBLEMS = {
    "quadratic": problems.make_quadratic([1.0, 4.0], [0.5, -0.5]),
    "simplex_quadratic": problems.make_simplex_quadratic([0.3, 0.7]),
    "nonconvex_ratio": problems.make_nonconvex_ratio(3),
    "quadratic_plus_norm": problems.make_quadratic_plus_norm(2, 0.25),
}


def test_quadratic_values():
    prob = problems.make_quadratic([1.0, 1.0], [0.0, 0.0])
    x = np.array([3.0, 4.0])
    assert prob.value(x) == pytest.approx(12.5)
    np.testing.assert_allclose(prob.grad(x), [3.0, 4.0])
    assert prob.value(prob.minimizer) == 0.0
    np.testing.assert_allclose(prob.grad(prob.minimizer), [0.0, 0.0])
    assert problems.make_quadratic([1.0, 4.0]).smoothness == 4.0


def test_quadratic_rejects_nonpositive_curvature():
    with pytest.raises(ValueError):
        problems.make_quadratic([1.0, 0.0])


def test_simplex_quadratic_values():
    prob = problems.make_simplex_quadratic([0.5, 0.5])
    assert prob.value(np.array([1.0, 0.0])) == pytest.approx(0.25)
    assert prob.gap(np.array([0.5, 0.5])) == 0.0
    g = prob.grad(np.array([1.0, 0.0]))
    np.testing.assert_allclose(g, [0.5, -0.5])
    assert prob.geometry.dual_norm(g) == pytest.approx(0.5)
    assert prob.smoothness == 1.0


def test_simplex_quadratic_rejects_off_simplex_target():
    with pytest.raises(ValueError):
        problems.make_simplex_quadratic([0.6, 0.6])
    with pytest.raises(ValueError):
        problems.make_simplex_quadratic([1.0, 0.0])


def test_nonconvex_ratio_values():
    prob = problems.make_nonconvex_ratio(2)
    zero = np.zeros(2)
    assert prob.value(zero) == 0.0
    np.testing.assert_allclose(prob.grad(zero), zero)
    one = problems.make_nonconvex_ratio(1)
    assert one.value(np.array([1.0])) == pytest.approx(0.5)
    np.testing.assert_allclose(one.grad(np.array([1.0])), [0.5])


def test_nonconvex_ratio_smoothness_grid_oracle():
    # densely maximize |(2 - 6u^2) / (1 + u^2)^3| over [-10, 10]
    u = np.linspace(-10, 10, 2_000_001)
    second = np.abs((2.0 - 6.0 * u * u) / (1.0 + u * u) ** 3)
    assert np.max(second) == pytest.approx(2.0, abs=1e-9)
    assert problems.make_nonconvex_ratio(1).smoothness == 2.0


def test_quadratic_plus_norm_values():
    prob = problems.make_quadratic_plus_norm(2, 0.25)
    assert prob.lipschitz_g == 0.5
    np.testing.assert_allclose(prob.grad(np.zeros(2)), np.zeros(2))
    x = np.array([3.0, 4.0])
    assert prob.value(x) == pytest.approx(12.5 + 0.25 * 5.0)
    np.testing.assert_allclose(prob.grad(x), x * (1 + 0.25 / 5.0))


@pytest.mark.parametrize("name", list(ALL_PROBLEMS))
def test_gradient_matches_finite_differences(name):
    prob = ALL_PROBLEMS[name]
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = sample_point(prob.geometry, rng)
        if name == "quadratic_plus_norm" and np.linalg.norm(x) < 1e-3:
            continue  # the norm term is nonsmooth at the origin
        num = central_difference(prob.value, x)
        exact = prob.grad(x)
        scale = max(np.max(np.abs(exact)), 1.0)
        np.testing.assert_allclose(exact, num, rtol=1e-5, atol=1e-5 * scale)


@pytest.mark.parametrize("name", ["quadratic", "simplex_quadratic", "nonconvex_ratio"])
def test_smoothness_constant_not_understated(name):
    prob = ALL_PROBLEMS[name]
    geom = prob.geometry
    rng = np.random.default_rng(12)
    for _ in range(1000):
        x, y = sample_point(geom, rng), sample_point(geom, rng)
        dist = geom.norm(x - y)
        if dist < 1e-12:
            continue
        ratio = geom.dual_norm(prob.grad(x) - prob.grad(y)) / dist
        assert ratio <= prob.smoothness * (1 + 1e-6)


@pytest.mark.parametrize("name", ["quadratic", "simplex_quadratic"])
def test_convex_minimizer_is_stationary(name):
    prob = ALL_PROBLEMS[name]
    assert prob.gap(prob.minimizer) == pytest.approx(0.0, abs=1e-15)
    assert prob.geometry.dual_norm(prob.grad(prob.minimizer)) <= 1e-10


# A problem built from its row forms only, as the geometry demo builds its ball quadratic.
_QUAD = ALL_PROBLEMS["quadratic"]
BALL_QUADRATIC = problems.Problem(
    "ball_quadratic", geometry=geo.ball(2, 2.0, center=_QUAD.minimizer),
    value_many=_QUAD.value_many, grad_many=_QUAD.grad_many, smoothness=_QUAD.smoothness,
    optimal_value=_QUAD.optimal_value, minimizer=_QUAD.minimizer)


def test_many_variants_match_scalar():
    """A point's value and gradient are the row forms' bits at one row, and a problem's
    dimension is its geometry's."""
    rng = np.random.default_rng(13)
    for prob in [*ALL_PROBLEMS.values(), BALL_QUADRATIC]:
        assert prob.dim == prob.geometry.dim
        X = np.stack([sample_point(prob.geometry, rng) for _ in range(8)])
        np.testing.assert_array_equal(prob.value_many(X),
                                      np.array([prob.value(x) for x in X]))
        np.testing.assert_array_equal(prob.grad_many(X),
                                      np.stack([prob.grad(x) for x in X]))


# Row forms at every dimension numpy's pairwise sum and the loops' reductions branch on.
DIAG, SHIFT = np.array([1.0, 4.0, 0.5]), np.array([0.5, -0.5, 2.0])
OUT_PROBLEMS = [problems.make_quadratic(DIAG[:d], SHIFT[:d]) for d in (1, 2, 3)] + [
    problems.make_simplex_quadratic(np.arange(1, d + 1) / (d * (d + 1) / 2)) for d in (2, 3, 9)] + [
    problems.make_nonconvex_ratio(d) for d in (1, 2, 9)] + [
    problems.make_quadratic_plus_norm(d, 0.25) for d in (1, 2, 9)]
OUT_GEOMETRIES = [make(d) for d in (1, 2, 3, 9)
                  for make in (geo.euclidean, geo.simplex, lambda d: geo.ball(d, 2.0))]
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, np.inf, -np.inf, np.nan])


def _bits(A):
    return np.ascontiguousarray(A).view(np.int64)


def _reference(prob, X):
    """The row forms as they were written before ``out``: numpy expressions with the (d,)
    constants broadcast, reducing over coordinates through ``coord_sum`` and ``coord_dot``."""
    name, d = prob.name, prob.dim
    if name == "quadratic":
        diag, shift = DIAG[:d], SHIFT[:d]
        R = X - shift
        return 0.5 * geo.coord_sum(diag * R * R), diag * (X - shift)
    if name == "simplex_quadratic":
        R = X - prob.minimizer
        return 0.5 * geo.coord_dot(R, R), X - prob.minimizer
    if name == "nonconvex_ratio":
        S = X * X
        return geo.coord_sum(S / (1.0 + S)), 2.0 * X / (1.0 + X * X) ** 2
    coef = prob.lipschitz_g / 2.0
    sq = geo.coord_dot(X, X)
    n = np.sqrt(sq)
    scale = np.where(n > 0, 1.0 + coef / np.maximum(n, 1e-300), 1.0)
    return 0.5 * sq + coef * np.sqrt(sq), X * scale[..., None]


def _rows(rng, shape, special: float, layout: str):
    """Rows of wide-range finite values, a share ``special`` of them replaced by signed
    zeros, subnormals, 1e300, infinities and NaN, in the layout the loops use or C order."""
    A = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6, size=shape)
    picked = rng.random(shape) < special
    A[picked] = rng.choice(SPECIAL, size=np.count_nonzero(picked))
    if layout == "F":  # seed-contiguous rows, as the loops hold their state
        return np.asfortranarray(A)
    if layout == "window":  # a (2, n, d) view of a C-ordered (2, d, n) window buffer
        return np.ascontiguousarray(np.stack([A, A[::-1]]).transpose(0, 2, 1)).transpose(0, 2, 1)
    return A


@pytest.mark.parametrize("layout", ["C", "F", "window"])
@pytest.mark.parametrize("n", [1, 2, 130])
@given(seed=st.integers(0, 2 ** 32 - 1), special=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
@settings(max_examples=15, deadline=None)
def test_out_forms_equal_allocating_forms_bitwise(layout, n, seed, special):
    """``grad_many``, ``value_many``, ``gap_many`` and ``dual_norm_many`` give the same bits
    written into ``out`` as allocating, and those of the expressions they replace, for any
    layout and for signed zeros, subnormals, huge, infinite and NaN entries."""
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        for prob in OUT_PROBLEMS:
            X = _rows(rng, (n, prob.dim), special, layout)
            value, grad = prob.value_many(X), prob.grad_many(X)
            for got, ref in zip((value, grad), _reference(prob, X)):
                assert got.shape == ref.shape and _bits(got).tobytes() == _bits(ref).tobytes()
            for method, want in ((prob.value_many, value), (prob.gap_many, value),
                                 (prob.grad_many, grad)):
                out = np.empty_like(want)
                assert method(X, out=out) is out
                assert _bits(out).tobytes() == _bits(want).tobytes()
        for geom in OUT_GEOMETRIES:
            V = _rows(rng, (n, geom.dim), special, layout)
            norms = geom.dual_norm_many(V)
            ref = (np.max(np.abs(V), axis=-1) if geom.kind == "simplex"
                   else np.sqrt(geo.coord_dot(V, V)))
            out = np.empty_like(norms)
            assert geom.dual_norm_many(V, out=out) is out
            assert _bits(out).tobytes() == _bits(norms).tobytes() == _bits(ref).tobytes()



# Problems whose per-coordinate constants are uniform (0-d operands), mixed or laid out,
# with the full-shape constants a reference broadcasts; a shift of signed zeros has two bit
# patterns, so it is laid out.
def _quadratic(diag, shift):
    return problems.make_quadratic(diag, shift), np.asarray(diag, float), np.asarray(shift, float)


CONSTANT_PROBLEMS = [
    _quadratic([1.0, 1.0], [0.0, 0.0]),  # the shipped default
    _quadratic([2.5] * 9, [0.75] * 9),
    _quadratic([1.5, 1.5, 1.5], [0.5, -0.5, 2.0]),  # uniform curvature, laid-out shift
    _quadratic([1.0, 4.0, 0.5], [0.5, 0.5, 0.5]),  # laid-out curvature, uniform shift
    _quadratic([1.0, 4.0, 0.5], [0.5, -0.5, 2.0]),
    _quadratic([1.0, 1.0], [0.0, -0.0]),
] + [(problems.make_simplex_quadratic(np.full(d, 1.0 / d)), None, np.full(d, 1.0 / d))
     for d in (2, 3, 9)]
# signed zeros, subnormals, magnitudes near 1e-300 and 1e300 (whose squares under- and
# overflow), infinities and NaN
EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-310, 1e-300, -3e-300, 1e300,
                  -2e300, 1.7e308, np.inf, -np.inf, np.nan])


def _edge_rows(rng, shape, layout):
    """Wide-range values, half of them edges, as seed-contiguous rows, a slice of a loop's
    window buffer (``algorithms._slots``), C-ordered rows or one row."""
    A = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    picked = rng.random(shape) < 0.5
    A[picked] = rng.choice(EDGES, size=np.count_nonzero(picked))
    if layout == "F":
        return np.asfortranarray(A)
    if layout == "window":
        window, _ = algorithms._slots(4, *shape)
        window[1:] = A
        return window[1:]
    return A if layout == "C" else A[:1]


@pytest.mark.parametrize("layout", ["F", "window", "C", "one"])
@pytest.mark.parametrize("n", [1, 3, 130])
def test_uniform_constants_give_the_full_shape_bits(layout, n):
    """``grad_many``, ``value_many`` and ``gap_many``, allocating and into ``out``, give the
    bits of the same expressions with every constant an explicit array of the rows' full
    shape, whether each constant is a 0-d operand or laid out, on any layout."""
    rng = np.random.default_rng(n)
    with np.errstate(all="ignore"):
        for prob, diag, shift in CONSTANT_PROBLEMS:
            X = _edge_rows(rng, (n, prob.dim), layout)
            shift_x = np.broadcast_to(shift, X.shape).copy()
            if diag is None:  # the simplex quadratic: half the squared distance to its target
                R = X - shift_x
                value, grad = 0.5 * geo.coord_dot(R, R), X - shift_x
            else:
                diag_x = np.broadcast_to(diag, X.shape).copy()
                R = X - shift_x
                value, grad = 0.5 * geo.coord_sum(diag_x * R * R), diag_x * (X - shift_x)
            gap = value - prob.optimal_value
            for method, want in ((prob.grad_many, grad), (prob.value_many, value),
                                 (prob.gap_many, gap)):
                got = method(X)
                assert got.shape == want.shape and _bits(got).tobytes() == _bits(want).tobytes()
                out = np.full_like(want, 7.0)
                assert method(X, out) is out
                assert _bits(out).tobytes() == _bits(want).tobytes()


def test_laid_out_decides_each_constant_once():
    """A constant whose coordinates share their bits is one read-only 0-d operand for any
    rows, NaN included; (0.0, -0.0) is not, and is laid out like the rows' trailing axes."""
    uniform = problems._laid_out(np.ones(3), np.full(3, np.nan))
    X = np.empty((3, 5)).T
    consts = uniform(X)
    assert [c.shape for c in consts] == [(), ()] and uniform(X[:2]) is consts
    assert consts[0] == 1.0 and np.isnan(consts[1])
    mixed = problems._laid_out(np.ones(2), np.array([0.0, -0.0]))
    for rows in (np.empty((2, 5)).T, np.empty((5, 2)), algorithms._slots(3, 5, 2)[0]):
        diag, shift = mixed(rows)
        assert diag.shape == () and shift.shape == (5, 2)
        assert shift.strides == rows.strides[-2:]
        assert np.signbit(shift[:, 1]).all() and not np.signbit(shift[:, 0]).any()
        assert not diag.flags.writeable and not shift.flags.writeable


def _stub(optimal_value):
    """A problem whose values are rows of -0.0 and NaN, written into ``out`` if given."""
    def value_many(X, out=None):
        values = np.where(np.arange(X.shape[-2]) % 2 == 0, -0.0, np.nan)
        values = np.broadcast_to(values, X.shape[:-1])
        if out is None:
            return values.copy()
        out[...] = values
        return out

    return problems.Problem("stub", geo.euclidean(2), value_many, lambda X, out=None: X,
                            smoothness=1.0, optimal_value=optimal_value)


def test_gap_many_skips_only_a_subtraction_of_positive_zero():
    """At f* = +0.0 the gaps are ``value_many``'s own array and bits (v - 0.0 is v for -0.0
    and NaN); at f* = -0.0 or 0.25 they are ``value_many(X) - f*``, bitwise."""
    X = np.zeros((2, 5, 2))
    stub = _stub(0.0)
    values = stub.value_many(X)
    assert _bits(stub.gap_many(X)).tobytes() == _bits(values).tobytes()
    assert _bits(values - 0.0).tobytes() == _bits(values).tobytes()
    out = np.empty((2, 5))
    assert stub.gap_many(X, out) is out and _bits(out).tobytes() == _bits(values).tobytes()
    for f_star in (-0.0, 0.25):
        other = dataclasses.replace(stub, optimal_value=f_star)
        want = _bits(values - f_star).tobytes()
        assert _bits(other.gap_many(X)).tobytes() == want
        assert other.gap_many(X, out) is out and _bits(out).tobytes() == want
    assert not np.signbit(dataclasses.replace(stub, optimal_value=-0.0).gap_many(X)[0]).any()
    prob = ALL_PROBLEMS["quadratic"]
    X = _edge_rows(np.random.default_rng(5), (40, 2), "F")
    with np.errstate(all="ignore"):
        moved = dataclasses.replace(prob, optimal_value=0.25)
        assert _bits(moved.gap_many(X)).tobytes() == _bits(prob.value_many(X) - 0.25).tobytes()


def test_problem_fields_keep_what_they_are_given():
    """``dim`` is no field; a replace keeps the gradient callables it is given, as the
    benchmark's tracer wraps them, and a factory refuses dimension 0 through its geometry."""
    assert "dim" not in {f.name for f in dataclasses.fields(problems.Problem)}
    prob = ALL_PROBLEMS["quadratic"]
    with pytest.raises(TypeError):
        dataclasses.replace(prob, dim=3)
    f, g = (lambda x: prob.grad(x)), (lambda X, out=None: prob.grad_many(X, out=out))
    wrapped = dataclasses.replace(prob, grad=f, grad_many=g)
    assert wrapped.grad is f and wrapped.grad_many is g and wrapped.value is prob.value
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        problems.make_nonconvex_ratio(0)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        problems.make_quadratic_plus_norm(0, 0.25)


# Doubles for the nonconvex ratio's gradient: any finite or infinite value or NaN
# (subnormals included), and the edges where its arithmetic changes: signed zeros,
# subnormals, where x * x underflows (|x| < 1.5e-154) or overflows (|x| > 1.3e154), and
# where x + x overflows (|x| > 9e307).
RATIO_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, 1.4e154, -1.4e154, 1e200, 9e307,
               -1.7e308, np.inf, -np.inf, np.nan]
RATIO_VALUES = st.one_of(st.floats(), st.sampled_from(RATIO_EDGES))


@pytest.mark.parametrize("d", [1, 2, 9])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_nonconvex_ratio_gradient_is_its_formula_bitwise(d, data):
    """``grad_many`` gives the bits of ``2.0 * X / np.square(1.0 + X * X)`` on any doubles,
    in C order and in seed-contiguous rows, allocating or into an ``out`` of either layout
    passed by position or by keyword."""
    n = data.draw(st.integers(1, 40), label="n")
    A = np.array(data.draw(st.lists(RATIO_VALUES, min_size=n * d, max_size=n * d),
                           label="values")).reshape(n, d)
    prob = problems.make_nonconvex_ratio(d)
    with np.errstate(all="ignore"):
        want = _bits(2.0 * A / np.square(1.0 + A * A)).tobytes()
        for X in (A, np.asfortranarray(A)):  # C order, then seed-contiguous rows
            assert _bits(prob.grad_many(X)).tobytes() == want
            for out in (np.empty((n, d)), np.empty((d, n)).T):
                assert prob.grad_many(X, out) is out and _bits(out).tobytes() == want
                out[...] = 0.0
                assert prob.grad_many(X, out=out) is out and _bits(out).tobytes() == want


@pytest.mark.parametrize("layout", ["C", "F"])
@given(seed=st.integers(0, 2 ** 32 - 1), special=st.sampled_from([0.0, 0.05, 0.5]),
       eta=st.floats(1e-3, 10.0), alpha=st.floats(0.0, 1.0))
@settings(max_examples=15, deadline=None)
def test_steps_and_mixes_take_out_and_scratch_by_position_or_keyword(layout, seed, special,
                                                                     eta, alpha):
    """Each geometry's ``mirror_step_many`` and ``mix_many`` give the same bits with ``out``
    and ``scratch`` passed by position or by keyword as with neither."""
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        for geom in OUT_GEOMETRIES:
            X, G = (_rows(rng, (7, geom.dim), special, layout) for _ in range(2))
            if geom.kind == "simplex":  # domain points, so the logs are finite
                X = np.asarray(rng.dirichlet(np.ones(geom.dim), size=7), order=layout)
            for method, second, weight in ((geom.mirror_step_many, G, eta),
                                           (geom.mix_many, X[::-1], alpha)):
                want = _bits(method(X, second, weight)).tobytes()
                out, scratch = np.empty_like(X), np.empty_like(X)
                assert method(X, second, weight, out, scratch) is out
                assert _bits(out).tobytes() == want
                out[...] = 0.0
                assert method(X, second, weight, out=out, scratch=scratch) is out
                assert _bits(out).tobytes() == want
