"""Clipping operator properties."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipopt import clipping, geometry

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=6)
levels = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


def clip_rows(G, level, geom=None):
    """``clip_batch`` of the rows of ``G`` (one row if ``G`` is a vector) with the dual norms
    ``dual_norm_many`` takes in ``geom``, by default l2."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    geom = geom or geometry.euclidean(G.shape[1])
    return clipping.clip_batch(G, level, geom.dual_norm_many(G))


def test_clip_values():
    np.testing.assert_allclose(clip_rows([3.0, 4.0], 2.5)[0], [1.5, 2.0])
    np.testing.assert_allclose(clip_rows([1.0, 0.0], 5.0)[0], [1.0, 0.0])
    np.testing.assert_allclose(clip_rows([0.0, 0.0], 1.0)[0], [0.0, 0.0])


def test_clip_rejects_nonpositive_level():
    with pytest.raises(ValueError):
        clip_rows([1.0], 0.0)


@given(v=finite_vectors, lam=levels)
@settings(max_examples=200, deadline=None)
def test_clip_norm_never_exceeds_level(v, lam):
    out = clip_rows(v, lam)[0]
    assert np.linalg.norm(out) <= lam * (1 + 1e-12)


@given(v=finite_vectors, lam=levels, c=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_clip_positive_homogeneity(v, lam, c):
    v = np.asarray(v)
    lhs = clip_rows(c * v, c * lam)[0]
    rhs = c * clip_rows(v, lam)[0]
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


@given(v=finite_vectors, lam=levels)
@settings(max_examples=200, deadline=None)
def test_clip_idempotent(v, lam):
    once = clip_rows(v, lam)[0]
    twice = clip_rows(once, lam)[0]
    np.testing.assert_allclose(once, twice, rtol=1e-12, atol=0)


def test_clip_batch_matches_scalar():
    """A block clips each row with the bits of that row alone, and the l2 norms
    ``dual_norm_many`` gives the clip are ``sqrt(coord_dot(G, G))``'s bits."""
    rng = np.random.default_rng(0)
    G = rng.standard_normal((100, 3)) * 10
    batch = clip_rows(G, 2.0)
    single = np.stack([clip_rows(g, 2.0)[0] for g in G])
    np.testing.assert_array_equal(batch, single)
    norms = geometry.euclidean(3).dual_norm_many(G)
    assert norms.tobytes() == np.sqrt(geometry.coord_dot(G, G)).tobytes()


def test_clip_batch_takes_per_row_levels():
    """An (n,) array of levels clips each row at its own level, bitwise the scalar clip,
    and a nonpositive level in any row is rejected."""
    rng = np.random.default_rng(1)
    G = rng.standard_normal((50, 3)) * 10
    lam = rng.uniform(0.5, 20.0, 50)
    batch = clip_rows(G, lam)
    single = np.stack([clip_rows(g, level)[0] for g, level in zip(G, lam)])
    assert batch.tobytes() == single.tobytes()
    for bad in (0.0, -1.0):
        lam[37] = bad
        with pytest.raises(ValueError, match="positive"):
            clip_rows(G, lam)


def test_clip_batch_infinite_row_level_keeps_the_row():
    """A row under an infinite level keeps the factor 1, an infinite norm too, as a run that
    skips the clip keeps it; a NaN norm still gives NaN, and nothing warns."""
    G = np.array([[3.0, 4.0], [3.0, 4.0], [np.inf, 0.0], [np.nan, 1.0]])
    lam = np.array([1.0, np.inf, np.inf, np.inf])
    norms = np.sqrt(np.sum(G * G, axis=1))
    out = clipping.clip_batch(G, lam, norms)
    assert out[0].tolist() == [0.6000000000000001, 0.8] and out[1:3].tolist() == G[1:3].tolist()
    assert np.isnan(out[3]).all()


@pytest.mark.parametrize("per_row", [False, True])
def test_clip_at_an_infinite_level_keeps_every_row_but_a_nan_one(per_row):
    """An infinite level, a float or one per row, gives each row the factor 1 (its bits,
    an infinite row's too) and a NaN-norm row NaN, with no warning."""
    G = np.array([[3.0, 4.0], [-0.0, 1e150], [np.inf, 0.0], [np.nan, 1.0]])
    level = np.full(4, np.inf) if per_row else float("inf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = clip_rows(G, level)
        one = clip_rows([3.0, 4.0], float("inf"))[0]
    assert out[:3].tobytes() == G[:3].tobytes() and np.isnan(out[3]).all()
    assert one.tobytes() == np.array([3.0, 4.0]).tobytes()


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.0, np.float64(0.0), 0, -1])
def test_clip_batch_rejects_a_nonpositive_float_or_array_level(bad):
    """A level of 0 or -1 raises as a float and as an (n,) array, which take separate checks."""
    G = np.ones((4, 2))
    with pytest.raises(ValueError, match="positive"):
        clip_rows(G, bad)
    with pytest.raises(ValueError, match="positive"):
        clip_rows(G, np.full(4, bad, dtype=float))


@pytest.mark.parametrize("level", [np.nan, 1e-300])
def test_clip_batch_level_check_lets_nan_and_tiny_through(level):
    """The set of rejected levels is exactly the nonpositive ones, for a float and an array:
    a NaN level is not rejected and clips every row to NaN."""
    G = np.array([[3.0, 4.0], [0.0, 0.0]])
    as_float = clip_rows(G, level)
    as_array = clip_rows(G, np.full(2, level))
    assert as_float.tobytes() == as_array.tobytes()
    assert np.isnan(as_float).all() == np.isnan(level)


def test_clip_respects_linf_dual_norm():
    s = geometry.simplex(3)
    v = np.array([1.0, -4.0, 0.5])
    out = clip_rows(v, 2.0, s)[0]
    np.testing.assert_allclose(out, v * 0.5)
