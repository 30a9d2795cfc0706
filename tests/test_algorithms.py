"""Run-loop oracles: closed-form trajectories, records, batch equivalence."""

import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clipopt import algorithms as algos
from clipopt import clipping, geometry, problems, schedules
from clipopt import noise as nz
from clipopt.noise import (DenseDraws, Oracle, RadialParetoNoise, SpikeDraws, TwoPointNoise,
                          make_rng)

GAMMA_ONE = math.exp(-1.0)
DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def quad(diag=(1.0, 1.0), shift=(0.0, 0.0)):
    return problems.make_quadratic(list(diag), list(shift))


def noiseless_oracle(prob, seed=0):
    return Oracle(prob, TwoPointNoise(p=1.5, sigma=0.0, q=1.0), seed=seed)


def smd_inputs(prob, x1, sigma=0.0, p=1.5, horizon=None, delta=GAMMA_ONE, **kw):
    return schedules.derive_inputs(prob, x1, p=p, sigma=sigma, delta=delta,
                                   horizon=horizon, **kw)


def test_smd_geometric_decay_with_forced_step():
    prob = quad()
    x1 = np.array([1.0, 0.0])
    # sigma = 0 gives eta = 1/96 and lam = 4; scaling eta by 24 forces eta = 1/4
    sched = schedules.Schedule("smd_known_t", smd_inputs(prob, x1, horizon=16),
                               eta_scale=24.0)
    assert sched.eta(1) == pytest.approx(0.25)
    rec = algos.run_smd(prob, noiseless_oracle(prob), sched, 16, x1)
    gaps = prob.gap_many(rec.table.x[0])  # at x_1..x_17
    assert gaps[0] == prob.gap(x1)
    ratios = gaps[1:] / gaps[:-1]
    np.testing.assert_allclose(ratios, 0.75 ** 2, rtol=1e-12)
    assert rec.clipped_fraction == 0.0


def test_smd_single_step_summary():
    prob = quad()
    x1 = np.array([1.0, 0.0])
    sched = schedules.Schedule("smd_known_t", smd_inputs(prob, x1, horizon=1))
    rec = algos.run_smd(prob, noiseless_oracle(prob), sched, 1, x1)
    assert rec.summary == rec.final_gap == prob.gap_many(rec.table.x[0, 1:])[0]
    assert rec.steps == 1


def test_smd_noiseless_respects_bound():
    prob = quad()
    x1 = np.array([1.0, 0.0])
    for horizon in (64, 256, 1024):
        sched = schedules.Schedule("smd_known_t", smd_inputs(prob, x1, horizon=horizon))
        rec = algos.run_smd(prob, noiseless_oracle(prob), sched, horizon, x1)
        assert rec.summary <= schedules.theorem_bound(sched, horizon)


def test_smd_rejects_wrong_mode_and_domain():
    prob = quad()
    x1 = np.array([1.0, 0.0])
    sgd_sched = schedules.Schedule("sgd_known_t", smd_inputs(prob, x1, horizon=4))
    with pytest.raises(ValueError, match="mirror-descent schedule"):
        algos.run_smd(prob, noiseless_oracle(prob), sgd_sched, 4, x1)
    simplex = problems.make_simplex_quadratic([0.5, 0.5])
    sched = schedules.Schedule("smd_known_t", smd_inputs(simplex, np.array([0.2, 0.8]), horizon=4))
    with pytest.raises(ValueError, match="domain"):
        algos.run_smd(simplex, noiseless_oracle(simplex), sched, 4, np.array([0.7, 0.7]))


def test_asmd_first_step_collapses_to_start():
    prob = quad()
    y1 = np.array([1.0, 0.0])
    sched = schedules.Schedule("asmd_known_t", smd_inputs(prob, y1, horizon=4))
    tab = algos.run_asmd(prob, noiseless_oracle(prob), sched, 1, y1).table
    assert tab.alpha[0] == 1.0
    np.testing.assert_array_equal(tab.x[0, 0], y1)    # (1 - alpha) kills the y term
    np.testing.assert_array_equal(tab.y[0, 1], tab.z[0, 1])  # T = 1: y2 = z2


def test_asmd_noiseless_quadratic_rate_with_override():
    prob = quad()
    y1 = np.array([1.0, 0.0])
    gaps = {}
    for horizon in (64, 128, 256, 512):
        sched = schedules.Schedule("asmd_known_t", 
            smd_inputs(prob, y1, horizon=horizon, c_override=1000.0))
        gaps[horizon] = algos.run_asmd(prob, noiseless_oracle(prob), sched, horizon, y1).summary
    for horizon in (64, 128, 256):
        assert gaps[2 * horizon] / gaps[horizon] <= 0.35


def test_asmd_noiseless_respects_bound_verbatim_constant():
    prob = quad()
    y1 = np.array([1.0, 0.0])
    for horizon in (256, 1024):
        sched = schedules.Schedule("asmd_known_t", smd_inputs(prob, y1, horizon=horizon))
        rec = algos.run_asmd(prob, noiseless_oracle(prob), sched, horizon, y1)
        assert rec.summary <= schedules.theorem_bound(sched, horizon)


def test_sgd_one_step_solve_of_isotropic_quadratic():
    prob = quad()
    x1 = np.array([3.0, -2.0])
    base = schedules.Schedule("sgd_known_t", smd_inputs(prob, x1, horizon=4))
    sched = schedules.Schedule("sgd_known_t", base.inputs,
                               eta_scale=1.0 / base.eta(1))
    assert sched.eta(1) == pytest.approx(1.0)
    rec = algos.run_sgd(prob, noiseless_oracle(prob), sched, 4, x1)
    # eta = 1/L lands exactly on the minimizer after one step, so only the first of the
    # four squared gradient norms is not 0
    np.testing.assert_array_equal(rec.table.x[0, 1:], np.zeros((4, 2)))
    np.testing.assert_allclose(rec.final_point, np.zeros(2), atol=1e-15)
    assert rec.summary == pytest.approx(float(x1 @ x1) / 4)


def test_sgd_descent_on_nonconvex_instance():
    prob = problems.make_nonconvex_ratio(1)
    x1 = np.array([1.0])
    base = schedules.Schedule("sgd_known_t", smd_inputs(prob, x1, horizon=64))
    sched = schedules.Schedule("sgd_known_t", base.inputs,
                               eta_scale=0.4 / base.eta(1))
    rec = algos.run_sgd(prob, noiseless_oracle(prob), sched, 64, x1)
    # the objective decreases every step; the gradient norm only once the
    # iterate passes the curvature peak at 1/sqrt(3)
    gaps = []
    x = x1.copy()
    for _ in range(64):
        x = x - 0.4 * prob.grad(x)
        gaps.append(prob.value(x))
    assert np.all(np.diff(np.array(gaps)) <= 1e-15)
    grads = prob.grad_many(rec.table.x[0, :-1])  # at the visited points
    assert np.all(np.diff(np.sum(grads * grads, axis=1)[2:]) <= 1e-15)


def test_sgd_single_step_summary():
    prob = quad()
    x1 = np.array([1.0, 1.0])
    sched = schedules.Schedule("sgd_known_t", smd_inputs(prob, x1, horizon=1))
    rec = algos.run_sgd(prob, noiseless_oracle(prob), sched, 1, x1)
    assert rec.summary == pytest.approx(float(x1 @ x1))


def test_sgd_noiseless_respects_bound():
    for prob, x1 in ((quad(), np.array([1.0, 0.5])),
                     (problems.make_nonconvex_ratio(2), np.array([1.0, 1.0]))):
        for horizon in (64, 512):
            sched = schedules.Schedule("sgd_known_t", smd_inputs(prob, x1, horizon=horizon))
            rec = algos.run_sgd(prob, noiseless_oracle(prob), sched, horizon, x1)
            assert rec.summary <= schedules.theorem_bound(sched, horizon)


def test_vanilla_matches_clipped_when_noiseless():
    prob = quad()
    x1 = np.array([1.5, -0.5])
    sched = schedules.Schedule("sgd_known_t", smd_inputs(prob, x1, horizon=32))
    clipped = algos.run_sgd(prob, noiseless_oracle(prob), sched, 32, x1)
    vanilla = algos.run_vanilla_sgd(prob, noiseless_oracle(prob), sched.eta(1), 32, x1)
    np.testing.assert_array_equal(clipped.final_point, vanilla.final_point)
    np.testing.assert_array_equal(clipped.table.x, vanilla.table.x)
    assert clipped.summary == vanilla.summary
    assert not vanilla.diverged


def test_vanilla_divergence_flag():
    """The 3/L step is unstable: the run is flagged diverged, with infinite summary and gap,
    and runs all its steps."""
    prob = quad()
    x1 = np.array([1.0, 0.0])
    rec = algos.run_vanilla_sgd(prob, noiseless_oracle(prob), 3.0, 500, x1)
    assert rec.diverged
    assert rec.summary == np.inf
    assert rec.final_gap == np.inf
    assert rec.steps == 500 and rec.table.x.shape == (1, 501, 2)
    assert np.abs(rec.table.x[0, -1]).max() > algos.DIVERGENCE_LIMIT


def test_vanilla_row_that_escapes_and_comes_back_is_diverged():
    """A 1e13 spike at step 1 sends the row past 1e12 (to -1e13), and the noiseless step
    after brings it back to the minimizer: it is still flagged diverged."""
    prob = problems.make_quadratic([1.0, 1.0])
    x1 = np.array([1.0, 0.0])
    block = np.zeros((6, 2, 1))
    block[0, 0, 0] = 1e13
    res = algos._run(algos._vanilla, prob, 1.0, 6, x1, [0], DenseDraws(block), False)[0]
    assert res.diverged.tolist() == [True]
    assert res.summary[0] == np.inf and res.final_gap[0] == np.inf


def test_vanilla_nan_row_leaves_the_other_rows_alone():
    """A NaN draw runs the clip at the baseline's infinite level, which keeps every other
    row's bits: each row of the batch is its own one-row run, and only the NaN row diverges."""
    prob, x1 = quad(), np.array([1.0, 0.5])
    steps, n = 8, 3
    block = np.random.default_rng(0).standard_normal((steps, 2, n))
    block[2, 0, 1] = np.nan
    batch = algos._run(algos._vanilla, prob, 0.1, steps, x1, range(n),
                       DenseDraws(block), True)[0]
    assert batch.diverged.tolist() == [False, True, False]
    for k in (0, 2):
        one = algos._run(algos._vanilla, prob, 0.1, steps, x1, [k],
                         DenseDraws(block[:, :, k:k + 1].copy()), True)[0]
        assert batch.summary[k] == one.summary[0] and batch.final_gap[k] == one.final_gap[0]
        assert batch.table.x[k].tobytes() == one.table.x[0].tobytes()


def test_run_record_row_count_and_finiteness():
    prob = quad()
    x1 = np.array([1.0, 0.0])
    oracle = Oracle(prob, TwoPointNoise(p=1.5, sigma=1.0, q=0.3), seed=3)
    sched = schedules.Schedule("smd_known_t", smd_inputs(prob, x1, sigma=1.0, horizon=50))
    rec = algos.run_smd(prob, oracle, sched, 50, x1)
    assert rec.table.x.shape == (1, 51, 2) and rec.table.grad_clipped.shape == (1, 50, 2)
    gaps = prob.gap_many(rec.table.x[0, 1:])
    assert np.all(np.isfinite(gaps))
    assert np.all(gaps >= 0)
    assert rec.summary == pytest.approx(gaps.mean())


def test_reproducibility_bitwise():
    prob = quad()
    x1 = np.array([1.0, 0.0])
    sched = schedules.Schedule("smd_known_t", smd_inputs(prob, x1, sigma=1.0, horizon=64))

    def one():
        oracle = Oracle(prob, TwoPointNoise(p=1.5, sigma=1.0, q=0.2), seed=11)
        return algos.run_smd(prob, oracle, sched, 64, x1)

    a, b = one(), one()
    assert a.summary == b.summary
    assert a.table.x.tobytes() == b.table.x.tobytes()
    assert a.table.grad_clipped.tobytes() == b.table.grad_clipped.tobytes()
    np.testing.assert_array_equal(a.final_point, b.final_point)


SEEDS = [0, 1, 2, 3, 17]


def test_batch_matches_single_runs_smd():
    prob = quad(diag=(1.0, 2.0))
    x1 = np.array([1.0, 0.5])
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.3)
    sched = schedules.Schedule("smd_known_t", smd_inputs(prob, x1, sigma=1.0, horizon=40))
    batch = algos.run_smd_batch(prob, model, sched, 40, x1, SEEDS)
    for i, seed in enumerate(SEEDS):
        rec = algos.run_smd(prob, Oracle(prob, model, seed=seed), sched, 40, x1)
        assert batch.summary[i] == rec.summary
        assert batch.final_gap[i] == rec.final_gap
        assert batch.clipped_fraction[i] == rec.clipped_fraction


def test_single_run_past_the_window_step_cap_equals_its_batch_row(monkeypatch):
    """A single run at d = 2 whose horizon crosses the window's step cap (the bytes alone
    would allow 8192 steps) runs capped windows and a ragged last one; its results and step
    table equal its row of a batch, and the same run with the cap lifted, bitwise."""
    prob = quad(diag=(1.0, 2.0))
    x1 = np.array([1.0, 0.5])
    steps = 2 * nz._WINDOW_MAX_STEPS + 300
    assert nz.window_steps(steps, 2, 1) == nz._WINDOW_MAX_STEPS < nz._WINDOW_BYTES // 16
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.3)
    sched = schedules.Schedule("smd_known_t", smd_inputs(prob, x1, sigma=1.0, horizon=steps))
    batch = algos.run_smd_batch(prob, model, sched, steps, x1, SEEDS, record=True)
    rec = algos.run_smd(prob, Oracle(prob, model, seed=SEEDS[1]), sched, steps, x1)
    monkeypatch.setattr(nz, "_WINDOW_MAX_STEPS", steps)
    uncapped = algos.run_smd(prob, Oracle(prob, model, seed=SEEDS[1]), sched, steps, x1)
    for other, row in ((batch, 1), (uncapped, None)):
        for field in ("summary", "final_gap", "clipped_fraction"):
            theirs = getattr(other, field) if row is None else getattr(other, field)[row]
            assert theirs == getattr(rec, field), field
        for field in ("x", "grad_clipped"):
            rows = getattr(other.table, field)
            rows = rows if row is None else rows[row:row + 1]
            assert rows.tobytes() == getattr(rec.table, field).tobytes(), field


def test_batch_matches_single_runs_smd_simplex():
    prob = problems.make_simplex_quadratic([0.3, 0.3, 0.4])
    x1 = np.ones(3) / 3
    model = TwoPointNoise(p=1.5, sigma=0.5, q=0.3)
    sched = schedules.Schedule("smd_known_t", smd_inputs(prob, x1, sigma=0.5, horizon=40))
    batch = algos.run_smd_batch(prob, model, sched, 40, x1, SEEDS)
    for i, seed in enumerate(SEEDS):
        rec = algos.run_smd(prob, Oracle(prob, model, seed=seed), sched, 40, x1)
        assert batch.summary[i] == rec.summary


def test_batch_matches_single_runs_asmd():
    prob = quad()
    y1 = np.array([1.0, 0.0])
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.3)
    sched = schedules.Schedule("asmd_known_t", smd_inputs(prob, y1, sigma=1.0, horizon=40))
    batch = algos.run_asmd_batch(prob, model, sched, 40, y1, SEEDS)
    for i, seed in enumerate(SEEDS):
        rec = algos.run_asmd(prob, Oracle(prob, model, seed=seed), sched, 40, y1)
        assert batch.summary[i] == rec.summary


def test_batch_matches_single_runs_sgd_and_vanilla():
    prob = problems.make_nonconvex_ratio(2)
    x1 = np.array([1.0, 1.0])
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.3)
    sched = schedules.Schedule("sgd_known_t", smd_inputs(prob, x1, sigma=1.0, horizon=40))
    batch = algos.run_sgd_batch(prob, model, sched, 40, x1, SEEDS)
    vbatch = algos.run_vanilla_sgd_batch(prob, model, sched.eta(1), 40, x1, SEEDS)
    for i, seed in enumerate(SEEDS):
        rec = algos.run_sgd(prob, Oracle(prob, model, seed=seed), sched, 40, x1)
        vrec = algos.run_vanilla_sgd(prob, Oracle(prob, model, seed=seed),
                                     sched.eta(1), 40, x1)
        assert batch.summary[i] == rec.summary
        assert vbatch.summary[i] == vrec.summary
        assert vbatch.diverged[i] == vrec.diverged


START = {
    "euclidean": (quad(diag=(1.0, 2.0)), np.array([1.0, -0.5])),
    # the shipped default: both constants uniform, so the row forms take them as 0-d operands
    "euclidean_uniform": (quad(), np.array([1.0, -0.5])),
    "ball": (dataclasses.replace(quad(diag=(1.0, 2.0)), geometry=geometry.ball(2, radius=1.5)),
             np.array([0.5, 0.5])),
    "simplex": (problems.make_simplex_quadratic([0.2, 0.3, 0.5]), np.ones(3) / 3),
    # past two coordinates coord_dot reduces a C-ordered copy, and coord_sum replays numpy's
    # pairwise order: nine coordinates take its 8-accumulator block and a remainder
    "euclidean3": (problems.make_quadratic([1.0, 2.0, 0.5], [0.5, 0.0, -1.0]),
                   np.array([1.0, -0.5, 2.0])),
    "simplex9": (problems.make_simplex_quadratic(np.arange(1, 10) / 45.0), np.ones(9) / 9),
}


@given(algorithm=st.sampled_from(["smd", "asmd", "sgd", "vanilla-sgd"]),
       geom=st.sampled_from(list(START)), radial=st.booleans(), anytime=st.booleans(),
       param_free=st.booleans(), lambda_scale=st.sampled_from([1.0, 0.05]),
       steps=st.integers(1, 64), seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1,
                                                max_size=8))
@settings(max_examples=30, deadline=None)
@example(algorithm="smd", geom="euclidean3", radial=True, anytime=True, param_free=True,
         lambda_scale=0.05, steps=40, seeds=list(range(8)))
@example(algorithm="smd", geom="simplex9", radial=False, anytime=True, param_free=True,
         lambda_scale=1.0, steps=40, seeds=list(range(8)))
def test_batch_equals_single_runs_property(algorithm, geom, radial, anytime, param_free,
                                           lambda_scale, steps, seeds):
    """``param_free`` runs SMD on the parameter-free schedule, with a small ``c2`` so that
    each row's displacement leads its level."""
    if algorithm in ("sgd", "vanilla-sgd") and not geom.startswith("euclidean"):
        geom = "euclidean"  # gradient descent runs on unconstrained l2 space only
    prob, x1 = START[geom]
    if radial and not geom.startswith("simplex"):  # radial noise is calibrated for l2 geometries
        model = RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.8)
    else:
        model = TwoPointNoise(p=1.5, sigma=1.0, q=0.3)
    family = "sgd" if algorithm == "vanilla-sgd" else algorithm
    param_free = param_free and algorithm == "smd"
    mode = "smd_param_free" if param_free else f"{family}_{'anytime' if anytime else 'known_t'}"
    c2 = 1e-8 if param_free else 1.0
    sched = schedules.Schedule(mode, smd_inputs(prob, x1, sigma=1.0, horizon=steps, c2=c2),
                               lambda_scale=lambda_scale)
    single, batch_fn = {"smd": (algos.run_smd, algos.run_smd_batch),
                        "asmd": (algos.run_asmd, algos.run_asmd_batch),
                        "sgd": (algos.run_sgd, algos.run_sgd_batch),
                        "vanilla-sgd": (algos.run_vanilla_sgd, algos.run_vanilla_sgd_batch)}[algorithm]
    param = sched.eta(1) if algorithm == "vanilla-sgd" else sched
    batch = batch_fn(prob, model, param, steps, x1, seeds, record=True)
    recs = [single(prob, Oracle(prob, model, seed=s), param, steps, x1) for s in seeds]
    for field in ("summary", "final_gap", "clipped_fraction", "diverged"):
        np.testing.assert_array_equal(getattr(batch, field), [getattr(r, field) for r in recs])
    # seed k of the recorded batch is seed k's single-run table, bitwise
    for k, rec in enumerate(recs):
        for field in dataclasses.fields(algos.StepTable):
            one, rows = getattr(rec.table, field.name), getattr(batch.table, field.name)
            if one is None:
                assert rows is None, field.name
                continue
            rows = rows if one.ndim == 1 else rows[k:k + 1]
            assert rows.dtype == one.dtype and rows.shape == one.shape, field.name
            assert rows.tobytes() == one.tobytes(), field.name


@given(algorithm=st.sampled_from(["smd", "asmd", "sgd"]), geom=st.sampled_from(list(START)),
       radial=st.booleans(), anytime=st.booleans(), sigma=st.sampled_from([0.5, 1e3]),
       q=st.sampled_from([0.3, 1e-3]), lambda_scale=st.sampled_from([1.0, 0.05, 20.0]),
       eta_scale=st.sampled_from([1.0, 1e3, 1e6]), steps=st.integers(1, 64),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
@example(algorithm="asmd", geom="simplex", radial=False, anytime=False, sigma=1e3, q=0.3,
         lambda_scale=1.0, eta_scale=1e6, steps=3, seed=0)  # floored coordinates mixed at 1/2
def test_clipped_iterates_stay_finite_in_domain_property(algorithm, geom, radial, anytime, sigma,
                                                         q, lambda_scale, eta_scale, steps, seed):
    """Every iterate of a clipped single run is finite and in the domain (the open simplex
    for the entropy step), small or huge spikes; on the ball and the simplex whatever the
    step size."""
    if algorithm == "sgd" and not geom.startswith("euclidean"):
        geom = "euclidean"  # gradient descent runs on unconstrained l2 space only
    if geom.startswith("euclidean"):
        eta_scale = 1.0  # unconstrained steps past the guarantee may diverge, and are flagged
    prob, x1 = START[geom]
    if radial and not geom.startswith("simplex"):  # radial noise is calibrated for l2 geometries
        model = RadialParetoNoise(p=1.5, sigma=sigma, tail_index=1.8)
    else:
        model = TwoPointNoise(p=1.5, sigma=sigma, q=q)
    sched = schedules.Schedule(f"{algorithm}_{'anytime' if anytime else 'known_t'}",
                               smd_inputs(prob, x1, sigma=sigma, horizon=steps),
                               eta_scale=eta_scale, lambda_scale=lambda_scale)
    run = {"smd": algos.run_smd, "asmd": algos.run_asmd, "sgd": algos.run_sgd}[algorithm]
    rec = run(prob, Oracle(prob, model, seed=seed), sched, steps, x1)
    assert not rec.diverged
    for path in (rec.table.x, rec.table.y, rec.table.z):
        if path is not None:
            path = path[0]
            assert all(prob.geometry.contains(x) for x in path), path
            if geom.startswith("simplex"):  # the entropy step's log needs the open simplex
                assert np.all(path > 0), path


def test_batch_vanilla_divergence_flags_rows():
    """Rows that diverge are flagged, with infinite summary and gap, and are not frozen:
    the record holds their actual iterates."""
    prob = quad()
    x1 = np.array([1.0, 0.0])
    model = TwoPointNoise(p=1.5, sigma=0.0, q=1.0)
    res = algos.run_vanilla_sgd_batch(prob, model, 3.0, 500, x1, [0, 1], record=True)
    assert np.all(res.diverged)
    assert np.all(np.isinf(res.summary)) and np.all(np.isinf(res.final_gap))
    assert res.table.x[:, -1, 0].tolist() == [2.0 ** 500] * 2  # x_{t+1} = -2 x_t, exactly


@pytest.mark.parametrize("start", ["euclidean", "ball", "simplex9", "euclidean9"])
def test_batch_param_free_rows_equal_single_runs(monkeypatch, start):
    """A parameter-free batch keeps each row's own displacement and level: row k's results
    and step table are seed k's single run, bitwise, over windows of 7 steps; the rows'
    levels differ.  Nine l2 coordinates take the row norm's contiguous dot."""
    if start == "euclidean9":
        prob = problems.make_quadratic(np.linspace(0.5, 2.0, 9), np.zeros(9))
        x1 = np.linspace(-1.0, 1.0, 9)
    else:
        prob, x1 = START[start]
    monkeypatch.setattr(nz, "_WINDOW_BYTES", 8 * prob.dim * 6 * 7)
    monkeypatch.setattr(nz, "_WINDOW_MIN_STEPS", 1)
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.3)
    sched = schedules.Schedule("smd_param_free", smd_inputs(prob, x1, sigma=1.0, c2=1e-8),
                               lambda_scale=0.5)
    seeds = [3, 1, 4, 1, 5, 9]
    batch = algos.run_smd_batch(prob, model, sched, 60, x1, seeds, record=True)
    for k, seed in enumerate(seeds):
        rec = algos.run_smd(prob, Oracle(prob, model, seed=seed), sched, 60, x1)
        for field in ("summary", "final_gap", "clipped_fraction", "diverged"):
            assert getattr(batch, field)[k] == getattr(rec, field), field
        for field in dataclasses.fields(algos.StepTable):
            one, rows = getattr(rec.table, field.name), getattr(batch.table, field.name)
            if one is not None:
                rows = rows if one.ndim == 1 else rows[k:k + 1]
                assert rows.shape == one.shape and rows.tobytes() == one.tobytes(), field.name
    assert len(set(batch.table.lam[:, -1].tolist())) > 1


def test_batch_draws_seed_streams_without_oracles(monkeypatch):
    """Each seed's noise comes from ``make_rng(seed)`` directly; the geometry guard runs once."""
    prob = quad()
    x1 = np.array([1.0, 0.0])
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.3)
    sched = schedules.Schedule("smd_known_t", smd_inputs(prob, x1, sigma=1.0, horizon=16))
    singles = [algos.run_smd(prob, Oracle(prob, model, seed=s), sched, 16, x1) for s in range(4)]
    guards = []
    monkeypatch.setattr(algos, "check_noise_geometry", lambda *args: guards.append(args))
    monkeypatch.setattr(algos, "Oracle", None)  # building an Oracle here would fail
    batch = algos.run_smd_batch(prob, model, sched, 16, x1, range(4))
    assert len(guards) == 1
    assert batch.summary.tolist() == [rec.summary for rec in singles]
    monkeypatch.undo()
    simplex = problems.make_simplex_quadratic([0.5, 0.5])
    with pytest.raises(ValueError, match="l2 geometries"):
        algos.run_smd_batch(simplex, RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75),
                            sched, 4, np.array([0.5, 0.5]), range(3))


def test_asmd_iterates_stay_in_domain():
    prob = problems.make_simplex_quadratic([0.2, 0.3, 0.5])
    y1 = np.ones(3) / 3
    model = TwoPointNoise(p=1.5, sigma=0.5, q=0.3)
    sched = schedules.Schedule("asmd_known_t", smd_inputs(prob, y1, sigma=0.5, p=1.5, horizon=200))
    geom = prob.geometry
    tab = algos.run_asmd(prob, Oracle(prob, model, seed=2), sched, 200, y1).table
    for t in range(200):
        assert geom.contains(tab.x[0, t])
        assert geom.contains(tab.y[0, t + 1])
        assert geom.contains(tab.z[0, t + 1])


def test_no_clipping_when_level_dominates():
    prob = quad()
    x1 = np.array([1.0, 0.0])
    sched = schedules.Schedule("smd_known_t", smd_inputs(prob, x1, horizon=32))
    rec = algos.run_smd(prob, noiseless_oracle(prob), sched, 32, x1)
    assert rec.clipped_fraction == 0.0
    # every step used its true gradient, whose norm is within the level
    grads = rec.table.grad_clipped[0]
    np.testing.assert_array_equal(grads, prob.grad_many(rec.table.x[0, :-1]))
    assert np.all(prob.geometry.dual_norm_many(grads) <= rec.table.lam[0])


def count_exact_norms(monkeypatch):
    """A list that collects the block shape of each ``Geometry.dual_norm_many`` call made
    from now on in the test."""
    calls, dual_norm_many = [], geometry.Geometry.dual_norm_many

    def counted(self, V, out=None):
        calls.append(V.shape)
        return dual_norm_many(self, V, out)

    monkeypatch.setattr(geometry.Geometry, "dual_norm_many", counted)
    return calls


@pytest.mark.parametrize("algorithm", ["smd", "asmd"])
def test_an_unclipped_run_takes_no_dual_norm(monkeypatch, algorithm):
    """On the heavy-tail demo's problem, noise and known-T schedule (its levels make
    clipping rare), a run in which no seed clips passes every clip test by its bound and
    never calls ``dual_norm_many``."""
    from clipopt import config

    steps, n = 256, 40
    cfg = config.load_config(DEMO_CONFIGS / "smd_heavy_tail.cfg",
                             [f"experiment.algorithm={algorithm}",
                              f"schedule.mode={algorithm}_known_t", f"experiment.t={steps}"])
    prob, x1 = config.build_problem(cfg)
    model, sched = config.build_noise(cfg), config.build_schedule(cfg, prob, x1)
    calls = count_exact_norms(monkeypatch)
    run = {"smd": algos.run_smd_batch, "asmd": algos.run_asmd_batch}[algorithm]
    res = run(prob, model, sched, steps, x1, range(n))
    assert not res.clipped_fraction.any() and not res.diverged.any()
    assert calls == []


def test_batch_peak_memory_is_one_noise_block():
    """A two-point batch holds less than half a dense noise block, all told.

    It keeps only its spikes and one window of steps, on the heap, where
    tracemalloc sees them: the traced peak is the batch's whole noise
    representation and its state, so a dense block, or a copy of one, would
    fail the bound.
    """
    n, steps = 200, 1024
    prob = quad()
    x1 = np.array([4.0, 0.0])
    sched = schedules.Schedule("smd_known_t", smd_inputs(prob, x1, sigma=0.25, horizon=steps))
    model = TwoPointNoise(p=1.5, sigma=0.25, q=0.1)
    block = 8 * n * steps * prob.dim
    algos.run_smd_batch(prob, model, sched, 8, x1, [0])  # first-use allocations, not the block
    tracemalloc.start()
    try:
        algos.run_smd_batch(prob, model, sched, steps, x1, range(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * block, peak / block


def test_single_run_peak_memory_is_its_spikes():
    """A single two-point run is the one-seed batch: it holds its spikes and one window of
    steps, not a dense (steps, d) noise block.  At d = 64 and T = 16384 the traced peak is
    about 0.16 of that block; a run on a dense block peaks above the whole block."""
    d, steps = 64, 16384
    prob = problems.make_quadratic(np.ones(d), np.zeros(d))
    x1 = np.full(d, 0.5)
    sched = schedules.Schedule("smd_known_t", smd_inputs(prob, x1, sigma=0.25, horizon=steps))
    model = TwoPointNoise(p=1.5, sigma=0.25, q=0.1)
    algos.run_smd(prob, Oracle(prob, model, seed=1), sched, 8, x1, record=False)  # first use
    tracemalloc.start()
    try:
        algos.run_smd(prob, Oracle(prob, model, seed=0), sched, steps, x1, record=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * steps * d, peak / (8 * steps * d)


@pytest.mark.parametrize("algorithm, mode", [("smd", "smd_known_t"), ("sgd", "sgd_known_t"),
                                             ("smd", "smd_param_free"), ("asmd", "asmd_known_t")])
def test_recorded_run_peak_memory_is_what_it_holds(algorithm, mode):
    """A recorded run is a windowed run whose buffers span the horizon, and its step table
    is views of them: on diagnose_smd.cfg's problem and noise its result holds little more
    than the table's buffers, and its traced peak is about 1.1-1.2 times that.  The rest of the
    peak is one window's scratch (the true gradients, the metric rows and their
    temporaries) and the draws, which do not grow with the horizon; so at one seed, where
    the table is small against them and the per-step slot views, the peak is many times
    what the run holds (about 14 at T = 1024)."""
    from clipopt import config

    n, steps = 200, 1024
    cfg = config.load_config(DEMO_CONFIGS / "diagnose_smd.cfg",
                             [f"experiment.algorithm={algorithm}", f"schedule.mode={mode}",
                              f"experiment.t={steps}"])
    prob, x1 = config.build_problem(cfg)
    model, sched = config.build_noise(cfg), config.build_schedule(cfg, prob, x1)
    run = {"smd": algos.run_smd_batch, "sgd": algos.run_sgd_batch,
           "asmd": algos.run_asmd_batch}[algorithm]
    run(prob, model, sched, 8, x1, [0], record=True)  # first-use allocations
    tracemalloc.start()
    try:
        res = run(prob, model, sched, steps, x1, range(n), record=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.table.x.shape == (n, steps + (algorithm != "asmd"), prob.dim)
    assert peak <= 1.5 * held, peak / held
    fields = (getattr(res.table, field.name) for field in dataclasses.fields(algos.StepTable))
    data = sum(a.nbytes for a in fields if a is not None and 0 not in a.strides)  # no broadcast
    assert held <= 1.1 * data, held / data


RUNNERS = {"smd": (algos.run_smd, algos.run_smd_batch, "smd_known_t"),
           "asmd": (algos.run_asmd, algos.run_asmd_batch, "asmd_known_t"),
           "sgd": (algos.run_sgd, algos.run_sgd_batch, "sgd_known_t"),
           "vanilla-sgd": (algos.run_vanilla_sgd, algos.run_vanilla_sgd_batch, None)}


@pytest.mark.parametrize("algorithm", list(RUNNERS))
def test_a_run_of_no_steps_is_rejected(algorithm):
    """A run takes at least one step: without one there is no summary to average and no
    step for a check to read.  The draw builder rejects a count below one before it draws
    anything, for either noise family, so no warning is raised on the way."""
    prob, x1 = START["euclidean"]
    single, batch, mode = RUNNERS[algorithm]
    param = 0.1 if mode is None else schedules.Schedule(
        mode, smd_inputs(prob, x1, sigma=1.0, horizon=8))
    for model in (TwoPointNoise(p=1.5, sigma=1.0, q=0.2),
                  RadialParetoNoise(p=1.5, sigma=1.0, tail_index=1.75)):
        for steps in (0, -1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^steps must be >= 1$"):
                    batch(prob, model, param, steps, x1, range(2), record=True)
                with pytest.raises(ValueError, match="^steps must be >= 1$"):
                    single(prob, Oracle(prob, model, seed=0), param, steps, x1)


@pytest.mark.parametrize("x1", [[1.0, 0.0], [1.0 + 1e-10, -1e-10]])
def test_simplex_start_on_or_past_the_boundary_is_rejected(x1):
    """The entropy map's domain is the open simplex: a start with a zero coordinate, or one
    just below zero that the sum's tolerance would admit, is outside it, and a run from it
    raises before its first step (no log(0) warning, no row flagged diverged)."""
    prob = problems.make_simplex_quadratic([0.25, 0.75])
    sched = schedules.Schedule("smd_known_t", smd_inputs(prob, np.array([0.5, 0.5]), sigma=1.0,
                                                         horizon=8))
    assert not prob.geometry.contains(x1)
    with pytest.raises(ValueError, match="initial point outside the domain"):
        algos.run_smd_batch(prob, TwoPointNoise(p=1.5, sigma=1.0, q=0.1), sched, 8,
                            np.array(x1), range(3))


@pytest.mark.parametrize("loop, start, param", [
    (algos._smd, "euclidean", "smd_known_t"), (algos._smd, "ball", "smd_known_t"),
    (algos._smd, "simplex9", "smd_known_t"), (algos._asmd, "euclidean", "asmd_known_t"),
    (algos._asmd, "simplex9", "asmd_known_t"), (algos._sgd, "euclidean3", "sgd_known_t"),
    (algos._vanilla, "euclidean", 0.1),
])
def test_batch_state_stays_seed_contiguous(loop, start, param):
    """Each loop hands back a Fortran-ordered state, fed by either draws object: its numpy
    ops run one loop over the seeds."""
    prob, x1 = START[start]
    steps, n = 16, 5
    if isinstance(param, str):
        param = schedules.Schedule(param, smd_inputs(prob, x1, sigma=1.0, horizon=steps))
    model = TwoPointNoise(p=1.5, sigma=1.0, q=0.3)
    block = np.zeros((steps, prob.dim, n))
    for k in range(n):
        model.sample_batch(prob.dim, steps, make_rng(k), out=block[:, :, k])
    for noise in (DenseDraws(block),
                  SpikeDraws(model, prob.dim, steps, range(n))):
        X = loop(prob, param, steps, x1, noise, None)[3]
        assert X.shape == (n, prob.dim)
        assert X.flags.f_contiguous and not X.flags.c_contiguous


def test_simplex_underflow_stays_interior():
    """Huge entropy steps underflow coordinates; the runs warn of no log(0) and stay interior."""
    from clipopt import config, harness

    cfg = config.ExperimentConfig(algorithm="asmd", mode="asmd_known_t", horizon=64, n_seeds=5,
                                  problem="simplex_quadratic", dim=32, noise="two_point",
                                  p=1.5, sigma=0.5, q=0.1, eta_scale=1e6)
    config.validate_config(cfg)
    with pytest.warns(UserWarning, match="fewer than 30 seeds"):
        summary = harness.run_trials(cfg)  # RuntimeWarnings are errors here
    assert summary.diverged == 0
    problem, y1 = config.build_problem(cfg)
    noise_model, schedule = config.build_noise(cfg), config.build_schedule(cfg, problem, y1)
    for seed in range(5):
        rec = algos.run_asmd(problem, Oracle(problem, noise_model, seed=seed), schedule, 64, y1,
                             record=False)
        assert np.all(rec.final_point > 0)


def over_level(prob, tab, noise):
    """(n, T): whether each seed's noisy gradient was over its level at each step, from the
    recorded query points (``tab.x``'s first T rows) and the run's draws."""
    steps = tab.lam.shape[1]
    raw = np.stack([prob.grad_many(tab.x[:, t]) + noise.slab(t + 1) for t in range(steps)],
                   axis=1)
    return prob.geometry.dual_norm_many(raw) > tab.lam


LOOPS = {"smd": algos._smd, "asmd": algos._asmd, "sgd": algos._sgd, "vanilla-sgd": algos._vanilla}


@pytest.mark.parametrize("algorithm, start, param", [
    ("smd", "euclidean", "smd_known_t"), ("smd", "ball", "smd_anytime"),
    ("smd", "simplex9", "smd_known_t"), ("smd", "euclidean3", "smd_param_free"),
    # the quadratic's constants as 0-d operands, then both laid out
    ("smd", "euclidean_uniform", "smd_known_t"), ("smd", "euclidean3", "smd_known_t"),
    ("asmd", "euclidean", "asmd_known_t"),
    ("asmd", "simplex9", "asmd_anytime"), ("sgd", "euclidean3", "sgd_known_t"),
    ("sgd", "euclidean", "sgd_anytime"),
    ("vanilla-sgd", "euclidean", 0.1),  # no row diverges
    ("vanilla-sgd", "euclidean", 1.095),  # rows diverge mid-window, some (at n = 5) survive
    ("vanilla-sgd", "euclidean", 1.2),  # every row diverges
])
@pytest.mark.parametrize("n", [1, 5, 130])
def test_window_size_changes_no_bit(monkeypatch, algorithm, start, param, n):
    """Windows of 1 step, of 7 (a ragged tail) and of the default size give the same
    summaries, final rows and step tables, bit for bit, recorded or not."""
    prob, x1 = START[start]
    baseline = algorithm == "vanilla-sgd"
    steps = 120 if baseline else 40
    # spikes far above the schedule's sigma = 1, so some steps clip a row and some none
    model = TwoPointNoise(p=1.5, sigma=1e3 if baseline else 300.0, q=0.3)
    if not baseline:
        param = schedules.Schedule(param, smd_inputs(prob, x1, sigma=1.0, horizon=steps),
                                   lambda_scale=0.3)
    runs = []
    for window in (None, 1, 7):
        if window is not None:
            monkeypatch.setattr(nz, "_WINDOW_BYTES", 8 * prob.dim * n * window)
            monkeypatch.setattr(nz, "_WINDOW_MIN_STEPS", 1)
        for record in (True, False):
            noise = nz.lockstep_draws(model, prob.dim, steps, range(n))
            runs.append(algos._run(LOOPS[algorithm], prob, param, steps, x1, range(n), noise,
                                   record))
    res, X = runs[0]
    if baseline and param > 1.0:  # diverged rows run every step, with infinite results
        assert res.diverged.any() and res.table.x.shape == (n, steps + 1, prob.dim)
        assert res.diverged.all() == (param == 1.2 or n == 1)
        assert np.isinf(res.summary[res.diverged]).all()
        assert np.isinf(res.final_gap[res.diverged]).all()
    elif not baseline:  # steps with and without a clipped row (with many seeds, each clips one)
        noise = nz.lockstep_draws(model, prob.dim, steps, range(n))
        over = over_level(prob, res.table, noise).any(axis=0)
        assert over.any() and (n > 5 or not over.all())
    for other, X_other in runs[1:]:
        assert X_other.tobytes() == X.tobytes()
        for field in ("summary", "final_gap", "clipped_fraction", "diverged"):
            assert getattr(other, field).tobytes() == getattr(res, field).tobytes(), field
        if other.table is None:
            continue
        for field in dataclasses.fields(algos.StepTable):
            one, rows = getattr(res.table, field.name), getattr(other.table, field.name)
            if one is None:
                assert rows is None, field.name
            else:
                assert rows.shape == one.shape and rows.tobytes() == one.tobytes(), field.name


@pytest.mark.parametrize("n", [1, 2, 4, 129])
def test_running_sum_adds_in_time_order(n):
    """The per-window sum of a (k + 1, n) block, the carried total in row 0 and the
    window's metric rows after it, is the bits of a ``+=`` loop over the steps, on values
    whose sum depends on the order of the additions: in time order each 1 is lost against
    2^53, in any order that adds the -2^53 first it is kept.  The block is left as it was."""
    rng = np.random.default_rng(n)
    block = np.empty((41, n))  # C-ordered, as the loop keeps it
    rows = block[1:]
    rows[...] = rng.uniform(0.0, 1.0, (40, n)).round()  # zeros and ones
    rows[3], rows[-2] = 2.0 ** 53, -(2.0 ** 53)
    total = block[0]
    total[...] = rng.uniform(0.0, 0.5, n)
    expect = total.copy()
    for row in rows:
        expect += row
    before = block.tobytes()
    assert algos._running_sum(block).tobytes() == expect.tobytes()
    assert block.tobytes() == before
    part = total.copy()  # a window shorter than the block: the rows past it are not added
    for row in rows[:5]:
        part += row
    assert algos._running_sum(block[:6]).tobytes() == part.tobytes()
    for k in range(n):  # another order of the same additions gives other bits
        backwards = total[k]
        for value in rows[::-1, k]:
            backwards += value
        assert backwards != expect[k]


@pytest.mark.parametrize("algorithm", ["smd", "asmd", "sgd"])
def test_infinite_or_nan_norm_takes_the_clip(algorithm):
    """A step whose largest norm is infinite or NaN runs the clip: an infinite row is
    scaled by 0, a NaN row by NaN, and a row under the level by exactly 1."""
    prob, x1 = START["euclidean"]
    n, steps = 3, 4
    block = np.zeros((steps, prob.dim, n))
    block[1, 0, 0], block[2, 0, 1] = np.inf, np.nan  # seed 0 at step 2, seed 1 at step 3
    sched = schedules.Schedule(f"{algorithm}_known_t",
                               smd_inputs(prob, x1, sigma=1.0, horizon=steps))
    res = algos._run(LOOPS[algorithm], prob, sched, steps, x1, range(n),
                     DenseDraws(block), True)[0]
    grads = res.table.grad_clipped
    assert np.isnan(grads[0, 1, 0]) and grads[0, 1, 1] == 0.0
    assert np.isnan(grads[1, 2]).all()
    assert grads[2].tobytes() == (prob.grad_many(res.table.x[2, :steps]) + 0.0).tobytes()
    # seed 0 is counted clipped at its infinite step, and at none after it, whose norms are
    # NaN; a NaN norm is not over the level, so seed 1 and the noiseless seed 2 never are
    assert res.clipped_fraction.tolist() == [1 / steps, 0.0, 0.0]
    assert list(res.diverged) == [True, True, False]


# -- the mirror-descent loop against a plain step-by-step loop: the loop runs a window's
# steps after its first without their clip test, checks their norms once, and replays
# from the first step with a row over its level (or NaN) --

REF_STEPS, REF_SEEDS, REF_SPIKE = 24, 3, 10.0


def reference_descent(prob, levels, steps, x1, draws, metric):
    """Mirror descent one step at a time, each step testing its own clip: when its largest
    dual norm is over its smallest level (or NaN) it clips (``clipping.clip_batch``) and
    counts the rows over their own level.  Returns the loop's (summary, final gap, clip
    counts, final rows), its step table's fields, and per step whether the test fired and
    whether some row was over its own level or NaN."""
    n, d = draws.n, prob.dim
    geom = prob.geometry
    X = algos._rows(n, d)
    X[...] = x1
    total, clipped, dev = np.zeros(n), np.zeros(n), np.zeros(n)
    xs, gs, etas, lams, fired, dirty = [X], [], [], [], [], []
    for t in range(1, steps + 1):
        if callable(levels):  # the parameter-free mode's per-row pair at the displacement so far
            dev = np.fmax(dev, geom.norm_many(X - x1))
            eta, lam = levels(t, dev)
            step = eta[:, None]
        else:
            eta = step = float(levels.eta[t - 1])
            lam = float(levels.lam[t - 1])
        F = prob.grad_many(X)
        G = F + draws.slab(t)
        nrm = geom.dual_norm_many(G)
        fired.append(not (nrm.max() <= np.min(lam)))
        dirty.append(not np.all(nrm <= lam))
        if fired[-1]:
            G = clipping.clip_batch(G, lam, nrm)
            clipped += nrm > lam
        X = geom.mirror_step_many(X, G, step)
        total += metric(X[None], F[None], np.empty((1, n)))[0]
        xs.append(X)
        gs.append(G)
        etas.append(np.broadcast_to(eta, n))
        lams.append(np.broadcast_to(lam, n))
    table = {"eta": np.stack(etas, 1), "lam": np.stack(lams, 1), "x": np.stack(xs, 1),
             "grad_clipped": np.stack(gs, 1), "alpha": None, "y": None, "z": None}
    return ((total / steps, prob.gap_many(X), clipped, X), table, np.array(fired),
            np.array(dirty))


def expected_reads(dirty, steps, K):
    """The steps whose noise the loop reads, in order: each window's once, tested if the
    window before it clipped or its first step clips, and else again from the first step
    after its first that clips (the replay)."""
    reads, before = [], False
    for lo in range(0, steps, K):
        k = min(K, steps - lo)
        reads += range(lo + 1, lo + k + 1)
        hits = [i for i in range(k) if dirty[lo + i]]
        if hits and hits[0] > 0 and not before:
            reads += range(lo + hits[0] + 1, lo + k + 1)
        before = bool(hits)
    return reads


class ReadDraws:
    """A draws object that lists the steps whose slabs are read."""

    def __init__(self, draws):
        self.draws, self.n, self.reads = draws, draws.n, []

    def slab(self, t):
        self.reads.append(t)
        return self.draws.slab(t)


def reference_geometry(kind, d):
    """A problem whose noiseless gradient has dual norm at most 1 from its start."""
    if kind == "simplex":
        target = np.arange(1, d + 1) / (d * (d + 1) / 2)
        return problems.make_simplex_quadratic(target), np.ones(d) / d
    prob = problems.make_quadratic(np.ones(d), np.zeros(d))  # the gradient at x is x
    if kind == "ball":
        prob = dataclasses.replace(prob, geometry=geometry.ball(d, radius=2.0))
    return prob, np.full(d, 1.0 / np.sqrt(d))


def reference_case(scenario, kind, d, K):
    """(problem, start, levels, draws) of one scenario at loop windows of K steps: level 2
    and step 0.1, with noise spikes of 10 (over the level) or a NaN placed on seed 1; in
    ``bound-only``, level 12 and spikes of 10 at a window's first and middle steps, which
    no l2 norm passes but sqrt(d) times the largest coordinate does."""
    steps, n = REF_STEPS, REF_SEEDS
    prob, x1 = reference_geometry(kind, d)
    block = np.zeros((steps, d, n))
    lo = K if 2 * K <= steps else 0  # the second window, or the only one
    lam = 2.0
    if scenario == "bound-only":
        block[[lo, lo + K // 2], 0, 1] = REF_SPIKE
        lam = 1.2 * REF_SPIKE
    elif scenario.startswith("window-"):  # the first clip at the window's first, middle or last step
        block[lo + {"first": 0, "middle": K // 2, "last": K - 1}[scenario[7:]], 0, 1] = REF_SPIKE
    elif scenario == "every-step":
        lam = 1e-3
    elif scenario in ("nan-row", "baseline-nan"):
        block[lo + K // 2, 0, 1] = np.nan
        lam = np.inf if scenario == "baseline-nan" else lam
    elif scenario == "param-free":
        # near the minimizer the smallest level is 1/6; seed 0's first step clips and moves it
        # about 1 away, so its own level is 2 (L dev + g1) ~ 2, while the other seeds stay
        # within ~0.3 of the start (levels up to ~0.6); the noise of 1.2 placed on seed 0
        # later, like its noiseless gradient at steps 2 and 3, is over the smallest level
        # and under its own
        x1 = np.full(d, 0.01 / np.sqrt(d))
        block[0, 0, 0] = REF_SPIKE
        block[[9, 16, 22], 0, 0] = 1.2
        sched = schedules.Schedule("smd_param_free",
                                   smd_inputs(prob, x1, sigma=1.0, horizon=steps, c2=1e-8),
                                   eta_scale=24.0)
        return prob, x1, sched.pair, DenseDraws(block)
    levels = schedules.ScheduleTable(np.full(steps, 0.1), np.full(steps, lam), None)
    if scenario == "spikes":  # two-point noise whose spikes (q = 0.02) are 10: read by windows
        q = 0.02
        model = TwoPointNoise(p=1.5, sigma=REF_SPIKE * q ** (1 / 1.5), q=q)
        return prob, x1, levels, nz.lockstep_draws(model, d, steps, range(n))
    return prob, x1, levels, DenseDraws(block)


REF_GEOMETRIES = [(kind, d) for kind in ("euclidean", "ball", "simplex") for d in (2, 4, 32)]
REF_CASES = ([(scenario, kind, d) for scenario in
              ("clean", "window-first", "window-middle", "window-last", "every-step", "nan-row",
               "spikes") for kind, d in REF_GEOMETRIES]
             + [("bound-only", kind, d) for kind, d in REF_GEOMETRIES]
             + [("baseline-nan", "euclidean", d) for d in (2, 4, 32)]
             + [("param-free", kind, d) for kind in ("euclidean", "ball") for d in (2, 4, 32)])


@pytest.mark.parametrize("scenario, kind, d", REF_CASES)
def test_descent_equals_a_step_by_step_loop(monkeypatch, scenario, kind, d):
    """Recorded or not, at windows of 1, 7 and the default number of steps, the loop's
    summary, final gap, clip counts, final rows and step table equal the step-by-step
    loop's bit for bit; it reads each step's noise once, and a second time only in a
    replay: from the first step after a window's first with a row over its level or NaN,
    in a window whose first step and the window before did not clip.  ``clip_batch`` runs
    once at each step with such a row and at no other (never in a clean run).  The exact
    dual norms run at no step of a clean run, whose every test its bound passes, and at
    some step of an l2 ``bound-only`` run, where the bound fails and nothing clips."""
    calls, exact = [], count_exact_norms(monkeypatch)
    steps, n = REF_STEPS, REF_SEEDS

    def spy(G, level, norms=None, out=None):
        calls.append(reads.reads[-1])
        return clipping.clip_batch(G, level, norms, out=out)

    monkeypatch.setattr(algos, "clip_batch", spy)
    for window in (None, 1, 7):  # the bytes alone: spike windows stay at least 8 steps long
        if window is not None:
            monkeypatch.setattr(nz, "_WINDOW_BYTES", 8 * d * n * window)
        K = nz.window_steps(steps, d, n)
        prob, x1, levels, draws = reference_case(scenario, kind, d, K)

        def metric(xw, fw, out):
            return prob.gap_many(xw, out=out)

        with np.errstate(over="ignore", invalid="ignore"):
            want, table, fired, dirty = reference_descent(prob, levels, steps, x1, draws, metric)
        assert {"clean": not dirty.any(), "every-step": dirty.all(),
                "param-free": dirty[0] and (fired & ~dirty).any(),
                "spikes": dirty.any() and not dirty.all(),
                "bound-only": not dirty.any()}.get(scenario, dirty.any())
        for record in (True, False):
            reads, calls[:], exact[:] = ReadDraws(draws), [], []
            with np.errstate(over="ignore", invalid="ignore"):
                got = algos._descent(prob, levels, steps, x1, reads, record, metric)
            if scenario == "clean" or (scenario == "bound-only" and kind == "simplex"):
                assert exact == []
            elif scenario == "bound-only":
                assert exact
            for one, other in zip(got[:4], want):
                assert one.shape == other.shape and one.tobytes() == other.tobytes()
            assert reads.reads == expected_reads(dirty, steps, K)
            assert calls == [t for t in range(1, steps + 1) if dirty[t - 1]]
            if record:
                for field in dataclasses.fields(algos.StepTable):
                    one, other = getattr(got[4], field.name), table[field.name]
                    if other is None:
                        assert one is None, field.name
                    else:
                        assert (one.shape == other.shape
                                and one.tobytes() == other.tobytes()), field.name
            else:
                assert got[4] is None


# -- the accelerated loop against a plain step-by-step loop that takes every step's dual
# norms: the loop passes a step by its bound (sqrt(d) times the largest coordinate on l2)
# and takes the norms only when the bound fails or the step before clipped --


def reference_asmd(prob, table, steps, y1, draws):
    """Accelerated mirror descent one step at a time, each step taking its dual norms and
    clipping (``clipping.clip_batch``) when the largest is over the level or NaN, counting
    the rows over it.  Returns the loop's (summary, final gap, clip counts, final rows), its
    step table's fields, and per step whether the test fired and whether it failed the
    bound."""
    n, d = draws.n, prob.dim
    geom = prob.geometry
    Y = algos._rows(n, d)
    Y[...] = y1
    Z, clipped = Y.copy(order="K"), np.zeros(n)
    xs, gs, ys, zs, fired, unbounded = [], [], [Y], [Z], [], []
    for t in range(1, steps + 1):
        alpha, eta, lam = (float(a[t - 1]) for a in (table.alpha, table.eta, table.lam))
        X = geom.mix_many(Y, Z, alpha)
        G = prob.grad_many(X) + draws.slab(t)
        nrm = geom.dual_norm_many(G)
        fired.append(not nrm.max() <= lam)
        unbounded.append(not geom.dual_norm_bound(G) <= lam)
        if fired[-1]:
            G = clipping.clip_batch(G, lam, nrm)
            clipped += nrm > lam
        Z = geom.mirror_step_many(Z, G, eta)
        Y = geom.mix_many(Y, Z, alpha)
        xs.append(X)
        gs.append(G)
        ys.append(Y)
        zs.append(Z)
    gaps = prob.gap_many(Y)
    fields = {"eta": np.broadcast_to(table.eta, (n, steps)),
              "lam": np.broadcast_to(table.lam, (n, steps)), "x": np.stack(xs, 1),
              "grad_clipped": np.stack(gs, 1), "alpha": table.alpha, "y": np.stack(ys, 1),
              "z": np.stack(zs, 1)}
    return (gaps, gaps, clipped, Y), fields, np.array(fired), np.array(unbounded)


def reference_asmd_case(scenario, kind, d):
    """(problem, start, schedule, draws): the known-T accelerated schedule at 1/1000 of its
    step sizes (the iterates stay within ~1 of the start) with its least level, at t = T,
    scaled to 10.  Noise on seed 0 at steps 3 and 12 and on seed 2 at step 13 (the step
    after a clip): ``spikes`` of 10 times the step's level; ``bound-only`` spikes of 0.85
    times it, under the level in l2 and over it times sqrt(d); an inf at step 8
    (``inf-row``) or a NaN at step 20 (``nan-row``) on seed 1."""
    steps, n = REF_STEPS, REF_SEEDS
    prob, y1 = reference_geometry(kind, d)
    inputs = smd_inputs(prob, y1, sigma=1.0, horizon=steps)
    base = schedules.Schedule("asmd_known_t", inputs)
    sched = schedules.Schedule("asmd_known_t", inputs, eta_scale=1e-3,
                               lambda_scale=10.0 / base.lam(steps))
    lam = sched.table(steps).lam
    block = np.zeros((steps, d, n))
    spikes = {"spikes": 10.0, "bound-only": 0.85}.get(scenario)
    if spikes:
        for t, seed in ((3, 0), (12, 0), (13, 2)):
            block[t - 1, 0, seed] = spikes * lam[t - 1]
    elif scenario == "inf-row":
        block[7, 0, 1] = np.inf
    elif scenario == "nan-row":
        block[19, d - 1, 1] = np.nan
    return prob, y1, sched, DenseDraws(block)


@pytest.mark.parametrize("scenario", ["clean", "spikes", "bound-only", "inf-row", "nan-row"])
@pytest.mark.parametrize("kind, d", REF_GEOMETRIES)
def test_asmd_equals_a_step_by_step_loop(monkeypatch, scenario, kind, d):
    """Recorded or not, at windows of 1, 7 and the default number of steps, the accelerated
    loop's summary, final gap, clip counts, final rows and step table equal those of a loop
    that takes every step's dual norms, bit for bit.  The loop takes the norms at no step
    of a clean run, and at a ``bound-only`` run's spikes on l2, which fail the bound and
    clip nothing."""
    steps, exact = REF_STEPS, count_exact_norms(monkeypatch)
    prob, y1, sched, draws = reference_asmd_case(scenario, kind, d)
    with np.errstate(over="ignore", invalid="ignore"):
        want, table, fired, unbounded = reference_asmd(prob, sched.table(steps), steps, y1,
                                                       draws)
    assert {"clean": not unbounded.any(), "spikes": fired[[2, 11, 12]].all(),
            "bound-only": not fired.any() and (kind == "simplex") != unbounded[2],
            "inf-row": fired[7], "nan-row": fired[19:].all()}[scenario]
    assert not fired[:2].any() and not fired[3:7].any()  # no clip before the noise
    for window in (None, 1, 7):
        if window is not None:
            monkeypatch.setattr(nz, "_WINDOW_BYTES", 8 * d * REF_SEEDS * window)
        for record in (True, False):
            exact[:] = []
            with np.errstate(over="ignore", invalid="ignore"):
                got = algos._asmd(prob, sched, steps, y1, draws, record)
            for one, other in zip(got[:4], want):
                assert one.shape == other.shape and one.tobytes() == other.tobytes()
            if scenario == "clean":
                assert exact == []
            elif scenario == "bound-only":
                assert len(exact) == (0 if kind == "simplex" else 3)
            if not record:
                assert got[4] is None
                continue
            for field in dataclasses.fields(algos.StepTable):
                one, other = getattr(got[4], field.name), table[field.name]
                assert one.shape == other.shape and one.tobytes() == other.tobytes(), field.name
