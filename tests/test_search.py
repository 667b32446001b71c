import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hypmin import experiments, search
from hypmin.algebra import build_named
from hypmin.kernel import HalfSpaceError, hyperbolic_curvature
from hypmin.search import (
    CAMPAIGNS,
    InfeasibleSeedError,
    NonFiniteResidualError,
    SearchConfig,
    SplineAnsatz,
    generate_seeds,
    minimize_residual,
    n_coeffs,
    residual_and_jacobian,
    run_seeds,
)
from hypmin.surfaces import Kind, clamped_knots


def greville(domain, n_interior):
    knots = clamped_knots(domain, n_interior)
    m = n_coeffs(n_interior)
    return np.array([knots[i + 1 : i + 4].mean() for i in range(m)])  # cubic: 3 knots each


def plane_ansatz(m=2.0, n=0.0, p=1.0, f_domain=(-1, 1), g_domain=(1, 2)):
    # clamped cubic splines reproduce affine functions from Greville values
    fc = m * greville(f_domain, 12) + n
    gc = np.full(n_coeffs(12), p)
    return SplineAnsatz(Kind.TYPE_II, fc, gc, f_domain, g_domain)


FAST = SearchConfig(grid=(17, 17), max_iterations=400)

# Per-campaign extras: the type-I slab (z_floor, z_ceil), both sides active, and its barrier weight.
Z_SLAB = {"type1": (1.6, 1.9), "type2": None, "control": None}
BARRIER = {"type1": 4.0, "type2": 0.0, "control": 0.0}


def campaigns(*names, control=True, **extras):
    """`parametrize` arguments over the named campaigns, in order: kind, g_domain
    and (if `control`) control from search.CAMPAIGNS, then each extra's entry."""
    k = 3 if control else 2
    heads = {n: (c.kind, c.g_domain, c.euclidean_control)[:k] for n, c in CAMPAIGNS.items()}
    rows = [heads[n] + tuple(extra[n] for extra in extras.values()) for n in names]
    return ",".join(["kind", "g_domain", "control"][:k] + list(extras)), rows


def test_exact_plane_seed_is_fixed_point():
    res = minimize_residual(plane_ansatz(), FAST)
    assert res.converged
    assert res.sup_residual < 1e-12
    assert res.plane_distance == pytest.approx(0.0, abs=1e-20)


def test_type2_random_seed_collapses():
    (seed,) = CAMPAIGNS["type2"].seeds(1, 42)
    res = minimize_residual(seed, SearchConfig())
    assert res.converged
    assert res.sup_residual < 1e-6
    assert res.plane_distance < 1e-4


def test_euclidean_control_converges():
    cfg = SearchConfig(euclidean_control=True)
    (seed,) = CAMPAIGNS["control"].seeds(1, 7)
    res = minimize_residual(seed, cfg)
    assert res.sup_residual < 1e-6


def test_infeasible_type1_seed_rejected():
    m = n_coeffs(12)
    bad = SplineAnsatz(Kind.TYPE_I, np.full(m, -1.0), np.zeros(m), (-1, 1), (-1, 1))
    with pytest.raises(InfeasibleSeedError):
        minimize_residual(bad, SearchConfig())


@pytest.mark.parametrize("g_domain,control,error,match", [
    ((1.0, 2.0), True, ValueError, "Euclidean control"),
    ((-1.0, 1.0), False, HalfSpaceError, r"type II parameter z = -1.0 <= 0"),
    ((0.0, 1.0), False, HalfSpaceError, r"type II parameter z = 0.0 <= 0"),
], ids=["control", "z-from-minus-1", "z-from-0"])
def test_type2_control_and_z_range_below_zero_are_rejected(monkeypatch, g_domain, control, error, match):
    monkeypatch.setattr(search, "_spline_values", None)  # evaluating would raise TypeError
    with pytest.raises(error, match=match):
        generate_seeds(1, Kind.TYPE_II, 3, (-1, 1), g_domain, euclidean_control=control)
    seed = search.random_ansatz(np.random.default_rng(3), Kind.TYPE_II, (-1, 1), g_domain)
    for run in (minimize_residual, search.residual_grid, residual_and_jacobian):
        with pytest.raises(error, match=match):
            run(seed, replace(FAST, euclidean_control=control))
    monkeypatch.undo()  # the same ansatz on z in [1, 2], outside the control, runs
    res = minimize_residual(replace(seed, g_domain=(1.0, 2.0)), replace(FAST, max_iterations=20))
    assert math.isfinite(res.sup_residual)


@pytest.mark.parametrize(*campaigns("type2", "type1", "control"))
def test_nan_coefficient_raises_non_finite_residual(kind, g_domain, control):
    cfg = replace(FAST, euclidean_control=control)
    (seed,) = generate_seeds(1, kind, 3, (-1, 1), g_domain, euclidean_control=control)
    for index in (5, len(seed.packed()) - 3):  # one f and one g coefficient
        x = seed.packed()
        x[index] = np.nan
        bad = seed.with_coeffs(x)
        with pytest.raises(NonFiniteResidualError, match="non-finite residual"):
            minimize_residual(bad, cfg)
        with pytest.raises(NonFiniteResidualError):
            search.residual_grid(bad, cfg)


def test_overflowing_cost_of_a_finite_residual_does_not_raise():
    # f = 1e160: W^3 overflows, so R = 1/W stays finite, while the square of
    # the finite slab slack overflows the cost; the trial is rejected, not an error
    (seed,) = CAMPAIGNS["type1"].seeds(1, 3)
    x = seed.packed()
    x[: len(seed.f_coeffs)] = 1e160
    with np.errstate(over="ignore"):
        ev = search._evaluate(seed, FAST, 10.0, 0.0, x[None])
    assert ev.cost.tolist() == [math.inf]
    assert np.all(np.isfinite(ev.R)) and np.all(np.isfinite(ev.slack))


def test_stage_traces_monotone():
    (seed,) = CAMPAIGNS["type2"].seeds(1, 3)
    res = minimize_residual(seed, SearchConfig())
    assert res.stage_costs  # one trace per continuation stage
    for trace in res.stage_costs:
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-12 * np.maximum(np.abs(trace[:-1]), 1.0))


def test_determinism_bit_identical():
    (seed,) = CAMPAIGNS["type2"].seeds(1, 9)
    r1 = minimize_residual(seed, SearchConfig())
    r2 = minimize_residual(seed, SearchConfig())
    assert r1.sup_residual == r2.sup_residual
    assert r1.mean_square_residual == r2.mean_square_residual
    assert r1.plane_distance == r2.plane_distance
    assert np.array_equal(r1.ansatz.packed(), r2.ansatz.packed())


def test_run_seeds_order_is_stable():
    seeds = CAMPAIGNS["type2"].seeds(3, 5)
    results = run_seeds(seeds, FAST)
    singles = [minimize_residual(s, FAST) for s in seeds]
    for r, s in zip(results, singles):
        assert r.sup_residual == s.sup_residual


def _bits(res):
    """A search result as bytes and tuples that compare equal only bit for bit."""
    plane = math.nan if res.plane_distance is None else res.plane_distance
    floats = np.array([res.sup_residual, res.mean_square_residual, plane, *(c for t in res.stage_costs for c in t)])
    shape = tuple(len(trace) for trace in res.stage_costs)
    return res.ansatz.packed().tobytes(), floats.tobytes(), shape, res.stage_nfev, res.stop_reasons


@pytest.mark.parametrize("name", list(CAMPAIGNS))
def test_results_do_not_depend_on_the_block(monkeypatch, name):
    campaign = CAMPAIGNS[name]
    cfg = replace(FAST, euclidean_control=campaign.euclidean_control)
    seeds = campaign.seeds(20, 6421)
    alone = [_bits(minimize_residual(seed, cfg)) for seed in seeds]
    assert [_bits(r) for r in search._minimize_block(seeds, cfg)] == alone
    sizes, split = (1, 2, 3, 5, 7, 2), []
    for start, size in zip(np.cumsum((0,) + sizes), sizes):
        split += search._minimize_block(seeds[start : start + size], cfg)
    assert [_bits(r) for r in split] == alone
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(search, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(search, "usable_cpus", lambda: 2)
    assert [_bits(r) for r in run_seeds(seeds, cfg, workers=2)] == alone
    assert _InlinePool.sizes == [2]


def test_a_singular_solve_in_a_block_moves_only_its_seed(monkeypatch):
    # one damped system of seed 2, taken mid-stage, is declared singular: in a
    # block the stacked solve raises, each seed solves alone, and only seed 2
    # retries with ten times the damping; alone, it retries at once
    seeds = CAMPAIGNS["type2"].seeds(5, 6421)
    clean = [_bits(minimize_residual(seed, FAST)) for seed in seeds]
    solve, seen, raised = np.linalg.solve, [], []

    def recording(a, b):
        seen.append(a[0].copy())
        return solve(a, b)

    def singular_at_poisoned(a, b):
        if any(np.array_equal(m, poisoned) for m in a):
            raised.append(len(a))
            raise np.linalg.LinAlgError("singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    minimize_residual(seeds[2], FAST)
    poisoned = seen[len(seen) // 2]
    monkeypatch.setattr(np.linalg, "solve", singular_at_poisoned)
    alone = [_bits(minimize_residual(seed, FAST)) for seed in seeds]
    assert raised == [1]  # the stack of one is the seed's own system
    assert alone[2] != clean[2] and alone[:2] + alone[3:] == clean[:2] + clean[3:]
    raised.clear()
    assert [_bits(r) for r in search._minimize_block(seeds, FAST)] == alone
    assert raised == [5, 1]  # the stacked solve, then seed 2 alone


def test_campaign_blocks_are_contiguous_and_near_equal():
    seeds = CAMPAIGNS["type1"].seeds(20, 3)
    wide = SearchConfig(grid=(65, 65))  # the bound still splits a campaign
    for cfg, workers, sizes in ((SearchConfig(), 1, [20]), (SearchConfig(), 2, [10, 10]), (FAST, 1, [20]), (wide, 1, [5] * 4)):
        blocks = search._blocks(seeds, cfg, workers)
        assert [len(block) for block in blocks] == sizes
        assert [seed for block in blocks for seed in block] == seeds
    mixed = seeds[:3] + CAMPAIGNS["type2"].seeds(2, 3) + seeds[3:4]  # a new block wherever the problem changes
    assert [len(block) for block in search._blocks(mixed, SearchConfig(), 1)] == [3, 2, 1]
    with pytest.raises(ValueError, match="must share"):
        search._minimize_block(mixed, SearchConfig())


@pytest.mark.parametrize("name", list(CAMPAIGNS))
@pytest.mark.parametrize("side", [17, 33, 49, 65])
def test_block_buffers_stay_within_the_bound(name, side):
    campaign = CAMPAIGNS[name]
    cfg = SearchConfig(grid=(side, side), euclidean_control=campaign.euclidean_control)
    seeds = campaign.seeds(20, 3)
    blocks, slab = search._blocks(seeds, cfg, 1), name == "type1"
    work = search._workspace(seeds[0], cfg, max(map(len, blocks)), slab)
    assert sum(buffer.nbytes for buffer in (work.stack, work.flat, work.DE)) <= search.LM_BLOCK_BYTES
    if len(blocks) > 1:  # one block fewer would not fit
        fewer = -(-len(seeds) // (len(blocks) - 1))
        assert 8 * sum(search._workspace_sizes(seeds[0], cfg, fewer, slab)) > search.LM_BLOCK_BYTES
    assert (len(blocks) == 1) == (side <= 33)


@pytest.mark.parametrize(*campaigns("type2", "type1", "control"))
def test_jacobian_matches_finite_differences(kind, g_domain, control):
    rng = np.random.default_rng(13)
    cfg = SearchConfig(grid=(7, 7), euclidean_control=control)
    lift = 1.5 if kind is Kind.TYPE_I else 0.0
    ansatz = search.random_ansatz(rng, kind, (-1, 1), g_domain, lift=lift)
    r0, J = residual_and_jacobian(ansatz, cfg, barrier_weight=0.0, smoothing_weight=0.5)
    x = ansatz.packed()
    h = 1e-6
    for idx in rng.choice(len(x), size=8, replace=False):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        rp, _ = residual_and_jacobian(ansatz.with_coeffs(xp), cfg, 0.0, 0.5)
        rm, _ = residual_and_jacobian(ansatz.with_coeffs(xm), cfg, 0.0, 0.5)
        fd = (rp - rm) / (2 * h)
        scale = np.maximum(np.abs(J[:, idx]), 1.0)
        assert np.max(np.abs(J[:, idx] - fd) / scale) < 1e-5


def test_barrier_jacobian_matches_finite_differences():
    rng = np.random.default_rng(29)
    cfg = SearchConfig(grid=(7, 7), z_floor=1.6, z_ceil=1.9)  # both sides active
    ansatz = search.random_ansatz(rng, Kind.TYPE_I, (-1, 1), (-1, 1), lift=1.75)
    x = ansatz.packed()
    h = 1e-7
    _, J = residual_and_jacobian(ansatz, cfg, barrier_weight=4.0)
    for idx in rng.choice(len(x), size=6, replace=False):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        rp, _ = residual_and_jacobian(ansatz.with_coeffs(xp), cfg, 4.0)
        rm, _ = residual_and_jacobian(ansatz.with_coeffs(xm), cfg, 4.0)
        fd = (rp - rm) / (2 * h)
        scale = np.maximum(np.abs(J[:, idx]), 1.0)
        assert np.max(np.abs(J[:, idx] - fd) / scale) < 1e-5


def _dense_problem(kind, g_domain, control, z_slab, barrier, smoothing, grid=(7, 9)):
    """A random ansatz and its dense (r, J); with a z_slab, both slab sides are active."""
    rng = np.random.default_rng(29)
    cfg = SearchConfig(grid=grid, euclidean_control=control)
    lift = 0.0
    if z_slab is not None:
        cfg = replace(cfg, z_floor=z_slab[0], z_ceil=z_slab[1])
        lift = 1.75
    ansatz = search.random_ansatz(rng, kind, (-1, 1), g_domain, lift=lift)
    r, J = residual_and_jacobian(ansatz, cfg, barrier, smoothing)
    if z_slab is not None:
        n = grid[0] * grid[1]
        slack = r[n : 2 * n]
        assert np.any(slack > 0.0) and np.any(slack < 0.0)
    return ansatz, cfg, r, J


# (7, 9) keeps the grid lines of f and g apart; (33, 33) is the campaigns' grid.
DENSE_GRIDS = ((7, 9), SearchConfig().grid)


@pytest.mark.parametrize(*campaigns("type2", "type1", "control", z_slab=Z_SLAB, barrier=BARRIER))
def test_normal_equations_match_dense_jacobian(kind, g_domain, control, z_slab, barrier):
    for grid in DENSE_GRIDS:
        for smoothing in (0.0, 0.5):
            ansatz, cfg, r, J = _dense_problem(kind, g_domain, control, z_slab, barrier, smoothing, grid)
            ev = search._evaluate(ansatz, cfg, barrier, smoothing, ansatz.packed()[None])
            (A,), (g,) = search._assemble(ev, search._bases(ansatz, cfg), smoothing)
            A_ref, g_ref = J.T @ J, J.T @ r
            assert np.max(np.abs(A - A_ref)) <= 1e-12 * np.max(np.abs(A_ref))
            assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
            assert ev.cost.tolist() == [float(r @ r)]


@pytest.mark.parametrize(*campaigns("type1", "type2", "control"))
def test_final_statistics_are_those_of_the_final_point(kind, g_domain, control):
    # blocks of 20 and of 7 seeds: in some rounds a seed's trial is not in its own row of the record
    for cfg, n in ((replace(FAST, euclidean_control=control), 20), (SearchConfig(euclidean_control=control), 7)):
        seeds = generate_seeds(n, kind, 7, (-1, 1), g_domain, euclidean_control=control)
        for res in search._minimize_block(seeds, cfg):
            R, _ = search.residual_grid(res.ansatz, cfg)
            assert res.sup_residual == float(np.max(np.abs(R)))
            assert res.mean_square_residual == float(np.mean(R ** 2))


def test_lm_stops_when_every_solve_fails(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    (seed,) = CAMPAIGNS["control"].seeds(1, 7)
    cfg = SearchConfig(grid=(9, 9), euclidean_control=True)
    res = minimize_residual(seed, cfg)
    assert res.iterations == len(search.SMOOTHING_WEIGHTS)  # one evaluation per stage, no trials
    assert np.array_equal(res.ansatz.packed(), seed.packed())


@pytest.mark.parametrize(*campaigns(
    "type1", "type2", "control", z_slab=Z_SLAB, barrier=BARRIER, smoothing={"type1": 0.3, "type2": 0.0, "control": 0.0}
))
@pytest.mark.parametrize("mu", [1e-3, 1.0, 1e3])
def test_predicted_decrease_matches_dense_model(kind, g_domain, control, z_slab, barrier, smoothing, mu):
    for grid in DENSE_GRIDS:
        for weight in (smoothing, 0.0 if smoothing else 0.3):  # with and without smoothing
            ansatz, cfg, r, J = _dense_problem(kind, g_domain, control, z_slab, barrier, weight, grid)
            ev = search._evaluate(ansatz, cfg, barrier, weight, ansatz.packed()[None])
            A, g = search._assemble(ev, search._bases(ansatz, cfg), weight)
            d = np.maximum(A.diagonal(axis1=1, axis2=2), 1e-12)
            (delta,), (pred,) = search._damped_step(A, g, d, np.array([mu]))
            model = r + J @ delta
            dense = r @ r - model @ model
            assert dense > 0.0
            assert abs(pred - dense) <= 1e-12 * dense


@pytest.mark.parametrize(*campaigns("type2", "control"))
def test_restart_at_optimum_spends_few_evaluations(kind, g_domain, control):
    cfg = SearchConfig(euclidean_control=control)
    (seed,) = generate_seeds(1, kind, 1234, (-1, 1), g_domain, euclidean_control=control)
    optimum = minimize_residual(seed, cfg)
    rerun = minimize_residual(optimum.ansatz, cfg)
    assert rerun.iterations <= 8 * len(search.SMOOTHING_WEIGHTS)
    assert set(rerun.stop_reasons) <= {"model", "noop_step"}
    assert rerun.sup_residual < 1e-12


def test_every_stop_reason_occurs(monkeypatch):
    (type1,) = CAMPAIGNS["type1"].seeds(1, 1234)
    (type2,) = CAMPAIGNS["type2"].seeds(1, 1234)
    runs = [
        minimize_residual(type1, FAST),
        minimize_residual(type2, FAST),
        minimize_residual(type2, replace(FAST, max_iterations=3)),
    ]
    assert {"rel_tol", "model"} <= set(runs[0].stop_reasons)
    assert "noop_step" in runs[1].stop_reasons
    assert runs[2].stop_reasons == ("budget",) * len(search.SMOOTHING_WEIGHTS)
    assert not runs[2].converged

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    capped = minimize_residual(type2, FAST)
    assert capped.stop_reasons == ("damping_cap",) * len(search.SMOOTHING_WEIGHTS)
    assert capped.converged
    seen = {reason for res in (*runs, capped) for reason in res.stop_reasons}
    assert seen == set(search.STOP_REASONS)


@pytest.mark.parametrize(*campaigns("type1", "type2", control=False))
def test_one_evaluation_per_counted_nfev(monkeypatch, kind, g_domain):
    (seed,) = generate_seeds(1, kind, 1234, (-1, 1), g_domain)
    evaluate, with_coeffs = search._evaluate, SplineAnsatz.with_coeffs
    calls = {"evaluate": 0, "with_coeffs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(search, "_evaluate", counted("evaluate", evaluate))
    monkeypatch.setattr(SplineAnsatz, "with_coeffs", counted("with_coeffs", with_coeffs))
    res = minimize_residual(seed, FAST)
    assert len(res.stage_nfev) == len(search.SMOOTHING_WEIGHTS)
    assert calls["evaluate"] == res.iterations == sum(res.stage_nfev)
    assert calls["with_coeffs"] == 1  # once, when the last stage returns


@pytest.mark.parametrize(*campaigns(
    "type1", "type2", "control", z_slab=Z_SLAB, barrier=BARRIER, smoothing={"type1": 0.5, "type2": 0.0, "control": 0.5}
))
def test_reused_record_equals_fresh_normal_equations(monkeypatch, kind, g_domain, control, z_slab, barrier, smoothing):
    ansatz, cfg, _, _ = _dense_problem(kind, g_domain, control, z_slab, barrier, smoothing)
    evaluate, assemble = search._evaluate, search._assemble
    points = {}  # id of a record -> (record, its x); holding the record keeps its id unique
    built = []  # per build in the stage: (its slab has both sides, it equals a fresh build)

    def recording_evaluate(ansatz, cfg, barrier_weight, smoothing_weight, x, work=None):
        ev = evaluate(ansatz, cfg, barrier_weight, smoothing_weight, x, work)
        points[id(ev)] = (ev, x.copy())
        return ev

    def recording_assemble(ev, bases, smoothing_weight, rows=None, out=None):
        # compared when it is built: the stage's next evaluation reuses the record's buffers
        x = points[id(ev)][1] if rows is None else points[id(ev)][1][rows]
        sides = ev.slack is None or bool(np.any(ev.slack > 0.0) and np.any(ev.slack < 0.0))
        fresh = assemble(evaluate(ansatz, cfg, barrier, smoothing, x), bases, smoothing)
        A, g = assemble(ev, bases, smoothing_weight, rows, out)
        at = slice(None) if out is None else out[2]
        built.append((sides, all(np.array_equal(mine[at], theirs) for mine, theirs in zip((A, g), fresh))))
        return A, g

    monkeypatch.setattr(search, "_evaluate", recording_evaluate)
    monkeypatch.setattr(search, "_assemble", recording_assemble)
    search._lm_stage(ansatz, cfg, barrier, smoothing, 12, ansatz.packed()[None])
    assert len(built) >= 3  # the start and at least two accepted trials
    assert built[1:] == [(True, True)] * (len(built) - 1)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_worker_pool_is_bounded(monkeypatch):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(search, "ProcessPoolExecutor", _InlinePool)
    seeds = CAMPAIGNS["type2"].seeds(4, 5)
    want = [minimize_residual(s, FAST).sup_residual for s in seeds]

    def sups(n, workers):
        return [r.sup_residual for r in run_seeds(seeds[:n], FAST, workers=workers)]

    monkeypatch.setattr(search, "usable_cpus", lambda: 3)
    assert sups(4, 5000) == want
    assert sups(2, 5000) == want[:2]
    assert sups(1, 5000) == want[:1]
    assert _InlinePool.sizes == [3, 2]  # min(workers, seeds, cpus); one process runs in-process
    monkeypatch.setattr(search, "usable_cpus", lambda: 1)
    assert sups(2, 2) == want[:2]
    assert _InlinePool.sizes == [3, 2]


def test_search_command_bounds_the_pool(monkeypatch, tmp_path):
    from hypmin.cli import main

    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(search, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(search, "usable_cpus", lambda: 8)
    args = ["search", "--kind", "type2", "--seeds", "2", "--seed", "5"]
    assert main([*args, "--workers", "64", "--out", str(tmp_path / "pool")]) == 0
    assert _InlinePool.sizes == [2]
    assert main([*args, "--out", str(tmp_path / "seq")]) == 0
    for name in ("search_type2.csv", "search_type2_summary.json"):
        assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "seq" / name).read_bytes()


@pytest.mark.parametrize(*campaigns("type1", "type2", control=False, lift={"type1": 1.5, "type2": 0.0}))
def test_residual_grid_is_the_kernel_H(kind, g_domain, lift):
    ansatz = search.random_ansatz(np.random.default_rng(31), kind, (-1, 1), g_domain, lift=lift)
    cfg = SearchConfig()
    R, _ = search.residual_grid(ansatz, cfg)
    xs, vs, *_ = search._bases(ansatz, cfg)
    H = hyperbolic_curvature(ansatz.surface().jet(xs[:, None], vs[None, :])).H
    assert R.shape == H.shape == cfg.grid
    assert np.max(np.abs(R - H) / np.abs(H)) <= 1e-10


def _scipy_basis(domain, m, ts):
    """The oracle: scipy's B-splines on the knots of `clamped_knots`, written out."""
    from scipy.interpolate import BSpline

    lo, hi = domain
    knots = np.concatenate([[lo] * 3, np.linspace(lo, hi, m - 2), [hi] * 3])
    spline = BSpline(knots, np.eye(m), 3)
    return np.stack([spline(ts), spline.derivative(1)(ts), spline.derivative(2)(ts)])


@pytest.mark.parametrize(*campaigns("type1", "type2", control=False))
@pytest.mark.parametrize("cfg", [SearchConfig(), FAST])
def test_bases_equal_scipy_design_matrices(kind, g_domain, cfg):
    (seed,) = generate_seeds(1, kind, 3, (-1.0, 1.0), g_domain)
    xs, vs, bf, bg, _, _ = search._bases(seed, cfg)
    assert np.array_equal(bf, _scipy_basis(seed.f_domain, len(seed.f_coeffs), xs))
    assert np.array_equal(bg, _scipy_basis(seed.g_domain, len(seed.g_coeffs), vs))


@pytest.mark.parametrize(*campaigns(
    "type2", "type1", "control", orders={"type1": (0, 1, 2), "type2": (1, 2), "control": (1, 2)}
))
def test_extended_bases_hold_the_orders_R_depends_on(kind, g_domain, control, orders):
    cfg = replace(FAST, euclidean_control=control)
    (seed,) = generate_seeds(1, kind, 3, (-1, 1), g_domain, euclidean_control=control)
    _, _, bf, bg, fx, gx = search._bases(seed, cfg)
    k, (_, nx, mf), (_, nz, mg) = len(orders), bf.shape, bg.shape
    assert fx.shape == (nx, k + 1, mf + 1) and gx.shape == (nz, k + 1, mg + 1)
    assert np.array_equal(fx[:, :k, :mf], bf[list(orders)].transpose(1, 0, 2))  # the 1 last
    assert np.array_equal(gx[:, 1:, :mg], bg[list(orders)].transpose(1, 0, 2))  # the 1 first
    assert np.all(fx[:, k, mf] == 1.0) and np.all(gx[:, 0, mg] == 1.0)
    assert np.count_nonzero(fx[:, :, mf]) == nx and np.count_nonzero(fx[:, k, :]) == nx
    assert np.count_nonzero(gx[:, :, mg]) == nz and np.count_nonzero(gx[:, 0, :]) == nz
    ev = search._evaluate(seed, cfg, 0.0, 0.0, seed.packed()[None])
    assert {name for name, _ in ev.partials()} == {name + "p" * n for n in orders for name in "fg"}


def test_cached_bases_are_read_only():
    for name in ("type2", "type1"):
        (seed,) = CAMPAIGNS[name].seeds(1, 3)
        bases = search._bases(seed, FAST)
        assert len(bases) == 6  # xs, vs, bf, bg and the extended fx, gx
        for array in bases:
            with pytest.raises(ValueError):
                array[0] = 1.0
        for stacked in bases[2:]:
            with pytest.raises(ValueError):
                stacked[0][1, 2] = 1.0  # a view keeps the flag


# -- ODE experiments ---------------------------------------------------


def test_ode_zero_curvature_parameter_is_linear():
    rep = experiments.integrate_first_integral(0.0, 1.0, (0.0, 2.0))
    assert not rep.blew_up
    assert rep.max_defect == 0.0
    assert rep.f[-1] == pytest.approx(2.0, rel=1e-8)


def test_ode_defect_small_before_singularity():
    rep = experiments.integrate_first_integral(1.0, 0.0, (0.0, 0.2))
    assert not rep.blew_up
    assert rep.max_defect < 1e-8


def test_ode_blow_up_detected_near_quarter_pi():
    # closed form: f'(x) satisfies dp/(1+p^2)^2 = dx, singular at x* = pi/4
    rep = experiments.integrate_first_integral(1.0, 0.0, (0.0, 10.0))
    assert rep.blew_up
    assert rep.x_end == pytest.approx(math.pi / 4.0, abs=1e-6)


@pytest.mark.parametrize("a,p0", [(1.0, 0.5), (0.7, -1.3), (-1.2, 0.8), (2.0, 2.0)])
def test_ode_closed_form_matches_solve_ivp(a, p0):
    from scipy.integrate import solve_ivp  # test-only oracle

    x_blow = experiments.integrate_first_integral(a, p0, (0.0, 10.0)).x_end
    rep = experiments.integrate_first_integral(a, p0, (0.0, 0.5 * x_blow))
    assert not rep.blew_up and rep.x_end == 0.5 * x_blow
    sol = solve_ivp(
        lambda x, y: [y[1], a * (1.0 + y[1] ** 2) ** 2],
        (0.0, rep.x_end),
        [0.0, p0],
        t_eval=rep.xs,
        rtol=1e-12,
        atol=1e-12,
    )
    assert sol.success
    assert np.max(np.abs(sol.y[0] - rep.f)) < 1e-10
    assert np.max(np.abs(sol.y[1] - rep.fp)) < 1e-10 * np.max(np.abs(rep.fp))


# -- cubic branch tracing ---------------------------------------------


def test_real_cubic_root_value():
    roots = np.roots([1.0, -1.0, 0.0, -1.0])
    assert np.sum(np.abs(roots.imag) < 1e-9) == 1
    assert experiments.real_cubic_root(1.0, 1.0) == pytest.approx(1.465571231876768, abs=1e-12)


@pytest.mark.parametrize("a", [0.1, -0.1, 1.0, -1.0, 2.5, -2.5])
def test_real_cubic_root_matches_np_roots(a):
    zs = np.linspace(0.05, 3.0, 60)
    got = experiments.real_cubic_root(a, zs)
    for z, x in zip(zs, got):
        roots = np.roots([1.0, -a * z, 0.0, -a * z])
        real = roots[np.abs(roots.imag) < 1e-9].real
        assert len(real) == 1
        assert abs(x - real[0]) <= 1e-12 * abs(real[0])


def test_branch_infeasibility_positive_for_all_b():
    rep = experiments.trace_type2_branch(1.0, (0.5, 2.0))
    assert rep.min_infeasibility > 1e-2
    assert np.all(rep.infeasibility > 0)
    assert len(rep.b_values) == 41


@pytest.mark.parametrize("a", [1.0, -0.7])
def test_branch_infeasibility_matches_exact_evaluation(a):
    b_values = [-1.3, 0.0, 0.4, 1.7]
    rep = experiments.trace_type2_branch(a, (0.5, 2.0), b_values=b_values, n_z=5)
    q1, q2 = build_named("q1"), build_named("q2")
    for b, got in zip(b_values, rep.infeasibility):
        exact = []
        for z, X in zip(rep.zs, rep.roots):
            point = {"a": Fraction(a), "b": Fraction(b), "z": Fraction(z), "X": Fraction(X)}
            exact.append(abs(q1.evaluate(point)) + abs(q2.evaluate(point)))
        want = float(max(exact))
        assert abs(got - want) <= 1e-12 * abs(want)


def test_branch_root_continuity():
    rep = experiments.trace_type2_branch(1.0, (0.5, 2.0))
    assert np.max(np.abs(np.diff(rep.roots))) < 0.1


def test_b0_branch_matches_exact_polynomial():
    zs = np.linspace(0.5, 2.0, 50)
    got = experiments.b0_branch_check(1.3, zs)
    want = -16.0 / 125.0 * 1.3 ** 3 * zs ** 3 - 1.3 * zs
    assert np.max(np.abs(got - want)) < 1e-12


def test_branch_rejects_bad_arguments():
    with pytest.raises(ValueError):
        experiments.trace_type2_branch(0.0, (0.5, 2.0))
    with pytest.raises(ValueError):
        experiments.trace_type2_branch(1.0, (-0.5, 2.0))
    # the lower end of the z range, at either position, must lie in z > 0
    for z_range in ((0.0, 2.0), (2.0, -1.0)):
        with pytest.raises(HalfSpaceError, match=rf"^type II parameter z = {min(z_range)} <= 0 in the z range "):
            experiments.trace_type2_branch(1.0, z_range)
