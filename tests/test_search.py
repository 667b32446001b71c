import math
from dataclasses import replace

import numpy as np
import pytest

from hypmin import experiments, search
from hypmin.kernel import hyperbolic_curvature
from hypmin.search import (
    InfeasibleSeedError,
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


def test_exact_plane_seed_is_fixed_point():
    res = minimize_residual(plane_ansatz(), FAST)
    assert res.converged
    assert res.sup_residual < 1e-12
    assert res.plane_distance == pytest.approx(0.0, abs=1e-20)


def test_type2_random_seed_collapses():
    (seed,) = generate_seeds(1, Kind.TYPE_II, 42, (-1, 1), (1, 2))
    res = minimize_residual(seed, SearchConfig())
    assert res.converged
    assert res.sup_residual < 1e-6
    assert res.plane_distance < 1e-4


def test_euclidean_control_converges():
    cfg = SearchConfig(euclidean_control=True)
    (seed,) = generate_seeds(1, Kind.TYPE_I, 7, (-1, 1), (-1, 1), euclidean_control=True)
    res = minimize_residual(seed, cfg)
    assert res.sup_residual < 1e-6


def test_infeasible_type1_seed_rejected():
    m = n_coeffs(12)
    bad = SplineAnsatz(Kind.TYPE_I, np.full(m, -1.0), np.zeros(m), (-1, 1), (-1, 1))
    with pytest.raises(InfeasibleSeedError):
        minimize_residual(bad, SearchConfig())


def test_stage_traces_monotone():
    (seed,) = generate_seeds(1, Kind.TYPE_II, 3, (-1, 1), (1, 2))
    res = minimize_residual(seed, SearchConfig())
    assert res.stage_costs  # one trace per continuation stage
    for trace in res.stage_costs:
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-12 * np.maximum(np.abs(trace[:-1]), 1.0))


def test_determinism_bit_identical():
    (seed,) = generate_seeds(1, Kind.TYPE_II, 9, (-1, 1), (1, 2))
    r1 = minimize_residual(seed, SearchConfig())
    r2 = minimize_residual(seed, SearchConfig())
    assert r1.sup_residual == r2.sup_residual
    assert r1.mean_square_residual == r2.mean_square_residual
    assert r1.plane_distance == r2.plane_distance
    assert np.array_equal(r1.ansatz.packed(), r2.ansatz.packed())


def test_run_seeds_order_is_stable():
    seeds = generate_seeds(3, Kind.TYPE_II, 5, (-1, 1), (1, 2))
    results = run_seeds(seeds, FAST)
    singles = [minimize_residual(s, FAST) for s in seeds]
    for r, s in zip(results, singles):
        assert r.sup_residual == s.sup_residual


@pytest.mark.parametrize("kind,g_domain,control", [
    (Kind.TYPE_II, (1, 2), False),
    (Kind.TYPE_I, (-1, 1), False),
    (Kind.TYPE_I, (-1, 1), True),
])
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


@pytest.mark.parametrize("kind,g_domain,control,z_slab,barrier", [
    (Kind.TYPE_II, (1, 2), False, None, 0.0),
    (Kind.TYPE_I, (-1, 1), False, (1.6, 1.9), 4.0),  # both slab sides active
    (Kind.TYPE_I, (-1, 1), True, None, 0.0),
])
def test_normal_equations_match_dense_jacobian(kind, g_domain, control, z_slab, barrier):
    rng = np.random.default_rng(29)
    cfg = SearchConfig(grid=(7, 9), euclidean_control=control)
    lift = 0.0
    if z_slab is not None:
        cfg = replace(cfg, z_floor=z_slab[0], z_ceil=z_slab[1])
        lift = 1.75
    ansatz = search.random_ansatz(rng, kind, (-1, 1), g_domain, lift=lift)
    r, J = residual_and_jacobian(ansatz, cfg, barrier, 0.5)
    if z_slab is not None:
        slack = r[63:126]
        assert np.any(slack > 0.0) and np.any(slack < 0.0)
    A, g = search._normal_equations(ansatz, cfg, barrier, 0.5)
    A_ref, g_ref = J.T @ J, J.T @ r
    assert np.max(np.abs(A - A_ref)) <= 1e-12 * np.max(np.abs(A_ref))
    assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
    assert search._cost(ansatz, cfg, barrier, 0.5) == float(r @ r)


def test_lm_stops_when_every_solve_fails(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    (seed,) = generate_seeds(1, Kind.TYPE_I, 7, (-1, 1), (-1, 1), euclidean_control=True)
    cfg = SearchConfig(grid=(9, 9), euclidean_control=True)
    res = minimize_residual(seed, cfg)
    assert res.iterations == len(search.SMOOTHING_WEIGHTS)  # one evaluation per stage, no trials
    assert np.array_equal(res.ansatz.packed(), seed.packed())


@pytest.mark.parametrize("kind,g_domain,control,z_slab,barrier,smoothing", [
    (Kind.TYPE_I, (-1, 1), False, (1.6, 1.9), 4.0, 0.3),  # both slab sides active
    (Kind.TYPE_II, (1, 2), False, None, 0.0, 0.0),
    (Kind.TYPE_I, (-1, 1), True, None, 0.0, 0.0),
])
@pytest.mark.parametrize("mu", [1e-3, 1.0, 1e3])
def test_predicted_decrease_matches_dense_model(kind, g_domain, control, z_slab, barrier, smoothing, mu):
    rng = np.random.default_rng(29)
    cfg = SearchConfig(grid=(7, 9), euclidean_control=control)
    lift = 0.0
    if z_slab is not None:
        cfg = replace(cfg, z_floor=z_slab[0], z_ceil=z_slab[1])
        lift = 1.75
    ansatz = search.random_ansatz(rng, kind, (-1, 1), g_domain, lift=lift)
    r, J = residual_and_jacobian(ansatz, cfg, barrier, smoothing)
    if z_slab is not None:
        slack = r[63:126]
        assert np.any(slack > 0.0) and np.any(slack < 0.0)
    A, g = search._normal_equations(ansatz, cfg, barrier, smoothing)
    delta, pred = search._damped_step(A, g, np.maximum(np.diag(A), 1e-12), mu)
    model = r + J @ delta
    dense = r @ r - model @ model
    assert dense > 0.0
    assert abs(pred - dense) <= 1e-12 * dense


@pytest.mark.parametrize("kind,g_domain,control", [
    (Kind.TYPE_II, (1, 2), False),
    (Kind.TYPE_I, (-1, 1), True),
])
def test_restart_at_optimum_spends_few_evaluations(kind, g_domain, control):
    cfg = SearchConfig(euclidean_control=control)
    (seed,) = generate_seeds(1, kind, 1234, (-1, 1), g_domain, euclidean_control=control)
    optimum = minimize_residual(seed, cfg)
    rerun = minimize_residual(optimum.ansatz, cfg)
    assert rerun.iterations <= 8 * len(search.SMOOTHING_WEIGHTS)
    assert set(rerun.stop_reasons) <= {"model", "noop_step"}
    assert rerun.sup_residual < 1e-12


def test_every_stop_reason_occurs(monkeypatch):
    (type1,) = generate_seeds(1, Kind.TYPE_I, 1234, (-1, 1), (-1, 1))
    (type2,) = generate_seeds(1, Kind.TYPE_II, 1234, (-1, 1), (1, 2))
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


@pytest.mark.parametrize("kind,g_domain", [(Kind.TYPE_I, (-1, 1)), (Kind.TYPE_II, (1, 2))])
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
    assert calls["with_coeffs"] == len(search.SMOOTHING_WEIGHTS)  # once per stage, when it returns


@pytest.mark.parametrize("kind,g_domain,control,z_slab,barrier,smoothing", [
    (Kind.TYPE_I, (-1, 1), False, (1.6, 1.9), 4.0, 0.5),  # both slab sides active
    (Kind.TYPE_II, (1, 2), False, None, 0.0, 0.0),
    (Kind.TYPE_I, (-1, 1), True, None, 0.0, 0.5),
])
def test_reused_record_equals_fresh_normal_equations(monkeypatch, kind, g_domain, control, z_slab, barrier, smoothing):
    rng = np.random.default_rng(29)
    cfg = SearchConfig(grid=(7, 9), euclidean_control=control)
    lift = 0.0
    if z_slab is not None:
        cfg = replace(cfg, z_floor=z_slab[0], z_ceil=z_slab[1])
        lift = 1.75
    ansatz = search.random_ansatz(rng, kind, (-1, 1), g_domain, lift=lift)
    evaluate, assemble = search._evaluate, search._assemble
    points = {}  # id of a record -> (record, its x); holding the record keeps its id unique
    built = []  # (x, A, g) for every build in the stage

    def recording_evaluate(ansatz, cfg, barrier_weight, smoothing_weight, x):
        ev = evaluate(ansatz, cfg, barrier_weight, smoothing_weight, x)
        points[id(ev)] = (ev, x.copy())
        return ev

    def recording_assemble(ev, bf, bg, smoothing_weight):
        A, g = assemble(ev, bf, bg, smoothing_weight)
        built.append((ev, points[id(ev)][1], A, g))
        return A, g

    monkeypatch.setattr(search, "_evaluate", recording_evaluate)
    monkeypatch.setattr(search, "_assemble", recording_assemble)
    search._lm_stage(ansatz, cfg, barrier, smoothing, 12)
    monkeypatch.undo()
    assert len(built) >= 3  # the start and at least two accepted trials
    for ev, x, A, g in built[1:]:
        if z_slab is not None:
            slack = ev.slab[0]
            assert np.any(slack > 0.0) and np.any(slack < 0.0)
        A_fresh, g_fresh = search._normal_equations(ansatz.with_coeffs(x), cfg, barrier, smoothing)
        assert np.array_equal(A, A_fresh) and np.array_equal(g, g_fresh)


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
    seeds = generate_seeds(4, Kind.TYPE_II, 5, (-1, 1), (1, 2))
    want = [minimize_residual(s, FAST).sup_residual for s in seeds]

    def sups(n, workers):
        return [r.sup_residual for r in run_seeds(seeds[:n], FAST, workers=workers)]

    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    assert sups(4, 5000) == want
    assert sups(2, 5000) == want[:2]
    assert sups(1, 5000) == want[:1]
    assert _InlinePool.sizes == [3, 2]  # min(workers, seeds, cpus); one process runs in-process
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert sups(2, 2) == want[:2]
    assert _InlinePool.sizes == [3, 2]


def test_search_command_bounds_the_pool(monkeypatch, tmp_path):
    from hypmin.cli import main

    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(search, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 8)
    args = ["search", "--kind", "type2", "--seeds", "2", "--seed", "5"]
    assert main([*args, "--workers", "64", "--out", str(tmp_path / "pool")]) == 0
    assert _InlinePool.sizes == [2]
    assert main([*args, "--out", str(tmp_path / "seq")]) == 0
    for name in ("search_type2.csv", "search_type2_summary.json"):
        assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "seq" / name).read_bytes()


@pytest.mark.parametrize("kind,g_domain,lift", [(Kind.TYPE_I, (-1, 1), 1.5), (Kind.TYPE_II, (1, 2), 0.0)])
def test_residual_grid_is_the_kernel_H(kind, g_domain, lift):
    ansatz = search.random_ansatz(np.random.default_rng(31), kind, (-1, 1), g_domain, lift=lift)
    cfg = SearchConfig()
    R, dR = search.residual_grid(ansatz, cfg, partials=False)
    xs, vs, _, _ = search._bases(ansatz, cfg)
    H = hyperbolic_curvature(ansatz.surface().jet(xs[:, None], vs[None, :])).H
    assert dR is None and R.shape == H.shape == cfg.grid
    assert np.max(np.abs(R - H) / np.abs(H)) <= 1e-10


def _scipy_basis(domain, m, ts):
    """The oracle: scipy's B-splines on the knots of `clamped_knots`, written out."""
    from scipy.interpolate import BSpline

    lo, hi = domain
    knots = np.concatenate([[lo] * 3, np.linspace(lo, hi, m - 2), [hi] * 3])
    spline = BSpline(knots, np.eye(m), 3)
    return np.stack([spline(ts), spline.derivative(1)(ts), spline.derivative(2)(ts)])


@pytest.mark.parametrize("kind,g_domain", [(Kind.TYPE_I, (-1.0, 1.0)), (Kind.TYPE_II, (1.0, 2.0))])
@pytest.mark.parametrize("cfg", [SearchConfig(), FAST])
def test_bases_equal_scipy_design_matrices(kind, g_domain, cfg):
    (seed,) = generate_seeds(1, kind, 3, (-1.0, 1.0), g_domain)
    xs, vs, bf, bg = search._bases(seed, cfg)
    assert np.array_equal(bf, _scipy_basis(seed.f_domain, len(seed.f_coeffs), xs))
    assert np.array_equal(bg, _scipy_basis(seed.g_domain, len(seed.g_coeffs), vs))


def test_cached_bases_are_read_only():
    (seed,) = generate_seeds(1, Kind.TYPE_II, 3, (-1, 1), (1, 2))
    xs, vs, bf, bg = search._bases(seed, FAST)
    for array in (xs, vs, bf, bg):
        with pytest.raises(ValueError):
            array[0] = 1.0
    with pytest.raises(ValueError):
        bf[0][1, 2] = 1.0  # a view keeps the flag


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
    roots = experiments.real_cubic_roots(1.0, 1.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.465571231876768, abs=1e-12)


def test_branch_infeasibility_positive_for_all_b():
    rep = experiments.trace_type2_branch(1.0, (0.5, 2.0))
    assert rep.min_infeasibility > 1e-2
    assert np.all(rep.infeasibility > 0)
    assert len(rep.b_values) == 41


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
