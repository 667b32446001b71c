"""Numerical falsification harness.

Tries to *find* minimal translation surfaces by damped least squares
(Levenberg-Marquardt) over a cubic-spline ansatz for (f, g), with a
smoothing-penalty continuation: early stages add a ramped-down penalty on
f'' and g'' so rough random seeds are pulled into the smooth basin before
the unregularized final stage.  For type II the optimizer collapses onto
the geodesic-plane family; for type I a positive residual floor remains.
A Euclidean control objective (which does have solutions) demonstrates
that the harness finds them when they exist.

`residual_and_jacobian` defines the least-squares problem as a dense
residual vector r and Jacobian J.  The optimizer never forms J, and it
evaluates each point once: `_evaluate` computes the spline rows, the
residual grid R and the slab block at a coefficient vector, which gives the
cost r @ r that tests a trial step.  When the step is accepted, `_assemble`
builds the normal equations J.T @ J and J.T @ r from that same record and
the cached B-spline bases; all it computes anew are R's partials, from the
intermediates that produced R.  R(i, j) depends only on f near x_i and g
near v_j, so both are sums of products of small stacked matrices.

Each stage damps its steps by the gain ratio, the actual cost decrease over
the decrease the linear model predicts, and ends for one of STOP_REASONS
(see `_lm_stage`).  Two of them, a negligible predicted decrease and a step
that changes no coefficient, cost no evaluation, so a stage at the roundoff
floor ends in a few evaluations instead of raising the damping to its cap.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import surfaces
from .surfaces import Kind, TranslationSurface, n_coeffs

# Fixed in every campaign: the type-I slab barrier weight of the first
# continuation stage and its growth per stage, the smoothing weight of each
# stage, the relative cost decrease that ends a stage, the side of the grid
# type-I seeds are checked on, and the interior knots of a random seed.
BARRIER_WEIGHT = 10.0
BARRIER_RAMP = 10.0
SMOOTHING_WEIGHTS = (30.0, 3.0, 0.3, 0.03, 0.0)
REL_TOL = 1e-12
CHECK_GRID = 101
N_INTERIOR = 12

# Why an LM stage ended; see `_lm_stage`.
STOP_REASONS = ("rel_tol", "model", "noop_step", "damping_cap", "budget")


class InfeasibleSeedError(ValueError):
    """Type-I seed violates the positivity floor f+g >= zFloor."""


class NonFiniteResidualError(FloatingPointError):
    """The optimizer produced a non-finite residual."""


# -- spline ansatz -----------------------------------------------------


@dataclass(frozen=True)
class SplineAnsatz:
    kind: Kind
    f_coeffs: np.ndarray
    g_coeffs: np.ndarray
    f_domain: tuple[float, float]
    g_domain: tuple[float, float]

    def surface(self) -> TranslationSurface:
        f = surfaces.from_bspline(self.f_domain, self.f_coeffs)
        g = surfaces.from_bspline(self.g_domain, self.g_coeffs)
        return TranslationSurface(self.kind, f, g, (self.f_domain, self.g_domain))

    def with_coeffs(self, packed: np.ndarray) -> "SplineAnsatz":
        nf = len(self.f_coeffs)
        return replace(self, f_coeffs=packed[:nf].copy(), g_coeffs=packed[nf:].copy())

    def packed(self) -> np.ndarray:
        return np.concatenate([self.f_coeffs, self.g_coeffs])


@dataclass(frozen=True)
class SearchConfig:
    grid: tuple[int, int] = (33, 33)
    z_floor: float = 0.2
    z_ceil: float = 5.0
    max_iterations: int = 500
    euclidean_control: bool = False


@dataclass(frozen=True)
class SearchResult:
    ansatz: SplineAnsatz
    sup_residual: float
    mean_square_residual: float
    plane_distance: float | None
    stage_nfev: tuple[int, ...]
    stop_reasons: tuple[str, ...]
    stage_costs: tuple[tuple[float, ...], ...] = ()

    @property
    def iterations(self) -> int:
        """Residual evaluations over all stages, trial steps included."""
        return sum(self.stage_nfev)

    @property
    def converged(self) -> bool:
        """The last stage stopped for any reason but its evaluation budget."""
        return self.stop_reasons[-1] != "budget"


def random_ansatz(
    rng: np.random.Generator,
    kind: Kind,
    f_domain: tuple[float, float],
    g_domain: tuple[float, float],
    lift: float = 0.0,
) -> SplineAnsatz:
    """Coefficients ~ U(-0.5, 0.5); `lift` shifts f upward (partition of
    unity makes this an exact constant shift), used to keep type-I seeds
    feasible."""
    m = n_coeffs(N_INTERIOR)
    fc = rng.uniform(-0.5, 0.5, m) + lift
    gc = rng.uniform(-0.5, 0.5, m)
    return SplineAnsatz(kind, fc, gc, f_domain, g_domain)


# -- basis design matrices (coefficient-independent, cached) -----------

# (f_domain, g_domain, mf, mg, grid) -> (xs, vs, bf, bg), read-only
_DESIGN_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}


def _bases(ansatz: SplineAnsatz, cfg: SearchConfig):
    """Grid (xs, vs) and stacked bases bf (3, nx, mf), bg (3, nz, mg).

    Cached per ansatz shape and grid.  Every later evaluation shares the
    arrays, so they are read-only.
    """
    mf, mg = len(ansatz.f_coeffs), len(ansatz.g_coeffs)
    key = (ansatz.f_domain, ansatz.g_domain, mf, mg, cfg.grid)
    hit = _DESIGN_CACHE.get(key)
    if hit is None:
        nx, nz = cfg.grid
        xs = np.linspace(*ansatz.f_domain, nx)
        vs = np.linspace(*ansatz.g_domain, nz)
        bf = surfaces.spline_basis(ansatz.f_domain, mf, xs)
        bg = surfaces.spline_basis(ansatz.g_domain, mg, vs)
        hit = (xs, vs, bf, bg)
        for array in hit:
            array.flags.writeable = False
        _DESIGN_CACHE[key] = hit
    return hit


def _spline_values(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Rows: the spline, its first and its second derivative on the grid."""
    _, n, m = basis.shape
    return (basis.reshape(3 * n, m) @ coeffs).reshape(3, n)


def _euclidean_residual(fp, fpp, gp, gpp):
    """The Euclidean type-I minimality expression S = (1+g'^2) f'' + (1+f'^2) g'',
    returned as `surfaces.translation_mean_curvature` returns H: (S, partials)."""
    P = 1.0 + fp ** 2
    Q = 1.0 + gp ** 2
    S = Q * fpp + P * gpp

    def partials() -> dict:
        zeros = np.zeros(S.shape)
        return {
            "f": zeros,
            "fp": 2.0 * fp * gpp + zeros,
            "fpp": Q + zeros,
            "g": zeros,
            "gp": 2.0 * gp * fpp + zeros,
            "gpp": P + zeros,
        }

    return S, partials


def _residual_terms(kind: Kind, cfg: SearchConfig, vs: np.ndarray, f: np.ndarray, g: np.ndarray):
    """(R, partials) on the grid from the spline rows f, g of `_spline_values`."""
    fp, fpp, gp, gpp = f[1][:, None], f[2][:, None], g[1][None, :], g[2][None, :]
    if cfg.euclidean_control:
        return _euclidean_residual(fp, fpp, gp, gpp)
    height = f[0][:, None] + g[0][None, :] if kind is Kind.TYPE_I else vs[None, :]
    return surfaces.translation_mean_curvature(kind, height, fp, fpp, gp, gpp)


def residual_grid(ansatz: SplineAnsatz, cfg: SearchConfig, partials: bool = True):
    """The residual on the search grid and its partials w.r.t. the six local
    quantities: H from `surfaces.translation_mean_curvature`, or under
    `cfg.euclidean_control` the Euclidean type-I minimality expression.

    Returns (R, dR) with R of shape (nx, nz) and dR a dict of same-shape
    arrays keyed by f, fp, fpp, g, gp, gpp.  With `partials` false, dR is
    None and only R is computed.
    """
    _, vs, bf, bg = _bases(ansatz, cfg)
    f, g = _spline_values(bf, ansatz.f_coeffs), _spline_values(bg, ansatz.g_coeffs)
    R, dR = _residual_terms(ansatz.kind, cfg, vs, f, g)
    return R, dR() if partials else None


def _slab(ansatz: SplineAnsatz, cfg: SearchConfig, barrier_weight: float, f0, g0):
    """The type-I barrier block (slack, sign), or None when it is off.

    slack = sqrt(w) * (max(0, zFloor - (f+g)) - max(0, (f+g) - zCeil)) and
    sign is its derivative w.r.t. f+g.
    """
    if ansatz.kind is not Kind.TYPE_I or cfg.euclidean_control or barrier_weight <= 0.0:
        return None
    # Slab constraint zFloor <= f+g <= zCeil: the floor keeps the graph in
    # the half-space, the ceiling compactifies the search (otherwise the
    # optimizer escapes toward the vertical-plane limit, where H -> 0
    # degenerately).
    zv = f0[:, None] + g0[None, :]
    w = math.sqrt(barrier_weight)
    deficit = np.maximum(0.0, cfg.z_floor - zv)
    excess = np.maximum(0.0, zv - cfg.z_ceil)
    slack = w * (deficit - excess)
    sign = -w * ((deficit > 0.0) | (excess > 0.0)).astype(float)
    return slack, sign


def _residual_vector(R, slab, smoothing_weight: float, f, g) -> np.ndarray:
    """r: R, then the slab slack, then the smoothing penalty, each if present."""
    blocks = [R.reshape(-1)]
    if slab is not None:
        blocks.append(slab[0].reshape(-1))
    if smoothing_weight > 0.0:
        sw = math.sqrt(smoothing_weight)
        blocks += [sw * f[2], sw * g[2]]
    return np.concatenate(blocks)


def residual_and_jacobian(
    ansatz: SplineAnsatz,
    cfg: SearchConfig,
    barrier_weight: float = 0.0,
    smoothing_weight: float = 0.0,
):
    """Flattened residual vector and its Jacobian w.r.t. packed coefficients.

    Optional extra residual blocks: the type-I slab barrier (`_slab`) and
    the continuation smoothing penalty
    sqrt(w) * f'' (resp. g'') on the grid lines.  This dense form defines
    the least-squares problem; the optimizer works from `_evaluate` and
    `_assemble`, which give the same r @ r, J.T @ J and J.T @ r, as do
    their wrappers `_cost` and `_normal_equations`.
    """
    _, _, bf, bg = _bases(ansatz, cfg)
    (Bf, Bf1, Bf2), (Bg, Bg1, Bg2) = bf, bg
    f, g = _spline_values(bf, ansatz.f_coeffs), _spline_values(bg, ansatz.g_coeffs)
    R, dR = residual_grid(ansatz, cfg)
    nx, nz = R.shape
    mf = Bf.shape[1]
    mg = Bg.shape[1]
    Jf = (
        np.einsum("ij,ik->ijk", dR["f"], Bf)
        + np.einsum("ij,ik->ijk", dR["fp"], Bf1)
        + np.einsum("ij,ik->ijk", dR["fpp"], Bf2)
    ).reshape(nx * nz, mf)
    Jg = (
        np.einsum("ij,jk->ijk", dR["g"], Bg)
        + np.einsum("ij,jk->ijk", dR["gp"], Bg1)
        + np.einsum("ij,jk->ijk", dR["gpp"], Bg2)
    ).reshape(nx * nz, mg)
    J_blocks = [np.hstack([Jf, Jg])]

    slab = _slab(ansatz, cfg, barrier_weight, f[0], g[0])
    if slab is not None:
        sign = slab[1]
        Jbf = np.einsum("ij,ik->ijk", sign, Bf).reshape(nx * nz, mf)
        Jbg = np.einsum("ij,jk->ijk", sign, Bg).reshape(nx * nz, mg)
        J_blocks.append(np.hstack([Jbf, Jbg]))

    if smoothing_weight > 0.0:
        sw = math.sqrt(smoothing_weight)
        Js = np.zeros((nx + nz, mf + mg))
        Js[:nx, :mf] = sw * Bf2
        Js[nx:, mf:] = sw * Bg2
        J_blocks.append(Js)

    return _residual_vector(R, slab, smoothing_weight, f, g), np.vstack(J_blocks)


@dataclass(frozen=True)
class _Evaluation:
    """The least-squares problem of one stage at one coefficient vector x:
    the cost r @ r and what `_assemble` builds the normal equations from,
    the spline rows f, g, the residual grid R, the slab block and R's
    partials, which come on demand from the intermediates that gave R."""

    cost: float
    f: np.ndarray
    g: np.ndarray
    R: np.ndarray
    slab: tuple[np.ndarray, np.ndarray] | None
    partials: Callable[[], dict]


def _evaluate(
    ansatz: SplineAnsatz, cfg: SearchConfig, barrier_weight: float, smoothing_weight: float, x: np.ndarray
) -> _Evaluation:
    """Evaluate the problem of `residual_and_jacobian` at the packed
    coefficients x; ansatz supplies only the kind, the domains and the sizes."""
    _, vs, bf, bg = _bases(ansatz, cfg)
    mf = bf.shape[2]
    f, g = _spline_values(bf, x[:mf]), _spline_values(bg, x[mf:])
    R, partials = _residual_terms(ansatz.kind, cfg, vs, f, g)
    slab = _slab(ansatz, cfg, barrier_weight, f[0], g[0])
    r = _residual_vector(R, slab, smoothing_weight, f, g)
    if not np.all(np.isfinite(r)):
        raise NonFiniteResidualError("non-finite residual during optimization")
    return _Evaluation(float(r @ r), f, g, R, slab, partials)


def _cost(ansatz: SplineAnsatz, cfg: SearchConfig, barrier_weight: float, smoothing_weight: float) -> float:
    """r @ r for the r of `residual_and_jacobian`, from the residual values alone."""
    return _evaluate(ansatz, cfg, barrier_weight, smoothing_weight, ansatz.packed()).cost


def _basis_gram(basis: np.ndarray, S: np.ndarray) -> np.ndarray:
    """sum_kl B_k^T diag(S[:, k, l]) B_l for stacked bases B (3, n, m) and S (n, 3, 3)."""
    _, n, m = basis.shape
    weighted = (S @ basis.transpose(1, 0, 2)).transpose(1, 0, 2).reshape(3 * n, m)
    return basis.reshape(3 * n, m).T @ weighted


def _assemble(ev: _Evaluation, bf: np.ndarray, bg: np.ndarray, smoothing_weight: float):
    """A = J.T @ J and g = J.T @ r at the point of the evaluation `ev`, for
    the stacked bases bf, bg of `_bases`; only R's partials are computed here.

    R(i, j) depends only on f at x_i and g at v_j.  Write D_k = dR/df^(k) and
    E_l = dR/dg^(l) for the value and first two derivatives (k, l = 0, 1, 2),
    and B_k, C_l for the bases of f^(k), g^(l) on the grid.  Then

        A_ff = sum_kl B_k^T diag(sum_j D_k*D_l) B_l
        A_fg = sum_kl B_k^T (D_k*E_l) C_l
        A_gg = sum_kl C_k^T diag(sum_i E_k*E_l) C_l

    The slab barrier adds to the k = l = 0 terms and the smoothing penalty
    to the k = l = 2 terms.  Each sum over (k, l) is one matmul over the
    (3n, m) stacked bases.
    """
    _, nx, mf = bf.shape
    _, nz, mg = bg.shape
    f, g, R, dR = ev.f, ev.g, ev.R, ev.partials()
    D = np.stack([dR["f"], dR["fp"], dR["fpp"]])  # (3, nx, nz)
    E = np.stack([dR["g"], dR["gp"], dR["gpp"]])
    Sf = D.transpose(1, 0, 2) @ D.transpose(1, 2, 0)  # (nx, 3, 3): sum_j D_k*D_l
    Sg = E.transpose(2, 0, 1) @ E.transpose(2, 1, 0)  # (nz, 3, 3): sum_i E_k*E_l
    DE = (D[:, :, None, :] * E.transpose(1, 0, 2)[None]).reshape(3 * nx, 3 * nz)
    rf = (D * R).sum(axis=2)  # (3, nx): sum_j D_k*R
    rg = (E * R).sum(axis=1)  # (3, nz): sum_i E_l*R
    if ev.slab is not None:
        slack, sign = ev.slab
        sign2 = sign * sign
        Sf[:, 0, 0] += sign2.sum(axis=1)
        Sg[:, 0, 0] += sign2.sum(axis=0)
        DE[:nx, :nz] += sign2
        rf[0] += (sign * slack).sum(axis=1)
        rg[0] += (sign * slack).sum(axis=0)
    if smoothing_weight > 0.0:
        Sf[:, 2, 2] += smoothing_weight
        Sg[:, 2, 2] += smoothing_weight
        rf[2] += smoothing_weight * f[2]
        rg[2] += smoothing_weight * g[2]
    Bm = bf.reshape(3 * nx, mf)
    Cm = bg.reshape(3 * nz, mg)
    A = np.empty((mf + mg, mf + mg))
    A[:mf, :mf] = _basis_gram(bf, Sf)
    A[mf:, mf:] = _basis_gram(bg, Sg)
    A[:mf, mf:] = Bm.T @ DE @ Cm
    A[mf:, :mf] = A[:mf, mf:].T
    return A, np.concatenate([Bm.T @ rf.reshape(-1), Cm.T @ rg.reshape(-1)])


def _normal_equations(ansatz: SplineAnsatz, cfg: SearchConfig, barrier_weight: float, smoothing_weight: float):
    """A = J.T @ J and g = J.T @ r for the (r, J) of `residual_and_jacobian`,
    without forming J (see `_assemble`)."""
    _, _, bf, bg = _bases(ansatz, cfg)
    ev = _evaluate(ansatz, cfg, barrier_weight, smoothing_weight, ansatz.packed())
    return _assemble(ev, bf, bg, smoothing_weight)


# -- damped least squares with continuation ---------------------------


def _damped_step(A: np.ndarray, g: np.ndarray, d: np.ndarray, mu: float):
    """The step delta solving (A + mu*diag(d)) delta = -g, and the decrease
    pred = -g.delta + mu * delta.diag(d).delta that the linear model predicts.

    With A = J.T @ J and g = J.T @ r this is |r|^2 - |r + J delta|^2, exactly
    in exact arithmetic, so pred >= 0.  Raises `np.linalg.LinAlgError` when
    the damped system is singular.
    """
    delta = np.linalg.solve(A + mu * np.diag(d), -g)
    return delta, float(-g @ delta + mu * (delta @ (d * delta)))


def _lm_stage(ansatz, cfg, barrier_weight, smoothing_weight, budget):
    """One continuation stage: damped least squares on the normal equations.

    Hand-rolled Levenberg-Marquardt (diagonal-scaled damping) so every
    arithmetic step is plain numpy and runs are bit-for-bit reproducible
    across processes.  The stage iterates on the packed coefficients x.  A
    trial step costs one evaluation (`_evaluate`): the spline rows, R and
    the slab block at x + delta, and the cost.  A rejected trial's record is
    dropped at once; an accepted one becomes the current point, and its
    record builds the normal equations A = J.T @ J, g = J.T @ r
    (`_assemble`), which adds only R's partials from the record's own
    intermediates.  The dense Jacobian is never formed, no point is
    evaluated twice, and a `SplineAnsatz` is built only when the stage
    returns.  nfev counts every evaluation, trial steps included.

    The damping follows the gain ratio rho = (actual decrease) / pred of
    `_damped_step` (Madsen, Nielsen & Tingleff, "Methods for non-linear
    least squares problems", 2004, section 3.2): an accepted step scales mu
    by max(1/3, 1 - (2 rho - 1)^3) and resets nu to 2; a rejected one scales
    mu by nu and doubles nu.  A singular damped system raises mu tenfold.
    mu stays in [1e-15, 1e15].  The stage ends for one of STOP_REASONS:

    - rel_tol: an accepted step lowers the cost by no more than REL_TOL
      relative;
    - model: the linear model predicts no more than that decrease, so the
      trial is not evaluated (pred only shrinks as mu grows);
    - noop_step: x + delta equals x bit for bit, so the trial is not
      evaluated;
    - damping_cap: mu reaches its cap without a descent;
    - budget: `budget` evaluations are spent.

    Returns (ansatz, nfev, stop_reason, cost_trace); the trace records
    accepted costs only, so it is non-increasing by construction.
    """

    def evaluate(x):
        return _evaluate(ansatz, cfg, barrier_weight, smoothing_weight, x)

    def stop(reason):
        return ansatz.with_coeffs(x), nfev, reason, tuple(trace)

    _, _, bf, bg = _bases(ansatz, cfg)
    x = ansatz.packed()
    here = evaluate(x)
    trace = [here.cost]
    nfev = 1
    mu, nu = 1e-3, 2.0
    while nfev < budget:
        A, g = _assemble(here, bf, bg, smoothing_weight)
        d = np.maximum(np.diag(A), 1e-12)
        while True:
            if nfev >= budget:
                return stop("budget")
            if mu >= 1e15:
                return stop("damping_cap")
            try:
                delta, pred = _damped_step(A, g, d, mu)
            except np.linalg.LinAlgError:
                mu = min(mu * 10.0, 1e15)
                continue
            if pred <= REL_TOL * max(here.cost, 1e-300):
                return stop("model")
            x_new = x + delta
            if np.array_equal(x_new, x):
                return stop("noop_step")
            trial = evaluate(x_new)
            nfev += 1
            if trial.cost < here.cost:
                rho = (here.cost - trial.cost) / pred
                mu = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-15)
                nu = 2.0
                break
            del trial  # a rejected trial's record is not kept
            mu = min(mu * nu, 1e15)
            nu *= 2.0
        x, here = x_new, trial
        trace.append(here.cost)
        if trace[-2] - trace[-1] <= REL_TOL * max(here.cost, 1e-300):
            return stop("rel_tol")
    return stop("budget")


def _stats(ansatz: SplineAnsatz, cfg: SearchConfig) -> tuple[float, float]:
    R, _ = residual_grid(ansatz, cfg, partials=False)
    return float(np.max(np.abs(R))), float(np.mean(R ** 2))


def _check_feasible(ansatz: SplineAnsatz, cfg: SearchConfig) -> None:
    if ansatz.kind is not Kind.TYPE_I or cfg.euclidean_control:
        return
    s = ansatz.surface()
    xs = np.linspace(*ansatz.f_domain, CHECK_GRID)
    vs = np.linspace(*ansatz.g_domain, CHECK_GRID)
    zv = s.f(xs).v0[:, None] + s.g(vs).v0[None, :]
    if float(zv.min()) < cfg.z_floor:
        raise InfeasibleSeedError(
            f"min(f+g) = {float(zv.min()):.6g} < zFloor = {cfg.z_floor}"
        )


def minimize_residual(seed: SplineAnsatz, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Optimize the ansatz; deterministic given (seed, cfg)."""
    _check_feasible(seed, cfg)
    current = seed
    nfevs = []
    reasons = []
    traces = []
    barrier = BARRIER_WEIGHT if seed.kind is Kind.TYPE_I and not cfg.euclidean_control else 0.0
    for smooth_w in SMOOTHING_WEIGHTS:
        current, nfev, reason, trace = _lm_stage(
            current, cfg, barrier, smooth_w, cfg.max_iterations
        )
        nfevs.append(nfev)
        reasons.append(reason)
        traces.append(trace)
        if barrier > 0.0:
            barrier *= BARRIER_RAMP
    sup_r, msr = _stats(current, cfg)
    plane_d = None
    if current.kind is Kind.TYPE_II and not cfg.euclidean_control:
        plane_d = surfaces.plane_family_distance(current.surface())
    return SearchResult(current, sup_r, msr, plane_d, tuple(nfevs), tuple(reasons), tuple(traces))


# -- seed fan-out ------------------------------------------------------


def generate_seeds(
    n: int,
    kind: Kind,
    generator_seed: int,
    f_domain: tuple[float, float],
    g_domain: tuple[float, float],
    euclidean_control: bool = False,
) -> list[SplineAnsatz]:
    rng = np.random.default_rng(generator_seed)
    lift = 1.5 if kind is Kind.TYPE_I and not euclidean_control else 0.0
    return [random_ansatz(rng, kind, f_domain, g_domain, lift=lift) for _ in range(n)]


def _run_one(args) -> SearchResult:
    seed, cfg = args
    return minimize_residual(seed, cfg)


def run_seeds(
    seeds: list[SplineAnsatz], cfg: SearchConfig, workers: int = 1
) -> list[SearchResult]:
    """Run all seeds; results are merged in seed order regardless of workers.

    At most min(workers, len(seeds), os.cpu_count()) processes start, and
    none when that is 1: a fork-started pool launches all of its processes
    up front, so an unbounded `workers` would fork that many.
    """
    workers = min(workers, len(seeds), os.cpu_count() or 1)
    if workers <= 1:
        return [minimize_residual(s, cfg) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, [(s, cfg) for s in seeds]))
