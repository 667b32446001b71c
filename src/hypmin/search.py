"""Numerical falsification harness.

Tries to *find* minimal translation surfaces by damped least squares
(Levenberg-Marquardt) over a cubic-spline ansatz for (f, g), with a
smoothing-penalty continuation: early stages add a ramped-down penalty on
f'' and g'' so rough random seeds are pulled into the smooth basin before
the unregularized final stage.  For type II the optimizer collapses onto
the geodesic-plane family; for type I a positive residual floor remains.
A Euclidean control objective (which does have solutions) demonstrates
that the harness finds them when they exist.  The campaigns are defined in
CAMPAIGNS; a type-II control and a type-II z-range reaching z <= 0 are rejected.

`_evaluate` is the one place that computes the spline rows and the
residual grid R: at a coefficient vector it gives R, the slab block and the
cost r @ r that tests a trial step.  `residual_and_jacobian`, the dense
residual vector r and Jacobian J that define the least-squares problem, and
`residual_grid` are each built from one such record.  The optimizer never
forms J and evaluates each point once.  When a step is accepted, `_assemble`
builds J.T @ J and J.T @ r from the trial's record and the cached bases,
computing anew only R's partials.  R(i, j) depends only on f near x_i and g
near v_j, and only on the derivative orders f', f'', g', g'', and for
type-I H also on f and g themselves.  So per grid line one small Gram
of [R's partials; R], and one GEMM against a basis extended by a unit
column, give J.T @ J and J.T @ r together.  The final statistics come from
the last evaluation, the record of the point the last stage returns.

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
from typing import Callable, NamedTuple

import numpy as np

from . import surfaces
from .kernel import HalfSpaceError
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

# The partials of R w.r.t. f, f', f'' and g, g', g'', as `_evaluate` keys them.
_F_PARTIALS, _G_PARTIALS = ("f", "fp", "fpp"), ("g", "gp", "gpp")

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


class Campaign(NamedTuple):
    kind: Kind
    f_domain: tuple[float, float]
    g_domain: tuple[float, float]
    euclidean_control: bool  # R is the Euclidean control's S, not H

    def seeds(self, n: int, generator_seed: int) -> list[SplineAnsatz]:
        return generate_seeds(n, self.kind, generator_seed, self.f_domain, self.g_domain, self.euclidean_control)


# The search campaigns, `hypmin search --kind`'s choices in the order of its help text.
CAMPAIGNS = {
    "type1": Campaign(Kind.TYPE_I, (-1.0, 1.0), (-1.0, 1.0), False),
    "type2": Campaign(Kind.TYPE_II, (-1.0, 1.0), (1.0, 2.0), False),
    "control": Campaign(Kind.TYPE_I, (-1.0, 1.0), (-1.0, 1.0), True),
}


def _type1_h(kind: Kind, euclidean_control: bool, g_domain: tuple[float, float]) -> bool:
    """Whether R is type-I H, the one R that depends on f+g, with the slab,
    the seed feasibility check and the seed lift on.  Rejects a type-II
    ansatz under the control (ValueError) or on a z-range reaching z <= 0."""
    if kind is Kind.TYPE_II:
        if euclidean_control:
            raise ValueError("the Euclidean control fits a type-I ansatz, got type II")
        if min(g_domain) <= 0.0:
            raise HalfSpaceError(f"type II parameter z = {min(g_domain)} <= 0 in the g domain {g_domain}")
        return False
    return not euclidean_control


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

# (f_domain, g_domain, mf, mg, grid, kind, control) -> (xs, vs, bf, bg, fx, gx), read-only
_DESIGN_CACHE: dict[tuple, tuple[np.ndarray, ...]] = {}


def _extended(basis: np.ndarray, one_first: bool) -> np.ndarray:
    """The stacked basis (K, n, m) as (n, K+1, m+1): per point the block
    diagonal of its K basis rows and a 1, the 1 first or last."""
    k, n, m = basis.shape
    ext = np.zeros((n, k + 1, m + 1))
    ext[:, :k, :m] = basis.transpose(1, 0, 2)
    ext[:, k, m] = 1.0
    return np.roll(ext, 1, axis=1) if one_first else ext


def _bases(ansatz: SplineAnsatz, cfg: SearchConfig):
    """Grid (xs, vs), stacked bases bf (3, nx, mf), bg (3, nz, mg), and the
    extended bases fx (nx, K+1, mf+1), gx (nz, K+1, mg+1) of `_assemble`
    for the K orders R depends on (0, 1, 2 for type-I H, else 1, 2), the 1
    last in fx, first in gx.  Cached per ansatz shape, grid, kind and
    control, so `_type1_h` checks a problem before its first evaluation;
    every later evaluation shares the arrays, so they are read-only.
    """
    mf, mg = len(ansatz.f_coeffs), len(ansatz.g_coeffs)
    key = (ansatz.f_domain, ansatz.g_domain, mf, mg, cfg.grid, ansatz.kind, cfg.euclidean_control)
    hit = _DESIGN_CACHE.get(key)
    if hit is None:
        lo = 0 if _type1_h(ansatz.kind, cfg.euclidean_control, ansatz.g_domain) else 1
        nx, nz = cfg.grid
        xs = np.linspace(*ansatz.f_domain, nx)
        vs = np.linspace(*ansatz.g_domain, nz)
        bf = surfaces.spline_basis(ansatz.f_domain, mf, xs)
        bg = surfaces.spline_basis(ansatz.g_domain, mg, vs)
        hit = (xs, vs, bf, bg, _extended(bf[lo:], False), _extended(bg[lo:], True))
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
    returned as `surfaces.translation_mean_curvature` returns type-II H:
    (S, partials), with no f and g partials."""
    P = 1.0 + fp ** 2
    Q = 1.0 + gp ** 2
    S = Q * fpp + P * gpp

    def partials() -> dict:
        return {
            "fp": 2.0 * fp * gpp,
            "fpp": Q.repeat(len(fp), axis=0),
            "gp": 2.0 * gp * fpp,
            "gpp": P.repeat(len(gp.T), axis=1),
        }

    return S, partials


def residual_grid(ansatz: SplineAnsatz, cfg: SearchConfig):
    """The residual on the search grid and its partials w.r.t. the six local
    quantities: H from `surfaces.translation_mean_curvature`, or under
    `cfg.euclidean_control` the Euclidean type-I minimality expression.

    Returns (R, dR) of one `_evaluate` record, with R of shape (nx, nz) and
    dR a dict of same-shape arrays keyed by fp, fpp, gp, gpp, and for type-I
    H also f and g (`_type1_h`); a non-finite R raises
    NonFiniteResidualError.
    """
    ev = _evaluate(ansatz, cfg, 0.0, 0.0, ansatz.packed())
    return ev.R, ev.partials()


def _slab(cfg: SearchConfig, barrier_weight: float, f0, g0):
    """The type-I barrier block (slack, sign), or None when it is off.

    slack = sqrt(w) * (clip(f+g, zFloor, zCeil) - (f+g)) and sign is its
    derivative w.r.t. f+g.  `minimize_residual` turns the barrier on (w > 0)
    only for type-I H (`_type1_h`).
    """
    if barrier_weight <= 0.0:
        return None
    # Slab constraint zFloor <= f+g <= zCeil: the floor keeps the graph in
    # the half-space, the ceiling compactifies the search (otherwise the
    # optimizer escapes toward the vertical-plane limit, where H -> 0
    # degenerately).
    zv = f0[:, None] + g0[None, :]
    w = math.sqrt(barrier_weight)
    slack = w * (np.clip(zv, cfg.z_floor, cfg.z_ceil) - zv)
    return slack, -w * (slack != 0.0)


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
    ansatz: SplineAnsatz, cfg: SearchConfig, barrier_weight: float = 0.0, smoothing_weight: float = 0.0
):
    """Flattened residual vector and its Jacobian w.r.t. packed coefficients.

    Optional extra residual blocks: the type-I slab barrier (`_slab`) and
    the continuation smoothing penalty
    sqrt(w) * f'' (resp. g'') on the grid lines.  This dense form defines
    the least-squares problem and is built from one `_evaluate` record; the
    optimizer never forms J, and `_assemble` gives the same J.T @ J and
    J.T @ r from the record alone.
    """
    _, _, bf, bg, _, _ = _bases(ansatz, cfg)
    (Bf, _, Bf2), (Bg, _, Bg2) = bf, bg
    ev = _evaluate(ansatz, cfg, barrier_weight, smoothing_weight, ansatz.packed())
    dR = ev.partials()
    nx, nz = ev.R.shape
    mf, mg = Bf.shape[1], Bg.shape[1]
    Jf = sum(np.einsum("ij,ik->ijk", dR[n], B) for n, B in zip(_F_PARTIALS, bf) if n in dR)
    Jg = sum(np.einsum("ij,jk->ijk", dR[n], C) for n, C in zip(_G_PARTIALS, bg) if n in dR)
    J_blocks = [np.hstack([Jf.reshape(nx * nz, mf), Jg.reshape(nx * nz, mg)])]

    if ev.slab is not None:
        sign = ev.slab[1]
        Jbf = np.einsum("ij,ik->ijk", sign, Bf).reshape(nx * nz, mf)
        Jbg = np.einsum("ij,jk->ijk", sign, Bg).reshape(nx * nz, mg)
        J_blocks.append(np.hstack([Jbf, Jbg]))

    if smoothing_weight > 0.0:
        sw = math.sqrt(smoothing_weight)
        Js = np.zeros((nx + nz, mf + mg))
        Js[:nx, :mf] = sw * Bf2
        Js[nx:, mf:] = sw * Bg2
        J_blocks.append(Js)

    return _residual_vector(ev.R, ev.slab, smoothing_weight, ev.f, ev.g), np.vstack(J_blocks)


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
    coefficients x; ansatz supplies only the kind, the domains and the sizes.
    The only place the spline rows and R are computed."""
    _, vs, bf, bg, _, _ = _bases(ansatz, cfg)
    mf = bf.shape[2]
    f, g = _spline_values(bf, x[:mf]), _spline_values(bg, x[mf:])
    fp, fpp, gp, gpp = f[1][:, None], f[2][:, None], g[1][None, :], g[2][None, :]
    if cfg.euclidean_control:
        R, partials = _euclidean_residual(fp, fpp, gp, gpp)
    else:
        height = f[0][:, None] + g[0][None, :] if ansatz.kind is Kind.TYPE_I else vs[None, :]
        R, partials = surfaces.translation_mean_curvature(ansatz.kind, height, fp, fpp, gp, gpp)
    slab = _slab(cfg, barrier_weight, f[0], g[0])
    r = _residual_vector(R, slab, smoothing_weight, f, g)
    cost = float(r @ r)  # a sum of squares: finite only if every entry of r is
    if not math.isfinite(cost) and not np.all(np.isfinite(r)):
        raise NonFiniteResidualError("non-finite residual during optimization")
    return _Evaluation(cost, f, g, R, slab, partials)


def _assemble(ev: _Evaluation, bases: tuple, smoothing_weight: float):
    """A = J.T @ J and g = J.T @ r at the point of the evaluation `ev`, from
    the cached `_bases`; only R's partials are computed here.

    R(i, j) depends only on f at x_i and g at v_j, and only on the K orders
    of `_bases`.  Write D_k = dR/df^(k) and E_l = dR/dg^(l) for those
    orders, and B_k, C_l for the bases of f^(k), g^(l) on the grid.  Then

        A_ff = sum_kl B_k^T diag(sum_j D_k*D_l) B_l,  g_f = sum_k B_k^T (sum_j D_k*R)
        A_fg = sum_kl B_k^T (D_k*E_l) C_l
        A_gg = sum_kl C_k^T diag(sum_i E_k*E_l) C_l,  g_g = sum_l C_l^T (sum_i E_l*R)

    One batched matmul over the stack [D; R] gives, per x_i, the (K+1)^2
    Gram of sum_j D_k*D_l and sum_j D_k*R; one over [R; E] gives the same
    per v_j.  The slab barrier adds to the order-0 entries of these blocks
    and the smoothing penalty to the order-2 entries.  The extended basis fx
    is diag(B(x_i), 1) per point, so one GEMM gives [A_ff, g_f] from the
    Grams, and gx likewise [A_gg, g_g].  A_fg is one product over the
    (K n, m) stacked bases.
    """
    _, _, bf, bg, fx, gx = bases
    k = fx.shape[1] - 1  # R depends on the last k orders
    _, nx, mf = bf.shape
    _, nz, mg = bg.shape
    f, g, R, dR = ev.f, ev.g, ev.R, ev.partials()
    X = np.array([*(dR[n] for n in _F_PARTIALS[3 - k :]), R, *(dR[n] for n in _G_PARTIALS[3 - k :])])
    DR, RE = X[: k + 1], X[k:]  # [D; R] and [R; E]
    Gf = DR.transpose(1, 0, 2) @ DR.transpose(1, 2, 0)  # (nx, k+1, k+1)
    Gg = RE.transpose(2, 0, 1) @ RE.transpose(2, 1, 0)  # (nz, k+1, k+1)
    DE = (X[:k, :, None, :] * X[k + 1 :].transpose(1, 0, 2)[None]).reshape(k * nx, k * nz)
    if ev.slab is not None:  # order 0: row 0 of [D; R], row 1 of [R; E]
        slack, sign = ev.slab
        sign2, push = sign * sign, sign * slack
        Gf[:, 0, 0] += sign2.sum(axis=1)
        Gf[:, 0, k] += push.sum(axis=1)
        Gg[:, 1, 1] += sign2.sum(axis=0)
        Gg[:, 1, 0] += push.sum(axis=0)
        DE[:nx, :nz] += sign2
    if smoothing_weight > 0.0:  # order 2: row k-1 of [D; R], row k of [R; E]
        Gf[:, k - 1, k - 1] += smoothing_weight
        Gf[:, k - 1, k] += smoothing_weight * f[2]
        Gg[:, k, k] += smoothing_weight
        Gg[:, k, 0] += smoothing_weight * g[2]
    Ff = fx.reshape(-1, mf + 1).T @ (Gf @ fx).reshape(-1, mf + 1)  # sum_i fx_i^T Gf_i fx_i
    Fg = gx.reshape(-1, mg + 1).T @ (Gg @ gx).reshape(-1, mg + 1)
    A = np.empty((mf + mg, mf + mg))
    A[:mf, :mf] = Ff[:mf, :mf]
    A[mf:, mf:] = Fg[:mg, :mg]
    A[:mf, mf:] = bf[3 - k :].reshape(k * nx, mf).T @ DE @ bg[3 - k :].reshape(k * nz, mg)
    A[mf:, :mf] = A[:mf, mf:].T
    return A, np.concatenate([Ff[:mf, mf], Fg[:mg, mg]])


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

    Returns (ansatz, nfev, stop_reason, cost_trace, record): the trace
    records accepted costs only, so it is non-increasing by construction,
    and the record is the `_evaluate` record of the returned point.
    """

    def evaluate(x):
        return _evaluate(ansatz, cfg, barrier_weight, smoothing_weight, x)

    def stop(reason):
        return ansatz.with_coeffs(x), nfev, reason, tuple(trace), here

    bases = _bases(ansatz, cfg)
    x = ansatz.packed()
    here = evaluate(x)
    trace = [here.cost]
    nfev = 1
    mu, nu = 1e-3, 2.0
    while nfev < budget:
        A, g = _assemble(here, bases, smoothing_weight)
        d = np.maximum(A.diagonal(), 1e-12)
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


def _check_feasible(ansatz: SplineAnsatz, cfg: SearchConfig) -> None:
    """Reject a seed with f+g < zFloor anywhere on a CHECK_GRID grid."""
    s = ansatz.surface()
    xs = np.linspace(*ansatz.f_domain, CHECK_GRID)
    vs = np.linspace(*ansatz.g_domain, CHECK_GRID)
    zv = s.f(xs).v0[:, None] + s.g(vs).v0[None, :]
    if float(zv.min()) < cfg.z_floor:
        raise InfeasibleSeedError(
            f"min(f+g) = {float(zv.min()):.6g} < zFloor = {cfg.z_floor}"
        )


def minimize_residual(seed: SplineAnsatz, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Optimize the ansatz; deterministic given (seed, cfg).  The slab
    barrier, and with it the feasibility check of the seed, is on only for
    type-I H (`_type1_h`).  sup|R| and mean R^2 come from the last stage's
    record of the final point."""
    current, nfevs, reasons, traces = seed, [], [], []
    barrier = BARRIER_WEIGHT if _type1_h(seed.kind, cfg.euclidean_control, seed.g_domain) else 0.0
    if barrier > 0.0:
        _check_feasible(seed, cfg)
    for smooth_w in SMOOTHING_WEIGHTS:
        current, nfev, reason, trace, last = _lm_stage(current, cfg, barrier, smooth_w, cfg.max_iterations)
        nfevs.append(nfev)
        reasons.append(reason)
        traces.append(trace)
        if barrier > 0.0:
            barrier *= BARRIER_RAMP
    sup_r, msr = float(np.max(np.abs(last.R))), float(np.mean(last.R ** 2))
    plane_d = None
    if current.kind is Kind.TYPE_II:
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
    lift = 1.5 if _type1_h(kind, euclidean_control, g_domain) else 0.0
    return [random_ansatz(rng, kind, f_domain, g_domain, lift=lift) for _ in range(n)]


def _run_one(args) -> SearchResult:
    seed, cfg = args
    return minimize_residual(seed, cfg)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else os.cpu_count() (1 if that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_seeds(
    seeds: list[SplineAnsatz], cfg: SearchConfig, workers: int = 1
) -> list[SearchResult]:
    """Run all seeds; results are merged in seed order regardless of workers.

    At most min(workers, len(seeds), usable_cpus()) processes start, and
    none when that is 1: a fork-started pool launches all of its processes
    up front, so an unbounded `workers` would fork that many.
    """
    workers = min(workers, len(seeds), usable_cpus())
    if workers <= 1:
        return [minimize_residual(s, cfg) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, [(s, cfg) for s in seeds]))
