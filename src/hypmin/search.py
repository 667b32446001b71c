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

One LM advances a block of seeds in lockstep (`_minimize_block`, one
`_lm_stage` per continuation stage); `minimize_residual` is a block of one,
and `run_seeds` runs contiguous blocks whose buffers (`_workspace`) hold at
most LM_BLOCK_BYTES: all 20 seeds of a campaign at the 33 x 33 grid.  Each
layer works on a stack of b coefficient vectors, one row per seed, and does
per row the arithmetic a stack of one does: GEMV, dot, GEMM and gesv calls
of a single row's shape, elementwise operations and same-axis reductions.
So results do not depend on the block, its size or the worker it runs in,
bit for bit.  The layers work in the block's buffers, which every round
reuses, and keep no grid that they can recompute exactly.

`_evaluate` computes the spline rows, the residual grid R (`_residual`),
the slab block and the cost r @ r that tests a trial step.
`residual_and_jacobian`, the dense residual vector r and Jacobian J that
define the least-squares problem, and `residual_grid` are each built from
one such record.  The optimizer never forms J and evaluates each trial
once.  When a step is accepted, `_assemble` builds J.T @ J and J.T @ r from
the intermediates of R that the trial's evaluation left in the buffers and
the cached bases, computing only R's partials.  R(i, j) depends only on f
near x_i and g near v_j, and only on the derivative orders f', f'', g',
g'', and for type-I H also on f and g themselves.  So per grid line one
small Gram of [R's partials; R], and one GEMM against a basis extended by a
unit column, give J.T @ J and J.T @ r together.  The final statistics come
from R at the point the last stage returns.

Each stage damps its steps by the gain ratio, the actual cost decrease over
the decrease the linear model predicts, and ends for one of STOP_REASONS
(see `_lm_stage`).  Two of them, a negligible predicted decrease and a step
that changes no coefficient, cost no evaluation, so a stage at the roundoff
floor ends in a few evaluations instead of raising the damping to its cap.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

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
# Bytes of the buffers that a block of seeds, which one Levenberg-Marquardt
# advances in lockstep, reuses every round (`_workspace`): all 20 seeds of a
# campaign at the 33 x 33 grid fit (1.6 MiB for type I), while those of a
# 49 x 49 campaign are split.
LM_BLOCK_BYTES = 1 << 21  # 2 MiB

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
    """Per row of coeffs (b, m): the spline, its first and its second
    derivative on the grid, shape (b, 3, n); one GEMV per row."""
    _, n, m = basis.shape
    return (basis.reshape(3 * n, m) @ coeffs[:, :, None]).reshape(len(coeffs), 3, n)


def _spline_rows(problem: SplineAnsatz, cfg: SearchConfig, x: np.ndarray):
    """The spline rows f (b, 3, nx) and g (b, 3, nz) at each row of x (b, n)."""
    _, _, bf, bg, _, _ = _bases(problem, cfg)
    mf = bf.shape[2]
    return _spline_values(bf, x[:, :mf]), _spline_values(bg, x[:, mf:])


def _euclidean_residual(fp, fpp, gp, gpp, grids=None, reuse=False):
    """The Euclidean type-I minimality expression S = (1+g'^2) f'' + (1+f'^2) g'',
    returned as `surfaces.translation_mean_curvature` returns type-II H:
    (S, partials), with no f and g partials.  S is computed in the first of
    two `grids` (the second is scratch), fresh ones if none are given, and
    with `reuse` not at all.  The f'' and g'' partials do not vary along one
    grid axis and are not broadcast to the grid."""
    shape = np.broadcast_shapes(*map(np.shape, (fp, fpp, gp, gpp)))
    S, scratch = [np.empty(shape) for _ in range(2)] if grids is None else grids
    P = 1.0 + fp ** 2
    Q = 1.0 + gp ** 2
    if not reuse:
        np.multiply(Q, fpp, out=S)
        S += np.multiply(P, gpp, out=scratch)

    def partials(into=lambda name: None):
        yield "fp", np.multiply(2.0 * fp, gpp, out=into("fp"))
        yield "fpp", Q
        yield "gp", np.multiply(2.0 * gp, fpp, out=into("gp"))
        yield "gpp", P

    return S, partials


def _residual(problem: SplineAnsatz, cfg: SearchConfig, f, g, grids=None, reuse=False):
    """R on the search grid from the spline rows f (b, 3, nx), g (b, 3, nz):
    (R, partials) of `surfaces.translation_mean_curvature`, or under
    `cfg.euclidean_control` of `_euclidean_residual`, with `reuse` passed on.
    `grids` are arrays of R's shape (b, nx, nz) to work in, R in the first,
    as many as the formula takes (two under the control, five for type-II H,
    and for type-I H a sixth that holds f+g), fresh ones if None."""
    fp, fpp, gp, gpp = f[:, 1, :, None], f[:, 2, :, None], g[:, 1, None, :], g[:, 2, None, :]
    if cfg.euclidean_control:
        return _euclidean_residual(fp, fpp, gp, gpp, None if grids is None else grids[:2], reuse)
    if problem.kind is Kind.TYPE_II:
        height = _bases(problem, cfg)[1]
    elif reuse:
        height = grids[5]
    else:
        height = _f_plus_g(f, g, None if grids is None else grids[5])
    return surfaces.translation_mean_curvature(
        problem.kind, height, fp, fpp, gp, gpp, None if grids is None else grids[:5], reuse
    )


def residual_grid(ansatz: SplineAnsatz, cfg: SearchConfig):
    """The residual on the search grid and its partials w.r.t. the six local
    quantities: H from `surfaces.translation_mean_curvature`, or under
    `cfg.euclidean_control` the Euclidean type-I minimality expression.

    Returns (R, dR) of one `_evaluate` record, with R of shape (nx, nz) and
    dR a dict of arrays that broadcast to R, keyed by fp, fpp, gp, gpp, and
    for type-I H also f and g (`_type1_h`); a non-finite R raises
    NonFiniteResidualError.
    """
    ev = _evaluate(ansatz, cfg, 0.0, 0.0, ansatz.packed()[None])
    return ev.R[0], {name: partial[0] for name, partial in ev.partials()}


def _f_plus_g(f, g, out=None):
    """f+g on the grid from the spline rows f (b, 3, nx), g (b, 3, nz)."""
    return np.add(f[:, 0, :, None], g[:, 0, None, :], out=out)


def _slab(cfg: SearchConfig, barrier_weight: float, zv, slack):
    """The type-I barrier slack sqrt(w) * (clip(f+g, zFloor, zCeil) - (f+g))
    of f+g on the grid, zv (b, nx, nz), computed in slack.  `_minimize_block`
    turns the barrier on (w > 0) only for type-I H (`_type1_h`), whose
    `_residual` holds f+g in its last grid.
    """
    # Slab constraint zFloor <= f+g <= zCeil: the floor keeps the graph in
    # the half-space, the ceiling compactifies the search (otherwise the
    # optimizer escapes toward the vertical-plane limit, where H -> 0
    # degenerately).
    np.clip(zv, cfg.z_floor, cfg.z_ceil, out=slack)
    slack -= zv
    slack *= math.sqrt(barrier_weight)


def _slab_sign(slack, barrier_weight: float, out=None):
    """The derivative of the slab slack w.r.t. f+g: -sqrt(w) where it is
    nonzero, else 0."""
    return np.multiply(-math.sqrt(barrier_weight), slack != 0.0, out=out)


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
    ev = _evaluate(ansatz, cfg, barrier_weight, smoothing_weight, ansatz.packed()[None])
    dR = {name: partial[0] for name, partial in ev.partials()}
    nx, nz = ev.R.shape[1:]
    mf, mg = Bf.shape[1], Bg.shape[1]
    Jf = sum(np.einsum("ij,ik->ijk", dR[n], B) for n, B in zip(_F_PARTIALS, bf) if n in dR)
    Jg = sum(np.einsum("ij,jk->ijk", dR[n], C) for n, C in zip(_G_PARTIALS, bg) if n in dR)
    J_blocks = [np.hstack([Jf.reshape(nx * nz, mf), Jg.reshape(nx * nz, mg)])]

    if ev.slack is not None:
        sign = _slab_sign(ev.slack[0], barrier_weight)
        Jbf = np.einsum("ij,ik->ijk", sign, Bf).reshape(nx * nz, mf)
        Jbg = np.einsum("ij,jk->ijk", sign, Bg).reshape(nx * nz, mg)
        J_blocks.append(np.hstack([Jbf, Jbg]))

    if smoothing_weight > 0.0:
        sw = math.sqrt(smoothing_weight)
        Js = np.zeros((nx + nz, mf + mg))
        Js[:nx, :mf] = sw * Bf2
        Js[nx:, mf:] = sw * Bg2
        J_blocks.append(Js)

    return ev.r[0], np.vstack(J_blocks)


class _Workspace(NamedTuple):
    """The buffers a block of seeds reuses every round (`_workspace`)."""

    X: np.ndarray  # (2K+1, b, nx, nz) at stack's start: a record's grids, then [D; R; E]
    stack: np.ndarray  # then `_assemble`'s Gram products
    flat: np.ndarray  # a record's r, then `_assemble`'s other grids and its Grams
    DE: np.ndarray  # D_k*E_l of one row, (K nx, K nz)


def _workspace_sizes(problem: SplineAnsatz, cfg: SearchConfig, b: int, slab: bool) -> tuple[int, int, int]:
    """The sizes of the stack, flat and DE buffers of a `_workspace` for b
    seeds of `problem`, with the slab barrier's block in r if `slab`."""
    _, _, _, _, fx, gx = _bases(problem, cfg)
    k, (nx, _, mf1), (nz, _, mg1) = fx.shape[1] - 1, fx.shape, gx.shape
    n = nx * nz
    stack = max((2 * k + 1) * n, (k + 1) * max(nx * mf1, nz * mg1))
    # per row, flat holds r (R, the slab slack, the smoothing rows), then the
    # slab's sign^2 and the partials' W grid, then sign^2 and the Grams
    flat = max((2 if slab else 1) * n + nx + nz, n + (nx + nz) * (k + 1) ** 2)
    return b * stack, b * flat, k * k * n


def _workspace(problem: SplineAnsatz, cfg: SearchConfig, b: int, slab: bool) -> _Workspace:
    """The buffers of `_evaluate` and `_assemble` for up to b rows, allocated
    once per block: fresh arrays each call would be mapped and faulted in
    anew, and hold more at once."""
    stack, flat, DE = (np.empty(size) for size in _workspace_sizes(problem, cfg, b, slab))
    k, (nx, nz) = _bases(problem, cfg)[4].shape[1] - 1, cfg.grid
    return _Workspace(_view(stack, 2 * k + 1, b, nx, nz), stack, flat, DE.reshape(k * nx, k * nz))


def _view(buffer: np.ndarray, *shape: int, offset: int = 0) -> np.ndarray:
    """A C-contiguous array of this shape over the buffer from `offset` on."""
    return buffer[offset : offset + math.prod(shape)].reshape(shape)


@dataclass(frozen=True)
class _Evaluation:
    """The least-squares problem of one stage at a stack of b coefficient
    vectors, one per row: the costs r @ r (b,), the residual vectors r
    (b, L) of R, the slab slack and the smoothing rows, R (b, nx, nz) and
    slack (b, nx, nz) or None as views of r, and the spline rows f (b, 3, nx),
    g (b, 3, nz).  The stage's problem, configuration and barrier weight come
    with it, and the workspace whose buffers hold r and the intermediates of
    R that `_assemble` builds the normal equations from."""

    cost: np.ndarray
    r: np.ndarray
    R: np.ndarray
    slack: np.ndarray | None
    f: np.ndarray
    g: np.ndarray
    problem: SplineAnsatz
    cfg: SearchConfig
    barrier_weight: float
    work: _Workspace

    def partials(self) -> Iterator[tuple[str, np.ndarray]]:
        """R's partials at every row (`_residual`), fresh arrays."""
        return _residual(self.problem, self.cfg, self.f, self.g)[1]()


def _evaluate(
    problem: SplineAnsatz,
    cfg: SearchConfig,
    barrier_weight: float,
    smoothing_weight: float,
    x: np.ndarray,
    work: _Workspace | None = None,
) -> _Evaluation:
    """Evaluate the problem of `residual_and_jacobian` at each row of x, a
    (b, n) stack of packed coefficient vectors; `problem` supplies only the
    kind, the domains and the sizes.  Each row's arithmetic is that of a
    stack of one: the spline rows are one GEMV and the cost one dot product
    per row, the rest is elementwise.  The record lives in the buffers of
    `work` (`_workspace`, else a fresh one) until the next `_evaluate` or
    `_assemble` there: r in its flat buffer, and in its stack's grids the
    intermediates of R, each in the grid of a partial that replaces it."""
    f, g = _spline_rows(problem, cfg, x)
    (b, _), (nx, nz), slab = x.shape, cfg.grid, barrier_weight > 0.0
    if work is None:
        work = _workspace(problem, cfg, b, slab)
    n, smooth = nx * nz * (2 if slab else 1), smoothing_weight > 0.0
    r = _view(work.flat, b, n + (nx + nz if smooth else 0))
    R, X = r[:, : nx * nz].reshape(b, nx, nz), work.X[:, :b]
    grids = [R, X[0], X[-2], X[-1], X[1], X[-3]]  # R, He, S, W^3, W, f+g (`_assemble`)
    _residual(problem, cfg, f, g, grids)
    slack = None
    if slab:  # f+g is type-I H's last grid
        slack = r[:, nx * nz : n].reshape(b, nx, nz)
        h = _type1_h(problem.kind, cfg.euclidean_control, problem.g_domain)
        _slab(cfg, barrier_weight, grids[5] if h else _f_plus_g(f, g, grids[4]), slack)
    if smooth:
        sw = math.sqrt(smoothing_weight)
        np.multiply(sw, f[:, 2], out=r[:, n : n + nx])
        np.multiply(sw, g[:, 2], out=r[:, n + nx :])
    cost = (r[:, None, :] @ r[:, :, None])[:, 0, 0]
    infinite = ~np.isfinite(cost)  # a sum of squares: finite only if every entry of its r is
    if infinite.any() and not np.all(np.isfinite(r[infinite])):
        raise NonFiniteResidualError("non-finite residual during optimization")
    return _Evaluation(cost, r, R, slack, f, g, problem, cfg, barrier_weight, work)


def _assemble(ev: _Evaluation, bases: tuple, smoothing_weight: float, rows=None, out=None):
    """A = J.T @ J (b, n, n) and g = J.T @ r (b, n) at the points of the
    given rows of the evaluation `ev` (all if None), from the cached
    `_bases`, in fresh arrays or, with out = (A, g, at), in row at[j] of A
    and g for row j.  R's partials come from the intermediates of R in the
    record's workspace, whose buffers this overwrites.

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
    (K n, m) stacked bases.  The Grams and [A_ff, g_f], [A_gg, g_g] are
    batched over the rows, one GEMM per row of the shape a single row would
    use; DE = [D_k*E_l] and A_fg are formed one row at a time, so DE spans
    K^2 grids, not K^2 per row.  The stack, the slab terms, the Grams and
    the per-point products are written into the workspace, whose size
    LM_BLOCK_BYTES bounds.
    """
    _, _, bf, bg, fx, gx = bases
    k = fx.shape[1] - 1  # R depends on the last k orders
    _, nx, mf = bf.shape
    _, nz, mg = bg.shape
    work, rows = ev.work, range(len(ev.f)) if rows is None else rows
    f, g, b, n = ev.f[rows], ev.g[rows], len(rows), nx * nz
    X, DE = work.X[:, :b], work.DE
    # R's intermediates He, f+g, S and W^3 of the rows first, as `_evaluate`
    # left them, then R and the slack out of r, as flat's grids overwrite it
    for dst, src in enumerate(rows):
        if dst != src:
            work.X[[0, -3, -2, -1], dst] = work.X[[0, -3, -2, -1], src]
    np.take(ev.R, rows, axis=0, out=X[k], mode="clip")
    spare = _view(work.flat, len(work.flat) // (b * n), b, nx, nz)
    sign2 = None
    if ev.slack is not None:  # order 0: row 0 of [D; R], row 1 of [R; E]
        slack, sign = np.take(ev.slack, rows, axis=0, out=X[1], mode="clip"), spare[0]
        _slab_sign(slack, ev.barrier_weight, out=sign)
        push = np.multiply(sign, slack, out=slack)
        sums = push.sum(axis=2), push.sum(axis=1)
        sign2 = np.multiply(sign, sign, out=sign)
        sums += sign2.sum(axis=2), sign2.sum(axis=1)
    names = (*_F_PARTIALS[3 - k :], "R", *_G_PARTIALS[3 - k :])  # X's grids
    _, partials = _residual(ev.problem, ev.cfg, f, g, [X[k], X[0], X[-2], X[-1], spare[-1], X[-3]], reuse=True)
    for name, partial in partials(lambda name: X[names.index(name)]):
        X[names.index(name)] = partial  # a no-op for a partial computed in its grid
    DR, RE = X[: k + 1], X[k:]  # [D; R] and [R; E]; their Grams in flat after sign2
    Gf = np.matmul(DR.transpose(1, 2, 0, 3), DR.transpose(1, 2, 3, 0), out=_view(work.flat, b, nx, k + 1, k + 1, offset=b * n))
    Gg = np.matmul(RE.transpose(1, 3, 0, 2), RE.transpose(1, 3, 2, 0), out=_view(work.flat, b, nz, k + 1, k + 1, offset=b * n + Gf.size))
    if sign2 is not None:
        Gf[:, :, 0, k] += sums[0]
        Gg[:, :, 1, 0] += sums[1]
        Gf[:, :, 0, 0] += sums[2]
        Gg[:, :, 1, 1] += sums[3]
    if smoothing_weight > 0.0:  # order 2: row k-1 of [D; R], row k of [R; E]
        Gf[:, :, k - 1, k - 1] += smoothing_weight
        Gf[:, :, k - 1, k] += smoothing_weight * f[:, 2]
        Gg[:, :, k, k] += smoothing_weight
        Gg[:, :, k, 0] += smoothing_weight * g[:, 2]
    A, Jr, at = (np.empty((b, mf + mg, mf + mg)), np.empty((b, mf + mg)), list(range(b))) if out is None else out
    bk, ck = bf[3 - k :].reshape(k * nx, mf).T, bg[3 - k :].reshape(k * nz, mg)
    for row in range(b):  # DE, k^2 grids, one row at a time
        np.multiply(X[:k, row, :, None, :], X[k + 1 :, row].transpose(1, 0, 2)[None], out=DE.reshape(k, nx, k, nz))
        if sign2 is not None:
            DE[:nx, :nz] += sign2[row]
        A[at[row], :mf, mf:] = bk @ DE @ ck
    # sum_i fx_i^T Gf_i fx_i, the per-point products in the stack, which X no longer needs
    Ff = fx.reshape(-1, mf + 1).T @ np.matmul(Gf, fx, out=_view(work.stack, b, nx, k + 1, mf + 1)).reshape(b, -1, mf + 1)
    A[at, :mf, :mf], Jr[at, :mf] = Ff[:, :mf, :mf], Ff[:, :mf, mf]
    Fg = gx.reshape(-1, mg + 1).T @ np.matmul(Gg, gx, out=_view(work.stack, b, nz, k + 1, mg + 1)).reshape(b, -1, mg + 1)
    A[at, mf:, mf:], Jr[at, mf:] = Fg[:, :mg, :mg], Fg[:, :mg, mg]
    A[at, mf:, :mf] = A[at, :mf, mf:].transpose(0, 2, 1)
    return A, Jr


# -- damped least squares with continuation ---------------------------


def _damped_step(A: np.ndarray, g: np.ndarray, d: np.ndarray, mu: np.ndarray):
    """Per row of the stacks A (b, n, n), g (b, n), d (b, n) and mu (b,): the
    step delta solving (A + mu*diag(d)) delta = -g, and the decrease
    pred = -g.delta + mu * delta.diag(d).delta that the linear model predicts.

    With A = J.T @ J and g = J.T @ r this is |r|^2 - |r + J delta|^2, exactly
    in exact arithmetic, so pred >= 0.  mu*d is added to the diagonal of a
    copy of A, then one stacked solve (LAPACK gesv per row) and one dot
    product per row and term.  Raises `np.linalg.LinAlgError` when any row's
    damped system is singular.
    """
    b, n, _ = A.shape
    damped = A.copy()
    damped.reshape(b, n * n)[:, :: n + 1] += mu[:, None] * d
    minus_g = -g
    delta = np.linalg.solve(damped, minus_g[:, :, None])[:, :, 0]
    curvature = (delta[:, None, :] @ (d * delta)[:, :, None])[:, 0, 0]
    return delta, (minus_g[:, None, :] @ delta[:, :, None])[:, 0, 0] + mu * curvature


def _steps(A, g, d, mu: list, live: list, reasons: list):
    """(seeds, delta, pred) of the damped steps of the live seeds, one
    stacked solve.  If that raises, each live seed solves alone, and a seed
    whose system is singular raises its mu tenfold until a solve succeeds
    or mu reaches its cap, which stops it (damping_cap).  A lone live seed's
    system is the one that raised, so it raises its mu at once."""
    rows = live if len(live) < len(A) else slice(None)
    try:
        delta, pred = _damped_step(A[rows], g[rows], d[rows], np.array([mu[i] for i in live]))
        return live, delta, pred.tolist()
    except np.linalg.LinAlgError:
        solve = len(live) > 1
    solved = []
    for i in live:
        while reasons[i] is None:
            if solve:
                try:
                    (delta,), (pred,) = _damped_step(A[i : i + 1], g[i : i + 1], d[i : i + 1], np.array([mu[i]]))
                    solved.append((i, delta, float(pred)))
                    break
                except np.linalg.LinAlgError:
                    pass
            solve = True
            mu[i] = min(mu[i] * 10.0, 1e15)
            if mu[i] >= 1e15:
                reasons[i] = "damping_cap"
    seeds = [i for i, _, _ in solved]
    return seeds, np.reshape([delta for _, delta, _ in solved], (len(seeds), A.shape[-1])), [pred for *_, pred in solved]


def _lm_stage(problem: SplineAnsatz, cfg: SearchConfig, barrier_weight, smoothing_weight, budget, x, work=None):
    """One continuation stage for a block of seeds in lockstep: damped least
    squares on the normal equations, from the packed coefficients x (b, n),
    one row per seed.

    Hand-rolled Levenberg-Marquardt (diagonal-scaled damping) so every
    arithmetic step is plain numpy and runs are bit-for-bit reproducible
    across processes.  Each seed keeps its own x, cost, mu, nu, nfev, stop
    reason and cost trace.  One round does, in order: `_assemble` the normal
    equations A = J.T @ J, g = J.T @ r of the seeds whose trial was accepted
    in the last round (all seeds in the first), from the rows of that
    round's record; take one damped step for every live seed (`_steps`);
    stop the seeds the checks below stop; and evaluate all trials with one
    `_evaluate`, then accept or reject each.  Every stacked call does per
    row what a stack of one does, so a seed's result does not depend on the
    block it runs in.  The layers work in one `_workspace` (`work`, else
    one for b rows), so a record lasts one round.  The dense Jacobian is
    never formed, no trial is evaluated twice, and nfev counts every
    evaluation, trial steps included.

    The damping follows the gain ratio rho = (actual decrease) / pred of
    `_damped_step` (Madsen, Nielsen & Tingleff, "Methods for non-linear
    least squares problems", 2004, section 3.2): an accepted step scales mu
    by max(1/3, 1 - (2 rho - 1)^3) and resets nu to 2; a rejected one scales
    mu by nu and doubles nu.  A singular damped system raises mu tenfold.
    mu stays in [1e-15, 1e15].  A seed's stage ends for one of STOP_REASONS:

    - rel_tol: an accepted step lowers the cost by no more than REL_TOL
      relative;
    - model: the linear model predicts no more than that decrease, so the
      trial is not evaluated (pred only shrinks as mu grows);
    - noop_step: x + delta equals x bit for bit, so the trial is not
      evaluated;
    - damping_cap: mu reaches its cap without a descent;
    - budget: `budget` evaluations are spent.

    Returns (x, nfev, stop_reasons, cost_traces): per seed the point the
    stage ends at, its evaluations, why it stopped and the accepted costs
    (so the trace is non-increasing by construction).
    """

    def evaluate(points):
        return _evaluate(problem, cfg, barrier_weight, smoothing_weight, points, work)

    b, n = x.shape
    bases = _bases(problem, cfg)
    if work is None:
        work = _workspace(problem, cfg, b, barrier_weight > 0.0)
    x = x.copy()
    ev = evaluate(x)
    cost = ev.cost.tolist()
    traces = [[c] for c in cost]
    nfev, mu, nu, reasons = [1] * b, [1e-3] * b, [2.0] * b, [None] * b
    A, g, d = np.empty((b, n, n)), np.empty((b, n)), np.empty((b, n))
    live, fresh = list(range(b)), list(enumerate(range(b)))  # fresh: (seed, its row of ev) to assemble
    while True:
        for i in live:
            if nfev[i] >= budget:
                reasons[i] = "budget"
            elif mu[i] >= 1e15:
                reasons[i] = "damping_cap"
        live = [i for i in live if reasons[i] is None]
        fresh = [(i, row) for i, row in fresh if reasons[i] is None]
        if fresh:
            seeds, rows = map(list, zip(*fresh))
            _assemble(ev, bases, smoothing_weight, None if len(rows) == len(ev.R) else rows, (A, g, seeds))
            d[seeds] = np.maximum(A.diagonal(axis1=1, axis2=2)[seeds], 1e-12)
        ev = None  # the last round's record, dropped before the next evaluation
        if not live:
            break
        seeds, delta, pred = _steps(A, g, d, mu, live, reasons)
        x_step = x[seeds] + delta
        same = np.all(x_step == x[seeds], axis=1).tolist()
        trying = []
        for j, i in enumerate(seeds):
            if pred[j] <= REL_TOL * max(cost[i], 1e-300):
                reasons[i] = "model"
            elif same[j]:
                reasons[i] = "noop_step"
            else:
                trying.append(j)
        fresh = []
        if not trying:
            continue
        ev = evaluate(x_step if len(trying) == len(seeds) else x_step[trying])
        trial_cost = ev.cost.tolist()
        for row, j in enumerate(trying):
            i = seeds[j]
            nfev[i] += 1
            if trial_cost[row] < cost[i]:
                rho = (cost[i] - trial_cost[row]) / pred[j]
                mu[i] = max(mu[i] * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-15)
                nu[i] = 2.0
                x[i], cost[i] = x_step[j], trial_cost[row]
                traces[i].append(cost[i])
                if traces[i][-2] - traces[i][-1] <= REL_TOL * max(cost[i], 1e-300):
                    reasons[i] = "rel_tol"
                else:
                    fresh.append((i, row))
            else:
                mu[i] = min(mu[i] * nu[i], 1e15)
                nu[i] *= 2.0
    return x, nfev, reasons, [tuple(t) for t in traces]


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


def _problem(ansatz: SplineAnsatz) -> tuple:
    """What the seeds of one block share: the kind, the domains and the sizes."""
    return ansatz.kind, ansatz.f_domain, ansatz.g_domain, len(ansatz.f_coeffs), len(ansatz.g_coeffs)


def _minimize_block(seeds: list[SplineAnsatz], cfg: SearchConfig) -> list[SearchResult]:
    """Optimize a block of seeds that share one `_problem`, in lockstep, one
    `_lm_stage` per continuation stage; each result is the one the seed
    would get alone.  The slab barrier, and with it the feasibility check of
    every seed, is on only for type-I H (`_type1_h`).  sup|R| and mean R^2
    come from R at the final point (`_residual`), in the workspace."""
    problem = seeds[0]
    if any(_problem(seed) != _problem(problem) for seed in seeds):
        raise ValueError("the seeds of a block must share the kind, the domains and the sizes")
    barrier = BARRIER_WEIGHT if _type1_h(problem.kind, cfg.euclidean_control, problem.g_domain) else 0.0
    if barrier > 0.0:
        for seed in seeds:
            _check_feasible(seed, cfg)
    x = np.array([seed.packed() for seed in seeds])
    work = _workspace(problem, cfg, len(seeds), barrier > 0.0)
    stages = []
    for smooth_w in SMOOTHING_WEIGHTS:
        x, nfev, reasons, traces = _lm_stage(problem, cfg, barrier, smooth_w, cfg.max_iterations, x, work)
        stages.append((nfev, reasons, traces))
        if barrier > 0.0:
            barrier *= BARRIER_RAMP
    R, _ = _residual(problem, cfg, *_spline_rows(problem, cfg, x), list(work.X))
    results = []
    for i, seed in enumerate(seeds):
        ansatz = seed.with_coeffs(x[i])
        nfevs, reasons, traces = (tuple(stage[i] for stage in column) for column in zip(*stages))
        plane_d = surfaces.plane_family_distance(ansatz.surface()) if ansatz.kind is Kind.TYPE_II else None
        sup_r, msr = float(np.max(np.abs(R[i]))), float(np.mean(R[i] ** 2))
        results.append(SearchResult(ansatz, sup_r, msr, plane_d, nfevs, reasons, traces))
    return results


def minimize_residual(seed: SplineAnsatz, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Optimize the ansatz; deterministic given (seed, cfg).  A block of one
    (`_minimize_block`)."""
    (result,) = _minimize_block([seed], cfg)
    return result


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


def _run_block(args) -> list[SearchResult]:
    block, cfg = args
    return _minimize_block(block, cfg)


def _blocks(seeds: list[SplineAnsatz], cfg: SearchConfig, workers: int) -> list[list[SplineAnsatz]]:
    """Contiguous blocks of seeds that share one `_problem`, of near-equal
    sizes: per run of such seeds, the fewest blocks whose `_workspace` holds
    at most LM_BLOCK_BYTES (one seed at least) that is a multiple of
    `workers`, so the pool's processes get equal shares, and at most one
    block per seed."""
    blocks = []
    for _, run in itertools.groupby(seeds, _problem):
        run = list(run)
        slab = _type1_h(run[0].kind, cfg.euclidean_control, run[0].g_domain)
        size = 1
        while size < len(run) and 8 * sum(_workspace_sizes(run[0], cfg, size + 1, slab)) <= LM_BLOCK_BYTES:
            size += 1
        count = min(len(run), workers * -(-len(run) // (size * workers)))
        bounds = [len(run) * j // count for j in range(count + 1)]
        blocks += [run[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return blocks


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

    The seeds run in contiguous blocks (`_blocks`), each one `_minimize_block`;
    a seed's result does not depend on the block or the process it runs in.
    At most min(workers, len(seeds), usable_cpus()) processes start, and
    none when that is 1: a fork-started pool launches all of its processes
    up front, so an unbounded `workers` would fork that many.  The pool gets
    whole blocks.
    """
    workers = min(workers, len(seeds), usable_cpus())
    blocks = _blocks(seeds, cfg, max(workers, 1))
    if workers <= 1:
        return [result for block in blocks for result in _minimize_block(block, cfg)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [result for results in pool.map(_run_block, [(block, cfg) for block in blocks]) for result in results]
