#!/usr/bin/env python3
"""Side experiments on the type-II reduction.

1. Evaluate the solution of f'' = a(1+f'^2)^2 in closed form and report
   the finite-time blow-up point together with the max defect of the
   factorization identity along the way.
2. Trace the real branch g'(z) of the cubic constraint and sweep the second
   separation constant b, printing how far (q1, q2) stay from vanishing
   jointly -- the numerical shadow of the nonexistence argument.
"""

import argparse

import numpy as np

from hypmin.experiments import b0_branch_check, integrate_first_integral, trace_type2_branch


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=1.0)
    ap.add_argument("--p0", type=float, default=0.0)
    ap.add_argument("--x-max", type=float, default=10.0)
    ap.add_argument("--z-lo", type=float, default=0.5)
    ap.add_argument("--z-hi", type=float, default=2.0)
    args = ap.parse_args()

    ode = integrate_first_integral(args.a, args.p0, (0.0, args.x_max))
    print(f"ODE f'' = a(1+f'^2)^2, a={args.a}, f'(0)={args.p0}:")
    print(f"  solved to x = {ode.x_end:.9f} (blow-up: {ode.blew_up})")
    # near blow-up the defect is pure cancellation noise; quote it on the
    # first quarter of the solved range where the slope is still tame
    tame = integrate_first_integral(args.a, args.p0, (0.0, 0.25 * ode.x_end))
    print(f"  max factorization defect on (0, {0.25 * ode.x_end:.3f}): {tame.max_defect:.3e}")
    if args.a != 0.0 and args.p0 == 0.0:
        print(f"  closed-form singularity at pi/(4a) = {np.pi / (4 * args.a):.9f}")

    branch = trace_type2_branch(args.a, (args.z_lo, args.z_hi))
    print(f"cubic branch g'(z) on z in ({args.z_lo}, {args.z_hi}):")
    print(f"  g'({args.z_lo}) = {branch.roots[0]:.6f}, g'({args.z_hi}) = {branch.roots[-1]:.6f}")
    k = int(np.argmin(branch.infeasibility))
    print(
        f"  min over b of max_z |q1|+|q2| = {branch.min_infeasibility:.4f} "
        f"at b = {branch.b_values[k]:.2f}  (> 0: no (a,b) closes the system)"
    )
    check = b0_branch_check(args.a, branch.zs)
    print(f"  b=0 candidate X=4az/5: max |cubic residual| = {np.max(np.abs(check)):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
