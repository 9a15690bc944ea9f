"""Count verify FAILs and the worst |z| per check over many Monte Carlo seeds.

For each benchmark workload, built by the benchmark's generator
(`perfbench/workloads.py`, which this script only reads) at one generator
seed, it runs `cli.verify_suite` with every check at each Monte Carlo seed
and prints, per check, the seeds of the verifies it failed and its largest |z|
(the largest z of its lines) with the seed that gave it.  The uplift check
reports no z and prints only its FAIL count.

`--null-space EPS` audits a measure that is an EMM of the full market but
not the consistent one, as a negative control: the uplift plus EPS times
the unit null vector of the full market's risk-premium matrix [sigma | -y].
It needs constant coefficients and discrete drivers (const-neglect).

Run from the repository root, for example:

    PYTHONPATH=src:perfbench python tools/verify_sweep.py --seeds 1-200 --paths 10000
    PYTHONPATH=src:perfbench python tools/verify_sweep.py --workload const-neglect \\
        --seeds 11 --paths 100000 --null-space 0.1
"""

import argparse
import time

import numpy as np

from upliftemm import Emm, build_uplifted_emm
from upliftemm.cli import verify_suite
from upliftemm.io import market_from_json, plan_from_json
from upliftemm.mpr import assemble_mpr_system
from workloads import WORKLOADS, generate

GRID_POINTS = 256  # `upliftemm verify`'s default grid


def seed_range(text: str) -> range:
    """'A-B' is the seeds A to B inclusive; 'A' is the one seed A."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def null_space_measure(spec, emm: Emm, eps: float) -> Emm:
    """``emm`` moved by ``eps`` along the unit null vector of the full
    market's risk-premium matrix, so it still solves every equation."""
    system = assemble_mpr_system(spec, 0.0)
    if not all(fn.is_constant for fn in (*emm.theta, *emm.intensities)):
        raise SystemExit("--null-space needs a measure with constant coefficients")
    v = np.linalg.svd(system.matrix)[2][-1]
    x = [fn.constant_value for fn in (*emm.theta, *emm.intensities)] + eps * v
    d = system.n_theta
    return Emm(theta=tuple(x[:d]), intensities=tuple(x[d:]), provenance="null-space")


def worst_z(body) -> float | None:
    """A check's largest |z| over its lines; None for a check without lines."""
    return max((line["z"] for line in body.get("lines", ())), default=None)


def sweep(name: str, args) -> None:
    gen = generate(name, args.generator_seed)
    spec, plan = market_from_json(gen["market"]), plan_from_json(gen["plan"])
    emm = None
    if args.null_space is not None:
        derived = build_uplifted_emm(spec, plan)[0]
        emm = null_space_measure(spec, derived, args.null_space)
    fails, worst = {}, {}  # check -> failed seeds; check -> (largest |z|, seed)
    start = time.perf_counter()
    for seed in seed_range(args.seeds):
        report = verify_suite(spec, plan, paths=args.paths, seed=seed,
                              grid_points=GRID_POINTS, emm=emm)
        for check, body in report["checks"].items():
            if "skipped" in body:
                continue
            fails.setdefault(check, [])
            if not body["passed"]:
                fails[check].append(seed)
            z = worst_z(body)
            if z is not None and z > worst.get(check, (-1.0, None))[0]:
                worst[check] = (z, seed)
    elapsed = time.perf_counter() - start
    print(f"{name}: {len(seed_range(args.seeds))} verifies at {args.paths} paths, "
          f"generator seed {args.generator_seed}, {elapsed:.1f} s")
    for check, failed in fails.items():
        z, seed = worst.get(check, (None, None))
        worst_text = "-" if z is None else f"{z:.2f} (seed {seed})"
        print(f"  {check:14s} FAIL {len(failed):4d}   worst |z| {worst_text:18s} "
              f"failed seeds {failed}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seeds", default="1-200", help="Monte Carlo seeds, 'A-B' or 'A'")
    parser.add_argument("--paths", type=int, default=10_000)
    parser.add_argument("--generator-seed", type=int, default=2001)
    parser.add_argument("--null-space", type=float, default=None, metavar="EPS")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        sweep(name, args)


if __name__ == "__main__":
    main()
