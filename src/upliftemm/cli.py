"""Command-line entry point.

Subcommands: validate, solve, reduce, uplift, simulate, price, verify.
Every report can be emitted as canonical JSON (sorted keys), which is
byte-identical across runs and block sizes for a fixed seed.  Exit
codes: 0 success/PASS, 1 FAIL or domain error, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from .errors import UpliftError
from .io import (
    dump_json,
    load_json,
    market_from_json,
    market_to_json,
    plan_from_json,
)
from .model import default_grid, validate_market
from .mpr import assemble_mpr_system, solve_mpr
from .pricing import (
    MarketEvent,
    Payoff,
    _density_mass_report,
    density_mass_check,
    martingale_check,
    price_mc,
    projection_consistency_check,
    restriction_check,
)
from .reduction import _is_complete_neglect, reduce_market
from .stochastic import DEFAULT_SEED, SimulationContext, _blocks
from .uplift import _check_emm_shape, build_uplifted_emm, Emm, verify_uplift

SEED_ENV_VAR = "UPLIFTEMM_SEED"
ALL_CHECKS = ("uplift", "restriction", "projection", "martingale", "density_mass")


def _seed(args) -> int:
    """``--seed``, else ``UPLIFTEMM_SEED`` as read now, else the default."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    return int(env, 0) if env else DEFAULT_SEED


def _load_market(path: str):
    doc = load_json(path)
    if "market" in doc and "stocks" not in doc:
        doc = doc["market"]
    return market_from_json(doc)


def _load_emm(path: str, spec) -> Emm:
    """A measure file, refused with ShapeMismatch unless it has the parts
    the market's drivers need."""
    emm = Emm.from_json(load_json(path))
    _check_emm_shape(emm, spec)
    return emm


def _emit(report: dict, args, default_text) -> None:
    if args.out:
        dump_json(report, args.out)
    if args.format == "json":
        print(dump_json(report))
    else:
        print(default_text)


# -- subcommand handlers ---------------------------------------------------------


def _cmd_validate(args) -> int:
    spec = _load_market(args.market)
    report = validate_market(spec)
    doc = {
        "ok": report.ok,
        "violations": [
            {"code": v.code, "message": v.message} for v in report.violations
        ],
    }
    _emit(doc, args, str(report))
    return 0 if report.ok else 1


def _cmd_solve(args) -> int:
    spec = _load_market(args.market)
    cls = solve_mpr(assemble_mpr_system(spec, args.at))
    D = spec.n_brownians
    sol = cls.solution
    doc = {
        "tag": cls.tag,
        "t": args.at,
        "theta": None if sol is None else [float(x) for x in sol[:D]],
        "lambda_tilde": None if sol is None else [float(x) for x in sol[D:]],
        "residual": cls.residual,
        "rank": cls.rank,
        "nullspace_dim": cls.nullspace_dim,
        "nonpositive_intensities": list(cls.nonpositive_intensities),
        "note": cls.solution_note,
    }
    text = [f"{cls.tag} at t={args.at:g} (rank {cls.rank}, nullspace {cls.nullspace_dim})"]
    if sol is not None:
        text.append(f"  theta        = {sol[:D]}")
        text.append(f"  lambda_tilde = {sol[D:]}")
        text.append(f"  residual     = {cls.residual:.3e}")
    if cls.nonpositive_intensities:
        text.append(f"  WARNING: nonpositive intensities {cls.nonpositive_intensities}")
    _emit(doc, args, "\n".join(text))
    return 0


def _cmd_reduce(args) -> int:
    spec = _load_market(args.market)
    plan = plan_from_json(load_json(args.plan))
    grid = default_grid(spec.horizon, args.grid)
    fict = reduce_market(spec, plan, grid)
    doc = {
        "market": market_to_json(fict.spec),
        "provenance": {
            "plan": plan.to_json(),
            "brownian_map": list(fict.brownian_map),
            "driver_groups": [list(g) for g in fict.driver_groups],
            "weights": [[fn.to_json() for fn in w] for w in fict.weights],
            "neglected": list(fict.neglected),
            "cells": [list(c) for c in fict.cells],
        },
    }
    _emit(doc, args, f"reduced market: {fict.spec.n} stocks, "
                     f"{fict.spec.n_brownians} Brownian, "
                     f"{fict.spec.n_jump_drivers} jump drivers")
    return 0


def _cmd_uplift(args) -> int:
    spec = _load_market(args.market)
    plan = plan_from_json(load_json(args.plan))
    grid = default_grid(spec.horizon, args.grid)
    emm, fict, fict_emm = build_uplifted_emm(spec, plan, grid)
    ver = verify_uplift(emm, spec, grid)
    doc = emm.to_json()
    doc["verify"] = ver.to_json()
    _emit(doc, args, f"uplift ({emm.provenance}); verify residual "
                     f"{ver.max_residual:.3e} -> {'PASS' if ver.passed else 'FAIL'}")
    return 0 if ver.passed else 1


def _cmd_simulate(args) -> int:
    if _too_few_paths(args, 0):
        return 2
    if args.measure != "physical" and args.density:
        print("--density records a density along physical paths; "
              "it cannot be combined with --measure FILE", file=sys.stderr)
        return 2
    spec = _load_market(args.market)
    measure_emm = None
    density_emm = None
    if args.measure != "physical":
        measure_emm = _load_emm(args.measure, spec)
    elif args.density:
        density_emm = _load_emm(args.density, spec)
    times = (
        [float(x) for x in args.times.split(",")] if args.times else [spec.horizon]
    )
    ctx = SimulationContext(
        spec, times, measure_emm=measure_emm, density_emm=density_emm
    )
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        for _, block in _blocks(ctx, _seed(args), 0, args.paths):
            mark = int if block.ev_marks.dtype.kind == "i" else float
            for p in range(len(block)):
                lo, hi = block.ev_off[p], block.ev_off[p + 1]
                rec = {
                    "stream": block.first_stream + p,
                    "events": [
                        [float(t), mark(m)]
                        for t, m in zip(block.ev_times[lo:hi], block.ev_marks[lo:hi])
                    ],
                    "terminal": [float(x) for x in block.stocks[p, :, -1]],
                    "z": None if block.z is None else float(block.z[p, -1]),
                }
                fh.write(dump_json(rec, pretty=False) + "\n")
    if args.out:
        print(f"wrote {args.paths} paths to {args.out}")
    return 0


def _too_few_paths(args, least: int = 2) -> bool:
    """Print a config error and return True when ``--paths`` is below
    ``least``: 2 leave an estimate a standard error, and ``simulate``
    writes any count from 0."""
    if args.paths >= least:
        return False
    print(f"config error: --paths must be at least {least}, got {args.paths}",
          file=sys.stderr)
    return True


def _cmd_price(args) -> int:
    if _too_few_paths(args):
        return 2
    spec = _load_market(args.market)
    emm = _load_emm(args.emm, spec)
    payoff = Payoff.from_json(load_json(args.payoff))
    report = price_mc(spec, emm, payoff, args.paths, _seed(args))
    doc = report.to_json()
    text = (
        f"estimate  {report.estimate:.6f}\n"
        f"std_error {report.std_error:.6f}\n"
        f"paths     {report.n_paths}\n"
        f"seed      {report.seed}"
    )
    _emit(doc, args, text)
    return 0


def restriction_events(fict) -> tuple[MarketEvent, ...]:
    """The events that verify's restriction check tests: the whole space,
    no event of the first unbatched reduced driver, and the first kept
    Brownian ending above 0, each when the reduced market has it."""
    events = [MarketEvent("omega")]
    singles = [g[0] for g in fict.driver_groups if len(g) == 1]
    if singles:
        events.append(MarketEvent("first_retained_quiet", count_eq=((singles[0], 0),)))
    if fict.brownian_map:
        events.append(
            MarketEvent("brownian_positive", brownian_gt=((fict.brownian_map[0], 0.0),))
        )
    return tuple(events)


def verify_suite(spec, plan, *, paths, seed, grid_points, checks=None, emm=None):
    """Run the uplift checks end to end and aggregate PASS/FAIL.

    The measure is derived by reduce/solve/uplift unless one is supplied
    explicitly (to audit a stored measure file).  With the restriction
    check selected, the density mass is leg a of its ``omega`` line, not a
    second simulation of the same paths.  Returns a JSON-ready report; the
    same (market, plan, paths, seed) produce byte-identical reports for
    any block size.
    """
    selected = tuple(checks) if checks else ALL_CHECKS
    grid = default_grid(spec.horizon, grid_points)
    derived, fict, fict_emm = build_uplifted_emm(spec, plan, grid)
    emm = derived if emm is None else emm
    report = {
        "config": {
            "paths": paths,
            "seed": seed,
            "grid_points": grid_points,
            "checks": list(selected),
        },
        "checks": {},
    }
    ok = True

    if "uplift" in selected:
        ver = verify_uplift(emm, spec, grid)
        report["checks"]["uplift"] = ver.to_json()
        ok = ok and ver.passed

    if "restriction" in selected:
        rc = restriction_check(fict, emm, fict_emm, restriction_events(fict), paths, seed=seed)
        report["checks"]["restriction"] = rc.to_json()
        ok = ok and rc.passed

    if "projection" in selected:
        if not _is_complete_neglect(plan):
            report["checks"]["projection"] = {"skipped": "needs a complete-neglect plan"}
        else:
            pr = projection_consistency_check(
                fict, n_outer=50, n_inner=max(paths // 10, 1000), seed=seed
            )
            report["checks"]["projection"] = pr.to_json()
            ok = ok and pr.passed

    if "martingale" in selected:
        mc = martingale_check(spec, emm, paths, seed=seed)
        report["checks"]["martingale"] = mc.to_json()
        ok = ok and mc.passed

    if "density_mass" in selected:
        dm = (  # Z* 1_omega is Z*: reuse the restriction sample
            _density_mass_report(rc.lines[0].a) if "restriction" in selected
            else density_mass_check(spec, emm, paths, seed=seed)
        )
        report["checks"]["density_mass"] = dm.to_json()
        ok = ok and dm.passed

    report["aggregate"] = "PASS" if ok else "FAIL"
    return report


def _cmd_verify(args) -> int:
    if _too_few_paths(args):
        return 2
    spec = _load_market(args.market)
    plan = plan_from_json(load_json(args.plan))
    checks = args.checks.split(",") if args.checks else None
    if checks:
        unknown = set(checks) - set(ALL_CHECKS)
        if unknown:
            print(f"unknown checks: {sorted(unknown)}", file=sys.stderr)
            return 2
    emm = _load_emm(args.emm, spec) if args.emm else None
    report = verify_suite(
        spec, plan,
        paths=args.paths, seed=_seed(args),
        grid_points=args.grid, checks=checks, emm=emm,
    )
    lines = []
    for name, body in report["checks"].items():
        if "skipped" in body:
            status = f"SKIP ({body['skipped']})"
        else:
            status = "PASS" if body.get("passed") else "FAIL"
        lines.append(f"{name:16s} {status}")
    lines.append(f"aggregate        {report['aggregate']}")
    _emit(report, args, "\n".join(lines))
    return 0 if report["aggregate"] == "PASS" else 1


# -- parser -------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: no default reads the environment."""
    parser = argparse.ArgumentParser(
        prog="upliftemm",
        description="Pricing measures for incomplete jump-diffusion markets "
                    "via filtration reduction and consistent uplift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, plan=False, mc=False):
        p.add_argument("-m", "--market", required=True, help="market spec JSON")
        if plan:
            p.add_argument("-p", "--plan", required=True, help="reduction plan JSON")
        if mc:
            p.add_argument("--paths", type=int, default=10_000)
            p.add_argument("--seed", type=_parse_seed, default=None)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the JSON report to this path")

    p = sub.add_parser("validate", help="check a market spec's invariants")
    common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("solve", help="classify the risk-premium system")
    common(p)
    p.add_argument("--at", type=float, default=0.0, help="time to assemble at")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("reduce", help="build the fictitious market from a plan")
    common(p, plan=True)
    p.add_argument("--grid", type=int, default=256)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("uplift", help="solve the fictitious market and uplift")
    common(p, plan=True)
    p.add_argument("--grid", type=int, default=256)
    p.set_defaults(handler=_cmd_uplift)

    p = sub.add_parser("simulate", help="write one JSON record per path")
    common(p, mc=True)
    p.add_argument("--measure", default="physical",
                   help="'physical' or a measure JSON file to simulate under")
    p.add_argument("--density", default=None,
                   help="measure JSON whose density to record along physical paths")
    p.add_argument("--times", default=None, help="comma-separated output times")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("price", help="Monte Carlo price of a payoff")
    common(p, mc=True)
    p.add_argument("-e", "--emm", required=True, help="pricing measure JSON")
    p.add_argument("--payoff", required=True, help="payoff JSON")
    p.set_defaults(handler=_cmd_price)

    p = sub.add_parser("verify", help="run the full identity-check suite")
    common(p, plan=True, mc=True)
    p.add_argument("-e", "--emm", default=None,
                   help="verify this measure file instead of deriving one")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--checks", default=None,
                   help=f"comma-separated subset of {','.join(ALL_CHECKS)}")
    p.set_defaults(handler=_cmd_verify)
    return parser


def _parse_seed(text: str) -> int:
    return int(text, 0)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except UpliftError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
