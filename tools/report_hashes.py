"""Print the canonical report hashes beside the recorded ones.

The canonical 1e4-path verify reports (generator seed 2001, MC seed 11),
the sorted-key two-route and hedging reports at the benchmark's path counts
and generated MC seed (hedging is the one report with several output
times), the `upliftemm reduce --out` and `upliftemm uplift --out` files,
then `upliftemm simulate` at 3,000 paths and seed 7 (several blocks)
under P, under the uplifted measure (q) and under P with its density
(pz), at output times 0.5,1.0 and at the horizon alone.  Last, the
verify reports (10,000 paths, seed 11) of two markets that lack one driver
class: a Black-Scholes market (`"jumps": null`, plan `{}`) and a pure-jump
market (`"sigma": []`), and `upliftemm simulate --measure` (3,000 paths,
seed 7, output times 0.5,1.0) of a truncnorm cell market whose mu steps in
time, so a mark's residual quantile goes through a nonlinear inverse CDF.
Each line ends in `same` or `DIFFERENT`.  The
workloads come from the benchmark's generator, `perfbench/workloads.py`,
which this script only reads.

Run from the repository root:

    PYTHONPATH=src:perfbench python tools/report_hashes.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from upliftemm import cli, pricing, uplift
from upliftemm.io import market_from_json, plan_from_json
from workloads import WORKLOADS, generate

# (verify, two-route, hedging) hash prefixes by workload
RECORDED = {
    "const-neglect": ("829066e113fe0a92", "cee04db1e8fe2973", "ac45556115303118"),
    "tv-batch": ("d25c51b7e68534da", "bb7efd061faa6d21", "d218ece0195c14c1"),
    "cont-cells": ("8d3e22410d3b1db4", "f237a7e512e3d6fa", "98babc91fcc395c9"),
}
# the reduce --out and uplift --out hash prefixes by workload
REDUCED = {
    "const-neglect": ("f38ff6f9e783d5a1", "9d3bb55a23b1de40"),
    "tv-batch": ("f6a758ede1f5988f", "3c291da5382d9e0d"),
    "cont-cells": ("e2e5d4b254af8891", "b00cd370b0f85590"),
}
# simulate's (p, q, pz) hash prefixes by workload and --times
SIMULATED = {
    "const-neglect": {
        "0.5,1.0": ("bbc535d3bafcbdfc", "fca8d0f66704d54c", "9b21d27dd61ba545"),
        "1.0": ("1bb76814d21da6ea", "20e7b5d167002a74", "13d9ee092eb0edcd"),
    },
    "tv-batch": {
        "0.5,1.0": ("e41acdad0f05c937", "c7c61dd9dbbdc18a", "f9d0c6fb6b5332d3"),
        "1.0": ("ec59c7926b3b0392", "843fc192433b3c3d", "b2ded54d5a6c9584"),
    },
    "cont-cells": {
        "0.5,1.0": ("8bbeed44cc1df26a", "8e3d0b088f5e0f37", "7c1d09b2968d41b4"),
        "1.0": ("704310ec810fa8ab", "3573b26f32375eb1", "b91a69b98de0808e"),
    },
}

# (market, plan, verify hash prefix) of the markets without one driver class
NO_DRIVERS = {
    "black-scholes": (
        {"horizon": 1.0, "rate": 0.03, "brownians": 1, "jumps": None,
         "stocks": [{"s0": 100.0, "alpha": 0.08, "sigma": [0.2]}]},
        {},
        "f5cbca677a43a01a",
    ),
    "pure-jump": (
        {"horizon": 1.0, "rate": 0.02, "brownians": 0,
         "stocks": [{"s0": 100.0, "alpha": 0.05, "sigma": []},
                    {"s0": 50.0, "alpha": 0.01, "sigma": []}],
         "jumps": {"type": "discrete", "intensities": [2.0, 1.0],
                   "loadings": [[0.1, -0.2], [-0.15, 0.05]]}},
        {"retain": [0, 1]},
        "a59cf5928255a827",
    ),
}

# (market, plan, simulate q hash prefix) of a truncnorm market with a cell
TRUNCNORM = (
    {"horizon": 1.0, "rate": 0.02, "brownians": 1,
     "stocks": [{"s0": 100.0, "alpha": 0.08, "sigma": [0.25]},
                {"s0": 80.0, "alpha": 0.03, "sigma": [0.4]}],
     "jumps": {"type": "density", "family": "truncnorm", "support": [-0.6, 0.6],
               "params": {"mu": {"piecewise": {"t": [0.0, 0.4, 1.0], "v": [-0.1, 0.1]}},
                          "sigma": 0.25},
               "total_intensity": 4.0}},
    {"cells": [[-0.5, 0.0]], "neglect_remainder": True},
    "327dc1fc74a02a18",
)


def show(name, what, doc, want):
    got = hashlib.sha256(doc).hexdigest()
    print(f"{name:14s} {what:17s} {got}  recorded {want}  "
          f"{'same' if got.startswith(want) else 'DIFFERENT'}")


def quiet_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main([str(a) for a in argv])


def main(tmp: Path):
    market, plan, out = tmp / "market.json", tmp / "plan.json", tmp / "report.json"
    fict_file, emm_file, paths = tmp / "fict.json", tmp / "emm.json", tmp / "paths.jsonl"
    for name, wants in RECORDED.items():
        gen = generate(name, 2001)
        market.write_text(json.dumps(gen["market"]))
        plan.write_text(json.dumps(gen["plan"]))
        quiet_cli("verify", "-m", market, "-p", plan, "--paths", 10000, "--seed", 11,
                  "--out", out)
        spec, w, h = market_from_json(gen["market"]), WORKLOADS[name], gen["hedge"]
        emm = uplift.build_uplifted_emm(spec, plan_from_json(gen["plan"]))[0]
        book = {k: pricing.Payoff.from_json(v) for k, v in gen["book"].items()}
        strategy = pricing.Strategy(holdings=tuple(h["holdings"]),
                                    jump_integrand=tuple(h["jump_integrand"]), v0=h["v0"])
        route = pricing.two_route_check(spec, emm, book, w.route_paths, gen["mc_seed"])
        hedge = pricing.hedging_error(spec, emm, strategy, pricing.Payoff.from_json(h["payoff"]),
                                      w.hedge_paths, gen["mc_seed"])
        docs = (out.read_bytes(),
                *(json.dumps(rep.to_json(), sort_keys=True).encode() for rep in (route, hedge)))
        for what, doc, want in zip(("verify", "two-route", "hedging"), docs, wants):
            show(name, what, doc, want)
        quiet_cli("reduce", "-m", market, "-p", plan, "--out", fict_file)
        quiet_cli("uplift", "-m", market, "-p", plan, "--out", emm_file)
        for what, file, want in zip(("reduce", "uplift"), (fict_file, emm_file), REDUCED[name]):
            show(name, what, file.read_bytes(), want)
        measures = ([], ["--measure", emm_file], ["--density", emm_file])
        for times, sims in SIMULATED[name].items():
            for what, extra, want in zip(("p", "q", "pz"), measures, sims):
                quiet_cli("simulate", "-m", market, "--paths", 3000, "--seed", 7,
                          "--times", times, *extra, "--out", paths)
                show(name, f"simulate {what} {times}", paths.read_bytes(), want)
    for name, (market_doc, plan_doc, want) in NO_DRIVERS.items():
        market.write_text(json.dumps(market_doc))
        plan.write_text(json.dumps(plan_doc))
        quiet_cli("verify", "-m", market, "-p", plan, "--paths", 10000, "--seed", 11,
                  "--out", out)
        show(name, "verify", out.read_bytes(), want)
    market_doc, plan_doc, want = TRUNCNORM
    market.write_text(json.dumps(market_doc))
    plan.write_text(json.dumps(plan_doc))
    quiet_cli("uplift", "-m", market, "-p", plan, "--out", emm_file)
    quiet_cli("simulate", "-m", market, "--paths", 3000, "--seed", 7, "--times", "0.5,1.0",
              "--measure", emm_file, "--out", paths)
    show("truncnorm", "simulate q 0.5,1.0", paths.read_bytes(), want)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp))
