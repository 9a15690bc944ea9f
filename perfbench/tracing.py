"""Spans and counters recorded from outside the package.

The tracer replaces public functions, as their callers look them up, with
wrappers that record a span (name, start, end, parent, run id) in memory.
Spans nest by the call stack, so a verify run reads cli -> pricing ->
stochastic.  Per-path boundaries (one simulated path, one mark draw) and
per-node boundaries (one risk-premium solve, one node checked) only bump
counters: a span per path would cost more than the work it times.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict

import upliftemm.cli as cli
import upliftemm.model as model
import upliftemm.mpr as mpr
import upliftemm.pricing as pricing
import upliftemm.stochastic as stochastic
import upliftemm.uplift as uplift

# (owner, attribute, span name) for every function wrapped as a span
SPAN_TARGETS = (
    (cli, "main", "cli.main"),
    (cli, "load_json", "io.load"),
    (cli, "market_from_json", "io.load"),
    (cli, "plan_from_json", "io.load"),
    (cli, "dump_json", "io.dump"),
    (uplift, "reduce_market", "reduction.reduce"),
    (uplift, "solve_unique_emm", "uplift.solve"),
    (uplift, "classify_over_grid", "mpr.classify"),
    (uplift, "uplift_general", "uplift.extend"),
    (cli, "verify_uplift", "uplift.verify"),
    (uplift, "verify_uplift", "uplift.verify"),
    (pricing, "verify_uplift", "uplift.verify"),
    (cli, "restriction_check", "pricing.restriction"),
    (cli, "projection_consistency_check", "pricing.projection"),
    (cli, "martingale_check", "pricing.martingale"),
    (cli, "density_mass_check", "pricing.density_mass"),
    (pricing, "two_route_check", "pricing.two_route"),
    (pricing, "hedging_error", "pricing.hedging"),
    (pricing, "simulate_terminal", "stochastic.terminal"),
    (pricing, "run_paths", "stochastic.bundle"),
    (stochastic.SimulationContext, "__init__", "stochastic.context"),
)

# (owner, attribute, span name): each call made directly inside an open
# span of that name is one node of its work.  classify_over_grid calls
# solve_mpr once per node it solves; verify_uplift reads sigma_values once
# per node it checks.
NODE_TARGETS = (
    (mpr, "solve_mpr", "mpr.classify"),
    (model.MarketSpec, "sigma_values", "uplift.verify"),
)


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _attrs(name, args, kwargs, result) -> dict:
    """Work counts recorded on a span, read from its arguments and result."""
    if name == "pricing.projection":
        return {"inner_paths": _arg(args, kwargs, 2, "n_outer")
                * _arg(args, kwargs, 3, "n_inner")}
    if name == "stochastic.terminal":
        attrs = {"paths": _arg(args, kwargs, 2, "n_paths")}
        if _arg(args, kwargs, 4, "measure_emm") is not None:
            attrs["route"] = "q"
        elif result.z is not None:
            z = result.z_terminal()
            attrs["route"] = "pz"
            attrs["z_ess"] = float(z.sum() ** 2 / (z * z).sum())
        else:
            attrs["route"] = "p"
        return attrs
    if name == "stochastic.bundle":
        return {"paths": _arg(args, kwargs, 2, "n_paths")}
    return {}


class Tracer:
    """In-memory spans plus per-operation counters for one benchmark run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = ""
        self.op = ""
        self.counters = defaultdict(lambda: defaultdict(float))
        self.calls = defaultdict(int)  # wrapper calls per operation
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in SPAN_TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._span(name, original))
        for owner, attr, wrap in (
            (stochastic, "simulate_path", self._count_path),
            (stochastic.SimulationContext, "sample_marks", self._count_marks),
        ):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        for owner, attr, span_name in NODE_TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._count_node(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[tracer.op] += 1
            rec = {
                "name": name,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "run": tracer.run_id,
            }
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                tracer._stack.pop()
            rec.update(_attrs(name, args, kwargs, result))
            return result

        return wrapper

    def _count_node(self, span_name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[tracer.op] += 1
            if tracer._stack:
                top = tracer.spans[tracer._stack[-1]]
                if top["name"] == span_name:
                    top["nodes"] = top.get("nodes", 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_path(self, fn):
        tracer = self

        def simulate_path(ctx, streams, pool=None):
            bundle = fn(ctx, streams, pool)
            tracer.calls[tracer.op] += 1
            c = tracer.counters[tracer.op]
            c["paths"] += 1
            c["events"] += bundle.event_times.size
            c["exposure"] += ctx.majorant * ctx.horizon
            return bundle

        return simulate_path

    def _count_marks(self, fn):
        tracer = self

        def sample_marks(ctx, rng, times):
            start = time.perf_counter()
            marks = fn(ctx, rng, times)
            tracer.calls[tracer.op] += 1
            c = tracer.counters[tracer.op]
            c["mark_s"] += time.perf_counter() - start
            c["marks"] += len(times)
            return marks

        return sample_marks

    # -- output ------------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)

    @staticmethod
    def wrapper_cost(batches=5, calls=20000) -> float:
        """Seconds one span wrapper adds to a call: the fastest of several
        batches of calls to a wrapped no-op, per call.  The no-op and the
        loop count in, so this bounds the cost from above."""
        probe = Tracer()
        wrapped = probe._span("probe", lambda: None)
        best = math.inf
        for _ in range(batches):
            probe.spans.clear()
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            best = min(best, time.perf_counter() - start)
        return best / calls

    def layer_metrics(self, verify_paths: int) -> tuple[dict, dict]:
        """Per-layer metrics as {name: (value, unit)}, and the base of each
        useful-work ratio as {name: text}.

        Self time is a span's duration minus its direct children's.  A
        layer that did no work on this workload reports 0: the projection
        check runs only under complete-neglect plans.  The tracing overhead
        is the recording cost of one traced verify: its wrapper calls times
        the cost of one span wrapper, which stays above 0, where traced
        minus untraced verify time is mostly noise.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        by_name = defaultdict(list)
        for i, s in enumerate(spans):
            s["dur"] = s["end"] - s["start"]
            s["self"] = s["dur"] - child[i]
            by_name[s["name"]].append(s)

        def mean(name, key="dur"):
            vals = [s.get(key, 0) for s in by_name[name]]
            return statistics.fmean(vals) if vals else 0.0

        def per(num, den):
            return num / den if den else 0.0

        def route(r):
            picked = [s for s in by_name["stochastic.terminal"] if s["route"] == r]
            return sum(s["self"] for s in picked), sum(s["paths"] for s in picked)

        q_s, q_n = route("q")
        pz_s, pz_n = route("pz")
        bundles = by_name["stochastic.bundle"]
        weighted = [s for s in by_name["stochastic.terminal"] if "z_ess" in s]
        projections = by_name["pricing.projection"]
        mains = by_name["cli.main"]
        total = defaultdict(float)
        for c in self.counters.values():
            for k, v in c.items():
                total[k] += v
        verify_c = self.counters["verify"]
        m = {
            "reduction.reduce_ms": (1e3 * mean("reduction.reduce"), "ms"),
            "mpr.classify_ms": (1e3 * mean("mpr.classify"), "ms"),
            "mpr.nodes": (mean("mpr.classify", "nodes"), "count"),
            "uplift.solve_ms": (1e3 * mean("uplift.solve", "self"), "ms"),
            "uplift.extend_ms": (1e3 * mean("uplift.extend"), "ms"),
            "uplift.verify_ms": (1e3 * mean("uplift.verify"), "ms"),
            "uplift.verify_nodes": (mean("uplift.verify", "nodes"), "count"),
            "uplift.mark_sample_us_per_mark": (
                1e6 * per(total["mark_s"], total["marks"]), "us"),
            "stochastic.context_ms": (1e3 * mean("stochastic.context"), "ms"),
            "stochastic.terminal_q_us_per_path": (1e6 * per(q_s, q_n), "us"),
            "stochastic.terminal_pz_us_per_path": (1e6 * per(pz_s, pz_n), "us"),
            "stochastic.bundle_us_per_path": (
                1e6 * per(sum(s["self"] for s in bundles),
                          sum(s["paths"] for s in bundles)), "us"),
            "stochastic.paths": (per(verify_c["paths"], len(mains)), "count"),
            "stochastic.paths_per_requested": (
                per(verify_c["paths"], len(mains) * verify_paths), "ratio"),
            "stochastic.events_per_path": (
                per(total["events"], total["paths"]), "count"),
            "stochastic.thinning_accept": (
                per(total["events"], total["exposure"]), "ratio"),
            "pricing.projection_inner_us_per_path": (
                1e6 * per(sum(s["self"] for s in projections),
                          sum(s["inner_paths"] for s in projections)), "us"),
            "pricing.z_ess_frac": (
                per(sum(s["z_ess"] for s in weighted),
                    sum(s["paths"] for s in weighted)), "ratio"),
            "io.load_ms": (
                1e3 * per(sum(s["dur"] for s in by_name["io.load"]), len(mains)), "ms"),
            "io.dump_ms": (
                1e3 * per(sum(s["dur"] for s in by_name["io.dump"]), len(mains)), "ms"),
            "cli.verify_self_s": (mean("cli.main", "self"), "s"),
        }
        calls = per(self.calls["verify"], len(mains))
        cost = self.wrapper_cost()
        m["trace.overhead_s"] = (calls * cost, "s")
        for check in ("restriction", "projection", "martingale", "density_mass",
                      "two_route", "hedging"):
            m[f"pricing.{check}_self_s"] = (mean(f"pricing.{check}", "self"), "s")
        bases = {} if projections else {
            name: "0: the plan skips the projection check, which needs complete neglect"
            for name in ("pricing.projection_self_s", "pricing.projection_inner_us_per_path")
        }
        bases |= {
            "trace.overhead_s": (
                f"{calls:.0f} wrapper calls per traced verify x "
                f"{1e9 * cost:.0f} ns per call"),
            "stochastic.paths_per_requested": (
                f"{verify_c['paths']:.0f} paths in {len(mains)} verify calls "
                f"of --paths {verify_paths}"),
            "stochastic.events_per_path": (
                f"{total['events']:.0f} events over {total['paths']:.0f} paths"),
            "stochastic.thinning_accept": (
                f"{total['events']:.0f} events over majorant*T summed to "
                f"{total['exposure']:.1f}"),
            "pricing.z_ess_frac": (
                f"ESS {sum(s['z_ess'] for s in weighted):.1f} over "
                f"{sum(s['paths'] for s in weighted)} weighted paths in "
                f"{len(weighted)} samples"),
        }
        return m, bases
