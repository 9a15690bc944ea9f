"""Benchmark for upliftemm: verify, price and hedge sessions.

Usage (from the repository root):

    python3 perfbench/run.py --workload const-neglect --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30
    python3 perfbench/run.py --smoke

One closed-loop client in one process, with BLAS capped at one thread,
runs rounds of the same session while another round fits in
``--seconds`` (at least three rounds).  A round runs ``upliftemm verify``
through ``cli.main`` (all checks, JSON report written), ``two_route_check``
over a four-payoff book and one ``hedging_error``; before each of them
come a few reduce -> solve -> uplift -> verify_uplift calls and, when one
is due, a set-up probe (a fresh process), ten of which are spread over
the window.  Every verify call of a run uses the same seed, so each report
must be byte-identical to the first.  ``--workload all`` runs every
workload in turn; ``--smoke`` does so with tiny sizes in both modes and
checks that every metric named in BENCHMARK.json is emitted with its unit.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured untraced.  Each timing is the mean of the run's samples, scaled
to a machine of fixed speed: before every operation a reference burst (a
fixed piece of numpy and interpreter work that does not touch upliftemm)
is timed, and every timing is multiplied by REFERENCE_S over the bursts'
mean.  On a shared 2-vCPU VM the speed drifted by up to 1.6x within
minutes; every operation of a run drifts with the bursts, so the scaled
times repeat from run to run where wall times do not.  The wall-time mean, median, fastest
sample and 95th percentile are printed beside each metric, not gated.
With ``--trace 1`` the public functions of cli, io, reduction, mpr,
uplift, pricing and stochastic are wrapped as spans and the line carries
the per-layer metrics, plus the tracing overhead on verify.  Spans,
reports and a full results file go to
``.perfbench_out/<workload>-seed<seed>-trace<t>/``.

A failed operation is a FAIL verify check, a two-route line with
z >= 4, an inexact buy-and-hold replication or a raised exception.  Every
round repeats the same seeded operations on the same inputs, and the
gates require the repeats to give the same reports, so each checked
outcome (a verify check, a two-route line, a hedge, a set-up probe, ...)
is counted once per run: ``attempted`` is the number of distinct outcomes
and ``failed`` the number that failed in any repeat.  Both therefore
depend on the seed alone, not on how many rounds fit in the window; the
number of operation calls is printed beside them.  A correctness-gate
violation (non-identical same-seed reports, a non-finite number, an
uplift residual over its tolerance, inexact buy-and-hold) sets
``correct`` to false and exits 1.
"""

import os

# before numpy is imported anywhere: one BLAS thread, one process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
SETUP_REPEATS = 10
WARMUP_CALLS = 3
BUY_HOLD_PATHS = 200  # exactness does not depend on the path count
# Timings are scaled to a machine that runs one reference burst in this
# many seconds: a shared 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4
# takes 0.035-0.065 s as its speed drifts.
REFERENCE_S = 0.040
Z_LIMIT = 4.0
KNOWN_DEFECTS = {
    ("cont-cells", "restriction", "first_retained_quiet"): (
        "cli.verify_suite reads full.counts[:, 0], which on a continuous "
        "market is the total event count, not the count in cell 0"
    ),
}


def _perf():
    return time.perf_counter()


def _finite(doc) -> bool:
    if isinstance(doc, float):
        return math.isfinite(doc)
    if isinstance(doc, dict):
        return all(_finite(v) for v in doc.values())
    if isinstance(doc, (list, tuple)):
        return all(_finite(v) for v in doc)
    return True


def _p95(values):
    """The 95th percentile, nearest rank: the tail printed beside a timing."""
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def reference_burst() -> float:
    """Seconds for a fixed piece of work that does not touch upliftemm:
    small numpy calls and interpreter loops, the kinds of work the engine does."""
    import numpy as np

    rng = np.random.default_rng(12345)
    big = np.linspace(0.0, 1.0, 4096)
    acc = 0.0
    start = _perf()
    for i in range(2500):
        n = int(rng.poisson(4.0))
        times = np.sort(rng.uniform(0.0, 1.0, n))
        marks = np.log1p(0.1 * rng.standard_normal(n))
        acc += float(marks.sum()) + float(np.interp(0.5, big, big))
        for t in times.tolist():
            acc += t * t
        if i % 8 == 0:
            acc += float(np.exp(-big * (1 + i)).sum())
    return _perf() - start


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


class Session:
    """One workload run: generated inputs, outcome counts and gates."""

    def __init__(self, name, seed, out_dir, scale):
        from upliftemm.io import market_from_json, plan_from_json
        from upliftemm.pricing import Payoff, Strategy
        from workloads import WORKLOADS, generate

        w = WORKLOADS[name]
        self.pipeline_calls = max(1, round(w.pipeline_calls * scale))
        self.verify_paths = max(10, round(w.verify_paths * scale))
        self.route_paths = max(10, round(w.route_paths * scale))
        self.hedge_paths = max(10, round(w.hedge_paths * scale))
        gen = generate(name, seed)
        self.mc_seed = gen["mc_seed"]
        self.market_path = out_dir / "market.json"
        self.plan_path = out_dir / "plan.json"
        self.report_path = out_dir / "report.json"
        for path, doc in ((self.market_path, gen["market"]),
                          (self.plan_path, gen["plan"]),
                          (out_dir / "book.json", gen["book"]),
                          (out_dir / "hedge.json", gen["hedge"])):
            path.write_text(json.dumps(doc, indent=1))
        self.spec = market_from_json(gen["market"])
        self.plan = plan_from_json(gen["plan"])
        self.book = {k: Payoff.from_json(v) for k, v in gen["book"].items()}
        h = gen["hedge"]
        self.strategy = Strategy(
            holdings=tuple(h["holdings"]),
            jump_integrand=tuple(h["jump_integrand"]),
            v0=h["v0"],
        )
        self.hedge_payoff = Payoff.from_json(h["payoff"])
        self.buy_hold = Strategy(
            holdings=(1.0,) + (0.0,) * (self.spec.n - 1), v0=self.spec.s0[0]
        )
        self.emm = None
        self.first_report = None
        self.first_route = None
        self.first_hedge = None
        self.calls = 0
        # checked outcome -> passed in every repeat so far
        self.outcomes: dict[str, bool] = {}
        self.violations: list[str] = []
        self.setup_s: list[float] = []
        self.pipeline_s: list[float] = []
        self.verify_s: list[float] = []
        self.verify_untraced_s: list[float] = []
        self.two_route_s: list[float] = []
        self.hedge_s: list[float] = []
        self.reference_s: list[float] = []

    # -- bookkeeping -------------------------------------------------------------

    def _check(self, what: str, passed: bool) -> None:
        self.calls += 1
        self.outcomes[what] = self.outcomes.get(what, True) and passed

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> list[str]:
        return sorted(k for k, ok in self.outcomes.items() if not ok)

    def _violate(self, what: str) -> None:
        if what not in self.violations:
            self.violations.append(what)

    def _guard(self, what, fn):
        """Run one operation; an exception counts as a failed operation."""
        try:
            return fn()
        except Exception:  # any raise is a failed operation, not a crash
            self._check(f"{what}: exception", False)
            traceback.print_exc(file=sys.stderr)
            return None

    # -- operations ----------------------------------------------------------------

    def setup_probe(self, record=True):
        """A fresh process imports upliftemm, loads the generated JSON and
        runs the first reduce -> solve -> uplift; its wall time is set-up."""
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
               str(self.market_path), str(self.plan_path)]
        start = _perf()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        elapsed = _perf() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("set-up probe failed")
        self._check("setup", True)
        if record:
            self.setup_s.append(elapsed)

    def pipeline(self, n_calls, record=True):
        import upliftemm.uplift as uplift

        for _ in range(n_calls):
            start = _perf()
            emm, _, _ = uplift.build_uplifted_emm(self.spec, self.plan)
            ver = uplift.verify_uplift(emm, self.spec)
            elapsed = _perf() - start
            self.emm = emm
            if record:
                self.pipeline_s.append(elapsed)
            passed = ver.passed and math.isfinite(ver.max_residual)
            self._check("pipeline: verify_uplift residual", passed)
            if not passed:
                self._violate(f"uplift residual {ver.max_residual!r} over "
                              f"tolerance {ver.tolerance!r}")

    def verify(self, times):
        import upliftemm.cli as cli

        argv = ["verify", "-m", str(self.market_path), "-p", str(self.plan_path),
                "--paths", str(self.verify_paths), "--seed", str(self.mc_seed),
                "--out", str(self.report_path)]
        self.report_path.unlink(missing_ok=True)
        sink = io.StringIO()
        start = _perf()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        times.append(_perf() - start)
        if code not in (0, 1) or not self.report_path.exists():
            self._check(f"verify: exit code {code} without a report", False)
            return
        raw = self.report_path.read_bytes()
        if self.first_report is None:
            self.first_report = raw
        elif raw != self.first_report:
            self._violate("same-seed verify reports differ")
        report = json.loads(raw)
        if not _finite(report):
            self._violate("non-finite number in the verify report")
        for check, body in report["checks"].items():
            if "skipped" in body:
                continue
            if check == "uplift" and not body["passed"]:
                self._violate("verify: uplift residual over tolerance")
            bad = [ln["label"] for ln in body.get("lines", ()) if not ln["passed"]]
            self._check(f"verify.{check}" + (f" [{', '.join(bad)}]" if bad else ""),
                        body["passed"])

    def two_route(self):
        import upliftemm.pricing as pricing

        start = _perf()
        rep = pricing.two_route_check(
            self.spec, self.emm, self.book, self.route_paths, self.mc_seed
        )
        self.two_route_s.append(_perf() - start)
        doc = rep.to_json()
        if self.first_route is None:
            self.first_route = doc
        elif doc != self.first_route:
            self._violate("same-seed two-route reports differ")
        if not _finite(doc):
            self._violate("non-finite number in the two-route report")
        for line in rep.lines:
            self._check(f"two_route [{line.label}]", line.z < Z_LIMIT)

    def hedge(self):
        import upliftemm.pricing as pricing

        start = _perf()
        rep = pricing.hedging_error(
            self.spec, self.emm, self.strategy, self.hedge_payoff,
            self.hedge_paths, self.mc_seed,
        )
        self.hedge_s.append(_perf() - start)
        doc = rep.to_json()
        if self.first_hedge is None:
            self.first_hedge = doc
        elif doc != self.first_hedge:
            self._violate("same-seed hedging reports differ")
        self._check("hedge", True)
        if not _finite(doc):
            self._violate("non-finite number in the hedging report")

    def buy_and_hold(self):
        """Holding one unit of stock 0 replicates it exactly: error is 0."""
        import upliftemm.pricing as pricing
        from upliftemm.pricing import Payoff

        rep = pricing.hedging_error(
            self.spec, self.emm, self.buy_hold, Payoff.terminal(0),
            BUY_HOLD_PATHS, self.mc_seed,
        )
        exact = rep.error.estimate == 0.0 and rep.error.std_error == 0.0
        self._check("buy_and_hold: exact replication", exact)
        if not exact:
            self._violate(f"buy-and-hold error {rep.error.estimate!r} "
                          f"(se {rep.error.std_error!r}) is not exactly 0")

    def round(self, tracer, round_index, setup_due):
        """One session round.  Before each of verify, two_route and hedge
        come a set-up probe, if one is due, and a batch of pipeline calls,
        so every timing is sampled all through the window.  With a tracer,
        verify also runs untraced."""

        def phase(op, fn, traced=True):
            if tracer is not None:
                tracer.run_id, tracer.op = f"r{round_index}.{op}", op
                if traced:
                    tracer.install()
            try:
                self._guard(op, fn)
            finally:
                if tracer is not None and traced:
                    tracer.uninstall()

        steps = [("verify", lambda: self.verify(self.verify_s), True)]
        if tracer is not None:
            steps.insert(0, ("verify", lambda: self.verify(self.verify_untraced_s), False))
        steps += [("two_route", self.two_route, True), ("hedge", self.hedge, True)]
        for op, fn, traced in steps:
            if tracer is None:
                self.reference_s.append(reference_burst())
            if setup_due():
                phase("setup", self.setup_probe)
            phase("pipeline", lambda: self.pipeline(self.pipeline_calls))
            phase(op, fn, traced)


def run(args) -> int:
    from tracing import Tracer

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    session = Session(args.workload, args.seed, out_dir, args.scale)

    # warm-up: bytecode, caches, lazy imports and the engine, then the
    # exactness gate
    if not args.trace:
        session._guard("setup", lambda: session.setup_probe(record=False))
    session._guard("pipeline", lambda: session.pipeline(WARMUP_CALLS, record=False))
    if session.emm is None:
        print("error: the pipeline does not run on this workload", file=sys.stderr)
        return 1
    session._guard("buy_and_hold", session.buy_and_hold)
    reference_burst()

    tracer = Tracer() if args.trace else None
    start = _perf()
    deadline = start + args.seconds
    rounds, longest = 0, 0.0

    def setup_due():  # probes spread evenly over the first 80% of the window
        due = start + len(session.setup_s) * 0.8 * args.seconds / SETUP_REPEATS
        return not args.trace and len(session.setup_s) < SETUP_REPEATS and _perf() >= due

    # no round starts that the longest one so far would carry past the deadline
    while rounds < MIN_ROUNDS or _perf() + longest < deadline:
        round_start = _perf()
        session.round(tracer, rounds, setup_due)
        longest = max(longest, _perf() - round_start)
        rounds += 1
    if not args.trace:
        for _ in range(SETUP_REPEATS - len(session.setup_s)):
            session._guard("setup", session.setup_probe)

    def mean(xs):  # an operation that raised every time leaves no samples
        return statistics.fmean(xs) if xs else math.nan

    timed = {  # end-to-end timing -> (samples, scale to its unit, unit)
        "setup_s": (session.setup_s, 1.0, "s"),
        "uplift_ms": (session.pipeline_s, 1e3, "ms"),
        "verify_s": (session.verify_s, 1.0, "s"),
        "two_route_s": (session.two_route_s, 1.0, "s"),
        "hedge_s": (session.hedge_s, 1.0, "s"),
    }
    if args.trace:
        metrics, bases = tracer.layer_metrics(session.verify_paths)
        tracer.dump(out_dir / "spans.json")
    else:
        speed = REFERENCE_S / mean(session.reference_s)
        metrics = {name: (k * speed * mean(xs), unit)
                   for name, (xs, k, unit) in timed.items()}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        session._violate("non-finite metric")
    correct = not session.violations

    samples = {
        "rounds": rounds,
        "pipeline_calls": len(session.pipeline_s),
        "verify_calls": len(session.verify_s),
        "setup_runs": len(session.setup_s),
        "verify_paths": session.verify_paths,
        "route_paths": session.route_paths,
        "hedge_paths": session.hedge_paths,
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k}={v}" for k, v in samples.items()))
    summaries = {}
    for name, (value, unit) in metrics.items():
        note = f" ({bases[name]})" if args.trace and name in bases else ""
        if not args.trace and name in timed and timed[name][0]:
            xs, k, _ = timed[name]
            tail = _p95(xs)
            summaries[name] = {"n": len(xs), "wall_mean": k * mean(xs),
                               "wall_median": k * statistics.median(xs),
                               "wall_fastest": k * min(xs), "wall_p95": k * tail}
            note = (f" (wall: mean of {len(xs)} {k * mean(xs):.6g}, median "
                    f"{k * statistics.median(xs):.6g}, fastest {k * min(xs):.6g}, "
                    f"p95 {k * tail:.6g}, not gated)")
        print(f"{name:40s} {value:14.6g} {unit}{note}")
    if not args.trace:
        print(f"{'reference burst (wall, mean)':40s} {mean(session.reference_s):14.6g} s "
              f"({len(session.reference_s)} bursts; timings above are wall "
              f"times x {speed:.4f})")
    if args.trace:
        print(f"{'verify untraced / traced (mean)':40s} "
              f"{mean(session.verify_untraced_s):.4f} / "
              f"{mean(session.verify_s):.4f} s (difference not gated: mostly noise)")
    failed = len(session.failures)
    print(f"{'fail_frac':40s} {failed / session.attempted:14.6g} ratio "
          f"({failed} failed of {session.attempted} distinct checked outcomes, "
          f"from {session.calls} checked calls)")
    for what in session.failures:
        cause = next((why for (w, check, label), why in KNOWN_DEFECTS.items()
                      if w == args.workload and check in what and label in what), "")
        print(f"  failed: {what}" + (f"  (known defect: {cause})" if cause else ""))
    for v in session.violations:
        print(f"  CORRECTNESS GATE: {v}")

    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "samples": samples, "correct": correct,
        "attempted": session.attempted, "failed": failed,
        "checked_calls": session.calls, "outcomes": session.outcomes,
        "violations": session.violations,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "timing_summaries": summaries,
        "speed_factor": None if args.trace else speed,
        "raw_s": {"setup": session.setup_s, "pipeline": session.pipeline_s,
                  "verify": session.verify_s, "verify_untraced": session.verify_untraced_s,
                  "two_route": session.two_route_s, "hedge": session.hedge_s,
                  "reference": session.reference_s},
    }
    (out_dir / "results.json").write_text(json.dumps(results, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seconds, trace_modes, scale) -> int:
    """Run every workload in BENCHMARK.json, each in its own process, and
    check that each emits every metric named there with its unit."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    ok = True
    for w in bench["workloads"]:
        for trace in trace_modes:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                 "--seed", "1", "--seconds", str(seconds), "--trace", str(trace),
                 "--scale", str(scale)],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            got = json.loads(lines[-1])["metrics"] if lines else {}
            emitted = {k: v["unit"] for k, v in got.items()}
            good = proc.returncode == 0 and emitted == expected[trace]
            ok = ok and good
            print(f"== {w['name']} trace {trace}: {'ok' if good else 'MISMATCH'} "
                  f"({len(emitted)} metrics, exit {proc.returncode})\n")
            if not good:
                sys.stderr.write(proc.stderr[-2000:])
                for name in sorted(set(expected[trace]) ^ set(emitted)):
                    print(f"  differs: {name}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply path and call counts (smoke runs)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny runs of every workload in both modes")
    args = parser.parse_args(argv)

    if not (SRC / "upliftemm" / "__init__.py").is_file():
        print(f"error: no upliftemm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import upliftemm

    if Path(upliftemm.__file__).resolve().parent != SRC / "upliftemm":
        print("error: upliftemm imported from outside this checkout", file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", "reduced market has")
    if args.smoke:
        return run_all(1, (0, 1), 0.05)
    if args.workload == "all":
        return run_all(args.seconds, (args.trace,), args.scale)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
