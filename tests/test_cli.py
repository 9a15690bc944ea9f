import json
import math

import pytest

import upliftemm.blocks
import upliftemm.pricing
import upliftemm.stochastic
from upliftemm.blocks import _block_size
from upliftemm.cli import main
from upliftemm.io import dump_json, load_json, market_to_json
from upliftemm.densities import Density
from upliftemm.model import ContinuousJumpSpec, DiscreteJumpSpec, MarketSpec
from upliftemm.stochastic import (
    RngStreamSpec,
    SimulationContext,
    sample_marked_point_process,
    simulate_terminal,
)
from upliftemm.uplift import Emm

from conftest import make_three_stock_market, make_uniform_mark_market


@pytest.fixture
def workdir(tmp_path):
    dump_json(market_to_json(make_three_stock_market()), tmp_path / "market.json")
    dump_json({"retain": [0, 1], "neglect": [2]}, tmp_path / "plan.json")
    dump_json(
        {"type": "call", "asset": 0, "strike": 100.0, "discounted": True},
        tmp_path / "payoff.json",
    )
    return tmp_path


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestValidate:
    def test_ok_market(self, workdir, capsys):
        code = run("validate", "-m", workdir / "market.json")
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_violations_exit_one(self, workdir, tmp_path):
        spec = make_three_stock_market()
        bad = MarketSpec(
            horizon=1.0, s0=spec.s0, alpha=spec.alpha, rate=spec.rate,
            sigma=spec.sigma,
            jumps=DiscreteJumpSpec(
                intensities=[2.0, 1.0, 3.0],
                loadings=[
                    [0.1, -1.5, 0.2],
                    [0.05, 0.1, -0.15],
                    [-0.1, 0.3, 0.25],
                ],
            ),
        )
        dump_json(market_to_json(bad), tmp_path / "bad.json")
        assert run("validate", "-m", tmp_path / "bad.json") == 1

    def test_missing_file_is_config_error(self, tmp_path):
        assert run("validate", "-m", tmp_path / "nope.json") == 2

    def test_usage_error(self):
        assert run("validate") == 2


class TestSolve:
    def test_reports_minimum_norm_for_incomplete(self, workdir):
        out = workdir / "solve.json"
        assert run("solve", "-m", workdir / "market.json", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["tag"] == "IncompleteArbitrageFree"
        assert doc["nullspace_dim"] == 1

    def test_reduced_market_solution(self, workdir):
        # reduce, then solve the fictitious market file
        fict_path = workdir / "fict.json"
        assert run(
            "reduce", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--out", fict_path,
        ) == 0
        out = workdir / "solve.json"
        assert run("solve", "-m", fict_path, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["tag"] == "Complete"
        assert doc["theta"][0] == pytest.approx(0.5, abs=1e-10)
        assert doc["lambda_tilde"] == pytest.approx([1.5, 1.2], abs=1e-10)
        assert doc["residual"] < 1e-10


class TestReduce:
    @pytest.mark.parametrize("keep", [[5], [0, 0], [-1]], ids=["range", "twice", "negative"])
    @pytest.mark.parametrize("plan", [
        {"retain": [0, 1], "neglect": [2]},
        {"cells": [[-0.5, 0.5]], "neglect_remainder": False},
    ], ids=["discrete", "continuous"])
    def test_bad_brownian_columns_exit_one(self, tmp_path, capsys, plan, keep):
        spec = make_three_stock_market() if "retain" in plan else make_uniform_mark_market()
        dump_json(market_to_json(spec), tmp_path / "market.json")
        dump_json({**plan, "keep_brownians": keep}, tmp_path / "plan.json")
        code = run("reduce", "-m", tmp_path / "market.json", "-p", tmp_path / "plan.json")
        assert code == 1
        assert "error: ShapeMismatch: keep_brownians out of range" in capsys.readouterr().err


class TestRoundTrips:
    def test_reduce_output_validates(self, workdir):
        fict_path = workdir / "fict.json"
        run("reduce", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--out", fict_path)
        assert run("validate", "-m", fict_path) == 0

    def test_uplift_output_prices(self, workdir):
        emm_path = workdir / "emm.json"
        assert run(
            "uplift", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--out", emm_path,
        ) == 0
        doc = json.loads(emm_path.read_text())
        assert doc["verify"]["passed"]
        out = workdir / "price.json"
        assert run(
            "price", "-m", workdir / "market.json", "-e", emm_path,
            "--payoff", workdir / "payoff.json",
            "--paths", "2000", "--seed", "5", "--out", out,
        ) == 0
        rep = json.loads(out.read_text())
        assert rep["n_paths"] == 2000 and rep["estimate"] > 0

    def test_incomplete_uplift_exits_one(self, workdir, capsys):
        dump_json({"retain": [0], "neglect": [1, 2]}, workdir / "short.json")
        with pytest.warns(UserWarning):
            code = run(
                "uplift", "-m", workdir / "market.json", "-p", workdir / "short.json"
            )
        assert code == 1
        assert "NotComplete" in capsys.readouterr().err


class TestSimulate:
    def test_jsonl_records(self, workdir):
        out = workdir / "paths.jsonl"
        assert run(
            "simulate", "-m", workdir / "market.json", "--paths", "5",
            "--seed", "9", "--out", out,
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        rec = json.loads(lines[0])
        assert set(rec) == {"stream", "events", "terminal", "z"}
        assert len(rec["terminal"]) == 3

    def test_negative_path_count_is_config_error(self, workdir, capsys):
        out = workdir / "paths.jsonl"
        assert run(
            "simulate", "-m", workdir / "market.json", "--paths", "-3", "--out", out,
        ) == 2
        assert "--paths must be at least 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_paths_write_an_empty_output(self, workdir, capsys):
        out = workdir / "paths.jsonl"
        assert run(
            "simulate", "-m", workdir / "market.json", "--paths", "0", "--out", out,
        ) == 0
        assert out.read_text() == ""
        assert "wrote 0 paths" in capsys.readouterr().out

    def test_measure_flag_changes_law_not_schema(self, workdir):
        emm_path = workdir / "emm.json"
        run("uplift", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--out", emm_path)
        out = workdir / "q.jsonl"
        assert run(
            "simulate", "-m", workdir / "market.json", "--paths", "3",
            "--seed", "9", "--measure", emm_path, "--out", out,
        ) == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_density_with_measure_file_is_usage_error(self, workdir, capsys):
        emm_path = workdir / "emm.json"
        run("uplift", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--out", emm_path)
        capsys.readouterr()
        out = workdir / "both.jsonl"
        assert run(
            "simulate", "-m", workdir / "market.json", "--paths", "3",
            "--seed", "9", "--measure", emm_path, "--density", emm_path,
            "--out", out,
        ) == 2
        assert "--density" in capsys.readouterr().err
        assert not out.exists()

    def test_density_along_physical_paths(self, workdir):
        emm_path = workdir / "emm.json"
        run("uplift", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--out", emm_path)
        out = workdir / "pz.jsonl"
        assert run(
            "simulate", "-m", workdir / "market.json", "--paths", "3",
            "--seed", "9", "--measure", "physical", "--density", emm_path,
            "--out", out,
        ) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 3
        assert all(rec["z"] > 0 for rec in records)

    @pytest.mark.parametrize("measure", ["p", "q", "pz"])
    @pytest.mark.parametrize("market, plan", [
        (make_three_stock_market, {"retain": [0, 1], "neglect": [2]}),
        (make_uniform_mark_market, {"cells": [[-0.5, 0.0]], "neglect_remainder": True}),
    ], ids=["discrete", "continuous"])
    def test_records_match_the_sample_and_the_sampler(
        self, tmp_path, monkeypatch, market, plan, measure
    ):
        # a few paths per block, so the records cross block boundaries
        monkeypatch.setattr(upliftemm.blocks, "_SEGMENT_BUDGET", 400)
        spec, n_paths, seed, times = market(), 50, 9, [0.5, 1.0]
        dump_json(market_to_json(spec), tmp_path / "market.json")
        dump_json(plan, tmp_path / "plan.json")
        run("uplift", "-m", tmp_path / "market.json", "-p", tmp_path / "plan.json",
            "--out", tmp_path / "emm.json")
        emm = Emm.from_json(load_json(tmp_path / "emm.json"))
        flag, kw = {
            "p": ([], {}),
            "q": (["--measure", tmp_path / "emm.json"], {"measure_emm": emm}),
            "pz": (["--density", tmp_path / "emm.json"], {"density_emm": emm}),
        }[measure]
        assert _block_size(SimulationContext(spec, times, **kw)) < n_paths
        out = tmp_path / "paths.jsonl"
        assert run(
            "simulate", "-m", tmp_path / "market.json", "--paths", n_paths,
            "--seed", seed, "--times", "0.5,1.0", *flag, "--out", out,
        ) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        sample = simulate_terminal(spec, times, n_paths, seed, **kw)
        ev_times, ev_marks = sample_marked_point_process(
            spec.jumps, spec.horizon, RngStreamSpec(seed, 0),
            measure_emm=kw.get("measure_emm"), n_streams=n_paths,
        )
        assert [rec["stream"] for rec in records] == list(range(n_paths))
        assert sum(len(rec["events"]) for rec in records) > n_paths
        for k, rec in enumerate(records):
            assert rec["terminal"] == sample.stocks[k, :, -1].tolist(), k
            assert rec["z"] == (None if sample.z is None else sample.z[k, -1]), k
            assert rec["events"] == [
                [t, m] for t, m in zip(ev_times[k].tolist(), ev_marks[k].tolist())
            ], k

    def test_stdout_and_out_file_give_the_same_text(self, workdir, monkeypatch, capsys):
        # written block by block: the same lines to either sink, whatever
        # the block size
        args = ["simulate", "-m", workdir / "market.json", "--paths", 40, "--seed", 9]
        texts = []
        for budget in (300, 100):
            monkeypatch.setattr(upliftemm.blocks, "_SEGMENT_BUDGET", budget)
            assert run(*args, "--out", workdir / "paths.jsonl") == 0
            texts.append((workdir / "paths.jsonl").read_text())
            capsys.readouterr()
            assert run(*args) == 0
            texts.append(capsys.readouterr().out)
        assert _block_size(SimulationContext(make_three_stock_market(), [1.0])) < 20
        assert len(set(texts)) == 1 and texts[0].endswith("}\n")
        assert [json.loads(line)["stream"] for line in texts[0].splitlines()] == list(range(40))


class TestVerifySuite:
    def test_pass_and_byte_identical_across_block_sizes(self, workdir, monkeypatch):
        args = [
            "verify", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--paths", "10000", "--seed", "42",
        ]
        out1, out2 = workdir / "r1.json", workdir / "r2.json"
        assert run(*args, "--out", out1) == 0
        # a few paths per block instead of a few hundred
        monkeypatch.setattr(upliftemm.blocks, "_SEGMENT_BUDGET", 100)
        assert run(*args, "--out", out2) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        doc = json.loads(b1)
        assert doc["aggregate"] == "PASS"
        assert set(doc["checks"]) == {
            "uplift", "restriction", "projection", "martingale", "density_mass",
        }

    def test_threads_flag_is_usage_error(self, workdir):
        assert run(
            "verify", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--paths", "100", "--threads", "2",
        ) == 2

    def test_check_filter(self, workdir):
        out = workdir / "only.json"
        assert run(
            "verify", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--paths", "4000", "--seed", "1", "--checks", "martingale",
            "--out", out,
        ) == 0
        doc = json.loads(out.read_text())
        assert list(doc["checks"]) == ["martingale"]

    def test_unknown_check_is_usage_error(self, workdir):
        assert run(
            "verify", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--checks", "nonsense",
        ) == 2

    @pytest.mark.parametrize("paths", [0, 1])
    def test_fewer_than_two_paths_is_config_error(self, workdir, paths, capsys):
        # no standard error: 0 paths wrote NaN tokens, 1 path passed with z 0
        out = workdir / "report.json"
        assert run(
            "verify", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--paths", paths, "--out", out,
        ) == 2
        assert not out.exists()
        assert "--paths must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("paths", [0, 1])
    def test_price_with_fewer_than_two_paths_is_config_error(
        self, workdir, paths, capsys
    ):
        # no standard error: 0 paths printed a NaN estimate, 1 path std_error 0
        emm_path = workdir / "emm.json"
        run("uplift", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--out", emm_path)
        out = workdir / "price.json"
        assert run(
            "price", "-m", workdir / "market.json", "-e", emm_path,
            "--payoff", workdir / "payoff.json", "--paths", paths, "--out", out,
        ) == 2
        assert not out.exists()
        assert "--paths must be at least 2" in capsys.readouterr().err

    def test_env_var_overrides_default_seed(self, workdir, monkeypatch):
        monkeypatch.setenv("UPLIFTEMM_SEED", "0x123")
        emm_path = workdir / "emm.json"
        run("uplift", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--out", emm_path)
        out = workdir / "price_env.json"
        assert run(
            "price", "-m", workdir / "market.json", "-e", emm_path,
            "--payoff", workdir / "payoff.json", "--paths", "500", "--out", out,
        ) == 0
        assert json.loads(out.read_text())["seed"] == 0x123

    def test_bad_env_seed_is_config_error_only_where_read(self, workdir, monkeypatch):
        emm_path = workdir / "emm.json"
        run("uplift", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--out", emm_path)
        monkeypatch.setenv("UPLIFTEMM_SEED", "abc")
        assert run("validate", "-m", workdir / "market.json") == 0
        assert run(
            "price", "-m", workdir / "market.json", "-e", emm_path,
            "--payoff", workdir / "payoff.json", "--paths", "500",
        ) == 2

    def test_env_seed_is_read_at_each_call(self, workdir, monkeypatch):
        emm_path = workdir / "emm.json"
        run("uplift", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--out", emm_path)
        out = workdir / "price_env.json"
        for seed in ("7", "0x2a"):
            monkeypatch.setenv("UPLIFTEMM_SEED", seed)
            assert run(
                "price", "-m", workdir / "market.json", "-e", emm_path,
                "--payoff", workdir / "payoff.json", "--paths", "500", "--out", out,
            ) == 0
            assert json.loads(out.read_text())["seed"] == int(seed, 0)

    def test_payoff_on_a_missing_asset_exits_one_unsimulated(
        self, workdir, monkeypatch, capsys
    ):
        emm_path = workdir / "emm.json"
        run("uplift", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--out", emm_path)
        dump_json({"type": "call", "asset": 7, "strike": 100}, workdir / "bad.json")

        def simulated(*args, **kwargs):
            raise AssertionError("simulated before the payoff was checked")

        monkeypatch.setattr(upliftemm.pricing, "simulate_terminal", simulated)
        capsys.readouterr()
        assert run(
            "price", "-m", workdir / "market.json", "-e", emm_path,
            "--payoff", workdir / "bad.json", "--paths", "500",
        ) == 1
        assert "error: ShapeMismatch: payoff reads asset 7" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payoff, needs",
        [
            ({"type": "call", "asset": 0}, "payoff kind 'call' needs strike"),
            ({"type": "indicator_count", "count": 0}, "payoff kind 'indicator_count' needs driver"),
            ({"type": "bogus", "asset": 0}, "unknown payoff kind 'bogus'"),
            ({"type": "linear", "terms": [{"weight": 1, "type": "terminal"}]},
             "payoff kind 'terminal' needs asset"),
            ({"type": "call", "asset": "x", "strike": 1},
             "payoff asset must be an integer, got 'x'"),
            ({"type": "call", "asset": 0, "strike": "a"},
             "payoff strike must be a finite number, got 'a'"),
            ({"type": "call", "asset": 1.0, "strike": 1},
             "payoff asset must be an integer, got 1.0"),
            ({"type": "terminal", "asset": True}, "payoff asset must be an integer, got True"),
            ({"type": "indicator_count", "driver": 0, "count": 1.5},
             "payoff count must be an integer, got 1.5"),
            ({"type": "indicator_count", "driver": 0, "count": -1},
             "payoff count must be at least 0, got -1"),
            ({"type": "call", "asset": 0, "strike": math.nan},
             "payoff strike must be a finite number, got nan"),
            ({"type": "call", "asset": 0, "strike": 100.0, "discounted": "no"},
             "payoff discounted must be true or false, got 'no'"),
            ({"type": "linear", "terms": [{"weight": "nan", "type": "terminal", "asset": 0}]},
             "payoff weight must be a finite number, got 'nan'"),
        ],
        ids=["no-strike", "no-driver", "unknown-kind", "term-without-asset",
             "string-asset", "string-strike", "float-asset", "bool-asset",
             "fractional-count", "negative-count", "nan-strike", "string-discounted",
             "nan-string-weight"],
    )
    def test_malformed_payoff_is_config_error_unsimulated(
        self, workdir, monkeypatch, capsys, payoff, needs
    ):
        emm_path = workdir / "emm.json"
        run("uplift", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--out", emm_path)
        (workdir / "bad.json").write_text(json.dumps(payoff))  # NaN as JSON's NaN

        def simulated(*args, **kwargs):
            raise AssertionError("simulated before the payoff was checked")

        monkeypatch.setattr(upliftemm.stochastic, "_blocks", simulated)
        capsys.readouterr()
        assert run(
            "price", "-m", workdir / "market.json", "-e", emm_path,
            "--payoff", workdir / "bad.json", "--paths", "500",
        ) == 2
        assert f"config error: {needs}" in capsys.readouterr().err

    def test_tampered_emm_fails_suite(self, workdir):
        emm_path = workdir / "emm.json"
        run("uplift", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "--out", emm_path)
        doc = json.loads(emm_path.read_text())
        doc["lambda_tilde"][2] = {"const": 3.1}  # perturb the neglected rate
        dump_json(doc, workdir / "tampered.json")
        out = workdir / "tampered_report.json"
        code = run(
            "verify", "-m", workdir / "market.json", "-p", workdir / "plan.json",
            "-e", workdir / "tampered.json",
            "--paths", "4000", "--seed", "3", "--checks", "uplift",
            "--out", out,
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["aggregate"] == "FAIL"
        assert not report["checks"]["uplift"]["passed"]


def _black_scholes_doc():
    return {"horizon": 1.0, "rate": 0.03, "brownians": 1,
            "stocks": [{"s0": 100.0, "alpha": 0.08, "sigma": [0.2]}], "jumps": None}


class TestNoDrivers:
    # a market without jumps or without Brownians has one representation,
    # so every command runs on it as on any other market
    def _verify(self, tmp_path, market_doc, plan_doc, capsys):
        dump_json(market_doc, tmp_path / "m.json")
        dump_json(plan_doc, tmp_path / "p.json")
        code = run("verify", "-m", tmp_path / "m.json", "-p", tmp_path / "p.json",
                   "--paths", 2000, "--seed", 3)
        return code, capsys.readouterr().out

    def test_black_scholes_verifies_with_empty_plan(self, tmp_path, capsys):
        code, out = self._verify(tmp_path, _black_scholes_doc(), {}, capsys)
        assert code == 0
        assert "aggregate        PASS" in out
        assert "projection       PASS" in out

    def test_black_scholes_uplift_writes_null_intensities(self, tmp_path):
        dump_json(_black_scholes_doc(), tmp_path / "m.json")
        dump_json({}, tmp_path / "p.json")
        out = tmp_path / "emm.json"
        assert run("uplift", "-m", tmp_path / "m.json", "-p", tmp_path / "p.json",
                   "--out", out) == 0
        assert json.loads(out.read_text())["lambda_tilde"] is None

    def test_empty_discrete_jumps_simulate(self, tmp_path):
        doc = _black_scholes_doc()
        doc["jumps"] = {"type": "discrete", "intensities": [], "loadings": [[]]}
        dump_json(doc, tmp_path / "m.json")
        out = tmp_path / "paths.jsonl"
        assert run("simulate", "-m", tmp_path / "m.json", "--paths", 5, "--seed", 7,
                   "--out", out) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["stream"] for r in records] == list(range(5))
        assert all(r["events"] == [] for r in records)

    def test_remainder_only_plan_verifies(self, tmp_path, capsys):
        spec = MarketSpec(
            horizon=1.0, s0=[1.0], alpha=[0.05], rate=0.02, sigma=[[0.2]],
            jumps=ContinuousJumpSpec(
                density=Density("truncnorm", (-0.5, 0.5), {"mu": 0.0, "sigma": 0.3}),
                total_intensity=4.0,
            ),
        )
        plan = {"cells": [], "neglect_remainder": True}
        code, out = self._verify(tmp_path, market_to_json(spec), plan, capsys)
        assert code == 0
        assert "restriction      PASS" in out and "aggregate        PASS" in out
        # the reduced market has no driver, written as a market without jumps
        fict = tmp_path / "fict.json"
        assert run("reduce", "-m", tmp_path / "m.json", "-p", tmp_path / "p.json",
                   "--out", fict) == 0
        assert json.loads(fict.read_text())["market"]["jumps"] is None

    def test_pure_jump_market_verifies(self, tmp_path, capsys):
        spec = MarketSpec(horizon=1.0, s0=[1.0], alpha=[0.05], rate=0.0, sigma=[],
                          jumps=DiscreteJumpSpec([2.0], [[0.1]]))
        doc = market_to_json(spec)
        assert doc["brownians"] == 0 and doc["stocks"][0]["sigma"] == []
        code, out = self._verify(tmp_path, doc, {"retain": [0]}, capsys)
        assert code == 0
        assert "aggregate        PASS" in out

    def test_an_infinite_z_is_written_as_strict_json(self, tmp_path, capsys):
        # a pure-jump market whose driver almost never fires, under a measure
        # that moves its intensity: every path's density is the same, so the
        # density-mass check's standard error is 0 and its z is infinite
        market = {"horizon": 1.0, "rate": 0.0, "brownians": 0,
                  "stocks": [{"s0": 100.0, "alpha": -0.05, "sigma": []}],
                  "jumps": {"type": "discrete", "intensities": [1e-9],
                            "loadings": [[0.5]]}}
        dump_json(market, tmp_path / "m.json")
        dump_json({"retain": [0]}, tmp_path / "p.json")
        dump_json({"theta": [], "lambda_tilde": [0.002]}, tmp_path / "emm.json")
        out = tmp_path / "r.json"
        assert run("verify", "-m", tmp_path / "m.json", "-p", tmp_path / "p.json",
                   "-e", tmp_path / "emm.json", "--checks", "density_mass",
                   "--paths", 100, "--seed", 1, "--out", out) == 1

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        report = json.loads(out.read_text(), parse_constant=refuse)
        (mass,) = report["checks"]["density_mass"]["lines"]
        assert mass["z"] == "Infinity" and mass["a"]["std_error"] == 0.0
        assert report["aggregate"] == "FAIL"

    def test_measure_without_intensities_is_refused_on_a_jump_market(self, workdir, capsys):
        # null lambda_tilde reads as no driver, which a three-driver market
        # cannot simulate under: a typed error, not a market without jumps
        emm = workdir / "emm.json"
        dump_json({"theta": [0.0], "lambda_tilde": None}, emm)
        assert run("simulate", "-m", workdir / "market.json", "--paths", 3,
                   "--measure", emm) == 1
        assert "ShapeMismatch" in capsys.readouterr().err
