"""Command-line interface: exit codes, artifacts, and reproducibility."""

import ast
import dataclasses
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import mpclab
from mpclab import _assembly, cli, engine, ftocp, kkt, model, presets, regret


@pytest.fixture
def runner():
    return CliRunner()


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def assert_written(out, command, names):
    """Exactly the artifacts ``names`` are in ``out``, each with its header
    lines."""
    assert sorted(os.listdir(out)) == sorted(names)
    for name in names:
        body = read(out / name).decode()
        if name.endswith(".json"):
            headers = json.loads(body)["_headers"]
        else:
            headers = [ln[2:] for ln in body.splitlines()[:2]]
        assert headers[0] == f"command={command}"
        assert len(headers[1]) == len("config_hash=") + 16
        assert headers[1].startswith("config_hash=")


class TestNumberParsing:
    def test_fractions_and_decimals(self):
        assert cli.parse_number("2/35") == pytest.approx(2.0 / 35.0)
        assert cli.parse_number("0.25") == 0.25
        assert cli.parse_number("3") == 3.0

    def test_invalid_number(self):
        with pytest.raises(Exception):
            cli.parse_number("not-a-number")


class TestSolve:
    def test_writes_artifacts(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["solve", "--preset", "pendulum",
                                       "--T", "10", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "total_cost=" in res.output
        traj = tmp_path / "solve_trajectory.csv"
        summary = tmp_path / "solve_summary.json"
        assert traj.exists() and summary.exists()
        assert read(traj).startswith(b"# command=solve")
        doc = json.loads(read(summary))
        assert "config_hash=" in doc["_headers"][1]
        assert doc["dynamics_residual"] <= 1e-8

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["mpc", "--preset", "disturbance", "--T", "12", "--k", "4",
                "--noise-scale", "0.1"]
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            res = runner.invoke(cli.main, args + ["--out", str(out)])
            assert res.exit_code == 0, res.output
            outs.append(out)
        for name in ("mpc_trajectory.csv", "mpc_report.json"):
            assert read(outs[0] / name) == read(outs[1] / name)

    def test_mpc_report_carries_worst_kkt_residual(self, runner, tmp_path):
        # the run's worst window residual, at the rounding floor
        res = runner.invoke(cli.main, ["mpc", "--preset", "tracking-rand",
                                       "--T", "24", "--k", "8",
                                       "--noise-scale", "0.1",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        doc = json.loads(read(tmp_path / "mpc_report.json"))
        assert 0.0 < doc["kkt_residual_max"] <= 1e-9


class TestConfigErrors:
    def test_requires_exactly_one_source(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["solve", "--out", str(tmp_path)])
        assert res.exit_code == 2
        res = runner.invoke(cli.main, [
            "solve", "--preset", "grid", "--instance", "x.json",
            "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_unknown_preset(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["solve", "--preset", "nope",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_bad_window_length(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["mpc", "--preset", "disturbance",
                                       "--T", "10", "--k", "0",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["inventory-suite", "--eps", "1e400"],
        ["mpc", "--preset", "disturbance", "--noise-scale", "1e400"],
        ["mpc", "--preset", "disturbance", "--noise-scale", "-1e400"]])
    def test_number_beyond_the_float_range_exits_2(self, runner, tmp_path,
                                                   args):
        # the exact fraction parses, and its float() overflows
        res = runner.invoke(cli.main, args + ["--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert f"cannot parse number {args[-1]!r}" in res.output

    @pytest.mark.parametrize("command", ["mpc", "sweep-noise"])
    def test_negative_noise_scale(self, runner, tmp_path, command):
        res = runner.invoke(cli.main, [command, "--preset", "disturbance",
                                       "--T", "10", "--k", "4",
                                       "--noise-scale", "-1",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "need --noise-scale >= 0" in res.output

    def test_chain_length_below_one(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["inventory-suite", "--p", "4",
                                       "--p", "0", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "chain length p must be an integer >= 1, not 0" in res.output

    @pytest.mark.parametrize("preset", ["inventory-two-sided",
                                        "inventory-one-sided"])
    @pytest.mark.parametrize("T", ["0", "-1"])
    def test_chain_horizon_below_one(self, runner, tmp_path, preset, T):
        res = runner.invoke(cli.main, ["solve", "--preset", preset, "--T", T,
                                       "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "horizon T must be an integer >= 1" in res.output

    @pytest.mark.parametrize("args,desc", [
        (["solve", "--preset", "pendulum", "--seed", "-1"], None),
        (["mpc", "--preset", "inventory-two-sided", "--seed", "-1",
          "--noise-scale", "0.1"], None),
        (["sweep-horizon", "--preset", "inventory-two-sided", "--T", "8",
          "--k", "4", "--seed", "-1"], None),
        (["sweep-horizon", "--preset", "pendulum", "--T", "10", "--k", "5",
          "--seed", "-1"], None),
        (["constants", "--preset", "pendulum", "--seed", "-3", "--k", "5"],
         None),
        # the grid preset draws its truth from the seed
        (["mpc", "--preset", "grid", "--T", "10", "--seed", "-1"], None),
        (["certify-decay", "--preset", "pendulum", "--T", "10", "--seed",
          "-1"], None),
        (["constants"], {"kind": "pendulum", "T": 10, "seed": 2.5}),
        (["solve"], {"kind": "disturbance", "T": 10, "seed": True})],
        ids=["solve", "chain-mpc", "chain-sweep", "sweep", "constants",
             "grid-mpc", "certify-decay", "file-float", "file-bool"])
    def test_invalid_seed_exits_2(self, runner, tmp_path, args, desc):
        # the seed is checked before any generator reads it, on every
        # command, from an option or from an instance file
        if desc is not None:
            path = tmp_path / "inst.json"
            path.write_text(json.dumps(desc))
            args = args + ["--instance", str(path)]
        res = runner.invoke(cli.main, args + ["--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert "seed must be an integer >= 0" in res.output
        assert not (tmp_path / "out").exists()

    def test_chain_of_one_step_runs(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["mpc", "--preset",
                                       "inventory-two-sided", "--T", "1",
                                       "--k", "1", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert res.output == "regret=0\n"

    @pytest.mark.parametrize("preset", ["inventory-two-sided",
                                        "inventory-one-sided"])
    @pytest.mark.parametrize("command", ["certify-decay", "constants"])
    def test_chain_rejected_for_decay_certification(self, runner, tmp_path,
                                                    command, preset):
        # the saddle-matrix analyses admit linear-quadratic systems alone
        res = runner.invoke(cli.main, [command, "--preset", preset,
                                       "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert ("saddle-matrix analysis needs a linear-quadratic system"
                in res.output)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("desc", [
        # a chain of horizon True used to index its truth by a bool, and
        # its chain law died on the resulting array with a TypeError
        {"kind": "inventory-two-sided", "T": True},
        {"kind": "inventory-one-sided", "T": True},
        {"kind": "tracking-rand", "T": 24.0},
        {"kind": "tracking-rand", "n": 1.5}])
    def test_count_that_is_not_an_integer_exits_2(self, runner, tmp_path,
                                                  desc):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(desc))
        res = runner.invoke(cli.main, ["mpc", "--instance", str(path), "--k",
                                       "1", "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert "must be an integer" in res.output


# the values an instance file's keyword takes in the exit-code property test
ODD_VALUES = st.sampled_from([-1, 0, 1, 3, True, False, 2.0, 2.5, "3", None,
                              [3], float("nan")])


@st.composite
def instance_descriptions(draw):
    """A preset kind, with a subset of the preset's keywords set to odd
    values, and T always set: to an integer in 1..6 or an odd value."""
    kind = draw(st.sampled_from(sorted(presets.PRESETS)))
    names = sorted(set(inspect.signature(presets.PRESETS[kind]).parameters)
                   - {"T"})
    desc = {"kind": kind,
            "T": draw(st.one_of(st.integers(1, 6), ODD_VALUES))}
    for name in draw(st.lists(st.sampled_from(names), unique=True)):
        desc[name] = draw(ODD_VALUES)
    return desc


@settings(max_examples=30, deadline=None)
@given(desc=instance_descriptions(),
       args=st.sampled_from([["mpc", "--k", "1"], ["solve"],
                             ["sweep-noise", "--k", "1"], ["certify-decay"],
                             ["constants", "--k", "1"]]))
@example(desc={"kind": "inventory-two-sided", "T": True},
         args=["mpc", "--k", "1"])
def test_every_instance_file_exits_with_a_documented_code(desc, args):
    # click reads an uncaught exception as exit 1, which no failure of a
    # command is documented to give
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "inst.json"
        path.write_text(json.dumps(desc))
        res = CliRunner().invoke(cli.main, args + [
            "--instance", str(path), "--out", str(pathlib.Path(tmp) / "out")])
    assert res.exit_code in (0, 2, 3, 4), (res.output, res.exception)


class TestSolverFailures:
    def test_infeasible_chain_run_exits_3(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["mpc", "--preset",
                                       "inventory-two-sided", "--k", "1",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert "solver failure" in res.output

    @pytest.mark.parametrize("args", [
        ["mpc", "--preset", "pendulum", "--T", "20", "--k", "2"],
        ["mpc", "--preset", "tracking-rand", "--T", "20", "--k", "1"],
        ["constants", "--preset", "pendulum", "--T", "20", "--k", "2",
         "--mode", "measured"]])
    def test_unreachable_pinned_window_exits_3(self, runner, tmp_path, args):
        res = runner.invoke(cli.main, args + ["--out", str(tmp_path)])
        assert res.exit_code == 3
        assert "solver failure: pinned terminal unreachable" in res.output

    @pytest.mark.parametrize("error", [ftocp.Infeasible, ftocp.SingularKKT,
                                       np.linalg.LinAlgError,
                                       FloatingPointError])
    def test_every_solver_error_exits_3(self, runner, tmp_path, monkeypatch,
                                        error):
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(engine, "solve_opt", fail)
        res = runner.invoke(cli.main, ["solve", "--preset", "pendulum",
                                       "--T", "10", "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert "solver failure: boom" in res.output


    def test_non_finite_block_norm_exits_3(self, runner, tmp_path,
                                           monkeypatch):
        # an overflowed block of the inverse reaches the norm kernel, which
        # fails the run instead of certifying on a NaN
        norms = kkt._spectral_norms
        monkeypatch.setattr(kkt, "_spectral_norms",
                            lambda mats: norms(mats + np.inf))
        res = runner.invoke(cli.main, ["certify-decay", "--preset",
                                       "tracking-rand", "--T", "10",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert "solver failure: non-finite matrix entry" in res.output


class TestChainForecastPins:
    # forecasts of the +-0.8 stock targets with noise above 0.2 lie outside
    # the state interval [-1, 1]; the pin is clipped back into it
    @pytest.mark.parametrize("args", [
        ["sweep-noise", "--preset", "inventory-one-sided"],
        ["mpc", "--preset", "inventory-one-sided", "--k", "2", "--T", "13",
         "--noise-scale", "0.3"]])
    def test_noisy_chain_runs_succeed(self, runner, tmp_path, args):
        res = runner.invoke(cli.main, args + ["--out", str(tmp_path)])
        assert res.exit_code == 0, res.output


class TestInstanceFiles:
    def test_json_instance_description(self, runner, tmp_path):
        desc = tmp_path / "inst.json"
        desc.write_text(json.dumps({"kind": "disturbance", "T": 10,
                                    "seed": 3}))
        res = runner.invoke(cli.main, ["solve", "--instance", str(desc),
                                       "--out", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("desc,args", [
        # the declared bounds of the pendulum hold over M in [0.4, 0.6]
        ({"kind": "pendulum", "M": 0}, ["constants", "--T", "20", "--k", "8"]),
        # a system with no state, or with no action
        ({"kind": "grid", "n_nodes": 0}, ["solve"]),
        ({"kind": "tracking-rand", "m": 0}, ["solve"])])
    def test_instance_outside_the_declared_bounds_exits_2(
            self, runner, tmp_path, desc, args):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(desc))
        res = runner.invoke(cli.main, args + ["--instance", str(path),
                                              "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "out").exists()

    def test_missing_instance_file(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["solve", "--instance",
                                       str(tmp_path / "absent.json"),
                                       "--out", str(tmp_path)])
        assert res.exit_code == 2


class TestSweeps:
    def test_sweep_horizon(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["sweep-horizon", "--preset",
                                       "disturbance", "--T", "10",
                                       "--k", "5", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "sweep_horizon.csv").exists()
        assert "slope=" in res.output
        doc = json.loads(read(tmp_path / "sweep_horizon.json"))
        assert 0.0 <= doc["kkt_residual_max"] <= 1e-8

    def test_chain_sweep_computes_each_backward_step_once(
            self, runner, tmp_path, monkeypatch):
        # this sweep builds 145 chain laws (truth, windows, optimum) and
        # solves 145 windows; they hold 29 distinct windows, 52 distinct
        # (window, start) pairs and, in their 570 backward steps, 22
        # distinct inputs: each is built, solved or computed once per call,
        # and nothing carries over from one call to the next
        calls = {"_chain_step": 0, "_chain_pieces": 0, "_duals": 0}

        def counted(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(owner, name, wrapper)
        counted(ftocp, "_chain_step")
        counted(ftocp, "_chain_pieces")
        counted(ftocp.ChainLaw, "_duals")
        args = ["sweep-horizon", "--preset", "inventory-two-sided", "--T",
                "16", "--k", "10", "--out"]
        outputs = []
        for run in ("first", "second"):
            calls.update(dict.fromkeys(calls, 0))
            res = runner.invoke(cli.main, args + [str(tmp_path / run)])
            assert res.exit_code == 0, res.output
            assert calls == {"_chain_step": 22, "_chain_pieces": 29,
                             "_duals": 52}
            outputs.append([read(tmp_path / run / name) for name in
                            ("sweep_horizon.csv", "sweep_horizon.json")])
        assert outputs[0] == outputs[1]

    def test_sweep_noise_at_zero_noise_fits_nothing(self, runner, tmp_path):
        # every scale is 0, so no regret is fitted: the fit is reported
        # missing, not as slope 0 with a perfect r2
        res = runner.invoke(cli.main, ["sweep-noise", "--preset",
                                       "disturbance", "--noise-scale", "0",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert res.output.strip() == "loglog_slope=none r2=none"
        doc = json.loads(read(tmp_path / "sweep_noise.json"))
        assert doc["slope"] is None and doc["r2"] is None

    def test_sweep_horizon_starts_at_reachable_window(self, runner,
                                                       tmp_path):
        # pendulum: n=4, m=1, so windows shorter than 4 cannot reach their
        # pinned targets and the sweep starts at k=4
        args = ["sweep-horizon", "--preset", "pendulum", "--T", "12",
                "--out", str(tmp_path)]
        res = runner.invoke(cli.main, args + ["--k", "6"])
        assert res.exit_code == 0, res.output
        body = read(tmp_path / "sweep_horizon.csv").decode()
        lines = [ln for ln in body.splitlines() if not ln.startswith("#")]
        assert [ln.split(",")[0] for ln in lines] == ["k", "4", "5", "6"]
        res = runner.invoke(cli.main, args + ["--k", "3"])
        assert res.exit_code == 2
        assert "sweep range is empty" in res.output

    def test_sweep_noise(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["sweep-noise", "--preset",
                                       "disturbance", "--T", "10",
                                       "--k", "4", "--noise-scale", "1/5",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "sweep_noise.csv").exists()
        doc = json.loads(read(tmp_path / "sweep_noise.json"))
        assert 0.0 <= doc["kkt_residual_max"] <= 1e-8


class TestCertifications:
    def test_certify_decay_passes(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["certify-decay", "--preset",
                                       "tracking-rand", "--T", "10",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "dominated=True" in res.stdout
        assert res.stderr == ""
        profile = read(tmp_path / "decay_profile.csv").decode()
        assert profile.splitlines()[2] == "offset,max_block_norm,theory_bound"
        assert (tmp_path / "decay_constants.txt").exists()

    @pytest.mark.parametrize("excess,code", [(2e-9, 4), (5e-10, 0)])
    def test_certify_decay_near_its_slack(self, runner, tmp_path,
                                          monkeypatch, excess, code):
        # a profile over the closed-form bound by more than its 1e-9
        # relative slack fails, one within it passes
        profile = kkt.decay_profile

        def near(wm):
            norms, maxima, fit = profile(wm)
            consts = kkt.tracking_decay_constants(
                presets.tracking_rand(T=10).system.bounds, kkt.sigma_min(wm))
            theory = (consts.decay_coef
                      * consts.decay_rate ** np.arange(len(maxima)))
            return norms, theory * (1 + excess), fit

        monkeypatch.setattr(kkt, "decay_profile", near)
        res = runner.invoke(cli.main, ["certify-decay", "--preset",
                                       "tracking-rand", "--T", "10",
                                       "--out", str(tmp_path)])
        assert res.exit_code == code, res.output
        assert res.output.startswith(f"dominated={code == 0} ")

    def test_certify_decay_assembles_the_window_once(self, runner, tmp_path,
                                                     monkeypatch):
        # sigma is read from the dynamics blocks N of the step data the
        # profile uses: a quadratic terminal leaves N unchanged
        built = []
        window_data = kkt.window_data

        def counted(system, params, terminal):
            built.append(terminal.kind)
            return window_data(system, params, terminal)

        monkeypatch.setattr(kkt, "window_data", counted)
        res = runner.invoke(cli.main, ["certify-decay", "--preset",
                                       "tracking-rand", "--T", "24",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert built == ["quadratic"]
        monkeypatch.undo()
        text = read(tmp_path / "decay_constants.txt").decode()
        sigma = float(text.split("sigma = ")[1].split()[0])
        inst = presets.tracking_rand(T=24)
        assert sigma == kkt.measured_sigma(inst)

    def test_failed_certifications_write_artifacts_and_exit_4(
            self, runner, tmp_path, monkeypatch):
        # eps = 1 moves the pin outside the state interval, so the response
        # is clipped and misses eps by 0.6
        res = runner.invoke(cli.main, ["inventory-suite", "--p", "2",
                                       "--eps", "1", "--out",
                                       str(tmp_path / "suite")])
        assert res.exit_code == 4
        assert res.stdout == "worst_deviation=0.6\n"
        assert res.stderr == ("check failed: closed_form_deviation "
                              "(index 0, margin -0.599999)\n")
        assert_written(tmp_path / "suite", "inventory-suite",
                       ["inventory_suite.csv"])

        # a bound 1e-6 times too tight is not dominated
        constants = kkt.tracking_decay_constants

        def tight(*args):
            consts = constants(*args)
            return dataclasses.replace(consts,
                                       decay_coef=consts.decay_coef * 1e-6)

        monkeypatch.setattr(kkt, "tracking_decay_constants", tight)
        res = runner.invoke(cli.main, ["certify-decay", "--preset",
                                       "tracking-rand", "--T", "10",
                                       "--out", str(tmp_path / "decay")])
        assert res.exit_code == 4
        assert res.stdout.startswith("dominated=False worst_ratio=")
        ratio = float(res.stdout.split("worst_ratio=")[1])
        assert 1e4 < ratio < 1e6
        assert re.fullmatch(r"check failed: decay_envelope \(index \d+, "
                            r"margin -\S+\)\n", res.stderr), res.stderr
        assert_written(tmp_path / "decay", "certify-decay",
                       ["decay_profile.csv", "decay_constants.txt"])

    @pytest.mark.parametrize("args,name,stdout", [
        (["certify-decay", "--preset", "pendulum", "--T", "40"],
         "decay_envelope", "dominated=False worst_ratio="),
        (["certify-decay", "--preset", "grid", "--T", "40"],
         "decay_envelope", "dominated=False worst_ratio="),
        (["inventory-suite", "--p", "2", "--eps", "1"],
         "closed_form_deviation", "worst_deviation=0.6\n")])
    def test_exit_4_names_the_failed_check(self, runner, tmp_path, args,
                                           name, stdout):
        # stdout is the command's line as on success; stderr is one line
        # naming the failed check, its worst index and its margin
        res = runner.invoke(cli.main, args + ["--out", str(tmp_path)])
        assert res.exit_code == 4
        assert res.stdout.startswith(stdout)
        assert re.fullmatch(rf"check failed: {name} \(index \d+, margin "
                            r"-\S+\)\n", res.stderr), res.stderr

    def test_inventory_suite_fraction_eps(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["inventory-suite", "--p", "4",
                                       "--eps", "2/35",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        body = read(tmp_path / "inventory_suite.csv").decode()
        assert f"{2.0 / 35.0:.17g}" in body
        assert (body.splitlines()[2]
                == "p,eps,h,diff,diff_minus_eps,closed_form_err")

    def test_inventory_suite_non_finite_deviation_exits_3(
            self, runner, tmp_path, monkeypatch):
        # a NaN closed form at h = 2 makes that row's closed_form_err NaN,
        # which a Python max over the row would drop (exit 0 with
        # worst_deviation=2.78e-17)
        closed_form = presets.two_sided_closed_form

        def nan_at_h2(p, eps):
            states = np.array(closed_form(p, eps), float)
            states[1] = np.nan
            return states

        monkeypatch.setattr(presets, "two_sided_closed_form", nan_at_h2)
        res = runner.invoke(cli.main, ["inventory-suite", "--p", "4",
                                       "--out", str(tmp_path / "nan")])
        assert res.exit_code == 3, res.output
        assert res.stderr == ("solver failure: closed-form deviation not "
                              "finite\n")
        assert not (tmp_path / "nan").exists()

    def test_inventory_suite_eps_out_of_reach(self, runner, tmp_path):
        # a pin of -2/5 - 5 lies below what four steps of at least -0.8
        # reach from 0 inside [-1, 1]: a configuration error naming the
        # admissible [-1, 1] + 2/5
        res = runner.invoke(cli.main, ["inventory-suite", "--p", "4",
                                       "--eps", "-5",
                                       "--out", str(tmp_path / "far")])
        assert res.exit_code == 2
        assert "need -0.6 <= eps <= 1.4" in res.output
        assert not (tmp_path / "far").exists()
        for args, code in ((["--p", "4", "--eps", "2/35"], 0),
                           (["--p", "2", "--eps", "1"], 4)):
            res = runner.invoke(cli.main, ["inventory-suite", *args,
                                           "--out", str(tmp_path / "near")])
            assert res.exit_code == code, res.output

    def test_constants_theory_mode(self, runner, tmp_path):
        # measured is the one mode: the closed-form tables rested on an
        # unsound sigma_lo and were never admitted
        res = runner.invoke(cli.main, ["constants", "--preset",
                                       "disturbance", "--T", "12",
                                       "--k", "4", "--mode", "theory",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert not tmp_path.joinpath("constants.txt").exists()

    def test_constants_default_mode_is_measured(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["constants", "--preset",
                                       "disturbance", "--T", "12",
                                       "--k", "4", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = read(tmp_path / "constants.txt").decode().splitlines()
        assert "mode = measured" in lines
        assert "gain_tables = exact" in lines

    def test_artifact_keys(self, runner, tmp_path):
        # the ordered keys of the key-value artifacts, so that no key is
        # added, dropped or moved unnoticed
        def keys(path):
            return [ln.split(" = ")[0]
                    for ln in read(path).decode().splitlines()
                    if not ln.startswith("#")]

        res = runner.invoke(cli.main, ["constants", "--preset",
                                       "tracking-rand", "--T", "12",
                                       "--k", "2", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert keys(tmp_path / "constants.txt") == [
            "mode", "sigma", "sigma_lo", "sigma_hi", "decay_rate",
            "decay_coef", "gain_tables", "C3", "gain_state_0",
            "gain_param_0", "gain_state_1", "gain_param_1", "gain_state_2",
            "gain_param_2"]
        res = runner.invoke(cli.main, ["certify-decay", "--preset",
                                       "tracking-rand", "--T", "10",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert keys(tmp_path / "decay_constants.txt") == [
            "sigma", "sigma_lo", "sigma_hi", "decay_rate", "decay_coef",
            "fit_coef", "fit_rate", "fit_r2"]

    def test_constants_measured_mode_builds_each_law_once(
            self, runner, tmp_path, monkeypatch):
        # the truth law, and one batch of the full windows [t, t + k],
        # t < T - k; the tail windows [t, T] are suffixes of the truth law
        built = []
        law = ftocp.continuation_law

        def counted(*args, **kwargs):
            built.append(args)
            return law(*args, **kwargs)

        monkeypatch.setattr(ftocp, "continuation_law", counted)
        res = runner.invoke(cli.main, ["constants", "--preset",
                                       "tracking-rand", "--T", "24",
                                       "--k", "8", "--mode", "measured",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert len(built) == 2
        assert [len(args[3]) for args in built] == [1, 24 - 8]

    def test_constants_measured_mode(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["constants", "--preset",
                                       "disturbance", "--T", "12",
                                       "--k", "3", "--mode", "measured",
                                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        body = read(tmp_path / "constants.txt").decode()
        assert "mode = measured" in body


PRESET_HELP = ("preset name: disturbance, grid, inventory-one-sided, "
               "inventory-two-sided, pendulum, tracking-rand")
INSTANCE_OPTIONS = {
    "--preset": ("text", None, PRESET_HELP),
    "--instance": ("path", None, "instance description file (JSON)"),
    "--T": ("integer", None, "override the horizon"),
    "--seed": ("integer", None, "override the instance seed")}
WINDOW_OPTION = {"--k": ("integer", 8, "window length")}
# each command's docstring and own options: flag -> (type, default, help)
COMMANDS = {
    "solve": ("Solve the full-horizon problem under the true parameters.",
              {}),
    "mpc": ("Run the receding-horizon controller and report regret.",
            {**WINDOW_OPTION, "--noise-scale": (
                "number", 0.0, "constant forecast-error magnitude")}),
    "sweep-horizon": ("Zero-noise regret as a function of the window length.",
                      {"--k": ("integer", 12,
                               "largest window length in the sweep")}),
    "sweep-noise": ("Regret as a function of the forecast-noise scale.",
                    {**WINDOW_OPTION, "--noise-scale": (
                        "number", 0.2,
                        "base noise magnitude; swept over fixed multiples")}),
    "certify-decay": ("Check the closed-form geometric bound on the inverse "
                      "saddle blocks.", {}),
    "inventory-suite": (
        "Terminal-perturbation response table for the alternating chain.",
        {"--p": ("integer", (4, 5, 6, 7, 8),
                 "chain lengths (default 4 5 6 7 8)"),
         "--eps": ("number", None,
                   "terminal perturbation (fractions like 2/35 accepted)")}),
    "constants": ("Report the decay/sensitivity constants of an instance.",
                  {**WINDOW_OPTION, "--mode": (
                      "choice", "measured",
                      "how the gain tables are found (measured only)")})}

# config_hash of each command's artifacts as the commands wrote them before
# they shared one declaration path: at default options on the disturbance
# preset, and with INSTANCE_FILE given as "inst.json" (hashed by its
# contents, not its path); a renamed option dest or a changed default type
# changes them.  The constants literals are those of "--mode measured", the
# default since the closed-form mode is gone
DEFAULT_HASHES = {"solve": "51cea3aff8af3389", "mpc": "1c5d29c2f8cc9a78",
                  "sweep-horizon": "ec0e5f1c584e7e36",
                  "sweep-noise": "8a2df4d6d03eaeb2",
                  "certify-decay": "b8c451496f73c76a",
                  "inventory-suite": "dd29b0abf3cdb426",
                  "constants": "1d3a64b3ee5a6a05"}
INSTANCE_FILE = {"kind": "tracking-rand", "T": 10, "seed": 3}
INSTANCE_HASHES = {"solve": "c93c2c41270ff2f7", "mpc": "daa7981fd26ece41",
                   "sweep-horizon": "b0253e26f17528d1",
                   "sweep-noise": "53acde3909bcc431",
                   "certify-decay": "e3d0f11437127c96",
                   "constants": "1f4f688f5050d14a"}


def written_hashes(out):
    """The config_hash values in the headers of the artifacts in ``out``."""
    return {h for name in os.listdir(out)
            for h in re.findall(r"config_hash=([0-9a-f]{16})",
                                read(out / name).decode())}


class TestCommandDeclarations:
    """Each command keeps its options, help text and config_hash."""

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_options_and_help(self, runner, command):
        doc, own = COMMANDS[command]
        expected = {**(INSTANCE_OPTIONS if command != "inventory-suite"
                       else {}), **own,
                    "--out": ("path", "out", "output directory")}
        params = cli.main.commands[command].params
        assert {p.opts[0]: (p.type.name, p.default, p.help)
                for p in params} == expected
        res = runner.invoke(cli.main, [command, "--help"])
        assert res.exit_code == 0, res.output
        text = " ".join(res.output.split())
        assert doc in text
        for flag, (_, _, help_) in expected.items():
            assert f"{flag} " in text
            if help_ is not None:
                assert help_ in text

    @pytest.mark.parametrize("command", list(DEFAULT_HASHES))
    def test_config_hash_at_default_options(self, runner, tmp_path, command):
        args = [] if command == "inventory-suite" else ["--preset",
                                                        "disturbance"]
        res = runner.invoke(cli.main, [command, *args, "--out",
                                       str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert written_hashes(tmp_path) == {DEFAULT_HASHES[command]}

    @pytest.mark.parametrize("command", list(INSTANCE_HASHES))
    def test_config_hash_with_instance_file(self, runner, tmp_path,
                                            monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "inst.json").write_text(json.dumps(INSTANCE_FILE))
        res = runner.invoke(cli.main, [command, "--instance", "inst.json",
                                       "--out", "out"])
        assert res.exit_code == 0, res.output
        assert written_hashes(tmp_path / "out") == {INSTANCE_HASHES[command]}

    def test_instance_file_hashed_by_its_contents(self, runner, tmp_path):
        # one description at two paths is one run, and two descriptions
        # written in turn to one path are two
        def hash_of(desc, name):
            path = tmp_path / name
            path.write_text(json.dumps(desc))
            out = tmp_path / "out"   # each run rewrites both artifacts
            res = runner.invoke(cli.main, ["mpc", "--instance", str(path),
                                           "--k", "4", "--out", str(out)])
            assert res.exit_code == 0, res.output
            (h,) = written_hashes(out)
            return h

        seed3, seed4 = ({"kind": "tracking-rand", "T": 10, "seed": s}
                        for s in (3, 4))
        assert hash_of(seed3, "a.json") == hash_of(seed3, "b.json")
        assert hash_of(seed3, "a.json") != hash_of(seed4, "a.json")


class TestLibrarySurface:
    """The library is what the CLI and the certification pipeline run: test
    dependencies stay out of it, and closed forms, studies and helpers that
    only tests use live in the tests."""

    def test_cli_loads_no_test_dependency(self):
        code = ("import sys\n"
                "import mpclab.cli\n"
                "print(' '.join(sorted({name.split('.')[0] for name in "
                "sys.modules} & {'scipy', 'hypothesis', 'pytest', "
                "'oracles'})))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == ""

    def test_test_only_names_absent(self):
        gone = {model: ["transition_matrix", "controllability_matrix",
                        "min_singular_controllability"],
                model.ParamBox: ["normalized", "diameter", "contains"],
                presets: ["pendulum_det_closed_form", "grid_det_lower_bound",
                          "inventory_sensitivity_profile", "kkt"],
                kkt: ["SaddleBounds", "saddle_spectrum_bounds", "assemble",
                      "block_inverse_profile", "_saddle_entries"],
                _assembly: ["KktAssembly", "assemble_window"],
                ftocp.FtocpSolution: ["dynamics_residual"],
                mpclab: ["controllability_matrix",
                         "min_singular_controllability", "SaddleBounds",
                         "saddle_spectrum_bounds", "assemble",
                         "block_inverse_profile"]}
        present = [f"{owner.__name__}.{name}"
                   for owner, names in gone.items() for name in names
                   if hasattr(owner, name)]
        assert present == []

    def test_one_stacked_step_data_map(self):
        # a linear-quadratic system is one broadcasting step-data map and a
        # terminal map; the per-step callables and dynamics are gone
        params = inspect.signature(model.LinearQuadraticSystem).parameters
        assert list(params) == ["n", "m", "T", "step_data", "terminal",
                                "bounds", "param_box"]
        sys_ = presets.tracking_rand(T=4).system
        gone = {sys_: ["A", "B", "w", "Q", "R", "xbar", "P_T", "xbar_T",
                       "dynamics"],
                model.InventorySystem: ["xbar", "dynamics"]}
        present = [name for owner, names in gone.items() for name in names
                   if hasattr(owner, name)]
        assert present == []

    def test_one_way_to_get_a_law(self):
        # ftocp.window_law is the one constructor of a single window, and
        # the truth law and the hindsight optimum come from the instance
        gone = {ftocp: ["FtocpSpec", "solve", "solve_quadratic",
                        "solve_inventory", "window_matrices"],
                model: ["load_instance_file"],
                mpclab: ["FtocpSpec", "solve", "solve_quadratic",
                         "solve_inventory"]}
        present = [f"{owner.__name__}.{name}"
                   for owner, names in gone.items() for name in names
                   if hasattr(owner, name)]
        assert present == []
        for fn in (engine.solve_opt, engine.run_mpc,
                   kkt.measure_gain_tables):
            params = inspect.signature(fn).parameters
            assert not {"law", "opt"} & set(params), fn.__name__

    def test_one_command_path(self):
        # the per-command plumbing is the one declaration helper, and knobs
        # and fields that nothing sets are gone; a chain system still says
        # that it counts a terminal stage
        gone = {cli: ["_solver_errors", "_instance_options", "_headers",
                      "_write", "_sweep_body", "EXIT_OK", "EXIT_CONFIG"],
                # the magnitudes table is the one form of rho
                model.PredictionStream: ["rho", "power"],
                # every verdict is a model.Check
                regret: ["_scaled", "RegretReport", "AdmissionReport"],
                mpclab: ["RegretReport", "AdmissionReport",
                         "TerminalRule"],
                # the bounds live in regret, and the assumptions are checked
                # on given data, with no sampling of the box
                engine: ["per_step_error_bound_rhs",
                         "pipeline_admission_check", "AdmissionReport"],
                model: ["_rho_offsets"], model.ParamBox: ["sample"],
                # a pinned law is read from its first step alone
                ftocp.ContinuationLaw: ["_S_inv"],
                # the adjoint is a method of the law, and the nu-block
                # inverse is inlined in its one caller
                kkt: ["_first_action_adjoint"],
                ftocp: ["_inverse_nu_blocks"]}
        present = [f"{owner.__name__}.{name}"
                   for owner, names in gone.items() for name in names
                   if hasattr(owner, name)]
        assert present == []
        # the pipeline reads k, R, C3 and gain_init from the gain tables,
        # and the tables read the hindsight states and the seed from the
        # instance
        for fn, params in (
                # every window is capped by engine.window_terminal
                (engine.run_mpc, ["instance", "stream", "k"]),
                (engine.window_terminal, ["instance", "t2", "xi"]),
                (regret.sweep_noise, ["instance", "scales", "k"]),
                (regret.sweep_horizon, ["instance", "k_values"]),
                (kkt.measure_gain_tables, ["instance", "k"]),
                (kkt._window_action_jacobians, ["law", "zs", "step_slopes",
                                                "terminal_slopes"]),
                (ftocp.ContinuationLaw.first_action_adjoint, ["self"]),
                (kkt.loglinear_fit, ["x", "y"]),
                (presets.inventory_counterexample_suite, ["ps", "eps"]),
                # laws are read from their first step; action is the one
                # read at an offset, suffix the continuation from one
                (ftocp.ContinuationLaw.action, ["self", "t", "x", "w"]),
                (ftocp.ContinuationLaw.suffix, ["self", "t"]),
                (ftocp.ContinuationLaw.trajectories, ["self", "xs"]),
                (ftocp.ContinuationLaw.solution, ["self", "x"]),
                (ftocp.ContinuationLaw.kkt_residuals, ["self", "xs"]),
                (ftocp.ChainLaw.action, ["self", "t", "x", "w"]),
                (ftocp.ChainLaw.solution, ["self", "x"]),
                (ftocp.ChainLaw.kkt_residuals, ["self", "xs"]),
                (model.validate_assumptions, ["system", "ts", "xis"]),
                (regret.per_step_error_bound_rhs, ["rho_table", "tables",
                                                   "D_xstar"]),
                (regret.pipeline_admission_check, ["rhs", "tables", "L_g"]),
                (regret.regret_inequalities, ["run", "opt", "ell", "L_g",
                                              "tables"])):
            assert list(inspect.signature(fn).parameters) == params, fn
        fields = {f.name for f in dataclasses.fields(engine.TrajectoryRecord)}
        assert not {"k", "rule_kind"} & fields
        assert [f.name for f in dataclasses.fields(kkt.GainTables)] == [
            "gain_state", "gain_param", "gain_init", "basis", "R"]
        for cls, names in (
                (ftocp.FtocpSolution, ["states", "actions", "duals",
                                       "kkt_residual"]),
                (regret.SweepResult, ["variable", "values", "regrets",
                                      "slope", "r2", "kkt_residual_max"]),
                (model.Check, ["name", "lhs", "rhs"]),
                (model.Instance, ["system", "truth", "x0", "seed",
                                  "terminal_param"])):
            assert [f.name for f in dataclasses.fields(cls)] == names, cls
        assert "floor" not in inspect.signature(kkt.fit_decay).parameters
        fields = {f.name for f in dataclasses.fields(model.InventorySystem)}
        assert "include_terminal_stage" not in fields
        assert model.InventorySystem.include_terminal_stage is True

    def test_one_answer_per_family_question(self):
        # a system's family is its class, one function picks the solver
        # by it (ftocp.window_laws; kkt's analyses and an instance's
        # terminal cost read it too), instances are built in presets
        # alone, and one function prices a trajectory
        for cls in (model.LinearQuadraticSystem, model.DisturbanceOnlySystem,
                    model.InventorySystem):
            assert not hasattr(cls, "kind"), cls
        gone = {model: ["build_instance", "_check_seed"],
                ftocp: ["_lq_value"],
                _assembly.WindowMatrices: ["window", "stack"],
                kkt: ["_smallest_singular_value"],
                cli: ["_default_rule", "_DEFAULT_RULE"],
                engine: ["_stage_costs_and_total", "TerminalRule"]}
        present = [f"{owner.__name__}.{name}"
                   for owner, names in gone.items() for name in names
                   if hasattr(owner, name)]
        assert present == []
        # a window's sizes are read off its arrays
        assert [f.name for f in dataclasses.fields(_assembly.WindowMatrices)
                ] == ["A", "B", "w", "Q", "R", "xbar", "terminal"]
        assert mpclab.build_instance is presets.build_instance
        assert mpclab.window_terminal is engine.window_terminal
        # model imports nothing of the package, presets included, at any
        # depth of its code
        imports = [node for node in ast.walk(ast.parse(
            inspect.getsource(model))) if isinstance(node, ast.ImportFrom)]
        assert [node.module for node in imports if node.level > 0] == []

    def test_only_ftocp_reads_the_lifted_law(self):
        # the lifted (x, 1, nu) arrays of a ContinuationLaw are read in
        # ftocp alone; other modules read its state-block views loop and
        # feedback, and first_action_adjoint.  P is not in the list:
        # TerminalCost.P has the same name
        lifted = {"closed_loop", "G", "S_inv", "PB"}
        src = pathlib.Path(mpclab.__file__).parent
        reads = [f"{path.name}:{node.lineno}: {node.attr}"
                 for path in sorted(src.glob("*.py"))
                 if path.name != "ftocp.py"
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr in lifted]
        assert reads == []

    def test_continuation_law_stores_its_data_and_riccati_solution(self):
        # Phi_t and c_t are computed from A, B, w and G where ftocp reads
        # them; the law stores no lifted closed loop
        fields = [f.name for f in dataclasses.fields(ftocp.ContinuationLaw)]
        assert fields == ["t1", "data", "P", "G", "S_inv", "PB"]

    def test_no_closed_form_gain_tables(self):
        # the closed-form sensitivity path fed no verdict and rested on an
        # unsound sigma_lo; the decay constants keep the four fields that
        # certify-decay and constants print
        gone = {kkt: ["theory_gain_tables", "tracking_sensitivity_coef",
                      "GeneralDecayConstants", "general_decay_constants"],
                mpclab: ["theory_gain_tables", "general_decay_constants"]}
        present = [f"{owner.__name__}.{name}"
                   for owner, names in gone.items() for name in names
                   if hasattr(owner, name)]
        assert present == []
        assert [f.name for f in dataclasses.fields(
            kkt.TrackingDecayConstants)] == ["sigma_lo", "sigma_hi",
                                             "decay_rate", "decay_coef"]
