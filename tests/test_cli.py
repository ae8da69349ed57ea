import hashlib
import importlib.util
import json
import math
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from graphflock import flow
from graphflock.cli import _build_parser, main
from graphflock.graphs import erdos_renyi
from graphflock.spectral import laplacian

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows)


def config_line(text):
    first = text.splitlines()[0]
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: "):])


#: Bad-input argv -> the text its one-line message must name.
_NAMED_IN_MESSAGE = {
    "fig1 --c 2": "--c",
    "variance-curve --measure dirac --st 100": "--st",
    "coop --graph cycle:10 --steps 100": "--steps",
    "value --measure dirac --steps 100": "--steps",
    "variance-curve --measure cycle --steps 100": "--steps",
    "fig1 --steps 400": "--steps",
    "fig2 --steps 400": "--steps",
    "fig3 --steps 400": "--steps",
    "simulate --graph cycle:6 --paths 10 --steps 100": "--steps",
    "simulate --graph cycle:3 --paths 10 --dt 1e-20": "dt = 1e-20 gives 100000000000000000000 steps",
    "solve-f --measure cycle --steps 100000000000000000000": "more than an array can index",
    "nash-audit --graph cycle:5 --steps 100000000000000000000": "more than an array can index",
    "simulate --graph cycle:5 --paths 100000000000000000000": "more than an array can index",
    "value --measure dirac --config {tmp}/binary.txt": "binary.txt: 'utf-8' codec can't decode",
    "variance-curve --measure dirac --t-grid 0:1:100000000000000000000": "more than an array can index",
    "coop --graph cycle:6 --t-grid 0:1:100000000000000000000": "more than an array can index",
    "variance-curve --measure dirac --t-grid 0:inf:3": "'0:inf:3'",
}


def _refuse_constant(name):
    raise AssertionError(f"output holds {name}")


def _numbers(payload):
    """Every number in a parsed JSON payload."""
    if isinstance(payload, dict):
        payload = list(payload.values())
    if isinstance(payload, list):
        return [x for item in payload for x in _numbers(item)]
    return [payload] if isinstance(payload, (int, float)) else []


class TestBasicCommands:
    def test_spectrum_cycle4(self, capsys):
        code, out, err = run(capsys, "spectrum", "--graph", "cycle:4")
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["index", "eigenvalue"]
        assert np.allclose(sorted(rows[:, 1]), [-2, -1, -1, 0], atol=1e-12)
        assert config_line(out)["command"] == "spectrum"

    def test_spectrum_irregular_graph(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"graph": {"kind": "erdos_renyi", "n": 10, "p": 0.5}, "seed": 4}))
        code, out, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 0 and err == ""
        g = erdos_renyi(10, 0.5, seed=4)
        assert not g.is_regular
        expected = np.sort(np.linalg.eigvals(laplacian(g)).real)
        assert np.abs(parse_csv(out)[1][:, 1] - expected).max() <= 1e-12

    def test_solve_f_dirac_is_linear(self, capsys):
        code, out, _ = run(capsys, "solve-f", "--measure", "dirac", "--c", "2.0", "--steps", "200")
        assert code == 0
        _, rows = parse_csv(out)
        assert np.allclose(rows[:, 1], 2.0 * rows[:, 0], atol=1e-12)

    def test_variance_curve_dirac_at_one(self, capsys):
        code, out, _ = run(capsys, "variance-curve", "--measure", "dirac", "--t", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows.shape == (1, 2)
        assert rows[0, 1] == pytest.approx(0.5, abs=1e-10)

    def test_value_complete300(self, capsys):
        code, out, _ = run(capsys, "value", "--graph", "complete:300")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.5 * math.log(2.0), abs=0.01)
        assert payload["config"]["graph"] == {"kind": "complete", "n": 300}

    def test_value_for_measure(self, capsys):
        code, out, _ = run(capsys, "value", "--measure", "cycle")
        assert code == 0
        assert json.loads(out)["value"] > 0.5 * math.log(2.0)

    def test_variance_curve_torus_measure(self, capsys):
        code, out, _ = run(capsys, "variance-curve", "--measure", "torus:2", "--t", "0.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0, 1] >= 0.375  # never below the dense-limit variance

    def test_coop_curve(self, capsys):
        code, out, _ = run(capsys, "coop", "--graph", "cycle:8", "--t-grid", "0:1:5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "variance"]
        assert rows[0, 1] == 0.0
        assert np.all(np.diff(rows[:, 1]) > 0)
        assert config_line(out)["value"] > 0

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "spec.csv"
        code, out, _ = run(capsys, "spectrum", "--graph", "cycle:4", "--out", str(out_path))
        assert code == 0 and out == ""
        header, rows = parse_csv(out_path.read_text())
        assert header == ["index", "eigenvalue"]


class TestFigures:
    def test_fig1_shape_and_determinism(self, capsys):
        code, out1, _ = run(capsys, "fig1")
        assert code == 0
        code, out2, _ = run(capsys, "fig1")
        assert out1 == out2  # byte-stable
        header, rows = parse_csv(out1)
        assert header[0] == "t" and len(header) == 9
        assert rows.shape == (101, 9)

    @pytest.mark.parametrize(
        "fig, digest",
        [
            ("fig1", "7b6d77821cb3b15d6a70df166733b917e6f5fa782b8a773b83afdb11ca7b5f5c"),
            ("fig2", "46a349970f628d126343e29aa891633db71d17f5448d57ff4079dafcac4020ca"),
            ("fig3", "275bbd3b4f6c96aa1485ed6b2c08f381f8132a72c3eacabdd2bf90364fc94d15"),
        ],
    )
    def test_figure_bytes_are_pinned(self, capsys, fig, digest):
        # The figures are byte-stable: a change that moves any digit of them shows here.
        code, out, _ = run(capsys, fig)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("solve-f --measure cycle --steps 4000", "cba891e758cac9735a4dcb1ad1623869035a9e891d9359c311fddc18107c12c0"),
            ("solve-f --graph complete:600", "d28fa9bf5cfcf56680451e470ce584b99dc8c5307fcbc7523272c8a6b809fa84"),
            ("value --measure kesten_mckay:3", "0dc88ac36a30a28acabeaa372ed386f34e724d9ad070dfae0c4f07a513563a3a"),
            ("value --graph cycle:1000", "03448bce9a2aaebc077756fe27813af5adb305f01e3385be08f8c11e9b91d3da"),
            ("variance-curve --measure torus:2", "4aadb1f24a54e04c2f071dad4e0afd0ea72e660d355862e17f6ff80023e5ae23"),
            (
                "nash-audit --graph cycle:20 --profile equilibrium --steps 100",
                "3a601509367e81a1e8f7fce9d7b690826a08dd4a931ec96ee624b32ac7a5751f",
            ),
            pytest.param(
                "nash-audit --graph random_regular:60,3 --seed 1 --profile equilibrium --steps 100",
                "471b1c337652fac9e3a5750de21aeb242fc8af9396cb8174d68b11e0109fde1f",
                marks=pytest.mark.filterwarnings("ignore:graph transitivity:RuntimeWarning"),
            ),
            (
                "simulate --profile equilibrium --graph cycle:200 --record-times 0.5,1 --paths 400 --seed 1",
                "b34a96f28d1aabee856c586a6b62cb5161eebb204e3ec82bf961f05d81eedadb",
            ),
            (
                "nash-audit --graph erdos_renyi:50,0.3 --seed 1 --profile mean_field --steps 100",
                "bb0b1fa73a210bd5c925ead6f0b7879a6e0c1858b981e837d05461e013f3310d",
            ),
            (
                "simulate --profile mean_field --graph erdos_renyi:100,0.1 --paths 400 --seed 1",
                "663605c91637187d035ce393953e12d6e394dd06d0f59652a854686fd00f4119",
            ),
        ],
    )
    def test_command_bytes_are_pinned(self, capsys, argv, digest):
        # Each digest was taken before a change meant to leave these bytes alone: the schedule losing
        # its output grid (solve-f prints value on its --steps grid), a spectral rate read only at
        # the eigenvalues a caller needs (the audits and the simulation), and the step count moving
        # from the profile to the audits (the scalar audit and simulation).
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, most",
        [("value --measure cycle", 1), ("variance-curve --measure dirac --t-grid 0:1:26", 27)],
    )
    def test_schedule_inverts_only_the_times_read(self, capsys, monkeypatch, argv, most):
        # f(T) once, then one Newton entry per time a command reads: no output grid.
        entries, invert = [], flow._invert
        monkeypatch.setattr(flow, "_invert", lambda series, tau, *table: entries.append(np.size(tau)) or invert(series, tau, *table))
        assert run(capsys, *argv.split())[0] == 0
        assert 0 < sum(entries) <= most

    def test_fig2_builds_each_torus_stage_once(self):
        # torus:1, :2 and :4 need stages 2, 3 and 4; torus:4 reuses torus:2's.
        code = (
            "import os\n"
            "from graphflock import cli, spectral\n"
            "calls, rule = [], spectral._gauss_rule_from_atoms\n"
            "spectral._gauss_rule_from_atoms = lambda *a: calls.append(1) or rule(*a)\n"
            "assert cli.main(['fig2', '--out', os.devnull]) == 0\n"
            "print(len(calls))\n"
        )
        assert _python(code) == "3"

    def test_fig2_monotone_in_dimension(self, capsys):
        code, out, _ = run(capsys, "fig2")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "torus_d1", "torus_d2", "torus_d4", "dense"]
        mid = rows[50]
        assert mid[1] > mid[2] > mid[3] > mid[4]

    def test_fig3_ordering(self, capsys):
        code, out, _ = run(capsys, "fig3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "competitive", "cooperative"]
        interior = rows[1:]
        assert np.all(interior[:, 2] <= interior[:, 1] + 1e-12)


class TestAuditAndSimulate:
    def test_nash_audit_equilibrium(self, capsys):
        code, out, _ = run(
            capsys, "nash-audit", "--graph", "complete:5", "--profile", "equilibrium",
            "--steps", "1000",
        )
        assert code == 0
        report = json.loads(out)
        assert report["all_satisfied"] is True
        assert report["max_gap"] <= 1e-5
        assert len(report["players"]) == 5

    def test_nash_audit_equilibrium_complete300(self, capsys):
        # The dense stage table this audit once needed was 2747 MiB.
        code, out, err = run(capsys, "nash-audit", "--graph", "complete:300", "--profile", "equilibrium")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["all_satisfied"] is True
        assert len(report["players"]) == 300

    def test_nash_audit_mean_field(self, capsys):
        code, out, _ = run(
            capsys, "nash-audit", "--graph", "cycle:6", "--profile", "mean_field",
            "--steps", "500",
        )
        assert code == 0
        report = json.loads(out)
        assert report["all_satisfied"] is True
        assert report["players"][0]["epsilon_bound"] == pytest.approx(0.5 * math.sqrt(1.5))

    def test_nash_audit_zero_is_labelled_zero(self, capsys):
        code, out, _ = run(capsys, "nash-audit", "--graph", "cycle:6", "--profile", "zero", "--steps", "100")
        assert code == 0
        report = json.loads(out)
        assert report["profile"] == report["config"]["profile"] == "zero"

    def test_nash_audit_refuses_a_best_response_above_the_cost(self, capsys):
        # At h k(T) = 3 RK4 is unstable: the best response would cost 5.59 against 3.11.
        argv = ["nash-audit", "--graph", "cycle:20", "--profile", "mean_field", "--c", "300"]
        code, out, err = run(capsys, *argv, "--steps", "100")
        assert code == 3 and out == ""
        assert err.startswith("error[numeric]: player 0's best response costs")
        assert "100 steps" in err and len(err.splitlines()) == 1
        code, out, err = run(capsys, *argv, "--steps", "2000")
        assert code == 0 and err == ""
        assert json.loads(out)["max_gap"] >= -1e-5

    def test_nash_audit_equilibrium_at_large_c(self, capsys):
        # c dt = 0.15: RK4 resolves the linear best-response ODE, so the equilibrium is Nash.
        argv = "nash-audit --graph cycle:20 --profile equilibrium --c 300 --steps 2000"
        code, out, err = run(capsys, *argv.split())
        assert code == 0 and err == ""
        assert json.loads(out)["all_satisfied"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            # c dt = 1: the best response would cost more than the profile.
            "nash-audit --graph cycle:20 --profile equilibrium --c 100 --steps 100",
            # c dt = 5: the best response's z grows by a factor of 6 over the first step.
            "nash-audit --graph cycle:20 --profile zero --c 1e4 --steps 2000",
        ],
    )
    def test_nash_audit_refuses_unresolved_steps(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 3 and out == ""
        assert err.startswith("error[numeric]: player 0's best response costs")
        assert f"{argv.split()[-1]} steps do not resolve the profile" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, cost",
        [
            # RK4 on the cost moments is unstable at h k(T) of about 1e6 and 1e5:
            # the profile's costs come out negative, which no quadratic cost can be.
            ("nash-audit --graph complete:3 --profile equilibrium --c 1e8 --steps 100", "-4.45164e+10"),
            ("nash-audit --graph cycle:20 --profile mean_field --c 1e7 --steps 100", "-5.58822e+07"),
        ],
    )
    def test_nash_audit_refuses_an_unresolved_profile_cost(self, capsys, argv, cost):
        code, out, err = run(capsys, *argv.split())
        assert code == 3 and out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error[numeric]: player 0's cost under the profile is {cost}:")
        assert "100 steps do not resolve the profile" in err

    def test_simulate_summary_and_dump(self, capsys, tmp_path):
        dump = tmp_path / "samples.csv"
        code, out, _ = run(
            capsys, "simulate", "--graph", "complete:3", "--profile", "zero",
            "--paths", "200", "--dt", "0.01", "--seed", "5",
            "--dump-samples", str(dump),
        )
        assert code == 0
        payload = json.loads(out)
        block = payload["times"]["1"]
        assert len(block["mean"]) == 3
        assert all(v > 0 for v in block["variance"])
        lines = dump.read_text().splitlines()
        assert lines[0] == "path,player,t,x"
        assert len(lines) == 1 + 200 * 3

    def test_simulate_reproducible(self, capsys):
        code, out1, _ = run(capsys, "simulate", "--graph", "cycle:3", "--profile",
                            "mean_field", "--paths", "100", "--dt", "0.01")
        code, out2, _ = run(capsys, "simulate", "--graph", "cycle:3", "--profile",
                            "mean_field", "--paths", "100", "--dt", "0.01")
        assert out1 == out2

    def test_simulate_reports_each_record_time_apart(self, capsys):
        # 5e-13 and 1e-12 are within the time tolerance of each other; each reads its own record.
        code, out, _ = run(capsys, *"simulate --graph cycle:4 --profile zero --paths 5 --T 1e-12 "
                           "--record-times 5e-13,1e-12 --seed 1".split())
        assert code == 0
        times = json.loads(out)["times"]
        assert sorted(times) == ["1e-12", "5e-13"] and times["1e-12"] != times["5e-13"]

    def test_simulate_reports_every_record_time_on_one_step(self, capsys):
        # Both times round to step 250 of 500; each is reported, with that step's statistics.
        code, out, _ = run(capsys, *"simulate --graph cycle:3 --profile zero --paths 5 "
                           "--record-times 0.5,0.5000000001 --seed 1".split())
        assert code == 0
        payload = json.loads(out)
        times = payload["times"]
        assert payload["config"]["sim"]["record_times"] == [0.5, 0.5000000001]
        assert sorted(times) == ["0.5", "0.5000000001"] and times["0.5"] == times["0.5000000001"]


class TestConfigAndErrors:
    def test_config_file_overrides_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"c": 2.0, "measure": "dirac", "t": 1.0}))
        code, out, _ = run(capsys, "variance-curve", "--c", "1.0", "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        # V(1) = sigma^2 * T / (1 + cT) with c = 2 from the config file
        assert rows[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert config_line(out)["c"] == 2.0

    @pytest.mark.parametrize("command", ["variance-curve", "coop"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
    def test_t_and_t_grid_together_exit_1(self, capsys, tmp_path, command, via_config):
        argv = [command, "--graph", "cycle:5", "--t", "0.5"]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"t-grid": "0:1:3"}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--t-grid", "0:1:3"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error[config]:") and "--t-grid" in err

    @pytest.mark.parametrize("command", ["variance-curve", "coop"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
    @pytest.mark.parametrize(
        ("flag", "text", "recorded"), [("t", "0.5", {"t": 0.5}), ("t-grid", "0:1:3", {"t_grid": [0.0, 1.0, 3]})]
    )
    def test_config_records_the_times_asked_for(self, capsys, tmp_path, command, via_config, flag, text, recorded):
        argv = [command, "--graph", "cycle:5"]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag: text}))
            argv += ["--config", str(cfg)]
        else:
            argv += [f"--{flag}", text]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        config = config_line(out)
        assert {k: config[k] for k in ("t", "t_grid") if k in config} == recorded

    def test_config_values_parse_like_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"c": "1"}))
        code, out, err = run(capsys, "value", "--measure", "dirac", "--config", str(cfg))
        assert code == 0, err
        _, flag_out, _ = run(capsys, "value", "--measure", "dirac", "--c", "1")
        assert json.loads(out) == json.loads(flag_out)

    def test_config_value_of_wrong_type_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"steps": 150.5}))
        code, _, err = run(capsys, "solve-f", "--measure", "dirac", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error[config]:")
        assert "\n" not in err.strip()

    @pytest.mark.parametrize(
        "argv,content,named",
        [
            ("value --measure dirac", '{"c": true}', "config option 'c' must be a string or a number, got True"),
            ("value --measure dirac", '{"c": null}', "config option 'c' must be a string or a number, got None"),
            ("value --measure dirac", '{"c": [1]}', "config option 'c' must be a string or a number, got [1]"),
            ("nash-audit --graph cycle:5", '{"profile": "nash"}', "config option 'profile': 'nash' is not one of"),
            ("value --measure dirac", None, "cannot read config file {cfg}: [Errno 2]"),  # no such file
            ("value --measure dirac", "", "cannot read config file {tmp}: [Errno 21]"),  # a directory
            ("value --measure dirac", '{"c": 1', "cannot read config file {cfg}: Expecting"),
            ("value --measure dirac", "[1, 2]", "config file {cfg} must contain a JSON object"),
        ],
        ids=["bool", "null", "list", "choice", "missing", "directory", "bad-json", "not-an-object"],
    )
    def test_bad_config_file_exits_1_with_one_line(self, capsys, tmp_path, argv, content, named):
        cfg = tmp_path / "run.json"
        if content:
            cfg.write_text(content)
        given = tmp_path if content == "" else cfg
        code, out, err = run(capsys, *argv.split(), "--config", str(given))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error[config]: " + named.format(cfg=cfg, tmp=tmp_path))

    @pytest.mark.parametrize(
        "text,named",
        [
            ("1 2\n2 3 4\n", ":2: expected 'u v', got '2 3 4'"),
            ("1 2\n2 x\n", ":2: non-integer vertex label"),
            ("# only a comment\n\n", ": no edges found"),
        ],
        ids=["three-fields", "not-an-integer", "no-edges"],
    )
    def test_bad_edge_list_file_exits_1_with_one_line(self, capsys, tmp_path, text, named):
        path = tmp_path / "g.txt"
        path.write_text(text)
        code, out, err = run(capsys, "value", "--graph", f"edge_list:{path}")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error[config]: {path}{named}")

    def test_malformed_graph_exits_1(self, capsys):
        code, _, err = run(capsys, "spectrum", "--graph", "moebius:4")
        assert code == 1
        assert err.startswith("error[config]:")

    def test_missing_graph_exits_1(self, capsys):
        code, _, err = run(capsys, "spectrum")
        assert code == 1

    def test_bad_flag_exits_1(self, capsys):
        code, _, err = run(capsys, "spectrum", "--graph", "cycle:4", "--frobnicate")
        assert code == 1

    def test_domain_error_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"graph": {"kind": "edge_list", "edges": [[1, 2]], "n": 3}}))
        code, _, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error[domain]:")
        assert "\n" not in err.strip()

    def test_bad_t_grid_exits_1(self, capsys):
        code, _, err = run(capsys, "variance-curve", "--measure", "dirac", "--t-grid", "oops")
        assert code == 1

    def test_nonpositive_c_exits_1(self, capsys):
        code, _, err = run(capsys, "value", "--measure", "dirac", "--c", "-1")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            "value --graph cycle:10 --c nan",
            "value --graph complete:30 --T inf",
            "value --graph cycle:10 --sigma 1e400",
            "nash-audit --graph cycle:6 --steps 100 --c inf",
            "simulate --graph cycle:3 --paths 10 --dt nan",
            "simulate --graph cycle:3 --paths 10 --dt 5e-324",
            "simulate --graph cycle:3 --paths 10 --dt 1e-20",
            "simulate --graph cycle:3 --paths 10 --record-times 0.5,nan",
            "value --graph edge_list:{tmp}/missing.txt",
            "value --graph edge_list:{tmp}",
            "value --graph edge_list:{tmp}/binary.txt",
            "simulate --graph cycle:3 --paths 10 --seed -1",
            "value --graph erdos_renyi:20,0.5 --seed -1",
            "simulate --graph cycle:3 --paths 10 --seed 340282366920938463463374607431768211456",
            "value --graph cycle:10 --out {tmp}",
            "value --graph cycle:10 --out {tmp}/no_such_dir/value.json",
            "simulate --graph cycle:3 --paths 10 --dump-samples {tmp}",
            "simulate --graph cycle:3 --paths 10 --dump-samples {tmp}/no_such_dir/samples.csv",
            "variance-curve --measure dirac --t-grid 0:1:0",
            "coop --graph cycle:6 --t-grid 0:1:0",
            "value --graph cycle:10,7",
            "value --graph complete:5,9",
            "nash-audit --graph torus:3,2,5",
            "value --measure dirac:7",
            "value --measure cycle:5",
            "fig1 --c 2",
            "variance-curve --measure dirac --st 100",
            "coop --graph cycle:10 --steps 100",
            "value --measure dirac --steps 100",
            "variance-curve --measure cycle --steps 100",
            "fig1 --steps 400",
            "fig2 --steps 400",
            "fig3 --steps 400",
            "simulate --graph cycle:6 --paths 10 --steps 100",
            "solve-f --measure cycle --steps 100000000000000000000",
            "nash-audit --graph cycle:5 --steps 100000000000000000000",
            "simulate --graph cycle:5 --paths 100000000000000000000",
            "value --measure dirac --config {tmp}/binary.txt",
            "variance-curve --measure dirac --t-grid 0:1:100000000000000000000",
            "coop --graph cycle:6 --t-grid 0:1:100000000000000000000",
            "variance-curve --measure dirac --t-grid 0:inf:3",
        ],
    )
    def test_bad_input_exits_1_with_one_line(self, capsys, tmp_path, argv):
        (tmp_path / "binary.txt").write_bytes(b"\xff\xfe 1 2\n")
        code, out, err = run(capsys, *argv.format(tmp=tmp_path).split())
        assert code == 1 and out == ""
        assert err.startswith("error[config]:")
        assert len(err.splitlines()) == 1
        assert _NAMED_IN_MESSAGE.get(argv, "") in err

    @pytest.mark.parametrize(
        "argv",
        [
            "value --graph cycle:6 --c 1e200",
            "value --measure torus:2 --c 1e300",
            "coop --graph cycle:6 --c 1e300 --t 0.5",
            "coop --graph cycle:5 --c 1e308 --t 0.5",
            "coop --graph cycle:6 --c 1e200 --T 1e200 --t 0.5",
            "nash-audit --graph cycle:6 --profile mean_field --c 1e200 --T 1e200 --steps 100",
            "variance-curve --measure cycle --c 1e300 --t 0.5",
            "variance-curve --graph cycle:6 --c 1e200 --t-grid 0:1:3",
            "solve-f --measure cycle --c 1e300",
            "value --measure cycle --c 1e4",
            "solve-f --measure cycle --c 1e308 --T 100",
            "nash-audit --graph cycle:20 --profile mean_field --c 1e7 --steps 100",
            "nash-audit --graph cycle:6 --profile zero --c 1e300 --steps 100",
            "nash-audit --graph cycle:6 --profile mean_field --c 1e300 --steps 100",
            "value --graph cycle:3 --sigma 1e300",
            "value --measure cycle --sigma 1e300",
            "variance-curve --measure cycle --sigma 1e300 --t 0.5",
            "coop --graph cycle:3 --sigma 1e300 --t 0.5",
            "nash-audit --graph cycle:3 --steps 100 --sigma 1e300",
            "nash-audit --graph cycle:6 --profile zero --c 1e3 --steps 2000",
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_c_gives_finite_output_or_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        if code == 3:
            assert out == "" and err.startswith("error[numeric]:")
            assert len(err.splitlines()) == 1
            return
        assert code == 0 and err == ""
        if argv.startswith(("value", "nash-audit")):
            payload = json.loads(out, parse_constant=_refuse_constant)
            assert all(math.isfinite(x) for x in _numbers(payload))
        else:
            json.loads(out.splitlines()[0][len("# config: "):], parse_constant=_refuse_constant)
            _, rows = parse_csv(out)
            assert np.isfinite(rows).all()

    def test_overflowing_ensemble_is_one_line(self, capsys):
        # The moments of paths near 1e150 overflow; the output check, not a
        # numpy warning, reports it.
        code, out, err = run(capsys, *"simulate --graph cycle:10 --profile equilibrium --paths 3 --sigma 1e150".split())
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        assert line == "error[numeric]: output holds a non-finite number"

    @pytest.mark.parametrize("cap", [("MAX_DEGREE", 32), ("NEWTON_MAX_ITER", 1)], ids=["degree", "newton"])
    def test_schedule_solve_failure_exits_3(self, capsys, monkeypatch, cap):
        from graphflock import flow

        monkeypatch.setattr(flow, *cap)
        code, out, err = run(capsys, "solve-f", "--measure", "cycle", "--c", "100")
        assert code == 3 and out == ""
        assert err.startswith("error[numeric]:")
        assert len(err.splitlines()) == 1

    @staticmethod
    def spectrum_under_memory_cap(graph: str) -> subprocess.CompletedProcess:
        """spectrum --graph graph under a 1.5 GiB address-space cap."""
        cap = 1536 * 2**20
        environ = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        environ.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        return subprocess.run(
            [sys.executable, "-m", "graphflock.cli", "spectrum", "--graph", graph],
            env=environ, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )

    def test_out_of_memory_exits_3(self):
        # Under the cap the graph's neighbor lists fit (1.4 MB), but the
        # 11.9 GiB dense Laplacian of its eigensolve does not.
        proc = self.spectrum_under_memory_cap("random_regular:40000,3")
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error[numeric]: out of memory: ")
        assert len(proc.stderr.splitlines()) == 1

    def test_out_of_memory_in_the_solver_exits_3(self):
        # The 763 MiB Laplacian fits under the cap, but the eigensolver's own
        # copy of it does not, and numpy's solver says nothing about it.
        proc = self.spectrum_under_memory_cap("random_regular:10000,3")
        assert proc.returncode == 3 and proc.stdout == ""
        prefix = "error[numeric]: out of memory: "
        assert proc.stderr.startswith(prefix) and proc.stderr[len(prefix):].strip()
        assert len(proc.stderr.splitlines()) == 1

    def test_bare_memory_error_exits_3_with_detail(self, capsys, monkeypatch):
        from graphflock import spectral

        def refuse(g):
            raise MemoryError()

        monkeypatch.setattr(spectral, "laplacian_eigensystem", refuse)
        code, out, err = run(capsys, "spectrum", "--graph", "cycle:4")
        prefix = "error[numeric]: out of memory: "
        assert code == 3 and out == ""
        assert err.startswith(prefix) and err[len(prefix):].strip()
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", ["coop --graph cycle:6 --t 0.5", "value --measure dirac"])
    def test_non_finite_output_exits_3(self, capsys, monkeypatch, argv):
        from graphflock import cooperative, equilibrium

        monkeypatch.setattr(cooperative, "coop_variance", lambda k, ts: np.full(len(ts), np.nan))
        monkeypatch.setattr(equilibrium, "limit_value", lambda *args: math.inf)
        code, out, err = run(capsys, *argv.split())
        assert code == 3 and out == ""
        assert err.startswith("error[numeric]:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("paths", ["1", "2"])
    def test_too_few_paths_exit_1_before_simulating(self, capsys, monkeypatch, paths):
        from graphflock import montecarlo

        monkeypatch.setattr(montecarlo, "simulate", lambda *args: pytest.fail("simulate ran"))
        code, out, err = run(capsys, "simulate", "--graph", "cycle:3", "--paths", paths, "--dt", "0.1")
        assert code == 1 and out == ""
        assert err.startswith("error[config]:") and "--paths" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "graph",
        [
            {"kind": "cycle"},
            {"kind": "cycle", "n": "abc"},
            {"kind": "edge_list", "edges": [[1, 2], [2]]},
            {"kind": "cycle", "n": 10.7, "bogus": 3},
            {"kind": "cycle", "n": 10, "bogus": 3},
            {"kind": "cycle", "n": True},
            {"kind": "erdos_renyi", "n": 10, "p": 0.5, "seed": 1.5},
            {"kind": "edge_list", "path": "g.txt", "edges": [[1, 2]]},
            {"n": 10},
        ],
    )
    def test_malformed_graph_object_exits_1(self, capsys, tmp_path, graph):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"graph": graph}))
        code, out, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error[config]:")
        assert len(err.splitlines()) == 1

    @pytest.mark.filterwarnings("ignore:graph transitivity:RuntimeWarning")
    def test_graph_object_records_like_its_text(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"graph": {"kind": "random_regular", "n": "20", "d": 3}, "seed": 4}))
        code, out, err = run(capsys, "value", "--config", str(cfg))
        assert code == 0, err
        _, text_out, _ = run(capsys, "value", "--graph", "rr:20,3", "--seed", "4")
        assert json.loads(out) == json.loads(text_out)
        assert json.loads(out)["config"]["graph"] == {"kind": "random_regular", "n": 20, "d": 3, "seed": 4}

    def test_largest_seed_is_accepted(self, capsys):
        code, _, err = run(capsys, "simulate", "--graph", "cycle:3", "--paths", "10", "--seed", str(2**128 - 1))
        assert code == 0 and err == ""

    def test_edge_list_path_may_hold_commas_and_spaces(self, capsys, tmp_path):
        folder = tmp_path / "with space"
        folder.mkdir()
        path = folder / "a,b.txt"
        path.write_text("1 2\n2 3\n3 1\n")
        code, out, err = run(capsys, "spectrum", "--graph", f"edge_list:{path}")
        assert code == 0 and err == ""
        assert config_line(out)["graph"] == {"kind": "edge_list", "path": str(path)}
        _, rows = parse_csv(out)
        assert np.allclose(rows[:, 1], [-1.5, -1.5, 0.0], atol=1e-12)

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
    def test_bad_lg_threads_exits_1(self, capsys, monkeypatch, value):
        monkeypatch.setenv("LG_THREADS", value)
        code, out, err = run(capsys, "spectrum", "--graph", "cycle:4")
        assert code == 1 and out == ""
        assert err.startswith("error[config]:") and "LG_THREADS" in err
        assert len(err.splitlines()) == 1


def _refuse(*args, **kwargs):
    raise AssertionError("eigenvectors were computed")


class TestEigenvalueOnlyCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            (command, "--graph", graph, *extra)
            for graph in ("cycle:12", "torus:4,2", "complete:9")
            for command, extra in (
                ("value", ()),
                ("variance-curve", ("--t-grid", "0:1:3")),
                ("solve-f", ("--steps", "200")),
                ("spectrum", ()),
            )
        ]
        + [("value", "--graph", "random_regular:20,3")],
        ids=lambda argv: " ".join(argv[:3]),
    )
    @pytest.mark.filterwarnings("ignore:graph transitivity:RuntimeWarning")
    def test_runs_without_eigh(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(np.linalg, "eigh", _refuse)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out

    @pytest.mark.parametrize("graph", ["cycle:12", "torus:4,2", "complete:9"])
    def test_coop_runs_without_eigensolver(self, capsys, monkeypatch, graph):
        monkeypatch.setattr(np.linalg, "eigh", _refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
        monkeypatch.setattr(scipy.linalg, "eigh", _refuse)
        code, out, err = run(capsys, "coop", "--graph", graph, "--t-grid", "0:1:3")
        assert code == 0, err
        assert out


#: Cells whose text must be format(x, ".15g") byte for byte.
_CELLS = [-0.0, 1e300, 5e-324, 0.1, 1.0 / 3.0, 2.0**53, -7.0]


class TestCsvWriter:
    def test_cells_are_written_as_format_15g(self, capsys, monkeypatch):
        from graphflock import equilibrium

        monkeypatch.setattr(equilibrium, "limit_variance", lambda s, sigma, ts: np.array(_CELLS))
        grid = f"0:1:{len(_CELLS)}"
        code, out, err = run(capsys, "variance-curve", "--measure", "dirac", "--t-grid", grid)
        assert code == 0 and err == ""
        ts = np.linspace(0.0, 1.0, len(_CELLS)).tolist()
        assert out.splitlines()[2:] == [f"{format(t, '.15g')},{format(x, '.15g')}" for t, x in zip(ts, _CELLS)]

    def test_spectrum_index_column_is_integers(self, capsys):
        from graphflock.graphs import cycle
        from graphflock.spectral import laplacian_eigensystem

        code, out, _ = run(capsys, "spectrum", "--graph", "cycle:12")
        assert code == 0
        eigenvalues = laplacian_eigensystem(cycle(12)).eigenvalues.tolist()
        assert out.splitlines()[2:] == [f"{i},{format(lam, '.15g')}" for i, lam in enumerate(eigenvalues)]

    def test_row_blocks_do_not_change_the_text(self, capsys, monkeypatch):
        from graphflock import cli

        argv = ("solve-f", "--measure", "cycle", "--steps", "100")
        whole = run(capsys, *argv)
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 7)
        assert run(capsys, *argv) == whole

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_cell_exits_3(self, capsys, monkeypatch, tmp_path, bad):
        from graphflock import equilibrium

        monkeypatch.setattr(equilibrium, "limit_variance", lambda s, sigma, ts: np.where(ts > 0.5, bad, ts))
        path = tmp_path / "curve.csv"
        argv = ("variance-curve", "--measure", "dirac", "--t-grid", "0:1:5", "--out", str(path))
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and not path.exists()
        assert err.startswith("error[numeric]:") and len(err.splitlines()) == 1

    def test_dump_rows_are_written_as_format_15g(self, capsys, monkeypatch, tmp_path):
        from graphflock import cli, montecarlo

        ensembles, simulate = [], montecarlo.simulate
        monkeypatch.setattr(montecarlo, "simulate", lambda *args: ensembles.append(simulate(*args)) or ensembles[-1])
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 4)  # one path per block of rows
        dump = tmp_path / "samples.csv"
        code, _, err = run(
            capsys, "simulate", "--graph", "cycle:3", "--profile", "zero", "--paths", "5",
            "--dt", "0.1", "--record-times", "0.5,1", "--dump-samples", str(dump),
        )
        assert code == 0, err
        (e,) = ensembles
        expected = [
            f"{path},{player},{format(float(t), '.15g')},{format(float(x), '.15g')}"
            for t in e.times
            for path, row in enumerate(e.states[t])
            for player, x in enumerate(row)
        ]
        assert dump.read_text().splitlines() == ["path,player,t,x", *expected]


class TestSubcommandOptions:
    def test_flag_of_another_command_exits_1(self, capsys):
        code, out, err = run(capsys, "spectrum", "--graph", "cycle:4", "--paths", "5")
        assert code == 1 and out == ""
        assert err.startswith("error[config]:")
        assert "\n" not in err.strip()

    def test_config_option_of_another_command_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"paths": 5}))
        code, out, err = run(capsys, "spectrum", "--graph", "cycle:4", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error[config]:") and "spectrum" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "spectrum --graph cycle:4",
            "solve-f --measure dirac --steps 100",
            "variance-curve --measure dirac --t 1",
            "value --measure dirac",
            "nash-audit --graph cycle:4 --profile zero --steps 100",
            "simulate --graph cycle:3 --profile zero --paths 3 --dt 0.5",
            "coop --graph cycle:4 --t 1",
        ],
    )
    @pytest.mark.filterwarnings("ignore:graph transitivity:RuntimeWarning")
    def test_config_records_only_the_options_taken(self, capsys, argv):
        command = argv.split()[0]
        code, out, err = run(capsys, *argv.split())
        assert code == 0, err
        config = config_line(out) if out.startswith("# config: ") else json.loads(out)["config"]
        (subparsers,) = _build_parser()._subparsers._group_actions
        taken = {action.dest for action in subparsers.choices[command]._actions}
        model = {"c", "T", "sigma", "steps", "seed"}
        assert config.keys() & model == taken & model

    def test_benchmark_commands_parse(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks itself up there
        spec.loader.exec_module(workloads)
        parser = _build_parser()
        for workload in workloads.WORKLOADS:
            for op in workloads.ops(workload, 1):
                parser.parse_args([*op.argv, "--out", "artifact"])

    @pytest.mark.parametrize(
        "workload",
        [
            pytest.param("finite-spectral", marks=pytest.mark.filterwarnings("ignore:graph transitivity:RuntimeWarning")),
            "limit-figures",
            "nash-audit",
            "monte-carlo",
        ],
    )
    def test_benchmark_artifacts_pass_its_checks(self, monkeypatch, tmp_path, workload):
        # Each op's artifact, written through main, passes the benchmark's own check of it.
        harness = {}
        for name in ("workloads", "checks"):
            spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
            harness[name] = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, name, harness[name])  # a dataclass looks itself up there
            spec.loader.exec_module(harness[name])
        checks = harness["checks"].CHECKS[workload](1)
        for op in harness["workloads"].ops(workload, 1):
            out = tmp_path / f"{op.label}.{op.suffix}"
            assert main([*op.argv, "--out", str(out)]) == 0, op.label
            checks[op.label](out)

    def test_readme_examples_parse(self):
        block = (ROOT / "README.md").read_text().split("Examples:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        assert len(lines) == 6 and all(argv[0] == "graphflock" for argv in lines)
        for argv in lines:
            _build_parser().parse_args(argv[1:])

    # --steps is taken only where it moves the data.
    def test_steps_sets_the_solve_f_grid(self, capsys):
        rows = [parse_csv(run(capsys, "solve-f", "--measure", "dirac", "--steps", k)[1])[1] for k in ("1", "100", "200")]
        assert [len(r) for r in rows] == [2, 101, 201]

    def test_steps_moves_the_audit_gaps(self, capsys):
        argv = ("nash-audit", "--graph", "cycle:6", "--profile", "mean_field", "--steps")
        gaps = [[p["gap"] for p in json.loads(run(capsys, *argv, k)[1])["players"]] for k in ("100", "200")]
        assert gaps[0] != gaps[1]


def _python(code: str, **env) -> str:
    environ = {k: v for k, v in os.environ.items() if not k.endswith(("_NUM_THREADS", "_THREAD_TIMEOUT"))}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), environ.get("PYTHONPATH")]))
    environ.update(env)
    proc = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "argv",
    [
        "value --graph random_regular:50,3 --seed 1",
        "nash-audit --graph random_regular:50,3 --seed 1 --profile equilibrium --steps 100",
        "simulate --graph random_regular:50,3 --seed 1 --profile equilibrium --paths 10",
    ],
)
def test_warning_is_one_line(argv):
    (line,) = _fresh_stderr(argv, 0).splitlines()
    assert line.startswith("warning: graph transitivity is not established")


@pytest.mark.parametrize(
    "argv",
    [
        "solve-f --measure torus:2 --c 1e308",
        "variance-curve --measure torus:2 --c 1e308 --t 1",
        "value --graph cycle:5 --c 1e308",
        "nash-audit --graph cycle:6 --c 1e308 --profile equilibrium",
        "simulate --graph cycle:6 --profile equilibrium --c 1e308 --paths 5",
        "value --graph random_regular:50,3 --seed 1 --c 1e308",
        "simulate --graph random_regular:50,3 --seed 1 --profile equilibrium --c 1e308 --paths 5",
    ],
)
def test_overflow_is_one_line(argv):
    # x * lam overflows inside Q' at c*T = 1e308: no numpy warning, nor the warning of a kernel
    # that is never built, may precede the error.
    (line,) = _fresh_stderr(argv, 3).splitlines()
    assert line.startswith("error[numeric]: Q'(1e+308)")


def _fresh_stderr(argv: str, code: int) -> str:
    """main's stderr for argv, run in a fresh interpreter so that Python's
    default warning filters and display apply, not pytest's capture."""
    return _python(
        "import contextlib, io, os\n"
        "from graphflock.cli import main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    assert main({argv.split()!r} + ['--out', os.devnull]) == {code}\n"
        "print(err.getvalue(), end='')\n"
    )


class TestThreadCap:
    def test_importing_the_cli_loads_no_numpy(self):
        out = _python("import sys, graphflock.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
        assert out == "[]"

    @staticmethod
    def blas_env_at_numpy_load(**env) -> str:
        """OPENBLAS_NUM_THREADS and OPENBLAS_THREAD_TIMEOUT as numpy loads
        under a main call, in a fresh interpreter with env."""
        code = (
            "import os, sys\n"
            "seen = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.extend(os.environ.get(f'OPENBLAS_{v}') for v in ('NUM_THREADS', 'THREAD_TIMEOUT'))\n"
            "sys.meta_path.insert(0, Spy())\n"
            "from graphflock.cli import main\n"
            "assert main(['spectrum', '--graph', 'cycle:4', '--out', os.devnull]) == 0\n"
            "print(seen)\n"
        )
        return _python(code, **env)

    def test_lg_threads_set_before_numpy_loads(self):
        assert self.blas_env_at_numpy_load(LG_THREADS="1") == "['1', '20']"

    def test_thread_timeout_set_before_numpy_loads(self):
        assert self.blas_env_at_numpy_load() == "[None, '20']"
        assert self.blas_env_at_numpy_load(OPENBLAS_THREAD_TIMEOUT="28") == "[None, '28']"

    @pytest.mark.skipif(
        "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()
        or len(os.sched_getaffinity(0)) < 2,
        reason="needs numpy on OpenBLAS and two cores",
    )
    def test_idle_blas_workers_sleep(self):
        # By default an idle OpenBLAS worker spins for 2^28 cycles (about
        # 0.1 s of CPU) after a threaded call, on the cores the Monte Carlo
        # draw pool would use; the CLI shortens that to 2^20 cycles.
        code = (
            "import contextlib, io, os, time\n"
            "from graphflock.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['simulate', '--profile', 'equilibrium', '--graph', 'cycle:200',\n"
            "                 '--record-times', '0.5,1', '--paths', '400', '--seed', '1']) == 0\n"
            "start = time.process_time()\n"
            "time.sleep(0.3)\n"
            "print(time.process_time() - start)\n"
        )
        assert float(_python(code, OPENBLAS_NUM_THREADS="2")) < 0.03


class TestImportFootprint:
    """No command loads scipy: dense spectra run on numpy's eigensolver."""

    @staticmethod
    def scipy_modules_after(argv: str) -> list[str]:
        code = (
            "import contextlib, io, json, sys, warnings\n"
            "from graphflock.cli import main\n"
            "warnings.simplefilter('ignore')\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv.split()!r}) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
        return json.loads(_python(code))

    @pytest.mark.parametrize(
        "argv",
        [
            "fig1",
            "value --measure kesten_mckay:3",
            "nash-audit --graph cycle:20 --profile equilibrium --steps 100",
            "simulate --graph cycle:20 --profile equilibrium --paths 3",
        ],
    )
    def test_closed_forms_and_limits_run_on_numpy_alone(self, argv):
        assert self.scipy_modules_after(argv) == []

    def test_dense_spectrum_runs_on_numpy_alone(self):
        for argv in ("value --graph random_regular:50,3 --seed 1", "spectrum --graph erdos_renyi:40,0.3 --seed 1"):
            assert self.scipy_modules_after(argv) == [], argv


def test_readme_library_quickstart_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_every_public_name_resolves():
    # The package resolves its exports lazily, so a stale entry fails only when used.
    import graphflock

    for name in graphflock.__all__:
        assert getattr(graphflock, name) is not None, name
    assert "game_value_spectral" not in graphflock.__all__
    with pytest.raises(AttributeError):
        graphflock.game_value_spectral
