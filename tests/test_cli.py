import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphflock.cli import _build_parser, main

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
}


def _refuse_constant(name):
    raise AssertionError(f"output holds {name}")


class TestBasicCommands:
    def test_spectrum_cycle4(self, capsys):
        code, out, err = run(capsys, "spectrum", "--graph", "cycle:4")
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["index", "eigenvalue"]
        assert np.allclose(sorted(rows[:, 1]), [-2, -1, -1, 0], atol=1e-12)
        assert config_line(out)["command"] == "spectrum"

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
        code, out, _ = run(capsys, "value", "--measure", "cycle", "--steps", "500")
        assert code == 0
        assert json.loads(out)["value"] > 0.5 * math.log(2.0)

    def test_variance_curve_torus_measure(self, capsys):
        code, out, _ = run(capsys, "variance-curve", "--measure", "torus:2",
                           "--steps", "500", "--t", "0.5")
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
        code, out1, _ = run(capsys, "fig1", "--steps", "400")
        assert code == 0
        code, out2, _ = run(capsys, "fig1", "--steps", "400")
        assert out1 == out2  # byte-stable
        header, rows = parse_csv(out1)
        assert header[0] == "t" and len(header) == 9
        assert rows.shape == (101, 9)

    def test_fig2_monotone_in_dimension(self, capsys):
        code, out, _ = run(capsys, "fig2", "--steps", "400")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "torus_d1", "torus_d2", "torus_d4", "dense"]
        mid = rows[50]
        assert mid[1] > mid[2] > mid[3] > mid[4]

    def test_fig3_ordering(self, capsys):
        code, out, _ = run(capsys, "fig3", "--steps", "400")
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
        code, _, err = run(capsys, "value", "--measure", "dirac", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error[config]:")
        assert "\n" not in err.strip()

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
        ],
    )
    def test_extreme_c_gives_finite_output_or_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        if code == 3:
            assert out == "" and err.startswith("error[numeric]:")
            assert len(err.splitlines()) == 1
            return
        assert code == 0 and err == ""
        if argv.startswith("value"):
            payload = json.loads(out, parse_constant=_refuse_constant)
            assert math.isfinite(payload["value"])
        else:
            json.loads(out.splitlines()[0][len("# config: "):], parse_constant=_refuse_constant)
            _, rows = parse_csv(out)
            assert np.isfinite(rows).all()

    @pytest.mark.parametrize("argv", ["coop --graph cycle:6 --t 0.5", "value --measure dirac"])
    def test_non_finite_output_exits_3(self, capsys, monkeypatch, argv):
        from graphflock import cooperative, equilibrium

        monkeypatch.setattr(cooperative, "coop_variance", lambda k, ts: np.full(len(ts), np.nan))
        monkeypatch.setattr(equilibrium, "limit_value", lambda *args: math.inf)
        code, out, err = run(capsys, *argv.split())
        assert code == 3 and out == ""
        assert err.startswith("error[numeric]:")
        assert len(err.splitlines()) == 1

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
                ("value", ("--steps", "200")),
                ("variance-curve", ("--steps", "200", "--t-grid", "0:1:3")),
                ("solve-f", ("--steps", "200")),
                ("spectrum", ()),
            )
        ]
        + [("value", "--graph", "random_regular:20,3", "--steps", "200")],
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
        code, out, err = run(capsys, "coop", "--graph", graph, "--t-grid", "0:1:3")
        assert code == 0, err
        assert out


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

    def test_benchmark_commands_parse(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks itself up there
        spec.loader.exec_module(workloads)
        parser = _build_parser()
        for workload in workloads.WORKLOADS:
            for op in workloads.ops(workload, 1):
                parser.parse_args([*op.argv, "--out", "artifact"])


def _python(code: str, **env) -> str:
    environ = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), environ.get("PYTHONPATH")]))
    environ.update(env)
    proc = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestThreadCap:
    def test_importing_the_cli_loads_no_numpy(self):
        out = _python("import sys, graphflock.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
        assert out == "[]"

    def test_lg_threads_set_before_numpy_loads(self):
        code = (
            "import os, sys\n"
            "seen = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "sys.meta_path.insert(0, Spy())\n"
            "from graphflock.cli import main\n"
            "assert main(['spectrum', '--graph', 'cycle:4', '--out', os.devnull]) == 0\n"
            "print(seen)\n"
        )
        assert _python(code, LG_THREADS="1") == "['1']"
