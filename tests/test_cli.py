import json
import os
import subprocess
import sys

import pytest

from greenp2 import ProjMap, configuration_map, dump_map_json, map_from_dict, read_map, volume_decay
from greenp2.cli import run
from greenp2.errors import ParseError


@pytest.fixture(scope="module")
def power_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("maps") / "power.json"
    path.write_text(dump_map_json(configuration_map("3-3", 2, 0)))
    return str(path)


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "greenp2.cli", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    return proc


class TestMapFiles:
    def test_round_trip(self):
        f = configuration_map("1-2", 2, rng_seed=4)
        g = map_from_dict(json.loads(dump_map_json(f, {"note": "x"})))
        for a, b in zip(f.components, g.components):
            assert a.to_string() == b.to_string()

    def test_bad_exponent_pinpointed(self):
        obj = {
            "schema": 1,
            "degree": 2,
            "components": [[[2, 0, 0, 1.0, 0.0]], [[1, 1, 1, 1.0, 0.0]], [[0, 0, 2, 1.0, 0.0]]],
            "metadata": {},
        }
        with pytest.raises(ParseError) as info:
            map_from_dict(obj)
        assert "component 1, monomial 0" in str(info.value)

    def test_unknown_field_rejected(self):
        obj = {"schema": 1, "degree": 2, "components": [[], [], []], "metadata": {}, "extra": 1}
        with pytest.raises(ParseError) as info:
            map_from_dict(obj)
        assert "extra" in str(info.value)

    def test_wrong_schema_rejected(self):
        with pytest.raises(ParseError):
            map_from_dict({"schema": 99, "degree": 2, "components": [[], [], []]})


class TestCommands:
    def test_classify_power_fixture(self, power_path, capsys):
        code = run(["classify", "--map", power_path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["row_id"] == "3-3" and out["lines"] == 3 and out["points"] == 3

    def test_green_values(self, power_path, capsys):
        code = run(["green", "--map", power_path, "--samples", "3", "--seed", "7"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["values"]) == 3
        for row in out["values"]:
            assert row["tail_bound"] <= out["tol"]

    def test_equidist_nonconvergence_flagged_exit_zero(self, power_path, capsys):
        code = run(
            ["equidist", "--map", power_path, "--curve", "z", "--n", "4", "--samples", "500", "--seed", "3"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "no_convergence_trend" in out["notes"]
        dists = [r["l1_distance"] for r in out["rows"]]
        assert min(dists) > 0.1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tol", "0", "tol must be positive"),
            ("--tol", "-1", "tol must be positive"),
            ("--n", "-1", "n_max must be non-negative"),
            ("--samples", "0", "need at least 2 samples"),
            ("--samples", "1", "need at least 2 samples"),
        ],
    )
    def test_equidist_refuses_bad_arguments(self, power_path, capsys, flag, value, message):
        args = ["equidist", "--map", power_path, "--curve", "z+w+2t", "--n", "2", "--samples", "50"]
        code = run(args + [flag, value])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n", "0", "--n must be at least 1"),
            ("--n", "-1", "--n must be at least 1"),
            ("--samples", "0", "need at least 2 samples"),
            ("--samples", "1", "need at least 2 samples"),
            ("--radius", "0", "radius must be positive"),
            ("--radius", "-0.1", "radius must be positive"),
        ],
    )
    def test_volume_refuses_bad_arguments(self, power_path, capsys, flag, value, message):
        args = ["volume", "--map", power_path, "--n", "2", "--samples", "50"]
        code = run(args + [flag, value])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_green_refuses_bad_samples(self, power_path, capsys, value):
        code = run(["green", "--map", power_path, "--samples", value])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: --samples must be at least 1\n"

    def test_volume_rows_equal_per_n_volume_decay(self, power_path, capsys):
        code = run(["volume", "--map", power_path, "--n", "3", "--samples", "500",
                    "--chart", "z", "--point", "0.2,0.1j", "--seed", "4"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        f = read_map(power_path)
        want = [volume_decay(f, (0, (0.2, 0.1j), 0.1), n, 500, seed=4) for n in (1, 2, 3)]
        assert out["rows"] == [
            {
                "n": rep.n,
                "jacobian_bound": rep.jacobian_bound,
                "jacobian_stderr": rep.jacobian_stderr,
                "occupancy": rep.occupancy,
                "occupancy_cells": rep.occupancy_cells,
            }
            for rep in want
        ]

    def test_in_process_runs_match_separate_processes(self, power_path, capsys):
        """The parser is built once per process; a second command must not see the first's."""
        a = ["volume", "--map", power_path, "--n", "2", "--samples", "300", "--seed", "3"]
        b = ["green", "--map", power_path, "--samples", "2", "--tol", "1e-3"]
        outs = []
        for argv in (a, b, a):
            assert run(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs == [run_cli(a).stdout, run_cli(b).stdout, run_cli(a).stdout]

    def test_invariants_report(self, power_path, capsys):
        code = run(["invariants", "--map", power_path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["lines"]) == 3 and len(out["points"]) == 3
        assert out["transition"]["rho"] == pytest.approx(2.0, abs=1e-8)

    def test_mult_report(self, power_path, capsys):
        code = run(["mult", "--map", power_path, "--n", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["points"]) == 7
        assert out["flags"] == []

    def test_lelong_command(self, power_path, capsys):
        code = run(["lelong", "--map", power_path, "--point", "0,0", "--chart", "t"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["estimate"] == pytest.approx(2.0, abs=0.05)

    def test_kiselman_command(self, power_path, capsys):
        code = run(["kiselman", "--map", power_path, "--point", "0,0", "--alpha", "0.5,1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["estimate"] == pytest.approx(1.5, abs=0.05)

    def test_missing_map_errors(self, capsys):
        code = run(["classify", "--map", "/nonexistent/map.json"])
        assert code == 1

    def test_numerical_failure_flags_exit_two(self, capsys):
        """Any populated flags list in a completed report yields exit code 2."""
        import argparse

        from greenp2.cli import _emit

        args = argparse.Namespace(command="green", out=None, csv=None)
        assert _emit(args, {"flags": ["fit_unstable: test"]}) == 2
        capsys.readouterr()
        assert _emit(args, {"flags": []}) == 0
        capsys.readouterr()


class TestPipelineAndDeterminism:
    def test_gen_pipes_into_invariants(self):
        gen = run_cli(["gen", "lattes-ueda", "--d", "2"])
        assert gen.returncode == 0
        inv = run_cli(["invariants"], stdin_text=gen.stdout)
        assert inv.returncode == 0
        out = json.loads(inv.stdout)
        assert out["lines"] == [] and out["points"] == [] and out["invariant_points"] == []

    def test_gen_round_trip_parses(self, tmp_path):
        gen = run_cli(["gen", "table1", "--row", "2-2", "--d", "2", "--seed", "5"])
        f = read_map(gen.stdout)
        assert isinstance(f, ProjMap) and f.degree == 2
        again = run_cli(["gen", "table1", "--row", "2-2", "--d", "2", "--seed", "5"])
        assert gen.stdout == again.stdout

    def test_byte_identical_reports(self, power_path, tmp_path):
        outs = []
        for _ in range(2):
            r = run_cli(
                ["equidist", "--map", power_path, "--curve", "z+w+2t", "--n", "3",
                 "--samples", "400", "--seed", "11"]
            )
            outs.append(r.stdout)
        assert outs[0] == outs[1]

    def test_csv_format(self, power_path, tmp_path):
        csv_path = str(tmp_path / "series.csv")
        r = run_cli(
            ["equidist", "--map", power_path, "--curve", "z+w+2t", "--n", "2",
             "--samples", "300", "--seed", "2", "--csv", csv_path]
        )
        assert r.returncode == 0
        raw = open(csv_path, "rb").read().decode()
        lines = raw.split("\n")
        assert lines[0] == "n,value,stderr,clip_fraction"
        assert len(lines) == 5 and lines[-1] == ""
        assert "\r" not in raw
        for line in lines[1:4]:
            fields = line.split(",")
            assert len(fields) == 4 and "." in fields[1]

    def test_default_seed_from_env(self, power_path):
        a = run_cli(["green", "--map", power_path, "--samples", "2"])
        b = subprocess.run(
            [sys.executable, "-m", "greenp2.cli", "green", "--map", power_path, "--samples", "2"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src", "GREENP2_DEFAULT_SEED": "99"},
        )
        assert a.stdout != b.stdout
        assert json.loads(b.stdout)["seed"] == 99
