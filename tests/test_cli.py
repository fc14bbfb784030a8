import json
import os
import subprocess
import sys

import pytest

from greenp2 import (
    ProjMap,
    ProjPoint,
    configuration_map,
    dump_map_json,
    green,
    green_batch,
    map_from_dict,
    read_map,
    volume_decay,
)
from greenp2.cli import run
from greenp2.errors import ParseError
from greenp2.sampling import fs_points


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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("entry", 7, "component 1, monomial 0: expected [i, j, k, re, im]"),
            ("entry", [0.5, 0.5, 1, 1.0, 0.0], "component 1, monomial 0: exponents [0.5, 0.5, 1] are not all integers"),
            ("entry", ["2", 0, 0, 1.0, 0.0], "component 1, monomial 0: exponents ['2', 0, 0] are not all integers"),
            ("entry", [True, 1, 0, 1.0, 0.0], "component 1, monomial 0: exponents [True, 1, 0] are not all integers"),
            ("entry", [2, 0, 0, "1", 0.0], "component 1, monomial 0: coefficient ['1', 0.0] is not two numbers"),
            ("degree", 2.7, "degree must be an integer, not 2.7"),
            ("degree", True, "degree must be an integer, not True"),
            ("metadata", [], "metadata must be a JSON object"),
            ("metadata", "note", "metadata must be a JSON object"),
        ],
        ids=["entry-not-a-list", "fractional-exponents", "string-exponent", "boolean-exponent",
             "string-coefficient", "fractional-degree", "boolean-degree", "metadata-list", "metadata-string"],
    )
    def test_malformed_input_refused(self, tmp_path, capsys, field, value, message):
        """Each raised a stray TypeError or IndexError, or was read as another map."""
        obj = json.loads(dump_map_json(configuration_map("3-3", 2, 0)))
        if field == "entry":
            obj["components"][1][0] = value
        else:
            obj[field] = value
        with pytest.raises(ParseError) as info:
            map_from_dict(obj)
        assert str(info.value) == message
        path = tmp_path / "map.json"
        path.write_text(json.dumps(obj))
        code = run(["classify", "--map", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"


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

    @pytest.mark.parametrize("row, d", [("1-0", 3), ("2-3", 2)])
    def test_green_report_is_one_batch(self, tmp_path, capsys, row, d):
        """The values are one green_batch call on the seeded samples, bit for bit; the
        steps, tail and sup are the single-point green's fields."""
        path = tmp_path / "map.json"
        path.write_text(dump_map_json(configuration_map(row, d, 7)))
        code = run(["green", "--map", str(path), "--samples", "7", "--seed", "2", "--tol", "1e-8"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        f = read_map(str(path))
        pts = fs_points(7, 2)
        assert [r["value"] for r in out["values"]] == green_batch(f, pts, tol=1e-8).tolist()
        for x, r in zip(pts, out["values"]):
            ev = green(f, ProjPoint(x), tol=1e-8)
            assert (r["n_used"], r["tail_bound"], out["sup_log_norm"]) == (ev.n_used, ev.tail_bound, ev.sup_log)
            assert abs(r["value"] - ev.value) <= 1e-14

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["green", "--tol", "nan"], "tol must be finite"),
            (["green", "--tol", "inf"], "tol must be finite"),
            (["lelong", "--point", "nan,0"], "point must be finite"),
            (["kiselman", "--point", "0,inf"], "point must be finite"),
            (["kiselman", "--alpha", "inf,1"], "weights must be finite"),
            (["kiselman", "--alpha", "0,1"], "weights must be positive"),
        ],
    )
    def test_refuses_nonfinite_input(self, power_path, capsys, argv, message):
        """Each ran on: a stray error, one Green step, or a NaN estimate with exit 0."""
        code = run([argv[0], "--map", power_path, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("curve, name", [("0", "'0'"), ("1", "'1.0'")])
    def test_equidist_refuses_constant_curve(self, power_path, capsys, curve, name):
        """Degree 0 gave a division by k = 0 and NaN rows, exit 2."""
        code = run(["equidist", "--map", power_path, "--curve", curve, "--n", "2", "--samples", "50"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: curve {name} is constant: need a nonzero form of degree at least 1\n"

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
            ("--tol", "inf", "tol must be finite"),
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
            ("--radius", "inf", "radius must be finite"),
            ("--point", "nan,0", "center must be finite"),
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

    def test_mult_refuses_negative_samples(self, power_path, capsys):
        """numpy's "negative dimensions are not allowed" named no option."""
        code = run(["mult", "--map", power_path, "--samples", "-3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: --samples must be non-negative\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["green", "--tol", "1e-320"], "tol = 1e-320 needs 2^1063"),
            (["equidist", "--n", "1100"], "--n 1100 needs 2^1100"),
            (["volume", "--n", "1100"], "--n 1100 needs 2^2200"),
        ],
    )
    def test_refuses_steps_beyond_float_range(self, power_path, capsys, argv, message):
        """Each died with an OverflowError traceback from d**n."""
        code = run([argv[0], "--map", power_path, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}, which overflows a float\n"

    @pytest.mark.parametrize(
        "argv",
        [["invariants", "--n", "3"], ["classify", "--csv", "x.csv"], ["green", "--csv", "x.csv"]],
    )
    def test_options_that_did_nothing_are_gone(self, power_path, capsys, argv):
        """invariants --n only set a report field; --csv on a command without a series
        printed the report and then exited 1."""
        assert run([argv[0], "--map", power_path, *argv[1:]]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--version"], ["classify", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out

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
        assert "horizon" not in out

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
        assert out["estimate"] == 2.0
        assert out["flags"] == [] and "seed" not in out

    def test_kiselman_command(self, power_path, capsys):
        code = run(["kiselman", "--map", power_path, "--point", "0,0", "--alpha", "0.5,1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["estimate"] == 1.5
        assert out["flags"] == [] and "seed" not in out and "fit_residual" not in out

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

    def test_volume_csv_rows(self, power_path, tmp_path):
        csv_path = tmp_path / "volume.csv"
        r = run_cli(["volume", "--map", power_path, "--n", "2", "--samples", "300", "--seed", "2",
                     "--csv", str(csv_path)])
        assert r.returncode == 0
        want = [["n", "value", "stderr", "clip_fraction"]] + [
            [str(x["n"]), repr(x["occupancy"]), repr(x["jacobian_stderr"]), "0.0"] for x in json.loads(r.stdout)["rows"]
        ]
        assert [line.split(",") for line in csv_path.read_text().splitlines()] == want

    def test_default_seed_from_env(self, power_path):
        a = run_cli(["green", "--map", power_path, "--samples", "2"])
        b = subprocess.run(
            [sys.executable, "-m", "greenp2.cli", "green", "--map", power_path, "--samples", "2"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src", "GREENP2_DEFAULT_SEED": "99"},
        )
        assert a.stdout != b.stdout
        assert json.loads(b.stdout)["seed"] == 99

    def test_default_seed_env_must_be_an_integer(self, power_path, monkeypatch, capsys):
        """A value int() cannot read gave a ValueError traceback."""
        monkeypatch.setenv("GREENP2_DEFAULT_SEED", "abc")
        code = run(["green", "--map", power_path, "--samples", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: GREENP2_DEFAULT_SEED must be an integer\n"
