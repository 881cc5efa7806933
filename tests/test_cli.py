"""Command-line interface: subcommands, exit codes, report determinism."""

import argparse
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import meandim
from meandim import cli, limits
from meandim.cli import main
from meandim.reportio import dumps_canonical


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_cli_process(*argv):
    """The CLI in a fresh interpreter, so a traceback would show on stderr."""
    src = str(Path(meandim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "meandim.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


class TestSubcommands:
    def test_carpet_inline_tuples(self, capsys):
        code, out = run_cli(
            capsys, "carpet", "--a", "3", "--b", "2", "--tuples", "00,11,20"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["mdim_h"]["value"] - 1.3496838201) < 1e-9
        assert abs(doc["mdim_m"]["value"] - 1.3690702464) < 1e-9
        assert doc["mdim_h"]["status"] == "exact"
        assert doc["schema_version"] == 1

    def test_entropy_full_shift(self, capsys, tmp_path):
        spec = tmp_path / "full2.json"
        spec.write_text('{"alphabet": 2, "kind": "full"}')
        code, out = run_cli(capsys, "entropy", "--spec", str(spec))
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["best_estimate"] - 0.6931471805599453) < 1e-10
        assert doc["counts"]["4"] == "16"

    def test_bm_classical(self, capsys):
        code, out = run_cli(
            capsys, "bm-classical", "--a", "3", "--b", "2", "--tuples", "00,11,20"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["equal"] is False

    def test_bm_classical_gap_is_decided_exactly(self, capsys):
        # occupancies 1 and 2: the dimensions differ, by only 3.0e-10
        code = main(["bm-classical", "--a", "1000000", "--b", "999999",
                     "--tuples", "0:0,1:1,2:1"])
        out, err = capsys.readouterr()
        assert code == 0
        assert '"equal":false' in out and '"witness":[1,2]' in out
        assert err == ""

    def test_beta(self, capsys):
        code, out = run_cli(
            capsys, "beta", "--a", "2", "--beta", "2.5", "--n", "2", "--N", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family_separated"] is True
        assert abs(doc["min_gap"] - 0.16) < 1e-12

    def test_grid2d(self, capsys, tmp_path):
        rule = tmp_path / "rule.json"
        rule.write_text('{"a": 2, "rule": "linear", "coeffs": [1, 1, 1]}')
        code, out = run_cli(
            capsys, "grid2d", "--rule", str(rule), "--nmax", "3", "--mmax", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"]["3,3"] == "32"

    def test_oracle_qbox(self, capsys):
        code, out = run_cli(
            capsys,
            "oracle", "qbox",
            "--a", "3", "--b", "2", "--tuples", "00,11,20",
            "--N", "1", "--M", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == "6"
        assert doc["separation"]["ok"] is True

    def test_oracle_qbox_with_one_image_word(self, capsys):
        # every image layer has one option; the sampled check exited 4 with
        # "spec error: empty range for randrange()"
        code, out = run_cli(
            capsys,
            "oracle", "qbox",
            "--a", "3", "--b", "2", "--tuples", "00,10,20",
            "--N", "2", "--M", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == "6561"
        assert doc["separation"]["mode"] == "sampled_pairs"
        assert doc["separation"]["ok"] is True

    def test_oracle_cover_with_csv(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("x1\n" + "\n".join(str(j / 8) for j in range(8)) + "\n")
        code, out = run_cli(
            capsys, "oracle", "cover", "--points", str(pts), "--eps", "0.26"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] <= doc["exact"] <= doc["upper"]

    def test_oracle_hdim(self, capsys):
        code, out = run_cli(
            capsys, "oracle", "hdim", "--diams", "0.25,0.25", "--eps", "0.3"
        )
        assert code == 0
        assert abs(json.loads(out)["exponent"] - 0.5) < 1e-9

    def test_oracle_hdim_root_past_1e9(self, capsys):
        # exited 4 with "exponent search diverged"; the root is about 6.2e15
        code, out = run_cli(capsys, "oracle", "hdim", "--diams",
                            "0.9999999999999999,0.9999999999999999", "--eps", "1")
        assert code == 0
        assert json.loads(out)["exponent"] == pytest.approx(math.log(2) / 2.0**-53, rel=1e-12)

    def test_oracle_mass(self, capsys):
        code, out = run_cli(
            capsys,
            "oracle", "mass",
            "--a", "3", "--b", "2", "--tuples", "00,11,20",
            "--mmin", "4", "--mmax", "5",
        )
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_oracle_appendix_k(self, capsys):
        code, out = run_cli(capsys, "oracle", "appendix-k", "--eps", "0.0001")
        assert code == 0
        doc = json.loads(out)
        assert 0.40 <= doc["minkowski_scale"] <= 0.60
        assert doc["hausdorff_scale_upper"] == 0


class TestExitCodes:
    def test_spec_error_is_4(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alphabet": 2, "kind": "nonsense"}')
        code, _ = run_cli(capsys, "entropy", "--spec", str(bad))
        assert code == 4

    def test_missing_file_is_4(self, capsys):
        code, _ = run_cli(capsys, "entropy", "--spec", "/nonexistent.json")
        assert code == 4

    def test_empty_subshift_is_4(self, capsys, tmp_path):
        spec = tmp_path / "empty.json"
        spec.write_text('{"alphabet": 2, "kind": "sft", "matrix": [[0, 1], [0, 0]]}')
        code, _ = run_cli(capsys, "entropy", "--spec", str(spec))
        assert code == 4

    def test_resource_limit_is_3(self, capsys):
        code, _ = run_cli(
            capsys,
            "oracle", "qbox",
            "--a", "3", "--b", "2", "--tuples", "00,11,20",
            "--N", "3", "--M", "5", "--budget", "1000",
        )
        assert code == 3

    def test_cover_at_nan_eps_exits_4(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("x1,x2\n0,0.25\n0.5,0.5\n")
        assert main(["oracle", "cover", "--points", str(points), "--eps", "nan"]) == 4
        assert "eps = nan" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "hdim", "--diams", "0.25,0.25", "--eps", "nan"], "eps = nan is not a number above 0"),
        (["oracle", "hdim", "--diams", "0.25,0.25", "--eps", "-1"], "eps = -1.0 is not a number above 0"),
        (["oracle", "appendix-k", "--witness", "--eps", "0.5"], "eps = 0.5 must lie in (0, 1/6)"),
        (["oracle", "appendix-k", "--witness", "--eps", "nan"], "eps = nan must lie in (0, 1/6)"),
    ])
    def test_eps_refusal_names_eps_and_its_value(self, capsys, argv, message):
        # hdim blamed a diameter; the witness left the value out
        assert main(argv) == 4
        assert capsys.readouterr().err == f"spec error: {message}\n"

    @pytest.mark.parametrize("row", ["nan,0.3", "0.3,inf"])
    def test_cover_of_a_non_finite_coordinate_exits_4(self, capsys, tmp_path, row):
        # nan used to give lower 1, upper 1 and exact 2, which is no bracket
        points = tmp_path / "points.csv"
        points.write_text(f"x1,x2\n{row}\n0.5,0.5\n")
        assert main(["oracle", "cover", "--points", str(points), "--eps", "0.2"]) == 4
        assert capsys.readouterr().err == "spec error: cloud coordinates must be finite numbers\n"

    @pytest.mark.parametrize("rows, brackets", [
        # two points: the scale and the exact cover
        (["1e308", "-1e308"], '"exact":2,"lower":2'),
        # chains of two signs 1/64 apart in x2: the grid join measures across them
        ([f"{(-1) ** i * 1e308!r},{(i // 2) / 64!r}" for i in range(200)], '"lower":50'),
        # 900 points at least 2^1000 apart: the scan
        ([repr(v) for i in range(450) for v in (1e308 - i * 2.0**1000, -1e308 + i * 2.0**1000)],
         '"lower":900'),
    ])
    def test_cover_across_an_overflowing_difference_warns_nothing(self, tmp_path, rows, brackets):
        """A linf distance past the double range is inf, above every eps: the
        brackets hold and stderr stays empty (numpy printed RuntimeWarnings)."""
        points = tmp_path / "points.csv"
        header = ",".join(f"x{k + 1}" for k in range(rows[0].count(",") + 1))
        points.write_text("\n".join([header, *rows]) + "\n")
        proc = run_cli_process("oracle", "cover", "--points", str(points), "--eps", "0.0625")
        assert proc.returncode == 0
        assert proc.stderr == ""
        upper = {2: 2, 200: 100, 900: 900}[len(rows)]
        assert proc.stdout == ('{"command":"oracle cover","eps":0.0625,' + brackets
                               + f',"provenance":"oracle","schema_version":1,"upper":{upper}}}\n')

    def test_overflowing_z_exits_4(self, capsys):
        argv = ["weighted-entropy", "--a", "3", "--b", "2", "--tuples", "00,10,20",
                "--w", "1", "--nmax", "700"]
        assert main(argv) == 4
        assert "Z_647 or one of its terms passes the double range" in capsys.readouterr().err

    def test_grid2d_budget_exits_3_without_traceback(self, tmp_path):
        rule = tmp_path / "rule.json"
        hard_square = [  # the 2x2 windows without two adjacent 1s
            [[0, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]],
            [[0, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 1], [1, 0]],
        ]
        rule.write_text(json.dumps(
            {"a": 2, "rule": "patterns", "window": [2, 2], "allowed": hard_square}
        ))
        proc = run_cli_process(
            "grid2d", "--rule", str(rule), "--nmax", "4", "--mmax", "4", "--budget", "4"
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("resource limit:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", [["weighted-entropy", "--w", "0.5"], ["carpet"]])
    def test_word_set_omega_exits_4(self, capsys, tmp_path, command):
        # the enumeration-only wordset kind is gone: an omega written in it
        # is a kind the spec reader does not know
        spec = tmp_path / "pair.json"
        omega = {"alphabet": 4, "kind": "wordset", "words": {"1": ["0", "1"]}}
        spec.write_text(json.dumps({"a": 2, "b": 2, "omega": omega}))
        assert main([command[0], "--spec", str(spec), *command[1:]]) == 4
        assert "unknown subshift kind 'wordset'" in capsys.readouterr().err

    def test_carpet_past_the_subset_budget_exits_3(self, capsys, monkeypatch):
        # the image is determinized exactly or refused, never approximated
        monkeypatch.setitem(meandim.limits.DEFAULT_CAPS, "subset", 1)
        assert main(["carpet", "--a", "3", "--b", "2", "--tuples", "00,11,20"]) == 3
        assert capsys.readouterr().err == (
            "resource limit: subset budget: 2 or more subsets exceed the cap 1\n"
        )

    def test_grid2d_column_codes_past_int64(self, tmp_path):
        # 64 rows: column codes up to 2^64 - 1; the two live strips build
        rule = tmp_path / "rule.json"
        allowed = [[[0, 0], [0, 0]], [[1, 1], [1, 1]]]  # all-0 and all-1 windows
        rule.write_text(json.dumps({"a": 2, "rule": "patterns", "window": [2, 2],
                                    "allowed": allowed}))
        proc = run_cli_process("grid2d", "--rule", str(rule), "--nmax", "64", "--mmax", "3")
        assert proc.returncode in (0, 3), proc.stderr
        assert "Traceback" not in proc.stderr
        if proc.returncode == 0:
            assert json.loads(proc.stdout)["counts"]["64,3"] == "2"

    @pytest.mark.parametrize("rule", [{"a": 10**6, "rule": "free"},
                                      {"a": 10**6, "rule": "linear", "coeffs": [0, 0, 0]}])
    def test_grid2d_count_past_the_decimal_digit_cap_exits_3(self, capsys, tmp_path, rule):
        # 10^4800 has 4801 digits, more than str() prints: this exited 4 with
        # a spec error (free) or ran for over a minute (linear)
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(rule))
        out = tmp_path / "report.json"
        argv = ["grid2d", "--rule", str(path), "--nmax", "1", "--mmax", "800", "--out", str(out)]
        assert main(argv) == 3
        cap = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == (
            f"resource limit: digit budget: count 1,800: 4801 decimal digits exceed the cap {cap}\n"
        )
        assert not out.exists()
        # 716 cells, 4297 digits, still print
        assert main(argv[:-3] + ["716"]) == 0
        assert len(json.loads(capsys.readouterr().out)["counts"]["1,716"]) == 4297

    @pytest.mark.parametrize("coeffs, n, m, cell", [([1, 1, 0], 3, 15000, "1,15000"),
                                                     ([1, 0, 1], 15000, 3, "15000,1")])
    def test_grid2d_digit_refusal_names_the_first_largest_cell(self, tmp_path, coeffs, n, m,
                                                               cell):
        # 2^m in every row (2^n in every column): the refusal, made before the
        # grid is counted, names the first cell that holds the largest count
        path = tmp_path / "rule.json"
        path.write_text(json.dumps({"a": 2, "rule": "linear", "coeffs": coeffs}))
        code, out, err = call_main(["grid2d", "--rule", str(path), "--nmax", str(n),
                                    "--mmax", str(m)])
        assert (code, out) == (3, "")
        cap = sys.get_int_max_str_digits()
        assert err == (f"resource limit: digit budget: count {cell}: 4516 decimal digits "
                       f"exceed the cap {cap}\n")

    def test_decimal_digits_next_to_powers_of_ten(self):
        # a swept count past the digit cap is counted as the one power (count, 1)
        for d in (1, 2, 15, 16, 22, 23, 308, 309, 4300):
            for value in (10 ** (d - 1), 10 ** (d - 1) + 1, 10**d - 1):
                assert limits.decimal_digits([(value, 1)]) == len(str(value)) == d

    @pytest.mark.parametrize("powers", [
        [], [(1, 5)], [(2, 16)], [(3, 7), (1, 9)], [(10, 3), (3, 0)], [(2, 3), (5, 3)],
        [(999999, 1)], [(1000000, 1)], [(4, 2), (25, 2), (7, 0)], [(2, 10), (5, 9)],
        [(10, 30000)], [(2, 70000), (5, 70000)], [(5, 36000), (8, 12000)],  # powers of ten
        [(10, 30000), (3, 1)], [(2, 70001), (5, 70000)], [(5, 36000), (8, 11999)],
        [(2, 100000)], [(3, 50000), (7, 40000)], [(999999, 4000)], [(6, 40000), (1, 10**12)],
        [(4, 2**15 + 1), (1, 0)], [(2**16 - 1, 4097)],
    ])
    def test_closed_form_digits_match_the_product(self, powers):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = len(str(math.prod(b**e for b, e in powers)))
        finally:
            sys.set_int_max_str_digits(previous)
        assert limits.decimal_digits(powers) == want

    def test_closed_form_digits_of_powers_too_large_to_take(self):
        assert limits.decimal_digits([(2, 10**10)]) == 3010299957  # floor(10^10 log10 2) + 1
        assert limits.decimal_digits([(10, 10**10)]) == 10**10 + 1
        assert limits.decimal_digits([(2, 10**12), (5, 10**12)]) == 10**12 + 1
        assert limits.decimal_digits([(1, 10**100)]) == 1

    def test_oracle_mass_budget_exits_3_without_traceback(self):
        proc = run_cli_process(
            "oracle", "mass", "--a", "3", "--b", "2", "--tuples", "00,11,20",
            "--N", "2", "--mmin", "4", "--mmax", "6", "--budget", "3",
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            "resource limit: word budget: fiber frontier at length 2: 4 (word, state) entries"
            " exceed the cap 3\n"
        )

    @pytest.mark.parametrize("flags", [
        ["--a", "2", "--b", "2", "--tuples", "00,11", "--mmin", "1", "--mmax", "2"],
        ["--a", "4", "--b", "2", "--tuples", "00,11,31", "--mmin", "2", "--mmax", "3"],
        ["--a", "9007199254740993", "--b", "9007199254740992", "--tuples", "0:0,1:1",
         "--mmin", "1", "--mmax", "1"],
        # log a - 3 log b is a few ulps, not 0.0: exit 2 and exit 0 with |largest_s| ~ 1e15
        ["--a", "125", "--b", "5", "--tuples", "0:0,1:1,2:1", "--N", "1", "--mmin", "3",
         "--mmax", "3"],
        ["--a", "1000", "--b", "10", "--tuples", "0:0,1:1,2:1", "--N", "1", "--mmin", "3",
         "--mmax", "3"],
    ])
    def test_oracle_mass_at_box_scale_one_exits_4(self, capsys, flags):
        # log a - M log b = 0.0 was a ZeroDivisionError traceback
        assert main(["oracle", "mass", *flags]) == 4
        m = flags[flags.index("--mmin") + 1]
        assert capsys.readouterr().err.startswith(f"spec error: M = {m}: the box scale")

    @pytest.mark.parametrize("flags, m", [
        (["--a", "3", "--b", "2", "--tuples", "00,11,20", "--N", "1", "--mmin", "1", "--mmax", "1",
          "--s", "0.5"], 1),
        (["--a", "1000000000000", "--b", "2", "--tuples", "00,11"], 4),
    ])
    def test_oracle_mass_at_a_box_scale_above_one_exits_4(self, flags, m):
        # both exited 2 with passed false, though every box has mass <= 1 <= (a b^-M)^s
        code, out, err = call_main(["oracle", "mass", *flags])
        assert (code, out) == (4, "")
        assert err.startswith(f"spec error: M = {m}: the box scale a b^-M is 1 or more")

    @pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
    def test_oracle_mass_at_a_non_finite_s_exits_4(self, s):
        # -inf exited 0 with all_passed true; nan and inf ran every box and exited 2
        code, out, err = call_main(["oracle", "mass", "--a", "3", "--b", "2",
                                    "--tuples", "00,11,20", f"--s={s}"])
        assert (code, out) == (4, "")
        assert err == f"spec error: exponent s = {s} is not a finite number\n"

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_oracle_mass_default_s_is_the_fiber_size_sum(self, data):
        """The default --s is log(sum_v t(v)^w) / log b - 0.1, the same double
        as the fsum over the tuple fiber sizes gives."""
        b = data.draw(st.integers(2, 12))
        a = data.draw(st.integers(b, 40))
        rel = data.draw(st.sets(st.tuples(st.integers(0, a - 1), st.integers(0, b - 1)),
                                min_size=1, max_size=40))
        spec = meandim.carpet_from_tuples(a, b, rel)
        want = math.log(math.fsum(
            t**spec.w for t in meandim.weighted.tuple_fiber_sizes(spec.system).values()
        )) / math.log(b) - 0.1
        seen = []

        def check(spec, n, m_range, s, seed, budget):
            seen.append(s)
            return {"all_passed": True, "identity_ok": True, "identity_max_err": 0.0, "per_m": {}}

        tuples = ",".join(f"{u}:{v}" for u, v in sorted(rel))
        with mock.patch.object(cli.oracle, "mass_distribution_check", check):
            code, _, _ = call_main(["oracle", "mass", "--a", str(a), "--b", str(b),
                                    "--tuples", tuples])
        assert code == 0
        assert seen == [want]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_oracle_qbox_on_a_huge_base_runs_under_a_memory_cap(self, fmt):
        # the witness terms ran over every digit of the base: MemoryError
        proc = run_cli_capped(1 << 30, "oracle", "qbox", "--a", "1000000000000",
                              "--b", "1000000000000", "--tuples", "0:0,1:1", "--N", "1",
                              "--M", "2", "--format", fmt)
        assert proc.returncode in (0, 2, 3, 4), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("n_coords", ["0", "-1"])
    def test_beta_coordinate_window_below_one_exits_4(self, n_coords):
        # --N -1 exited 1 with an IndexError traceback from digit_points
        code, out, err = call_main(["beta", "--a", "2", "--beta", "2.5", "--N", n_coords])
        assert (code, out) == (4, "")
        assert err == (f"spec error: window N = {n_coords} and digit layers n = 3 "
                       "must be >= 1\n")

    def test_beta_budget_exits_3_without_traceback(self):
        proc = run_cli_process("beta", "--a", "2", "--beta", "2.5", "--n", "2", "--N", "2",
                               "--budget", "3")
        assert proc.returncode == 3
        assert proc.stderr.startswith("resource limit:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_beta_readme_example_is_refused_by_the_default_budget(self):
        proc = run_cli_process("beta", "--a", "2", "--beta", "2.5", "--n", "4", "--N", "6")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("resource limit:")


    @pytest.mark.parametrize(
        "doc",
        [
            {"alphabet": 2, "kind": "sft", "matrix": 5},
            {"alphabet": 2, "kind": "forbidden", "forbidden": 5},
            [1, 2],
            {"alphabet": 2, "kind": "sft", "matrix": [[1, "x"], [1, 1]]},
            {"alphabet": 2, "kind": "sft", "matrix": [[1, [1]], [1, 1]]},
        ],
    )
    def test_malformed_spec_exits_4(self, capsys, tmp_path, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["entropy", "--spec", str(spec)]) == 4
        assert capsys.readouterr().err.startswith("spec error:")

    @pytest.mark.parametrize("doc, message", [
        ({"alphabet": 5, "kind": "sft", "matrix": [[1, 1], [1, 0]]},
         "alphabet 5 disagrees with the sft body's 2 symbols"),
        ({"alphabet": 7, "kind": "tuples", "tuples": {"a": 3, "b": 2, "R": [[0, 0], [1, 1]]}},
         "alphabet 7 disagrees with the tuples body's 6 symbols"),
    ])
    def test_alphabet_that_disagrees_with_the_body_exits_4(self, capsys, tmp_path, doc, message):
        # both exited 0, as a 2-symbol SFT and a 6-symbol product shift
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["entropy", "--spec", str(spec)]) == 4
        assert capsys.readouterr().err == f"spec error: {message}\n"

    def test_large_forbidden_spec_runs_under_a_memory_cap(self, tmp_path):
        # 18 states, one per proper prefix of the three words (the block automaton
        # had 46,656, and the spectral solve refused them)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"alphabet": 6, "kind": "forbidden", "forbidden": ["3302433", "2324141", "2104245"]}
        ))
        proc = run_cli_capped(1536 << 20, "entropy", "--spec", str(spec))
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout)["counts"]
        assert counts["6"] == str(6**6) and counts["7"] == str(6**7 - 3)

    @pytest.mark.parametrize(
        "doc, size",
        [
            ({"alphabet": 10**8, "kind": "full"}, "full shift: 100000000 symbols"),
            ({"alphabet": 10**7, "kind": "forbidden", "forbidden": ["00"]},
             "3 states x 10000000 symbols: 30000000 transitions"),
        ],
    )
    def test_huge_alphabet_is_refused_by_the_word_budget(self, tmp_path, doc, size):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli_capped(1 << 30, "entropy", "--spec", str(spec))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("resource limit: word budget:")
        assert size in proc.stderr and "the cap 20000000" in proc.stderr

    @pytest.mark.parametrize(
        "k, words, counts",
        [
            # two symbols forbidden outright: (k - 2)^n words
            (10**5, ["0", "7"], lambda n: (10**5 - 2) ** n),
            # no 00 factor: words ending in 0 follow a word not ending in 0
            (20000, ["00"], lambda n: golden_counts(20000, n)),
        ],
    )
    def test_forbidden_spec_on_a_large_alphabet_runs(self, tmp_path, k, words, counts):
        # 3 states of k transitions each, under the word budget
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"alphabet": k, "kind": "forbidden", "forbidden": words}))
        proc = run_cli_capped(1 << 30, "entropy", "--spec", str(spec), "--nmax", "6")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["counts"] == {str(n): str(counts(n)) for n in range(1, 7)}

    def test_forbidden_symbols_do_not_count_as_live(self, capsys, tmp_path):
        # eight of ten symbols forbidden and a word of length 8: 2^6 words of length 6
        spec = tmp_path / "spec.json"
        words = [str(c) for c in range(2, 10)] + ["0" * 8]
        spec.write_text(json.dumps({"alphabet": 10, "kind": "forbidden", "forbidden": words}))
        code, out = run_cli(capsys, "entropy", "--spec", str(spec), "--nmax", "6")
        assert code == 0
        assert json.loads(out)["counts"]["6"] == str(2**6)

    def test_one_free_symbol_and_its_long_run_forbidden_is_empty(self, capsys, tmp_path):
        # 0 is the only symbol left, and 0^40 is forbidden: no infinite sequence
        spec = tmp_path / "spec.json"
        doc = {"alphabet": 2, "kind": "forbidden", "forbidden": ["1", "0" * 40]}
        spec.write_text(json.dumps(doc))
        assert main(["entropy", "--spec", str(spec)]) == 4
        assert "no admissible infinite sequence" in capsys.readouterr().err

    def test_tuples_spec_with_a_huge_projected_alphabet_runs(self, tmp_path):
        # only the occupied columns of the 50,000,000 get a fiber size
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"alphabet": 150_000_000, "kind": "tuples", "tuples": {
            "a": 3, "b": 50_000_000, "R": [[0, 0], [1, 1]]}}))
        proc = run_cli_capped(1 << 30, "weighted-entropy", "--spec", str(spec), "--w", "0.5")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["closed_form"] == pytest.approx(math.log(2))


def golden_counts(k, n):
    """Words of length n over k symbols with no 00 factor."""
    zero, other = 1, k - 1  # the words of length 1 ending in 0, and in another symbol
    for _ in range(n - 1):
        zero, other = other, (k - 1) * (zero + other)
    return zero + other


def run_cli_capped(cap, *argv):
    """The CLI in a fresh interpreter whose address space is capped at `cap`
    bytes (the limit is set in the child only), with one BLAS thread and
    the default budgets."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(meandim.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "MEANDIM_BUDGET"}
    return subprocess.run(
        [sys.executable, "-m", "meandim.cli", *argv],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=limit_memory,
        timeout=120,
    )


class TestTupleAlphabetBudget:
    HUGE = ["--a", "1000000000000", "--b", "1000000000000", "--tuples", "0:0,1:1"]

    @pytest.mark.parametrize("command", ["bm-classical", "carpet"])
    def test_huge_tuple_alphabets_are_refused_by_the_word_budget(self, command):
        # both list one occupancy per column of b (the classical formulas)
        proc = run_cli_capped(1 << 30, command, *self.HUGE)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == ("resource limit: word budget: carpet: 1000000000000 columns"
                               " exceed the cap 20000000\n")


def automaton_doc(transitions, root=0, alphabet=2):
    return {
        "alphabet": alphabet,
        "kind": "automaton",
        "automaton": {"root": root, "transitions": transitions},
    }


class TestAutomatonSpecChecks:
    @pytest.mark.parametrize(
        "doc, message",
        [
            (automaton_doc([[0, 2, 0]]), "label leaves the alphabet"),
            (automaton_doc([[0, -1, 0]]), "label leaves the alphabet"),
            (automaton_doc([[0, 0, -1], [0, 1, 0]]), "states must be nonnegative"),
            (automaton_doc([[0, 0, 1.5]]), "states must be nonnegative"),
            (automaton_doc([["0", 0, 0]]), "states must be nonnegative"),
            (automaton_doc([[0, 0, 0]], root=1), "root 1 is not one of the states"),
            (automaton_doc([[0, 0, 2]], root=1), "root 1 has no transitions"),
            (automaton_doc([[0, 0, 0]], root=-1), "root -1 is not one of the states"),
            (automaton_doc([]), "nonempty transition list"),
            (automaton_doc([[0, 0, 0, 0]]), "is not [state, label, state]"),
            (automaton_doc([[0, 0, 0], [0, 0, 1]]), "two transitions labelled 0"),
        ],
    )
    def test_bad_automaton_spec_exits_4_without_traceback(self, tmp_path, doc, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli_process("entropy", "--spec", str(spec))
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    def test_dead_end_states_are_pruned_on_entry(self, capsys, tmp_path):
        # state 1 has no way on: "1" is not a prefix of any point
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(automaton_doc([[0, 0, 0], [0, 1, 1]])))
        code, out = run_cli(capsys, "entropy", "--spec", str(spec), "--nmax", "3")
        assert code == 0
        assert json.loads(out)["counts"] == {"1": "1", "2": "1", "3": "1"}

    def test_sparse_state_numbers_are_renumbered(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        doc = automaton_doc([[10**12, 0, 10**12], [10**12, 1, 10**12]], root=10**12)
        spec.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "entropy", "--spec", str(spec), "--nmax", "3")
        assert code == 0
        assert json.loads(out)["counts"] == {"1": "2", "2": "4", "3": "8"}

    def test_wide_spectral_bracket_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(meandim.symbolic, "SPECTRAL_LOG_TOL", 0.0)
        spec = tmp_path / "spec.json"
        spec.write_text('{"alphabet": 2, "kind": "forbidden", "forbidden": ["11"]}')
        assert main(["entropy", "--spec", str(spec)]) == 3
        assert "exceeds the tolerance 0" in capsys.readouterr().err


class TestOracleCoverSidecar:
    @pytest.mark.parametrize("kind", ["sum_weighted_abs", "sum_weighted_torus"])
    def test_iterates_past_the_coordinates_exits_4(self, capsys, tmp_path, kind):
        points = tmp_path / "cloud.csv"
        points.write_text("x1,x2\n0,0.25\n0.5,0.5\n")
        metric = tmp_path / "metric.json"
        metric.write_text(json.dumps({"kind": kind, "iterates": 5}))
        code = main(["oracle", "cover", "--points", str(points), "--metric", str(metric),
                     "--eps", "0.3"])
        assert code == 4
        assert capsys.readouterr().err == (
            "spec error: metric iterates 5 exceeds the cloud's 2 coordinates\n"
        )

    def test_iterates_equal_to_the_coordinates_runs(self, capsys, tmp_path):
        points = tmp_path / "cloud.csv"
        points.write_text("x1,x2\n0,0.25\n0.5,0.5\n")
        metric = tmp_path / "metric.json"
        metric.write_text(json.dumps({"kind": "sum_weighted_abs", "iterates": 2}))
        code, out = run_cli(capsys, "oracle", "cover", "--points", str(points),
                            "--metric", str(metric), "--eps", "0.3")
        assert code == 0
        assert json.loads(out)["exact"] == 2

    def test_linf_iterates_past_the_coordinates_takes_them_all(self, capsys, tmp_path):
        points = tmp_path / "cloud.csv"
        points.write_text("x1,x2\n0,0.25\n0.5,0.5\n")
        metric = tmp_path / "metric.json"
        metric.write_text(json.dumps({"kind": "linf_finite", "iterates": 5}))
        code, out = run_cli(capsys, "oracle", "cover", "--points", str(points),
                            "--metric", str(metric), "--eps", "0.3")
        assert code == 0
        assert json.loads(out)["exact"] == 2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["weighted-entropy", "--tuples", "00,11", "--w", "0.5"],
                "--tuples needs --a and --b",
            ),
            (["carpet", "--tuples", ""], "--tuples is empty"),
            (["carpet", "--a", "3", "--tuples", "00,11"], "--tuples needs --b"),
            (["carpet"], "provide --tuples or --spec"),
            (["bm-classical", "--a", "3", "--b", "2", "--tuples", ""], "--tuples is empty"),
            (["oracle", "qbox", "--a", "3", "--b", "2", "--tuples", "", "--N", "1", "--M", "2"],
             "--tuples is empty"),
            (["oracle", "mass", "--a", "3", "--b", "2", "--tuples", ""], "--tuples is empty"),
            # the file is never read: the flags conflict before any computation
            (["carpet", "--spec", "om.json", "--tuples", "00", "--a", "3", "--b", "2"],
             "argument --tuples: not allowed with argument --spec"),
            (["weighted-entropy", "--spec", "om.json", "--tuples", "00,11", "--a", "3", "--b", "2",
              "--w", "0.5"], "argument --tuples: not allowed with argument --spec"),
            # the spec file sets a and b; the flags were ignored and the report
            # printed the file's values
            (["carpet", "--spec", "om.json", "--a", "5", "--b", "7"],
             "carpet: --spec excludes --a and --b"),
            (["weighted-entropy", "--spec", "om.json", "--b", "2", "--w", "0.5"],
             "weighted-entropy: --spec excludes --b"),
        ],
    )
    def test_missing_or_empty_flag_exits_2_without_traceback(self, argv, message):
        proc = run_cli_process(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    def test_relation_commands_declare_the_same_flags(self):
        def subparsers(parser):
            action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return action.choices

        commands = dict(subparsers(cli.build_parser()))
        commands.update({f"oracle {k}": p for k, p in subparsers(commands.pop("oracle")).items()})
        flags = {
            name: {
                a.option_strings[0]: (a.type, a.required, a.default)
                for a in p._actions
                if a.dest in ("a", "b", "tuples", "spec")
            }
            for name, p in commands.items()
        }
        relation = {"--a": (int, False, None), "--b": (int, False, None),
                    "--tuples": (None, False, None)}
        with_spec = {**relation, "--spec": (None, False, None)}
        assert {name: f for name, f in flags.items() if "--tuples" in f} == {
            "carpet": with_spec,
            "weighted-entropy": with_spec,
            "bm-classical": relation,
            "oracle qbox": relation,
            "oracle mass": relation,
        }


class TestBudgetFlag:
    def test_budget_is_rejected_where_nothing_reads_it(self):
        proc = run_cli_process("bm-classical", "--a", "3", "--b", "2", "--tuples", "00,11",
                               "--budget", "5")
        assert proc.returncode == 2
        assert "unrecognized arguments: --budget 5" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "cover", "--points", "cloud.csv", "--eps", "0.25"],
            ["oracle", "hdim", "--diams", "0.25,0.25", "--eps", "0.3"],
            ["oracle", "appendix-k", "--eps", "1e-4"],
            ["paper-suite", "--quiet"],
        ],
    )
    def test_budget_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
            main(argv + ["--budget", "5"])
        assert exc.value.code == 2


class TestSeedFlag:
    def test_seed_is_rejected_where_nothing_samples(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"alphabet": 2, "kind": "full"}')
        proc = run_cli_process("entropy", "--spec", str(spec), "--seed", "1")
        assert proc.returncode == 2
        assert "unrecognized arguments: --seed 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "qbox", "--a", "3", "--b", "2", "--tuples", "00,11,20",
             "--N", "1", "--M", "2", "--seed", "1"],
            ["oracle", "mass", "--a", "3", "--b", "2", "--tuples", "00,11,20",
             "--mmin", "4", "--mmax", "4", "--seed", "1"],
            ["oracle", "appendix-k", "--eps", "1e-2", "--seed", "1"],
        ],
    )
    def test_sampling_commands_take_a_seed(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 0


# Spec documents for the fuzz test: well formed for their kind, or with one
# field replaced by arbitrary small JSON, so both the checks and the
# computations behind them run.
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2, 4) | st.text("01x", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abR", max_size=1), inner, max_size=2),
    max_leaves=6,
)
SYMBOL = st.integers(0, 3)
KIND_FIELDS = {
    "full": {},
    "sft": {"matrix": st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(st.sampled_from([0, 1]), min_size=k, max_size=k), min_size=k, max_size=k))},
    "forbidden": {"forbidden": st.lists(
        st.text("0123", min_size=1, max_size=3) | st.lists(SYMBOL, max_size=3), max_size=3)},
    "tuples": {"tuples": st.fixed_dictionaries({
        "a": st.integers(1, 3), "b": st.integers(1, 3),
        "R": st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2), max_size=4)})},
    "automaton": {"automaton": st.fixed_dictionaries({
        "root": SYMBOL,
        "transitions": st.lists(st.lists(SYMBOL, min_size=3, max_size=3), max_size=5)})},
    # a kind the reader no longer knows (the enumeration-only word sets)
    "wordset": {"words": st.dictionaries(
        st.sampled_from(["1", "2", "x"]), st.lists(st.text("012", max_size=2), max_size=3),
        max_size=2)},
}


@st.composite
def spec_docs(draw, alphabet=st.integers(1, 4)):
    kind = draw(st.sampled_from(sorted(KIND_FIELDS)))
    doc = {"alphabet": draw(alphabet), "kind": kind}
    doc.update({key: draw(field) for key, field in KIND_FIELDS[kind].items()})
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    return doc


@st.composite
def pair_docs(draw):
    b = draw(st.integers(1, 3))
    a = draw(st.integers(b, 3))  # carpets need a >= b >= 2
    doc = {"a": a, "b": b, "omega": draw(spec_docs(alphabet=st.just(a * b)))}
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    return doc


RULE_FIELDS = {
    "free": {},
    "linear": {"coeffs": st.lists(st.integers(-1, 3), min_size=3, max_size=3)},
    "patterns": {
        "window": st.lists(st.integers(1, 2), min_size=2, max_size=2),
        "allowed": st.lists(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=2),
                                     min_size=1, max_size=2), max_size=4),
    },
}


@st.composite
def rule_docs(draw):
    rule = draw(st.sampled_from(sorted(RULE_FIELDS)))
    doc = {"a": draw(st.integers(1, 3)), "rule": rule}
    doc.update({key: draw(field) for key, field in RULE_FIELDS[rule].items()})
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    return doc


@st.composite
def metric_docs(draw):
    doc = {
        "kind": draw(st.sampled_from(
            ["linf_finite", "sum_weighted_abs", "sum_weighted_torus"])),
        "iterates": draw(st.none() | st.integers(1, 3)),
        "truncation_error": draw(st.sampled_from([0.0, 0.01, 1.0])),
    }
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    return doc


COMMANDS = st.sampled_from([
    ["entropy", "--spec", "{spec}"],
    ["weighted-entropy", "--spec", "{spec}", "--w", "0.5"],
    ["carpet", "--spec", "{spec}"],
    ["beta", "--a", "2", "--beta", "2.5", "--omega", "{spec}", "--n", "2", "--N", "2"],
    ["grid2d", "--rule", "{spec}", "--nmax", "2", "--mmax", "2"],
    ["oracle", "cover", "--points", "{points}", "--metric", "{spec}", "--eps", "0.3"],
    ["oracle", "appendix-k"],
])
EXTRA_FLAGS = st.lists(
    st.tuples(st.sampled_from(["--nmax", "--budget", "--w", "--seed", "--eps", "--beta"]),
              st.sampled_from(["1", "2", "4", "0", "-1", "0.5", "x", "nan", "inf"])),
    max_size=2,
)


RELATION_COMMANDS = [
    ["bm-classical"],
    ["oracle", "qbox", "--N", "1", "--M", "1"],
    ["oracle", "mass", "--N", "1", "--mmin", "1", "--mmax", "2"],
    ["carpet"],
    ["weighted-entropy", "--w", "0.5"],
]
RELATION_FLAGS = {  # small, zero, negative and empty values
    "--a": ["-1", "0", "1", "2", "3", ""],
    "--b": ["-1", "0", "1", "2", "3", ""],
    "--tuples": ["", " ", "0", "00", "00,11,20", "0:0,1:1", "-1:0", "00,,11", "x"],
    "--spec": ["{spec}"],
}
HDIM_FLAGS = {
    "--diams": ["", "0", "-0.5", "0.5", "0.5,0.5", "1", "0.5,", "nan", "1e-300,1e-300"],
    "--eps": ["0", "-1", "0.5", "1", "nan", "inf"],
    "--tol": ["0", "-1", "1e-10", "nan", "1"],
}


@st.composite
def relation_flag_calls(draw):
    """A relation command, or `oracle hdim`, with each of its flags left out
    or drawn from the small values; --spec (a tuples spec) next to the rest."""
    hdim = draw(st.integers(0, 5)) == 0
    argv = ["oracle", "hdim"] if hdim else list(draw(st.sampled_from(RELATION_COMMANDS)))
    for flag, values in (HDIM_FLAGS if hdim else RELATION_FLAGS).items():
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    return argv


class TestCliFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec_docs() | pair_docs() | rule_docs() | metric_docs() | JUNK, COMMANDS, EXTRA_FLAGS)
    @example({"a": 2, "b": 2, "omega": {"alphabet": 4, "kind": "forbidden", "forbidden": ["11"]}},
             ["weighted-entropy", "--spec", "{spec}", "--w", "0.5"], [("--nmax", "0")])
    @example([1], ["grid2d", "--rule", "{spec}"], [])
    @example([1], ["oracle", "cover", "--points", "{points}", "--metric", "{spec}",
                   "--eps", "0.3"], [])
    @example({"a": 1, "rule": "free"}, ["grid2d", "--rule", "{spec}"], [])
    @example({"alphabet": 2, "kind": "wordset", "words": {"1": ["0"]}},  # an unknown kind
             ["beta", "--a", "2", "--beta", "2.5", "--omega", "{spec}", "--n", "2", "--N", "2"],
             [])
    @example({"kind": "sum_weighted_max", "iterates": None, "truncation_error": 0.0},  # retired
             ["oracle", "cover", "--points", "{points}", "--metric", "{spec}", "--eps", "0.3"],
             [])
    @example({}, ["oracle", "appendix-k"], [("--eps", "1")])
    @example({"alphabet": 2, "kind": "full"},
             ["beta", "--a", "2", "--beta", "2.5", "--omega", "{spec}", "--n", "2", "--N", "2"],
             [("--beta", "inf")])
    def test_exit_code_is_documented_and_no_traceback(self, tmp_path, doc, command, extra):
        """An exception escaping main, a traceback from the command line,
        fails the test; so does an undocumented exit code."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        points = tmp_path / "points.csv"
        points.write_text("x1,x2,x3\n0,0.25,0.5\n0.5,0.5,0.125\n0.75,0,1\n")
        argv = [arg.format(spec=spec, points=points) for arg in command]
        argv += [item for pair in extra for item in pair]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, doc, err.getvalue())
        if code == 0:  # one JSON document, and the same bytes from a second call
            json.loads(out.getvalue())
            assert call_main(argv)[:2] == (0, out.getvalue())

    @settings(max_examples=250, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(relation_flag_calls())
    @example(["carpet", "--spec", "{spec}", "--a", "3", "--b", "2"])
    @example(["oracle", "qbox", "--N", "1", "--M", "1", "--a", "0", "--b", "0", "--tuples", "00"])
    @example(["oracle", "mass", "--N", "1", "--mmin", "1", "--mmax", "2", "--a", "-1", "--b", "2",
              "--tuples", "00"])
    @example(["bm-classical", "--a", "3", "--b", "2", "--tuples", "00,,11"])
    @example(["oracle", "hdim", "--diams", "", "--eps", "1"])
    def test_relation_flags_exit_documented(self, tmp_path, argv):
        """bm-classical, oracle qbox, oracle mass, carpet, weighted-entropy
        and oracle hdim: every small value ends in a documented exit code
        without a traceback, and an exit 0 prints one JSON document, the
        same bytes twice."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"a": 3, "b": 2, "omega": {
            "alphabet": 6, "kind": "tuples", "tuples": {"a": 3, "b": 2, "R": [[0, 0], [1, 1]]}}}))
        argv = [arg.format(spec=spec) for arg in argv]
        code, out, err = call_main(argv)
        assert code in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err
        if code == 0:
            json.loads(out)
            assert call_main(argv)[:2] == (0, out)

    HUGE = str(10**12)

    @pytest.mark.parametrize("argv, code", [
        (["bm-classical", "--a", HUGE, "--b", "2", "--tuples", "00,11"], 0),
        (["bm-classical", "--a", HUGE, "--b", HUGE, "--tuples", "00,11"], 3),
        (["bm-classical", "--a", HUGE, "--b", "2", "--tuples", f"0:0,{10**12 - 1}:1"], 0),
        (["oracle", "qbox", "--a", HUGE, "--b", "2", "--tuples", "00,11", "--N", "1", "--M", "1"],
         0),
        (["oracle", "qbox", "--a", HUGE, "--b", HUGE, "--tuples", "00,11", "--N", "1", "--M", "1"],
         0),
        (["oracle", "qbox", "--a", "3", "--b", "2", "--tuples", f"0:{HUGE}", "--N", "1",
          "--M", "1"], 4),
        (["oracle", "mass", "--a", HUGE, "--b", HUGE, "--tuples", "00,11"], 0),
        (["oracle", "mass", "--a", f"-{HUGE}", "--b", "2", "--tuples", "00"], 4),
        (["oracle", "hdim", "--diams", "0.5,0.5", "--eps", HUGE], 0),
        (["oracle", "hdim", "--diams", "0.5,0.5", "--eps", "1", "--tol", HUGE], 0),
    ])
    def test_huge_relation_values_under_a_memory_cap(self, argv, code):
        proc = run_cli_capped(1 << 30, *argv)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == code, proc.stderr
        if code == 0:
            json.loads(proc.stdout)


CARPET = ["--a", "3", "--b", "2", "--tuples", "00,11,20"]
SQUARE_SCALE = ["--a", "4", "--b", "2", "--tuples", "00,11,31"]
NUMERIC_FLAG_COMMANDS = [
    (["grid2d", "--rule", "{rule}"], ["--nmax", "--mmax"]),
    (["oracle", "qbox", *CARPET], ["--N", "--M"]),
    (["oracle", "mass", *CARPET], ["--N", "--mmin", "--mmax"]),
    (["oracle", "mass", *SQUARE_SCALE], ["--N", "--mmin", "--mmax"]),  # box scale 1 at M = 2
    (["oracle", "appendix-k", "--eps", "0.5"], ["--ncap", "--m", "--N"]),
    (["oracle", "appendix-k", "--witness"], ["--ncap", "--m", "--N"]),
    (["oracle", "hdim", "--diams", "0.1,0.2", "--eps", "0.5"], ["--tol"]),
    (["bm-classical", "--tuples", "00,11,20"], ["--a", "--b"]),
    (["beta", "--a", "2", "--beta", "2.5"], ["--n", "--N"]),
]
SMALL_INTS = [str(v) for v in range(-2, 5)]


@st.composite
def numeric_flag_calls(draw):
    command, flags = draw(st.sampled_from(NUMERIC_FLAG_COMMANDS))
    argv = list(command)
    for flag in flags:
        values = SMALL_INTS + ["0.0", "nan"] if flag == "--tol" else SMALL_INTS
        argv += [flag, draw(st.sampled_from(values))]
    return argv


class CallTimedOut(BaseException):
    """Raised by the alarm; main catches no BaseException."""


class TestNumericFlagFuzz:
    SECONDS = 10

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(numeric_flag_calls())
    @example(["oracle", "hdim", "--diams", "0.1,0.2", "--eps", "0.5", "--tol", "0"])
    @example(["oracle", "appendix-k", "--ncap", "0"])
    @example(["oracle", "appendix-k", "--witness", "--m", "0"])
    @example(["oracle", "mass", *CARPET, "--N", "1", "--mmin", "3", "--mmax", "2"])
    @example(["oracle", "mass", *SQUARE_SCALE, "--N", "1", "--mmin", "2", "--mmax", "2"])
    @example(["grid2d", "--rule", "{rule}", "--nmax", "0"])
    @example(["beta", "--a", "2", "--beta", "2.5", "--n", "1", "--N", "-1"])  # exited 1
    def test_small_values_exit_documented_in_time(self, tmp_path, argv):
        """Every small value of a numeric flag ends in a documented exit
        code, without an exception escaping main, within SECONDS."""
        rule = tmp_path / "rule.json"
        rule.write_text(json.dumps(
            {"a": 2, "rule": "patterns", "window": [1, 2], "allowed": [[[0, 0]], [[0, 1]], [[1, 0]]]}
        ))
        argv = [arg.format(rule=rule) for arg in argv]

        def hung(signum, frame):
            raise CallTimedOut(f"{argv} ran more than {self.SECONDS} s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, self.SECONDS)
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


class TestHugeValues:
    RULES = {"free": {"a": 2, "rule": "free"},
             "linear": {"a": 4, "rule": "linear", "coeffs": [2, 2, 2]}}  # g = 2

    @pytest.mark.parametrize("argv, refusal", [
        (["oracle", "appendix-k", "--ncap", str(10**12)],
         "word budget: reciprocal set: 1000000000000 atoms exceed the cap 20000000"),
        (["grid2d", "--rule", "{free}", "--nmax", "1000", "--mmax", "1000"],
         "digit budget: count 1000,1000: 301030 decimal digits exceed the cap {cap}"),
        (["grid2d", "--rule", "{linear}", "--nmax", "1000", "--mmax", "1000"],
         "digit budget: count 1000,1000: 301632 decimal digits exceed the cap {cap}"),
        (["grid2d", "--rule", "{free}", "--nmax", "100000", "--mmax", "100000"],
         "digit budget: count 100000,100000: 3010299957 decimal digits exceed the cap {cap}"),
        (["grid2d", "--rule", "{linear}", "--nmax", "100000", "--mmax", "100000"],
         "digit budget: count 100000,100000: 3010360163 decimal digits exceed the cap {cap}"),
        (["oracle", "qbox", *CARPET, "--N", "16", "--M", "1"],
         "word budget: 43046721 words exceed the cap 20000000"),
        (["beta", "--a", "2", "--beta", "2.5", "--n", "1", "--N", "24"],
         "point budget: covering family: 16777216 points exceed the cap 2000000"),
        # exited 4 with a ValueError from str() of the 7,225-digit box count
        (["oracle", "mass", "--a", "2", "--b", "2", "--tuples", "00,01,10,11", "--N", "12",
          "--mmin", "1000", "--mmax", "1000"],
         "digit budget: M = 1000: 7225 decimal digits exceed the cap {cap}"),
    ], ids=["appendix-k", "grid2d-free", "grid2d-linear", "grid2d-free-1e5", "grid2d-linear-1e5",
            "qbox", "beta", "mass-digits"])
    def test_huge_values_are_refused_under_a_memory_cap(self, tmp_path, argv, refusal):
        # each exited 1 with a traceback (MemoryError, SystemError) after 1-30 s:
        # the arrays, counts or words were built before the refusal
        for name, rule in self.RULES.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(rule))
        argv = [arg.format(free=tmp_path / "free.json", linear=tmp_path / "linear.json")
                for arg in argv]
        proc = run_cli_capped(1 << 30, *argv)
        assert "Traceback" not in proc.stderr
        refusal = refusal.format(cap=sys.get_int_max_str_digits())
        assert (proc.returncode, proc.stderr) == (3, f"resource limit: {refusal}\n")

    HUGE = str(10**12)

    @pytest.mark.parametrize("argv, refusal", [
        (["oracle", "qbox", *CARPET, "--N", HUGE, "--M", "1"],
         "word budget: 43046721 or more words exceed the cap 20000000"),
        (["oracle", "qbox", *CARPET, "--N", "1", "--M", HUGE],
         "word budget: box family: 33554432 or more boxes exceed the cap 20000000"),
        (["oracle", "mass", *CARPET, "--N", HUGE],
         "word budget: fiber table: 1000000000000 words exceed the cap 20000000"),
    ], ids=["qbox-N", "qbox-M", "mass-N"])
    def test_huge_box_levels_are_refused_from_counts(self, argv, refusal):
        # qbox and mass took b^M or (max out-degree)^N or counted words up
        # to N first: MemoryError or more than 60 s
        start = time.perf_counter()
        proc = run_cli_capped(1 << 30, *argv)
        assert (proc.returncode, proc.stderr) == (3, f"resource limit: {refusal}\n")
        assert time.perf_counter() - start < 1.0  # the interpreter's start included

    FILES = {
        "rule": {"a": 2, "rule": "patterns", "window": [1, 2],  # the fuzz rule: no 1, 1
                 "allowed": [[[0, 0]], [[0, 1]], [[1, 0]]]},
        "square": {"a": 2, "rule": "patterns", "window": [2, 2], "allowed": [  # hard square
            [[0, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]],
            [[0, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
        "one": {"alphabet": 2, "kind": "sft", "matrix": [[1, 0], [0, 0]]},  # the word 000...
        "full": {"alphabet": 2, "kind": "full"},
    }
    ONE_BOX = ["--a", "3", "--b", "2", "--tuples", "00"]
    ONE_COLUMN = ["--a", "3", "--b", "2", "--tuples", "00,10"]  # one projected word: |V|^M = 1
    UNDERFLOW = f"spec error: M = {HUGE}: box separation 2^-{HUGE} underflows double precision\n"
    WITNESS = ["oracle", "appendix-k", "--witness"]
    BEYOND = ["--a", str(10**400), "--b", str(10**400), "--tuples", "00,11"]  # past a double
    BASE = "spec error: base a of 1329 bits passes double precision\n"
    # with the cases above and in test_huge_relation_values_under_a_memory_cap, one call
    # per size flag of every command at 10^12
    CALLS = {
        "grid2d-nmax": (["grid2d", "--rule", "{rule}", "--nmax", HUGE], 3),
        "grid2d-mmax": (["grid2d", "--rule", "{rule}", "--mmax", HUGE], 3),
        "qbox-one-box-N": (["oracle", "qbox", *ONE_BOX, "--N", HUGE, "--M", "1"], 3),
        "qbox-one-box-M": (["oracle", "qbox", *ONE_BOX, "--N", "1", "--M", HUGE], 4),
        "mass-mmin": (["oracle", "mass", *CARPET, "--mmin", HUGE], 4),
        # the separation b^-M of the range's largest M, before the fiber table
        "mass-mmax": (["oracle", "mass", *CARPET, "--mmax", HUGE], 4, UNDERFLOW),
        "mass-M": (["oracle", "mass", *CARPET, "--mmin", HUGE, "--mmax", HUGE], 4, UNDERFLOW),
        "mass-N-mmax": (["oracle", "mass", *CARPET, "--N", HUGE, "--mmax", HUGE], 4, UNDERFLOW),
        "mass-square-N": (["oracle", "mass", *SQUARE_SCALE, "--N", HUGE], 3),
        "mass-square-mmin": (["oracle", "mass", *SQUARE_SCALE, "--mmin", HUGE], 4),
        "mass-square-mmax": (["oracle", "mass", *SQUARE_SCALE, "--mmax", HUGE], 4, UNDERFLOW),
        "appendix-k-m": (["oracle", "appendix-k", "--eps", "0.5", "--m", HUGE], 0),
        "appendix-k-N": (["oracle", "appendix-k", "--eps", "0.5", "--N", HUGE], 0),
        "witness-ncap": ([*WITNESS, "--ncap", HUGE], 0),
        "witness-m": ([*WITNESS, "--m", HUGE], 4),
        "witness-N": ([*WITNESS, "--N", HUGE], 3),
        "beta-n": (["beta", "--a", "2", "--beta", "2.5", "--n", HUGE], 3),
        "beta-N": (["beta", "--a", "2", "--beta", "2.5", "--N", HUGE], 3),
        "beta-one-word-n": (["beta", "--a", "2", "--beta", "2.5", "--omega", "{one}", "--N", "1",
                             "--n", HUGE], 4),
        "beta-one-word-N": (["beta", "--a", "2", "--beta", "2.5", "--omega", "{one}", "--N", HUGE],
                            3),
        "entropy-nmax": (["entropy", "--spec", "{full}", "--nmax", HUGE], 3),
        "weighted-entropy-nmax": (["weighted-entropy", *CARPET, "--w", "0.5", "--nmax", HUGE], 4),
        "carpet-nmax": (["carpet", *CARPET, "--nmax", HUGE], 4),
        # the families and sizes that ran out of memory, hit numpy's 64 dimensions or took
        # seconds before a refusal
        "square-2x30000": (["grid2d", "--rule", "{square}", "--nmax", "2", "--mmax", "30000"], 3),
        "square-2xhuge": (["grid2d", "--rule", "{square}", "--nmax", "2", "--mmax", HUGE], 3),
        "square-hugex2": (["grid2d", "--rule", "{square}", "--nmax", HUGE, "--mmax", "2"], 3),
        "entropy-20000": (["entropy", "--spec", "{full}", "--nmax", "20000"], 3),
        "witness-m-4": ([*WITNESS, "--m", "4"], 4),
        "witness-m-7": ([*WITNESS, "--m", "7"], 4),
        "witness-m-30": ([*WITNESS, "--m", "30"], 4),
        "qbox-one-box-M-70": (["oracle", "qbox", *ONE_BOX, "--N", "1", "--M", "70"], 0),
        "qbox-one-box-M-2000": (["oracle", "qbox", *ONE_BOX, "--N", "1", "--M", "2000"], 4,
                                "spec error: box separation b^-M = 2^-2000 underflows"),
        "beta-one-word-n-70": (["beta", "--a", "2", "--beta", "2.5", "--omega", "{one}", "--N", "1",
                                "--n", "70"], 0),
        # an OverflowError in the masses array and a MemoryError in b^M; a box
        # count of 3^649 runs, 2^-1030 being still a (subnormal) double
        "mass-one-column-2000": (["oracle", "mass", *ONE_COLUMN, "--mmin", "2000", "--mmax", "2000"],
                                 4, "spec error: M = 2000: box separation 2^-2000 underflows"),
        "mass-one-column-huge": (["oracle", "mass", *ONE_COLUMN, "--mmin", HUGE, "--mmax", HUGE], 4,
                                 UNDERFLOW),
        "mass-three-rows-1030": (["oracle", "mass", "--a", "3", "--b", "2", "--tuples", "00,10,20",
                                  "--mmin", "1030", "--mmax", "1030"], 0),
        # a base past the double range: qbox, mass and beta exited 1 (OverflowError)
        "carpet-1e400": (["carpet", *BEYOND], 3),
        "weighted-entropy-1e400": (["weighted-entropy", *BEYOND, "--w", "0.5"], 0),
        "bm-classical-1e400": (["bm-classical", *BEYOND], 3),
        "qbox-1e400": (["oracle", "qbox", *BEYOND, "--N", "1", "--M", "1"], 4, BASE),
        "qbox-a-1e400": (["oracle", "qbox", *BEYOND[:3], "2", *BEYOND[4:], "--N", "1", "--M", "1"],
                         4, BASE),
        "mass-1e400": (["oracle", "mass", *BEYOND], 4, BASE),
        "beta-1e300": (["beta", "--a", "2", "--beta", "1e300", "--n", "2", "--N", "1"], 4,
                       "spec error: separation beta^-n = 1e+300^-2 underflows"),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_every_size_flag_ends_in_its_exit_code_within_a_second(self, tmp_path, name):
        # every size is refused from counts, or its scale from its exponent, before any work
        argv, code, *prefix = self.CALLS[name]
        for key, doc in self.FILES.items():
            (tmp_path / f"{key}.json").write_text(json.dumps(doc))
        argv = [arg.format(**{key: tmp_path / f"{key}.json" for key in self.FILES})
                for arg in argv]
        start = time.perf_counter()
        proc = run_cli_capped(1 << 30, *argv)
        seconds = time.perf_counter() - start
        assert "Traceback" not in proc.stderr
        assert proc.returncode == code, proc.stderr
        prefix = prefix or [{0: "", 3: "resource limit: ", 4: "spec error: "}[code]]
        assert proc.stderr.startswith(prefix[0]) and (code or not proc.stderr)
        if code == 0:
            json.loads(proc.stdout)
        assert seconds < 1.0  # the interpreter's start included

    @pytest.mark.parametrize("m", ["25", "1000"])
    def test_mass_past_the_enumeration_prints_its_report_within_a_second(self, m):
        # the y-sequences |V|^M = 2^M passed the word budget from M = 25 (exit
        # 3); the extremal box is one closed form per M
        start = time.perf_counter()
        proc = run_cli_capped(1 << 30, "oracle", "mass", *CARPET, "--N", "1", "--mmin", m,
                              "--mmax", m)
        seconds = time.perf_counter() - start
        assert (proc.returncode, proc.stderr) == (2, "")  # the worst box fails the default s
        t = meandim.carpet.floor_w_m(3, 2, int(m))
        cell = json.loads(proc.stdout)["per_m"][m]
        assert cell["box_count"] == str(3**t * 2 ** (int(m) - t))
        assert cell["passed"] is False
        assert seconds < 1.0  # the interpreter's start included

    def test_appendix_k_at_the_word_budget_runs(self):
        # 20,000,000 atoms and 0: the cap itself is not refused
        proc = run_cli_capped(1 << 30, "oracle", "appendix-k", "--ncap", "20000000")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["command"] == "oracle appendix-k"


class TestDeterminism:
    def test_identical_config_gives_identical_bytes(self, capsys, tmp_path):
        args = ["carpet", "--a", "3", "--b", "2", "--tuples", "00,11,20"]
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_paper_suite_stdout_is_one_json_document(self):
        # the progress lines went to stdout before the report, which was then not written
        code, out, err = call_main(["paper-suite"])
        assert code == 0
        assert json.loads(out)["command"] == "paper-suite"
        assert err.count("[PASS] criterion") == 10

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        _, printed = run_cli(
            capsys,
            "carpet", "--a", "3", "--b", "2", "--tuples", "00,11,20",
            "--out", str(out_path),
        )
        assert out_path.read_text() == printed

    def test_reports_reparse(self, capsys):
        for args in (
            ["carpet", "--a", "3", "--b", "2", "--tuples", "00,11,20"],
            ["bm-classical", "--a", "3", "--b", "2", "--tuples", "00,11,20"],
            ["oracle", "hdim", "--diams", "0.25,0.25", "--eps", "0.3"],
        ):
            _, out = run_cli(capsys, *args)
            doc = json.loads(out)
            assert doc["schema_version"] == 1


def call_main(argv):
    """(exit code, stdout, stderr) of one in-process call, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    CALLS = (
        ["entropy", "--nmax", "3"],  # --spec missing: a usage error
        ["carpet", "--a", "3", "--b", "2", "--tuples", "00,11,20"],
        ["oracle", "hdim", "--diams", "0.25,0.25", "--eps", "0.3"],
    )

    def test_reused_parser_gives_the_bytes_of_a_fresh_one(self):
        fresh = []
        for argv in self.CALLS:
            cli.build_parser.cache_clear()
            fresh.append(call_main(argv))
        assert [code for code, _, _ in fresh] == [2, 0, 0]
        cli.build_parser.cache_clear()
        reused = [call_main(argv) for argv in self.CALLS]
        assert reused == fresh
        assert cli.build_parser.cache_info().misses == 1

    def test_import_builds_no_parser(self):
        src = str(Path(meandim.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c",
             "from meandim import cli; print(cli.build_parser.cache_info().currsize)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout == "0\n"


class TestCanonicalJson:
    def test_floats_use_twelve_significant_digits(self):
        text = dumps_canonical({"x": 1.34968382019557741234})
        assert '"x":1.3496838202' in text

    def test_keys_sorted(self):
        text = dumps_canonical({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_big_integers_become_strings(self):
        text = dumps_canonical({"n": 10**30})
        assert '"n":"1000000000000000000000000000000"' in text


class TestCloudCsv:
    def test_round_trip(self):
        from meandim.reportio import cloud_from_csv, cloud_to_csv

        pts = [[0.125, 0.5], [0.25, 0.75]]
        text = cloud_to_csv(pts)
        assert text.splitlines()[0] == "x1,x2"
        assert cloud_from_csv(text) == pts

    def test_distinct_points_stay_distinct(self):
        # 12 significant digits wrote 1e-12 and 1e-12 + 1e-24 as one row
        from meandim.reportio import cloud_from_csv, cloud_to_csv

        pts = [[1e-12, 0.1], [1e-12 + 1e-24, 0.1], [1 / 3, 2**-1074]]
        assert cloud_from_csv(cloud_to_csv(pts)) == pts

    def test_qbox_csv_keeps_every_point(self, capsys):
        assert main(["oracle", "qbox", "--a", "1000000000000", "--b", "1000000000000",
                     "--tuples", "0:0,1:1", "--N", "1", "--M", "2", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:-1]  # between the header and the sidecar
        assert len(rows) == len(set(rows)) == 4

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        # a blank line was a ragged row: numpy's "inhomogeneous shape" error, exit 4
        path = tmp_path / "cloud.csv"
        path.write_text("x1,x2\n0.5,0.25\n\n0.125,0.5\n\n")
        assert main(["oracle", "cover", "--points", str(path), "--eps", "0.3"]) == 0
        assert '"exact":2' in capsys.readouterr().out

    def test_ragged_row_is_refused_by_line(self, tmp_path, capsys):
        path = tmp_path / "cloud.csv"
        path.write_text("x1,x2\n0.5,0.25\n\n0.125\n")
        assert main(["oracle", "cover", "--points", str(path), "--eps", "0.3"]) == 4
        assert capsys.readouterr().err == (
            "spec error: cloud line 4: 1 values, the header names 2\n")

    @pytest.mark.parametrize("text, why", [("x1,x2\n", "only a header"), ("", "empty file"),
                                           ("\n\n", "empty file")])
    def test_cloud_with_no_points_is_refused(self, tmp_path, capsys, text, why):
        # a header alone or an empty file printed lower = upper = exact = 0, exit 0
        path = tmp_path / "cloud.csv"
        path.write_text(text)
        assert main(["oracle", "cover", "--points", str(path), "--eps", "0.3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"spec error: cloud has no points: {why}\n"


class TestBudgetEnv:
    def test_env_var_overrides_word_budget(self, monkeypatch):
        from meandim.limits import cap

        monkeypatch.setenv("MEANDIM_BUDGET", "123")
        assert cap("word") == cap("point") == 123
        assert cap("subset") > 123 and cap("state") > 123  # not overridden
        monkeypatch.delenv("MEANDIM_BUDGET")
        assert cap("word") > 123
        assert cap("word", 77) == 77

    @pytest.mark.parametrize("value", ["abc", "1e3"])
    def test_env_var_that_is_no_integer_is_named(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MEANDIM_BUDGET", value)
        assert main(["oracle", "appendix-k"]) == 4
        assert capsys.readouterr().err == f"spec error: MEANDIM_BUDGET = {value!r} is not an integer\n"

    @pytest.mark.parametrize("value, want", [(" 12 ", 12), ("1_000", 1000), ("+7", 7)])
    def test_env_var_takes_what_int_takes(self, monkeypatch, value, want):
        monkeypatch.setenv("MEANDIM_BUDGET", value)
        assert limits.cap("word") == want


class TestSeededDeterminism:
    def test_sampled_commands_are_byte_stable(self, capsys):
        args = [
            "oracle", "qbox",
            "--a", "3", "--b", "2", "--tuples", "00,11,20",
            "--N", "2", "--M", "3", "--seed", "7",
        ]
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_witness_command_seed_stability(self, capsys):
        args = ["oracle", "appendix-k", "--witness", "--N", "2", "--m", "2", "--seed", "3"]
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second
