"""Command-line interface: subcommands, exit codes, report determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meandim
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

    def test_grid2d_budget_exits_3_without_traceback(self, tmp_path):
        rule = tmp_path / "rule.json"
        rule.write_text(json.dumps(meandim.rule_to_json(meandim.hard_square_rule())))
        proc = run_cli_process(
            "grid2d", "--rule", str(rule), "--nmax", "4", "--mmax", "4", "--budget", "4"
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("resource limit:")
        assert "Traceback" not in proc.stderr

    def test_oracle_mass_budget_exits_3_without_traceback(self):
        proc = run_cli_process(
            "oracle", "mass", "--a", "3", "--b", "2", "--tuples", "00,11,20",
            "--N", "1", "--mmin", "4", "--mmax", "6", "--budget", "3",
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("resource limit:")
        assert "Traceback" not in proc.stderr

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
        ],
    )
    def test_missing_or_empty_flag_exits_2_without_traceback(self, argv, message):
        proc = run_cli_process(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr


class TestDeterminism:
    def test_identical_config_gives_identical_bytes(self, capsys, tmp_path):
        args = [
            "carpet", "--a", "3", "--b", "2", "--tuples", "00,11,20",
            "--seed", "0",
        ]
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

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
        text = cloud_to_csv(pts, coordinate_names=["x1", "x2"])
        assert text.splitlines()[0] == "x1,x2"
        assert cloud_from_csv(text) == pts


class TestBudgetEnv:
    def test_env_var_overrides_word_budget(self, monkeypatch):
        from meandim.limits import word_budget

        monkeypatch.setenv("MEANDIM_BUDGET", "123")
        assert word_budget() == 123
        monkeypatch.delenv("MEANDIM_BUDGET")
        assert word_budget() > 123
        assert word_budget(77) == 77


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
