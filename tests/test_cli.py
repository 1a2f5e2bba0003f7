"""End-to-end command-line checks: exit codes, payload shapes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semimeasures import (
    Dyadic,
    dirac_spine,
    geometric_semimeasure,
    stage_to_json,
    uniform_measure,
)
import semimeasures.cli as cli
from semimeasures.cli import GRANULARITY_ENV, main

QUARTER = Dyadic(1, 2)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture()
def uniform_file(tmp_path):
    return write_json(tmp_path, "uniform.json", stage_to_json(uniform_measure(1)))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


class TestValidate:
    def test_valid_semimeasure_passes(self, uniform_file, capsys):
        assert main(["validate", uniform_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "kind": "semimeasure",
            "ok": True,
            "node": None,
            "message": None,
            "children": None,
        }

    def test_super_additivity_violation_names_the_node(self, tmp_path, capsys):
        bad = {
            "components": [
                {
                    "weight": "1/2^0",
                    "table": [["1/2^0"], ["3/2^2", "3/2^2"]],
                    "tail": {"kind": "vanish"},
                }
            ]
        }
        assert main(["validate", write_json(tmp_path, "bad.json", bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["ok"]
        assert payload["node"] == ""
        assert payload["children"] == {"0": "3/2^2", "1": "3/2^2"}

    def test_consistent_functional_passes(self, tmp_path):
        phi = {"stages": [[["0", "0"], ["00", "01"]]]}
        assert main(["validate", write_json(tmp_path, "phi.json", phi)]) == 0

    def test_inconsistent_functional_reports_the_pairs(self, tmp_path, capsys):
        phi = {"stages": [[["0", "0"], ["00", "1"]]]}
        assert main(["validate", write_json(tmp_path, "phi.json", phi)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "functional"
        assert sorted(payload["conflict"]) == [["0", "0"], ["00", "1"]]

    def test_overweight_test_level_fails(self, tmp_path, capsys):
        test = {
            "base": stage_to_json(uniform_measure()),
            "levels": [[], ["0", "1"]],
        }
        assert main(["validate", write_json(tmp_path, "test.json", test)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violation"] == {"level": 1, "mass": "1/2^0", "bound": "1/2^1"}

    def test_unrecognized_shape_is_a_parse_error(self, tmp_path):
        assert main(["validate", write_json(tmp_path, "odd.json", {"foo": 1})]) == 2

    def test_invalid_json_is_a_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{{{", encoding="utf-8")
        assert main(["validate", str(path)]) == 2

    def test_missing_file_is_a_parse_error(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2


# ---------------------------------------------------------------------------
# worked-examples
# ---------------------------------------------------------------------------


class TestWorkedExamples:
    GOLDEN = (
        "construction,expected,computed,match\n"
        "vanishing-trim,0/2^0,0/2^0,true\n"
        "half-uniform-trim,1/2^1,1/2^1,true\n"
        "geometric-quarter-completion,1/2^4,1/2^4,true\n"
        "identity-pad,1/2^1,1/2^1,true\n"
        "mirror-pair-depth-6,0/2^0,0/2^0,true\n"
    )

    def test_all_rows_match_in_csv(self, capsys):
        assert main(["worked-examples", "--format", "csv"]) == 0
        assert capsys.readouterr().out == self.GOLDEN

    def test_json_payload_carries_the_same_rows(self, capsys):
        assert main(["worked-examples"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["header"] == ["construction", "expected", "computed", "match"]
        assert all(row[3] == "true" for row in payload["rows"])
        assert len(payload["rows"]) == 5


# ---------------------------------------------------------------------------
# trim
# ---------------------------------------------------------------------------


class TestTrim:
    def test_convergence_table_for_leaky_geometric(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "geo.json", stage_to_json(geometric_semimeasure(QUARTER))
        )
        assert main(["trim", path, "--depth", "6", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "depth,value"
        assert lines[1:] == [f"{n},1/2^{n}" for n in range(7)]

    def test_derived_measure_reported_in_json(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "geo.json", stage_to_json(geometric_semimeasure(QUARTER))
        )
        assert main(["trim", path, "--depth", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["derived"] == {"value": "0/2^0", "depth": 0, "stabilized": True}
        assert payload["sigma"] == ""

    def test_depth_must_reach_sigma(self, uniform_file):
        assert main(["trim", uniform_file, "--sigma", "0101", "--depth", "2"]) == 2


# ---------------------------------------------------------------------------
# induce / invert
# ---------------------------------------------------------------------------


class TestInduce:
    def test_identity_induces_the_fair_coin(self, tmp_path, capsys):
        path = write_json(tmp_path, "ident.json", {"kind": "identity"})
        assert main(["induce", path, "--stage", "3", "--depth", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strict"] is True
        (component,) = payload["components"]
        assert component["table"] == [
            ["1/2^0"],
            ["1/2^1", "1/2^1"],
            ["1/2^2", "1/2^2", "1/2^2", "1/2^2"],
        ]

    def test_negative_depth_is_a_parse_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "ident.json", {"kind": "identity"})
        assert main(["induce", path, "--depth", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: depth must be non-negative\n"


class TestInvert:
    def test_round_trip_produces_an_event_functional(self, uniform_file, capsys):
        assert main(["invert", uniform_file, "--depth", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"stages": [[["", ""], ["0", "0"], ["1", "1"]]]}

    def test_non_strict_presentation_fails_the_precondition(self, tmp_path):
        leaky = stage_to_json(uniform_measure(1).scaled(Dyadic(1, 1)))
        path = write_json(tmp_path, "leaky.json", leaky)
        assert main(["invert", path, "--depth", "1"]) == 4

    def test_granularity_cap_comes_from_the_environment(
        self, uniform_file, tmp_path, monkeypatch
    ):
        fine = {
            "components": [
                {
                    "weight": "1/2^0",
                    "table": [["1/2^0"], ["1/2^3", "7/2^3"]],
                    "tail": {"kind": "vanish"},
                }
            ]
        }
        path = write_json(tmp_path, "fine.json", fine)
        monkeypatch.setenv(GRANULARITY_ENV, "2")
        assert main(["invert", path, "--depth", "1"]) == 4
        monkeypatch.setenv(GRANULARITY_ENV, "16")
        assert main(["invert", path, "--depth", "1", "--out", str(tmp_path / "x")]) == 0

    def test_bad_cap_value_is_a_parse_error(self, uniform_file, monkeypatch):
        monkeypatch.setenv(GRANULARITY_ENV, "many")
        assert main(["invert", uniform_file, "--depth", "1"]) == 2


# ---------------------------------------------------------------------------
# atom-decode
# ---------------------------------------------------------------------------


class TestAtomDecode:
    def test_zero_spine_emits_zeros(self, tmp_path, capsys):
        path = write_json(tmp_path, "spine.json", stage_to_json(dirac_spine("0")))
        assert main(["atom-decode", path, "--q", "3/2^2", "--bits", "16"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"seed": "", "q": "3/2^2", "bits": "0" * 16}

    def test_unreachable_threshold_exhausts_the_budget(self, uniform_file):
        rc = main(
            ["atom-decode", uniform_file, "--q", "3/2^2", "--bits", "4", "--budget", "5"]
        )
        assert rc == 3

    def test_ambiguous_threshold_fails_the_certificate(self, tmp_path):
        blend = {
            "components": [
                {"weight": "1/2^1", "table": [["1/2^0"]], "tail": {"kind": "split", "zero": "1/2^0", "one": "0/2^0"}},
                {"weight": "1/2^1", "table": [["1/2^0"]], "tail": {"kind": "uniform"}},
            ]
        }
        path = write_json(tmp_path, "blend.json", blend)
        assert main(["atom-decode", path, "--q", "1/2^2", "--bits", "4"]) == 4

    def test_bad_threshold_literal_is_a_parse_error(self, uniform_file):
        assert main(["atom-decode", uniform_file, "--q", "1/3", "--bits", "4"]) == 2


# ---------------------------------------------------------------------------
# mirror-pair / eval
# ---------------------------------------------------------------------------


class TestMirrorPair:
    def test_inline_stages_agree(self, capsys):
        assert main(["mirror-pair", "--stages", "0,1/2^2,1/2^1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["induced_agree"] is True
        assert payload["stages"] == 3
        assert payload["spine_values"][0] == "1/2^0"

    def test_stages_file_accepted(self, tmp_path, capsys):
        path = write_json(tmp_path, "approx.json", ["0", "1/2^2", "1/2^1"])
        assert main(["mirror-pair", "--stages-file", path]) == 0
        assert json.loads(capsys.readouterr().out)["induced_agree"] is True

    def test_missing_stage_arguments_rejected(self):
        assert main(["mirror-pair"]) == 2

    def test_decreasing_stages_fail_the_precondition(self):
        assert main(["mirror-pair", "--stages", "1/2^1,1/2^2"]) == 4

    def test_negative_depth_is_a_parse_error(self, capsys):
        assert main(["mirror-pair", "--stages", "0,1/2^1", "--depth", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: depth must be non-negative\n"

    def test_stages_file_must_hold_a_list(self, tmp_path):
        path = write_json(tmp_path, "approx.json", {"stages": []})
        assert main(["mirror-pair", "--stages-file", path]) == 2

    def test_each_induced_stage_is_computed_once(self, monkeypatch, capsys):
        calls = []
        real = cli.induced_semimeasure

        def counted(phi, stage, depth):
            calls.append((stage, depth))
            return real(phi, stage, depth)

        monkeypatch.setattr(cli, "induced_semimeasure", counted)
        stages = "0,1/2^2,1/2^1,5/2^3,11/2^4,3/2^2"
        assert main(["mirror-pair", "--stages", stages, "--depth", "8"]) == 0
        assert len(calls) == 2 * 6 + 1
        spine = json.loads(capsys.readouterr().out)["spine_values"]
        assert spine == ["1/2^0", "1/2^0", "1/2^1", "1/2^2", "1/2^3", "1/2^5", "0/2^0", "0/2^0", "0/2^0"]


class TestEval:
    def test_longest_output_wins(self, tmp_path, capsys):
        phi = {"stages": [[["0", "0"], ["01", "00"]]]}
        path = write_json(tmp_path, "phi.json", phi)
        assert main(["eval", path, "--sigma", "011"]) == 0
        assert json.loads(capsys.readouterr().out)["output"] == "00"

    def test_incomparable_outputs_fail_validation(self, tmp_path, capsys):
        phi = {"stages": [[["0", "00"], ["", "01"]]]}
        path = write_json(tmp_path, "phi.json", phi)
        assert main(["eval", path, "--sigma", "01"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "['', '01'] and ['0', '00']" in captured.err

    def test_inconsistency_off_the_input_chain_is_not_checked(self, tmp_path, capsys):
        phi = {"stages": [[["0", "00"], ["0", "01"], ["1", "1"]]]}
        path = write_json(tmp_path, "phi.json", phi)
        assert main(["eval", path, "--sigma", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["output"] == "1"

    def test_result_does_not_depend_on_the_hash_seed(self, tmp_path):
        phi = {"stages": [[["0", "00"], ["", "01"], ["01", "000"]]]}
        path = write_json(tmp_path, "phi.json", phi)
        src = str(Path(__file__).resolve().parents[1] / "src")
        runs = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "semimeasures.cli", "eval", path, "--sigma", "01"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            runs.add((proc.returncode, proc.stdout, proc.stderr))
        assert len(runs) == 1
        code, out, err = runs.pop()
        assert (code, out) == (1, "")
        assert err.startswith("validation failed: ")


# ---------------------------------------------------------------------------
# integer and string fields in input documents
# ---------------------------------------------------------------------------


class TestFieldTypes:
    """A JSON value of the wrong type is a parse error, never coerced."""

    @pytest.mark.parametrize("tilt", [True, 1.0, "1"])
    def test_tilt_must_be_an_integer(self, tmp_path, tilt):
        obj = stage_to_json(uniform_measure(1))
        obj["components"][0]["tilt"] = tilt
        assert main(["validate", write_json(tmp_path, "m.json", obj)]) == 2

    @pytest.mark.parametrize("depth", [True, 1.0, "1"])
    def test_infimum_depth_must_be_an_integer(self, tmp_path, depth):
        obj = {"kind": "infimum", "rows": [["1"], ["1/2^1"]], "depth": depth}
        assert main(["validate", write_json(tmp_path, "m.json", obj)]) == 2

    @pytest.mark.parametrize("level", [2.7, True, "3", None])
    def test_decay_levels_must_be_integers(self, tmp_path, level):
        obj = {
            "kind": "generalized",
            "base": stage_to_json(uniform_measure(1)),
            "levels": [["0"], ["00"], ["000"], ["0000"]],
            "decay": {"1": level},
        }
        assert main(["validate", write_json(tmp_path, "t.json", obj)]) == 2

    def test_decay_accepts_integer_levels(self, tmp_path):
        obj = {
            "kind": "generalized",
            "base": stage_to_json(uniform_measure(1)),
            "levels": [["0"], ["00"], ["000"], ["0000"]],
            "decay": {"1": 1},
        }
        assert main(["validate", write_json(tmp_path, "t.json", obj)]) == 0

    @pytest.mark.parametrize("member", [101, 0, True])
    def test_level_members_must_be_strings(self, tmp_path, member):
        obj = {"kind": "ml", "base": stage_to_json(uniform_measure(1)), "levels": [[member]]}
        assert main(["validate", write_json(tmp_path, "t.json", obj)]) == 2

    @pytest.mark.parametrize("pair", [[0, "1"], ["0", 11]])
    def test_functional_pairs_must_be_strings(self, tmp_path, pair):
        path = write_json(tmp_path, "phi.json", {"stages": [[pair]]})
        assert main(["eval", path, "--sigma", "0"]) == 2


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


class TestPlumbing:
    def test_missing_subcommand_is_a_usage_error(self):
        assert main([]) == 2

    def test_unknown_flag_is_a_usage_error(self):
        assert main(["worked-examples", "--bogus"]) == 2

    def test_output_bytes_are_deterministic(self, tmp_path):
        first, second = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["worked-examples", "--out", first]) == 0
        assert main(["worked-examples", "--out", second]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_csv_fallback_flattens_scalar_payloads(self, tmp_path, capsys):
        path = write_json(tmp_path, "spine.json", stage_to_json(dirac_spine("0")))
        rc = main(
            ["atom-decode", path, "--q", "3/2^2", "--bits", "2", "--format", "csv"]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            "key,value\n" "bits,00\n" "q,3/2^2\n" "seed,\n"
        )
