"""End-to-end command-line checks: exit codes, payload shapes, determinism."""

from __future__ import annotations

import contextlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import csv
import io

import pytest
from hypothesis import given, strategies as st

from helpers import QUARTER, random_stage, reference_flatten
from semimeasures import (
    BudgetExhaustedError,
    CertificateError,
    Dyadic,
    MonotoneFunctional,
    ParseError,
    PreconditionError,
    SemiMeasureStage,
    all_strings,
    dirac_spine,
    functional_to_json,
    derived_measure,
    geometric_semimeasure,
    partial_trim,
    stage_to_json,
    staged_from_json,
    trim_result_to_json,
    uniform_measure,
)
import semimeasures.cli as cli
from semimeasures.cli import GRANULARITY_ENV, main


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


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

    @pytest.mark.parametrize("literal", ["\u0661", "\uff13/2^1", "1/2^\u0662"])
    def test_non_ascii_digits_are_a_parse_error(self, tmp_path, capsys, literal):
        doc = {"components": [{"weight": literal, "table": [[literal]], "tail": {"kind": "vanish"}}]}
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == ""

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

    def test_trim_is_checked_at_the_settled_level(self, tmp_path, capsys):
        """A table that is not super-additive (its root holds less than its
        children) trimmed above its frontier: the derived measure is checked
        against the level sum at the frontier, where the limit fits, not at
        the last level asked."""
        comp = {"weight": "1", "table": [["1/2^1"], ["1/2^0", "1/2^0"]], "tail": {"kind": "uniform"}}
        path = write_json(tmp_path, "lopsided.json", {"components": [comp]})
        assert main(["trim", path, "--depth", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == [[0, "1/2^1"]]
        assert payload["derived"] == {"value": "2/2^0", "depth": 1, "stabilized": True}

    @staticmethod
    def trim_matches_the_library(path, sigma, depth):
        """The in-process ``trim`` payload: one row per level equal to that
        level's ``partial_trim``, and ``derived`` equal to ``derived_measure``
        probed at the last level."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["trim", path, "--sigma", sigma, "--depth", str(depth)]) == 0
        payload = json.loads(out.getvalue())
        stage = staged_from_json(json.loads(Path(path).read_text(encoding="utf-8"))).stage_at(0)
        assert payload["rows"] == [[n, str(partial_trim(stage, sigma, n))] for n in range(len(sigma), depth + 1)]
        assert payload["derived"] == trim_result_to_json(derived_measure(stage, sigma, probe_depth=depth))

    @pytest.mark.parametrize("name", ["presentation.json", "tilted.json", "spine.json"])
    @pytest.mark.parametrize("sigma, depth", [("", 0), ("", 7), ("1", 9), ("11", 2), ("10", 6), ("0110", 12)])
    def test_rows_and_derived_are_the_library_reads(self, name, sigma, depth):
        self.trim_matches_the_library(str(GOLDEN_INPUTS / name), sigma, depth)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["", "1", "11", "01"]))
    def test_drawn_tilted_stages_trim_as_the_library_does(self, seed, sigma):
        stage = random_stage(random.Random(seed), depth=2, strict=False, tilt_allowed=True)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_json(Path(tmp), "drawn.json", stage_to_json(stage))
            self.trim_matches_the_library(path, sigma, len(sigma) + 6)

    def test_four_thousand_levels_down_the_tilted_spine(self, capsys):
        """The golden tilted document trimmed 4,000 levels down its 1-spine,
        in closed form at every level: its last numerator has 2,409 digits,
        under the interpreter's int-to-text limit."""
        argv = ["trim", str(GOLDEN_INPUTS / "tilted.json"), "--sigma", "1", "--depth", "4000"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 4000 and payload["rows"][-1][0] == 4000
        digits = len(payload["rows"][-1][1].split("/")[0])
        assert digits == 2409 < sys.get_int_max_str_digits()
        assert payload["derived"] == {"value": payload["rows"][-1][1], "depth": 4000, "stabilized": False}

    def test_depth_must_reach_sigma(self, uniform_file):
        assert main(["trim", uniform_file, "--sigma", "0101", "--depth", "2"]) == 2

    @pytest.mark.parametrize(
        "rules, message",
        [
            ({"tails": {"0": {"kind": "uniform"}}}, "tails must cover the frontier; missing ['1']"),
            (
                {"tail": {"kind": "vanish"}, "tails": {"0": {"kind": "uniform"}, "1": {"kind": "uniform"}}},
                "give a 'tail' or a 'tails' map, not both",
            ),
        ],
    )
    def test_tail_rules_name_the_frontier_once(self, tmp_path, capsys, rules, message):
        comp = {"weight": "1", "table": [["1"], ["1/2^1", "1/2^1"]], **rules}
        path = write_json(tmp_path, "rules.json", {"components": [comp]})
        assert main(["trim", path, "--depth", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {message}\n"

    @pytest.mark.parametrize("out", [False, True])
    def test_values_too_long_to_write_exit_4(self, tmp_path, capsys, out):
        """Exact level masses whose numerators pass the interpreter's
        int-to-text digit limit: a precondition failure, nothing written."""
        comp = {"weight": "1", "table": [["1"]], "tail": {"kind": "split", "zero": "1/2^1", "one": "1048575/2^21"}}
        path = write_json(tmp_path, "long.json", {"components": [comp]})
        target = tmp_path / "out.json"
        argv = ["trim", path, "--depth", "1000"] + (["--out", str(target)] if out else [])
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and not target.exists()
        limit = sys.get_int_max_str_digits()
        assert captured.err == (
            f"precondition failed: an exact value's numerator has more than {limit} digits, too many to write\n"
        )


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

    def test_inconsistent_functional_is_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path, "phi.json", {"stages": [[["0", "00"], ["0", "01"]]]})
        assert main(["induce", path, "--depth", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "validation failed: inconsistent functional at stage 0: pairs ['0', '00'] and ['0', '01'] "
            "have comparable inputs and incomparable outputs\n"
        )


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

    @pytest.mark.parametrize("raw", ["\u0661\u0666", "1_6", " 16 ", "+2", "-1"])
    def test_cap_takes_ascii_digits_only(self, uniform_file, monkeypatch, capsys, raw):
        monkeypatch.setenv(GRANULARITY_ENV, raw)
        assert main(["invert", uniform_file, "--depth", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"parse error: {GRANULARITY_ENV} must be a non-negative integer in ASCII digits, got {raw!r}\n"
        )
        monkeypatch.setenv(GRANULARITY_ENV, "16")
        assert main(["invert", uniform_file, "--depth", "1"]) == 0

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("invert-staged", ["staged.json", "--stage", "3", "--depth", "3"]),
            ("invert-presentation", ["presentation.json", "--depth", "3"]),
        ],
    )
    def test_a_wide_cap_prints_the_same_bytes(self, name, argv, monkeypatch, capsys):
        """Cylinders are cut at the finest value read, not at the cap."""
        golden = Path(__file__).resolve().parent / "golden"
        monkeypatch.setenv(GRANULARITY_ENV, "4096")
        assert main(["invert", str(golden / "inputs" / argv[0]), *argv[1:]]) == 0
        assert capsys.readouterr().out == (golden / "expected" / f"{name}.json").read_text(encoding="utf-8")


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


class TestPastTheLastStage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["invert", "presentation.json", "--depth", "3", "--stage"],
            ["invert", "staged.json", "--depth", "3", "--stage"],
            ["atom-decode", "presentation.json", "--q", "3/2^2", "--bits", "4", "--budget"],
            ["atom-decode", "staged.json", "--q", "3/2^2", "--bits", "4", "--budget"],
        ],
        ids=["invert-presentation", "invert-staged", "atom-decode-presentation", "atom-decode-staged"],
    )
    def test_a_huge_stage_or_budget_costs_what_the_last_stage_costs(self, argv, capsys):
        """A constant presentation has last stage 0 and the infimum file 3:
        a stage or budget of 10^9 gives the bytes and exit code of 5, in a
        process bounded to 30 s."""
        command, name, *rest = argv
        path = str(GOLDEN_INPUTS / name)
        code = main([command, path, *rest, "5"])
        out = capsys.readouterr().out
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "semimeasures.cli", command, path, *rest, "1000000000"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (code, out)

    def test_induce_at_a_huge_stage_reads_no_batch_past_the_last(self, monkeypatch, capsys):
        """The counted counterpart of CI's ``induce --stage 1000000000``
        line: golden ``consistent.json`` has last stage 2, so the
        consistency check and the induced table read batches 0-2 once each.
        The wrapper around ``phi.batch`` is test-side: it counts the reads
        and raises on a stage past ``last``, so an unclipped stage fails at
        once instead of looping."""
        reads = []
        real = cli.functional_from_json

        def counted(obj):
            phi = real(obj)
            batch = phi.batch

            def read(t):
                assert t <= phi.last, f"batch({t}) read past the last stage"
                reads.append(t)
                return batch(t)

            phi.batch = read
            return phi

        monkeypatch.setattr(cli, "functional_from_json", counted)
        path = str(GOLDEN_INPUTS / "consistent.json")
        assert main(["induce", path, "--stage", "1000000000", "--depth", "3"]) == 0
        huge = capsys.readouterr().out
        assert reads == [0, 1, 2, 0, 1, 2]
        assert main(["induce", path, "--stage", "2", "--depth", "3"]) == 0
        assert capsys.readouterr().out == huge

    @pytest.mark.parametrize(
        "command, name, reads",
        [("trim", "staged.json", [3]), ("invert", "presentation.json", [0]), ("invert", "staged.json", [3, 0, 1, 2])],
        ids=["trim-staged", "invert-presentation", "invert-staged"],
    )
    def test_a_huge_stage_reads_no_stage_past_the_last(self, monkeypatch, capsys, command, name, reads):
        """The counted counterpart of CI's ``trim`` and ``invert --stage
        1000000000`` lines: golden ``staged.json`` has last stage 3 and
        ``presentation.json`` 0, the first stage read is the last one, and
        the output is that of a run at it.  The wrapper around the staged
        family's stage function is test-side: it records each stage read
        and raises on a stage past ``last``, so an unclipped stage fails at
        once instead of building stage 10^9."""
        seen = []
        real = cli.staged_from_json

        def counted(obj):
            rho = real(obj)
            build = rho._fn

            def read(s):
                assert s <= rho.last, f"stage {s} read past the last stage {rho.last}"
                seen.append(s)
                return build(s)

            rho._fn = read
            return rho

        monkeypatch.setattr(cli, "staged_from_json", counted)
        path = str(GOLDEN_INPUTS / name)
        assert main([command, path, "--stage", "1000000000", "--depth", "3"]) == 0
        huge = capsys.readouterr().out
        assert seen == reads
        assert main([command, path, "--stage", str(reads[0]), "--depth", "3"]) == 0
        assert capsys.readouterr().out == huge


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

    def test_both_stage_arguments_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path, "approx.json", ["0", "1/2^2", "1/2^1"])
        assert main(["mirror-pair", "--stages", "0,1/2^1", "--stages-file", path]) == 2
        assert capsys.readouterr().out == ""

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

    def test_gap_compares_level_rows(self):
        phi = MonotoneFunctional.constant([("0", "0")])
        psi = MonotoneFunctional.constant([("00", "0")])
        gap, spine = cli._mirror_gap(phi, psi, 1, 1)
        assert gap == QUARTER
        assert spine == [Dyadic(1, 1), Dyadic(1, 1)]

    @pytest.mark.parametrize(
        "argv", [["mirror-pair", "--stages", "0,1/2^2,1/2^1,5/2^3", "--depth", "4"], ["worked-examples"]]
    )
    def test_no_point_reads(self, argv, monkeypatch):
        def refuse(self, sigma):
            raise AssertionError(f"value({sigma!r}) called")

        monkeypatch.setattr(SemiMeasureStage, "value", refuse)
        assert main(argv) == 0

    def test_each_induced_stage_is_computed_once(self, monkeypatch, capsys):
        calls = []
        real = cli.induced_semimeasure

        def counted(phi, stage, depth):
            calls.append((stage, depth))
            return real(phi, stage, depth)

        monkeypatch.setattr(cli, "induced_semimeasure", counted)
        stages = "0,1/2^2,1/2^1,5/2^3,11/2^4,3/2^2"
        assert main(["mirror-pair", "--stages", stages, "--depth", "8"]) == 0
        assert len(calls) == 2 * 6  # the spine is read from the last stage already induced
        spine = json.loads(capsys.readouterr().out)["spine_values"]
        assert spine == ["1/2^0", "1/2^0", "1/2^1", "1/2^2", "1/2^3", "1/2^5", "0/2^0", "0/2^0", "0/2^0"]


class TestReportFailure:
    @pytest.mark.parametrize(
        "exc, line, code",
        [
            (ParseError("bad"), "parse error: bad", 2),
            (ValueError("bad"), "parse error: bad", 2),
            (CertificateError("bad"), "validation failed: bad", 1),
            (PreconditionError("bad"), "precondition failed: bad", 4),
            (BudgetExhaustedError("bad", 0, 1), "budget exhausted: bad", 3),
        ],
        ids=["parse", "value", "certificate", "precondition", "budget"],
    )
    def test_one_line_and_exit_code_per_kind(self, capsys, exc, line, code):
        assert cli.report_failure(exc) == code
        assert capsys.readouterr() == ("", f"{line}\n")


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

    UNIFORM = {"weight": "1", "table": [["1"]], "tail": {"kind": "uniform"}}

    @pytest.mark.parametrize("tilt", [True, 1.0, "1"])
    def test_tilt_must_be_an_integer(self, tmp_path, tilt):
        obj = stage_to_json(uniform_measure(1))
        obj["components"][0]["tilt"] = tilt
        assert main(["validate", write_json(tmp_path, "m.json", obj)]) == 2

    def test_negative_tilt_is_rejected_by_the_component(self, tmp_path, capsys):
        obj = stage_to_json(uniform_measure(1))
        obj["components"][0]["tilt"] = -1
        assert main(["validate", write_json(tmp_path, "m.json", obj)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: tilt power must be non-negative\n"

    @pytest.mark.parametrize("depth", [True, 1.0, "1"])
    def test_infimum_depth_must_be_an_integer(self, tmp_path, depth):
        obj = {"kind": "infimum", "rows": [["1"], ["1/2^1"]], "depth": depth}
        assert main(["validate", write_json(tmp_path, "m.json", obj)]) == 2

    @pytest.mark.parametrize("depth", [True, 1.0, "1"])
    def test_component_depth_must_be_an_integer(self, tmp_path, depth):
        obj = stage_to_json(uniform_measure(1))
        obj["components"][0]["depth"] = depth
        assert main(["validate", write_json(tmp_path, "m.json", obj)]) == 2

    @pytest.mark.parametrize("command", [["validate"], ["trim"], ["invert", "--depth", "1"]])
    @pytest.mark.parametrize("row", [5, "11", []])
    def test_infimum_rows_must_be_non_empty_lists(self, tmp_path, capsys, command, row):
        path = write_json(tmp_path, "m.json", {"kind": "infimum", "rows": [["1"], row]})
        assert main([command[0], path, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: infimum row 1 must be a non-empty list of dyadic literals\n"

    def test_stages_file_entries_must_be_strings(self, tmp_path, capsys):
        path = write_json(tmp_path, "approx.json", [0, 1])
        assert main(["mirror-pair", "--stages-file", path]) == 2
        assert capsys.readouterr().out == ""

    def test_negative_stage_budget_is_a_parse_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "spine.json", stage_to_json(dirac_spine("0")))
        assert main(["atom-decode", path, "--q", "3/2^2", "--bits", "2", "--budget", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: stage budget must be non-negative\n"

    @pytest.mark.parametrize("level", [2.7, True, "3", None])
    def test_decay_levels_must_be_integers(self, tmp_path, level):
        obj = {
            "kind": "generalized",
            "base": stage_to_json(uniform_measure(1)),
            "levels": [["0"], ["00"], ["000"], ["0000"]],
            "decay": {"1": level},
        }
        assert main(["validate", write_json(tmp_path, "t.json", obj)]) == 2

    @pytest.mark.parametrize("key", ["\u0661", "1_0", " +1", "-1"])
    def test_decay_keys_are_ascii_digits(self, tmp_path, capsys, key):
        obj = {
            "kind": "generalized",
            "base": stage_to_json(uniform_measure(1)),
            "levels": [["0"], ["00"], ["000"], ["0000"]],
            "decay": {key: 1},
        }
        assert main(["validate", write_json(tmp_path, "t.json", obj)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: 'decay' keys must be integers in ASCII digits\n"

    def test_decay_accepts_integer_levels(self, tmp_path):
        obj = {
            "kind": "generalized",
            "base": stage_to_json(uniform_measure(1)),
            "levels": [["0"], ["00"], ["000"], ["0000"]],
            "decay": {"1": 1},
        }
        assert main(["validate", write_json(tmp_path, "t.json", obj)]) == 0

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"components": [dict(UNIFORM, tilt=True)]}, "tilt power must be an integer, got True"),
            ({"components": [dict(UNIFORM, depth=1.0)]}, "component 'depth' must be an integer, got 1.0"),
            ({"kind": "infimum", "rows": [["1"]], "depth": "1"}, "depth must be an integer, got '1'"),
            ({"kind": "infimum", "rows": [["1"]], "depth": -1}, "depth must be non-negative"),
            ({"kind": "infimum", "rows": [["1"], ["2"]]}, "generator 1 must yield dyadics in [0, 1], got 2/2^0"),
            ({"kind": "generalized", "base": {"components": [UNIFORM]}, "levels": [["0"]], "decay": {"0": 2.7}},
             "decay level must be an integer, got 2.7"),
            ({"kind": "generalized", "base": {"components": [UNIFORM]}, "levels": [["0"]], "decay": {"0": -1}},
             "decay level must be non-negative"),
        ],
        ids=["tilt", "component-depth", "infimum-depth", "negative-infimum-depth", "infimum-value", "decay-level",
             "negative-decay-level"],
    )
    def test_counts_and_values_are_read_by_the_library(self, tmp_path, capsys, document, message):
        """Each value is checked by the constructor it feeds, with the rule
        and the message it has for an argument from Python."""
        assert main(["validate", write_json(tmp_path, "doc.json", document)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {message}\n"

    @pytest.mark.parametrize("member", [101, 0, True])
    def test_level_members_must_be_strings(self, tmp_path, member):
        obj = {"kind": "ml", "base": stage_to_json(uniform_measure(1)), "levels": [[member]]}
        assert main(["validate", write_json(tmp_path, "t.json", obj)]) == 2

    @pytest.mark.parametrize("pair", [[0, "1"], ["0", 11]])
    def test_functional_pairs_must_be_strings(self, tmp_path, pair):
        path = write_json(tmp_path, "phi.json", {"stages": [[pair]]})
        assert main(["eval", path, "--sigma", "0"]) == 2


class TestInputErrors:
    """Each bad input exits 2 with one stderr line and nothing on stdout."""

    BASE = {"components": [{"weight": "1", "table": [["1"]], "tail": {"kind": "uniform"}}]}
    DOCUMENTS = {
        "uniform": BASE,
        "functional": {"stages": [[["0", "0"]]]},
        "inconsistent": {"stages": [[["0", "00"], ["0", "01"]]]},
        "ml-test": {"kind": "ml", "base": BASE, "levels": [["0"]]},
        "scalar-component": {"components": [1]},
        "empty-table": {"components": [{"weight": "1", "table": [], "tail": {"kind": "uniform"}}]},
        "string-level": {"kind": "ml", "base": BASE, "levels": ["0"]},
        "decay-list": {"kind": "generalized", "base": BASE, "levels": [["0"]], "decay": [1]},
    }

    @pytest.mark.parametrize(
        "document, argv, message",
        [
            ("uniform", ["trim", "--stage", "-1"], "stage must be non-negative"),
            ("uniform", ["validate", "--stage", "-1"], "stage must be non-negative"),
            ("functional", ["validate", "--stage", "-1"], "stage must be non-negative"),
            ("inconsistent", ["validate", "--stage", "-1"], "stage must be non-negative"),
            ("ml-test", ["validate", "--stage", "-5"], "stage must be non-negative"),
            ("functional", ["eval", "--sigma", "0", "--stage", "-1"], "stage must be non-negative"),
            ("uniform", ["invert", "--depth", "-1"], "depth must be non-negative"),
            ("scalar-component", ["validate"], "component must be an object"),
            ("empty-table", ["validate"], "component table must be a non-empty list of rows"),
            ("string-level", ["validate"], "level 0 must be a list of strings"),
            ("decay-list", ["validate"], "'decay' must map accuracies to level indices"),
        ],
    )
    def test_document_errors(self, tmp_path, capsys, document, argv, message):
        path = write_json(tmp_path, "doc.json", self.DOCUMENTS[document])
        assert main([argv[0], path, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {message}\n"

    def test_no_approximation_stages(self, capsys):
        assert main(["mirror-pair", "--stages", ","]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: no approximation stages given\n"


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

    @pytest.mark.parametrize("where", ["directory", "missing-dir/x"])
    def test_unwritable_out_is_a_parse_error(self, where, tmp_path, capsys):
        out = tmp_path / where
        if where == "directory":
            out.mkdir()
        assert main(["worked-examples", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not (tmp_path / "missing-dir").exists()

    def test_csv_fallback_flattens_scalar_payloads(self, tmp_path, capsys):
        path = write_json(tmp_path, "spine.json", stage_to_json(dirac_spine("0")))
        rc = main(
            ["atom-decode", path, "--q", "3/2^2", "--bits", "2", "--format", "csv"]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            "key,value\n" "bits,00\n" "q,3/2^2\n" "seed,\n"
        )


# ---------------------------------------------------------------------------
# main, called again and again in one process
# ---------------------------------------------------------------------------


class TestOneProcess:
    def test_parser_is_built_once(self, capsys):
        golden = Path(__file__).parent / "golden"
        codes = json.loads((golden / "expected" / "exit_codes.json").read_text(encoding="utf-8"))
        cli.build_parser.cache_clear()
        assert main(["trim"]) == 2
        assert capsys.readouterr().out == ""
        runs = [
            ("validate-consistent", ["validate", str(golden / "inputs" / "consistent.json")]),
            ("mirror-pair", ["mirror-pair", "--stages", "0,1/2^2,1/2^1,5/2^3,11/2^4,3/2^2", "--depth", "5"]),
        ]
        for name, argv in runs:
            assert main(argv) == codes[f"{name}.json"]
            assert capsys.readouterr().out == (golden / "expected" / f"{name}.json").read_text(encoding="utf-8")
        assert cli.build_parser.cache_info().misses == 1


# ---------------------------------------------------------------------------
# CSV key/value rows against the one-call-per-value reference
# ---------------------------------------------------------------------------

keys = st.text(st.sampled_from("ab.[]0,\" é\n\r"), max_size=4)
payload_values = st.recursive(
    st.none() | st.booleans() | st.integers() | keys,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(keys, kids, max_size=4),
    max_leaves=24,
)

scalars = st.none() | st.booleans() | st.integers() | keys | st.tuples(keys, st.integers())
scalar_lists = st.lists(scalars, max_size=3)

WRITER = csv.writer


def reference_csv(payload) -> str:
    """The key,value CSV form written by ``csv.writer``."""
    out = io.StringIO()
    writer = WRITER(out, lineterminator="\n")
    writer.writerow(["key", "value"])
    rows: list[tuple[str, str]] = []
    reference_flatten("", payload, rows)
    writer.writerows(rows)
    return out.getvalue()


class TestFlatten:
    @given(payload_values)
    def test_rows_of_the_reference(self, value):
        rows, expected = [], []
        cli._flatten("", value, rows)
        reference_flatten("", value, expected)
        assert rows == expected

    @given(st.lists(scalar_lists | st.dictionaries(keys, scalars, max_size=2) | scalars, max_size=5))
    def test_lists_of_scalar_lists(self, value):
        """Lists of scalar lists take one pass; lists that also hold dicts or
        scalars fall back to the call per item."""
        for payload in (value, [v for v in value if isinstance(v, list)]):
            rows, expected = [], []
            cli._flatten("p", payload, rows)
            reference_flatten("p", payload, expected)
            assert rows == expected

    @given(st.dictionaries(keys.filter(lambda k: k != "header"), payload_values, max_size=4))
    def test_csv_rendering_of_the_reference(self, payload):
        assert cli._render(payload, "csv") == reference_csv(payload)

    def test_a_field_to_quote_goes_through_the_writer(self, monkeypatch):
        payload = {"message": 'a "b", c', "node": "01"}
        expected = reference_csv(payload)
        assert expected == 'key,value\nmessage,"a ""b"", c"\nnode,01\n'
        calls = []
        monkeypatch.setattr(csv, "writer", lambda *a, **k: calls.append(a) or WRITER(*a, **k))
        assert cli._render(payload, "csv") == expected
        assert len(calls) == 1

    def test_a_large_stages_payload_is_joined_without_the_writer(self, monkeypatch):
        phi = MonotoneFunctional.constant((s, s[:6]) for s in all_strings(12))  # 4,096 pairs
        payload = functional_to_json(phi)
        expected = reference_csv(payload)
        monkeypatch.setattr(csv, "writer", None)
        assert cli._render(payload, "csv") == expected
        assert expected.count("\n") == 1 + 2 * 4096


# ---------------------------------------------------------------------------
# CSV and JSON forms of deep outputs
# ---------------------------------------------------------------------------


class TestDeepOutputs:
    def test_invert_and_induce_write_the_same_leaves_in_both_forms(self, tmp_path, capsys):
        """invert --depth 6, then induce --depth 12 on its functional: each CSV
        row is one leaf of the JSON document, in key order."""
        staged = str(Path(__file__).parent / "golden" / "inputs" / "staged.json")
        fn, induced = str(tmp_path / "fn.json"), str(tmp_path / "induced.json")
        for argv, out in [
            (["invert", staged, "--stage", "3", "--depth", "6"], fn),
            (["induce", fn, "--stage", "3", "--depth", "12"], induced),
        ]:
            assert main(argv + ["--out", out]) == 0
            assert main(argv + ["--format", "csv"]) == 0
            rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
            leaves: list[tuple[str, str]] = []
            reference_flatten("", json.loads(Path(out).read_text(encoding="utf-8")), leaves)
            assert rows == [["key", "value"], *map(list, leaves)]
        assert len(rows) == 1 + 4 + (2 << 12) - 1  # strict, depth, tail and weight, and the table
