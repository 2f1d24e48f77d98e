import csv
import io
import json
from pathlib import Path

import jsonschema
import pytest

from segre_pg72.anf import resolve_poly_name
from segre_pg72.cli import EXPORTS, main, report_payload, run_suite
from segre_pg72.groups import elements, schreier_sims

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = ROOT / "docs" / "report-schema.json"
# committed outputs of the benchmark's cold CLI workload; read here, never written
REFERENCE_DIR = ROOT / "bench" / "reference"
REFERENCE_DOCUMENTS = {
    "verify_all.json": ["verify", "all", "--format", "json"],
    **{
        f"export_{what}.{fmt}": ["export", what, "--format", fmt]
        for what in ("orbits", "spread", "polys", "model")
        for fmt in ("json", "csv")
    },
    **{f"orbits_{group}.json": ["orbits", "--group", group] for group in ("GS", "GS0", "GB")},
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_each_suite_passes(self, capsys):
        for suite in ("groups", "spread", "orbits", "table1", "polys"):
            code, out, _ = run_cli(capsys, "verify", suite)
            assert code == 0, out
            assert "FAIL" not in out

    def test_verify_all_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 0
        assert out.strip().endswith("checks passed")

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2

    def test_json_report_validates_against_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "spread", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(payload, schema)
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["total"] == len(payload["checks"])

    def test_report_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "table1", "--format", "json")
        _, second, _ = run_cli(capsys, "verify", "table1", "--format", "json")
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "table1", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["suite"] == "table1"

    def test_unwritable_out_path(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "verify", "table1", "--out", str(tmp_path / "no" / "dir" / "x")
        )
        assert code == 1
        assert "cannot write" in err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_is_a_usage_error(self, capsys, cap):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "groups", "--cap", cap])
        assert exc.value.code == 2
        assert "--cap" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--cap", "--seed"])
    def test_non_integer_is_an_invalid_int(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "groups", option, "abc"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"argument {option}: invalid int value: 'abc'\n")

    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_negative_seed_is_a_usage_error(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "groups", "--seed", seed])
        assert exc.value.code == 2
        assert "--seed: must be at least 0" in capsys.readouterr().err

    def test_raising_checks_are_reported_as_failures(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "groups", "--cap", "1", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        jsonschema.validate(payload, json.loads(SCHEMA_PATH.read_text()))
        failed = [c for c in payload["checks"] if not c["pass"]]
        assert [c["id"] for c in failed] == [
            "groups/closure/M,N", "groups/closure/M',N", "groups/closure/M,K12",
        ]
        assert all(c["actual"].startswith("raised ClosureOverflowError: ") for c in failed)
        assert payload["summary"] == {"total": 25, "passed": 22, "failed": 3}

    def test_seed_is_recorded(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "polys", "--format", "json", "--seed", "7"
        )
        assert code == 0
        assert json.loads(out)["metadata"]["seed"] == 7


class TestEval:
    @pytest.mark.parametrize(
        "poly,point,value",
        [
            ("Q2", "18", "1"),
            ("Q2", "1", "0"),
            ("Q4", "1246", "1"),
            ("P1", "1", "1"),
            ("Q2+Q4", "13", "0"),
        ],
    )
    def test_named_evaluation(self, capsys, poly, point, value):
        code, out, _ = run_cli(capsys, "eval", poly, point)
        assert code == 0
        assert out.strip() == value

    def test_hex_mask_form(self, capsys):
        from segre_pg72.anf import named_Q

        mask = named_Q()["Q2"].to_hex()
        code, out, _ = run_cli(capsys, "eval", mask, "18")
        assert code == 0
        assert out.strip() == "1"

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "eval", "Q3", "18")
        assert code == 2
        assert "unknown polynomial" in err

    def test_unknown_name_message_is_printed_without_quotes(self, capsys):
        code, out, err = run_cli(capsys, "eval", "Q3", "18")
        assert (code, out, err) == (2, "", "error: unknown polynomial 'Q3'\n")

    def test_bad_point(self, capsys):
        code, _, err = run_cli(capsys, "eval", "Q2", "19")
        assert code == 2

    def test_zero_vector_is_not_a_point(self, capsys):
        code, out, err = run_cli(capsys, "eval", "Q2", "12345678u")
        assert code == 2
        assert out == ""
        assert "zero vector" in err


class TestExport:
    def test_orbits_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "export", "orbits", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["point", "GS_orbit", "GB_orbit", "weight"]
        assert len(rows) == 256
        assert all(len(r) == 4 for r in rows)
        assert rows[1] == ["1", "O5", "O5,1", "1"]

    def test_spread_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "export", "spread", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["lines"]) == 85
        assert all(len(line) == 3 for line in payload["lines"])
        assert ["1", "246", "1246"] in payload["lines"]

    def test_polys_has_twenty_entries(self, capsys):
        code, out, _ = run_cli(capsys, "export", "polys")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 20
        names = {row["name"] for row in payload}
        assert {"P1", "P4'''", "P4v", "Q2", "Q6'"} <= names
        by_name = {row["name"]: row for row in payload}
        assert by_name["Q2"]["degree"] == 2
        assert by_name["Q2"]["terms"] == 4

    def test_model_json_families(self, capsys):
        code, out, _ = run_cli(capsys, "export", "model")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 27
        assert len(payload["generators"]) == 27
        assert len(payload["tangents"]) == 27
        assert payload["tangents"]["1"] == ["1", "1246", "246"]

    def test_exports_are_byte_identical(self, capsys):
        for what in ("orbits", "spread", "polys", "model"):
            _, first, _ = run_cli(capsys, "export", what)
            _, second, _ = run_cli(capsys, "export", what)
            assert first == second

    def test_unknown_export_is_a_usage_error_offering_the_table(self, capsys):
        assert list(EXPORTS) == ["orbits", "spread", "polys", "model"]
        with pytest.raises(SystemExit) as exc:
            main(["export", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        offered = err.split("choose from ", 1)[1]
        assert all(name in offered for name in EXPORTS)

    def test_export_to_file(self, capsys, tmp_path):
        target = tmp_path / "spread.csv"
        code, _, _ = run_cli(
            capsys, "export", "spread", "--format", "csv", "--out", str(target)
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(target.read_text())))
        assert len(rows) == 86


class TestOrbitsCommand:
    def test_gs_classes(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "--group", "GS")
        assert code == 0
        payload = json.loads(out)
        assert {row["label"]: row["size"] for row in payload} == {
            "O1": 12, "O2": 54, "O3": 108, "O4": 54, "O5": 27,
        }

    def test_gs0_includes_triplet_labels(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "--group", "GS0")
        assert code == 0
        labels = {row["label"] for row in json.loads(out)}
        assert labels == {"O1", "O2", "O3", "S", "S'", "S''"}

    def test_gb_has_census_rows(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "--group", "GB")
        assert code == 0
        assert len(json.loads(out)) == 21

    def test_weight_histograms_are_consistent(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "--group", "GS")
        payload = json.loads(out)
        for row in payload:
            assert sum(row["weights"].values()) == row["size"]


class TestGroupCommand:
    def test_order_of_full_orthogonal_group(self, capsys):
        code, out, _ = run_cli(capsys, "group", "order", "--gens", "M,N,K")
        assert code == 0
        assert out.strip() == "348364800"

    def test_order_with_alias_names(self, capsys):
        code, out, _ = run_cli(capsys, "group", "order", "--gens", "Mp,N")
        assert code == 0
        assert out.strip() == "648"

    def test_unknown_generator(self, capsys):
        code, _, err = run_cli(capsys, "group", "order", "--gens", "M,Zz")
        assert code == 2

    def test_unknown_generator_message_is_printed_without_quotes(self, capsys):
        code, out, err = run_cli(capsys, "group", "order", "--gens", "M,Zz")
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown element 'Zz'; known: ")
        assert err.endswith("\n") and '"' not in err


class TestReportPayload:
    def test_counts_are_consistent(self):
        checks = run_suite("table1", seed=0, cap=1 << 21)
        payload = report_payload("table1", 0, checks)
        assert payload["summary"]["total"] == len(checks)
        assert payload["summary"]["passed"] + payload["summary"]["failed"] == len(checks)
        assert all(c["pass"] for c in payload["checks"])


@pytest.mark.parametrize("filename", REFERENCE_DOCUMENTS)
def test_output_matches_the_committed_reference(capsys, filename):
    code, out, err = run_cli(capsys, *REFERENCE_DOCUMENTS[filename])
    assert (code, err) == (0, "")
    assert out.encode() == (REFERENCE_DIR / filename).read_bytes()


def read_reference_json(filename):
    return json.loads((REFERENCE_DIR / filename).read_text())


def test_eval_values_match_the_committed_reference():
    # one string of 255 digits per name: the value at each point 1..255
    tables = read_reference_json("eval_values.json")
    assert len(tables) == 20
    for name, digits in tables.items():
        poly = resolve_poly_name(name)
        assert "".join(str(poly.evaluate(v)) for v in range(1, 256)) == digits, name


def test_group_orders_match_the_committed_reference():
    # every set of one to three named elements, by comma-joined label
    orders = read_reference_json("group_orders.json")
    assert len(orders) == 987
    for label, order in orders.items():
        assert schreier_sims(elements(label)) == order, label
