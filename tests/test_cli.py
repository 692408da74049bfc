import json

import pytest

from delzant.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def product_file(tmp_path, capsys):
    path = tmp_path / "product.json"
    code, out, _ = run_cli(capsys, "family", "product-simplices:p=4,n=10,k=2")
    assert code == 0
    path.write_text(out)
    return path


@pytest.fixture()
def redundant_file(tmp_path, capsys):
    path = tmp_path / "redundant.json"
    code, out, _ = run_cli(capsys, "family", "redundant-simplex:n=5,k=2")
    assert code == 0
    path.write_text(out)
    return path


class TestAnalyze:
    def test_product_report(self, capsys, product_file):
        code, out, err = run_cli(capsys, "analyze", str(product_file))
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["invariants"]["N_L"] == 4
        assert data["invariants"]["monotone"] is True
        assert data["invariants"]["c_over_pi"] == "1/2"
        assert data["structure"]["fano_constant"] == "1"
        assert data["topology"]["torus_rank"] == 2
        assert data["discrepancies"] == []

    def test_redundant_report_has_discrepancy(self, capsys, redundant_file):
        code, out, _ = run_cli(capsys, "analyze", str(redundant_file))
        assert code == 0
        data = json.loads(out)
        assert data["invariants"]["N_L"] == 2
        assert data["invariants"]["maslov"] == [4, 6]
        assert data["structure"]["strict_redundant"] == [4]
        assert len(data["discrepancies"]) == 1
        record = data["discrepancies"][0]
        assert record["published"] == "3" and record["computed"] == "6"

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
        assert code == 1 and out == "" and "error" in err

    def test_malformed_file_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == 1 and "malformed" in err

    def test_require_embedded_rejection(self, capsys, tmp_path):
        skew = tmp_path / "skew.json"
        skew.write_text('{"A": [[1, 0, -1], [0, 1, -2]], "b": ["0", "0", "2"]}')
        code, out, err = run_cli(capsys, "analyze", str(skew), "--require-embedded")
        assert code == 2
        assert json.loads(out)["structure"]["delzant"] is False
        assert "rejected" in err

    def test_byte_stable(self, capsys, product_file):
        _, first, _ = run_cli(capsys, "analyze", str(product_file), "--oracle")
        _, second, _ = run_cli(capsys, "analyze", str(product_file), "--oracle")
        assert first == second


class TestFamily:
    @pytest.mark.parametrize(
        "spec",
        [
            "product-simplices:p=4,n=10,k=2,k=0",
            "product-simplices:p=4,n=10,k=2,q=9",
            "product-simplices:p=4,n=1_0,k=2",
            "redundant-simplex:n=\u0661\u0663,k=8",
        ],
    )
    def test_malformed_spec_exits_1(self, capsys, spec):
        code, out, err = run_cli(capsys, "family", spec)
        assert code == 1 and out == "" and err.startswith("error:")


class TestQuadrics:
    def test_forward_and_invert(self, capsys, redundant_file, tmp_path):
        code, out, _ = run_cli(capsys, "quadrics", str(redundant_file))
        assert code == 0
        data = json.loads(out)
        assert data["Gamma"] == [[1, 1, 1, 1, 0], [1, 1, 0, 0, 1]]
        assert data["delta"] == ["4", "6"]
        qfile = tmp_path / "quadrics.json"
        qfile.write_text(out)
        code, out, _ = run_cli(capsys, "quadrics", str(qfile), "--invert")
        assert code == 0
        back = json.loads(out)
        assert len(back["A"]) == 3 and len(back["A"][0]) == 5


    @pytest.mark.parametrize("entry", [1.9, True])
    def test_malformed_quadrics_exit_1(self, capsys, tmp_path, entry):
        qfile = tmp_path / "quadrics.json"
        qfile.write_text(json.dumps({"Gamma": [[entry, 1, 1]], "delta": ["1"]}))
        code, out, err = run_cli(capsys, "quadrics", str(qfile), "--invert")
        assert code == 1 and out == "" and err.startswith("error:")


class TestObstruct:
    def test_sphere_product_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "obstruct", "--family", "sphere-product:p=4,q=6", "--L-dim", "10"
        )
        assert code == 0
        assert json.loads(out)["admissible"] == [2, 4, 6]

    def test_connected_sum_subset_of_divisors(self, capsys):
        code, out, _ = run_cli(capsys, "obstruct", "--family", "connected-sum-5:p=4")
        assert code == 0
        admissible = json.loads(out)["admissible"]
        assert set(admissible) <= {2, 4}

    def test_profile_file(self, capsys, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(
            json.dumps({"dims": {"0": 1, "3": 2, "6": 1}, "L_dim": 8, "orientable": True})
        )
        code, out, _ = run_cli(capsys, "obstruct", str(profile), "--nmax", "8")
        assert code == 0
        assert json.loads(out)["admissible"] == [2, 4]

    @pytest.mark.parametrize(
        "field, value", [("orientable", "false"), ("L_dim", 3.7), ("dims", {"0": True})]
    )
    def test_malformed_profile_exits_1(self, capsys, tmp_path, field, value):
        data = {"dims": {"0": 1, "3": 2, "6": 1}, "L_dim": 8, "orientable": True, field: value}
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "obstruct", str(profile))
        assert code == 1 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("spec", ["sphere-product:p=4,q=6,zz=1", "sphere-product:p=4,q=6,p=8"])
    def test_malformed_family_spec_exits_1(self, capsys, spec):
        code, out, err = run_cli(capsys, "obstruct", "--family", spec)
        assert code == 1 and out == "" and err.startswith("error:")

    def test_nmax_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "obstruct", "--family", "sphere-product:p=4,q=6", "--nmax", "1"
        )
        assert code == 1 and "nmax" in err


class TestOracleCommand:
    def test_family_loops(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--family", "product-simplices:p=4,n=10,k=2"
        )
        assert code == 0
        records = json.loads(out)
        assert all(r["pass"] for r in records)
        # the labels analyze --oracle uses
        assert [r["check"] for r in records] == [
            "point-residual", "area(1,0)", "maslov(1,0)", "area(0,1)", "maslov(0,1)"
        ]

    def test_explicit_loop(self, capsys, redundant_file):
        code, out, _ = run_cli(
            capsys, "oracle", str(redundant_file), "--loop", "0,1"
        )
        assert code == 0
        records = json.loads(out)
        area = next(r for r in records if r["check"].startswith("area"))
        assert area["expected"] == pytest.approx(6 * 3.141592653589793)

    @pytest.mark.parametrize("loop", ["0,1_0", "0,x", "0,\u0661"])
    def test_malformed_loop_exits_1(self, capsys, redundant_file, loop):
        code, out, err = run_cli(capsys, "oracle", str(redundant_file), "--loop", loop)
        assert code == 1 and out == "" and err.startswith("error:")


class TestVerify:
    def test_realization_rows_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "realization")
        assert code == 0
        rows = json.loads(out)
        assert {r["key"] for r in rows} == {"realization-products", "realization-redundant"}
        assert all(r["status"] == "pass" for r in rows)

    def test_binomial_row_fails_honestly(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "binomial")
        assert code == 1
        rows = json.loads(out)
        assert rows[0]["status"] == "fail"
        assert "m=15" in rows[0]["details"]

    def test_unknown_suite_errors(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--only", "nonexistent-suite")
        assert code == 1 and "matched no suite" in err


class TestVerifySeed:
    def test_seed_override_keeps_flag_stable(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "area", "--seed", "7")
        rows = json.loads(out)
        assert code == 0 and rows[0]["status"] == "flagged"
