import json
import random

import pytest

from delzant.cli import main
from delzant.spectral import admissible_maslov, profile_to_json, run_engine

from .test_spectral import _random_profile


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
            "product-simplices:p=4,n=\u0663,k=2",
            "product-simplices:p=4,n=1.5,k=2",
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

    def test_invert_names_the_constant_column(self, capsys, tmp_path):
        # u_1^2 = 0 fixes coordinate 1: e_1 spans the row space of Gamma
        qfile = tmp_path / "quadrics.json"
        qfile.write_text(json.dumps({"Gamma": [[0, 1]], "delta": ["0"]}))
        code, out, err = run_cli(capsys, "quadrics", str(qfile), "--invert")
        assert code == 1 and out == ""
        assert err == (
            "error: column 1 of Gamma: the unit vector e_1 lies in the row space, "
            "so inequality 1 would have a zero normal\n"
        )


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

    @pytest.mark.parametrize(
        "spec, hint",
        [
            ("connected-sum-5:p=4", "connected-sum-5 takes dim L from p"),
            ("sphere-power:p=4,m=3", "sphere-power takes dim L from its l= key"),
        ],
    )
    def test_l_dim_refused_where_it_would_be_ignored(self, capsys, spec, hint):
        code, out, err = run_cli(capsys, "obstruct", "--family", spec, "--L-dim", "3")
        assert code == 1 and out == ""
        assert "--L-dim applies only to sphere-product" in err and hint in err

    def test_l_dim_refused_with_profile_file(self, capsys, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(
            json.dumps({"dims": {"0": 1, "3": 2, "6": 1}, "L_dim": 8, "orientable": True})
        )
        code, out, err = run_cli(capsys, "obstruct", str(profile), "--L-dim", "10")
        assert code == 1 and out == "" and "a profile file sets L_dim" in err

    def test_nmax_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "obstruct", "--family", "sphere-product:p=4,q=6", "--nmax", "1"
        )
        assert code == 1 and "nmax" in err

    def test_small_l_dim_names_dim_l(self, capsys, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"dims": {"0": 1, "1": 1}, "L_dim": 1, "orientable": True}))
        code, out, err = run_cli(capsys, "obstruct", str(profile))
        assert code == 1 and out == ""
        assert "dim L = 1 leaves no Maslov candidate" in err and "nmax" not in err

    def test_agrees_with_library(self, capsys, tmp_path):
        # the JSON renders the library's verdicts: the admissible set, parity
        # for exactly the odd n on orientable L, the engine's witness otherwise
        rng = random.Random(29)
        path = tmp_path / "profile.json"
        orientabilities = set()
        for _ in range(200):
            profile = _random_profile(rng)
            orientabilities.add(profile.orientable)
            path.write_text(json.dumps(profile_to_json(profile)))
            for n_max in sorted({2, profile.l_dim, profile.l_dim + 2}):
                code, out, _ = run_cli(capsys, "obstruct", str(path), "--nmax", str(n_max))
                assert code == 0
                data = json.loads(out)
                assert data["n_max"] == n_max
                assert data["admissible"] == sorted(admissible_maslov(profile, n_max))
                parity = [e["n"] for e in data["excluded"] if e.get("reason") == "parity"]
                odd = [n for n in range(3, n_max + 1, 2) if profile.orientable]
                assert parity == odd
                for entry in data["excluded"]:
                    if "reason" not in entry:
                        witness = run_engine(profile, entry["n"]).witness_degree
                        assert entry == {"n": entry["n"], "witness_degree": witness}
                listed = data["admissible"] + [e["n"] for e in data["excluded"]]
                assert sorted(listed) == list(range(2, n_max + 1))
        assert orientabilities == {True, False}


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

    @pytest.mark.parametrize(
        "source",
        [
            # a non-strict redundancy: the loop lattice is unknown, so both check
            # the doubled dual lattice
            {"A": [[1, -1, 0, 0, 1], [0, 0, 1, -1, 1]], "b": [0, 2, 0, 2, 0]},
            # unbounded: no redundancy analysis, and no error either
            {"A": [[1, -1, 1, 0], [0, 0, 0, 1]], "b": [0, 1, 0, 1]},
            "redundant-simplex:n=7,k=4",
        ],
        ids=["non-strict", "unbounded", "catalog"],
    )
    def test_loops_are_the_analyze_oracle_checks(self, capsys, tmp_path, source):
        if isinstance(source, str):
            argv = ["--family", source]
        else:
            path = tmp_path / "poly.json"
            path.write_text(json.dumps(source))
            argv = [str(path)]
        code, out, err = run_cli(capsys, "oracle", *argv, "--seed", "3")
        assert err == ""
        analyzed, analyzed_out, _ = run_cli(capsys, "analyze", *argv, "--oracle", "--seed", "3")
        assert analyzed == 0
        checks = json.loads(analyzed_out)["oracle_checks"]
        assert json.loads(out) == checks
        assert code == (0 if all(r["pass"] for r in checks) else 1)

    def test_small_explicit_samples_cannot_alias(self, capsys):
        # two samples of (1,-1) land on the same phase; the count is raised to
        # the one the winding bound chooses
        code, out, _ = run_cli(
            capsys, "oracle", "--family", PRODUCT_SPEC, "--loop", "1,-1", "--samples", "1"
        )
        assert code == 0
        records = json.loads(out)
        assert all(r["pass"] for r in records)
        assert [r["actual"] for r in records if r["check"].startswith("maslov")] == [-8]

    @pytest.mark.parametrize("command", ["oracle", "analyze"])
    def test_negative_samples_exit_1(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--family", PRODUCT_SPEC, "--samples", "-3")
        assert (code, out, err) == (1, "", "error: --samples must be at least 0\n")

    @pytest.mark.parametrize("command", ["oracle", "analyze"])
    @pytest.mark.parametrize("value", ["65537", "2000000000"])
    def test_samples_above_the_refinement_ceiling_exit_1(self, capsys, command, value):
        # refused before any n x samples array is allocated
        code, out, err = run_cli(capsys, command, "--family", PRODUCT_SPEC, "--samples", value)
        assert (code, out, err) == (1, "", "error: --samples must be at most 65536\n")

    def test_samples_at_the_refinement_ceiling_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--family", PRODUCT_SPEC, "--loop", "1,-1", "--samples", "65536"
        )
        assert code == 0 and all(r["pass"] for r in json.loads(out))

    @pytest.mark.parametrize(
        "loop, floor",
        [
            # (C, 0) pairs C with four columns and (0, C) with eight: the
            # quadrature's floor 64 (1 + 2C) passes the cap first
            ("512,0", 65600),
            ("0,-512", 65600),
            ("0,100000000", 12800000064),
            # refused before any float is formed, where a float would overflow
            ("9" * 400 + ",0", 64 * (1 + 2 * 10**400 - 2)),
        ],
        ids=["512,0", "0,-512", "0,1e8", "1e400,0"],
    )
    def test_loop_above_the_sample_cap_exits_1(self, capsys, loop, floor):
        code, out, err = run_cli(capsys, "oracle", "--family", PRODUCT_SPEC, "--loop", loop)
        assert (code, out) == (1, "")
        assert err == f"error: loop ({loop}) needs {floor} samples, above the cap of 65536\n"

    def test_loop_at_the_sample_cap_runs(self, capsys):
        # the quadrature's floor is 64 (1 + 2 * 511) = 65472
        code, out, _ = run_cli(capsys, "oracle", "--family", PRODUCT_SPEC, "--loop", "511,0")
        assert code == 0 and all(r["pass"] for r in json.loads(out))

    @pytest.mark.parametrize("loop", ["0,1_0", "0,x", "0,\u0661", "0,\u0663", "0,1.5"])
    def test_malformed_loop_exits_1(self, capsys, redundant_file, loop):
        code, out, err = run_cli(capsys, "oracle", str(redundant_file), "--loop", loop)
        assert code == 1 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "source", [{"A": [], "b": []}, {"A": [[1]], "b": [1]}], ids=["k0", "k1-n1"]
    )
    def test_no_quadrics_exits_1(self, capsys, tmp_path, source):
        # m = 0: no torus, so no loop to sample or check
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(source))
        code, out, err = run_cli(capsys, "oracle", str(path))
        assert (code, out) == (1, "")
        assert err == "error: the system has no quadrics (m = 0): no torus and no loop to check\n"


PRODUCT_SPEC = "product-simplices:p=4,n=10,k=2"


class TestDeeplyNestedJson:
    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["quadrics", "--invert"], ["obstruct"]],
        ids=["polytope", "quadrics", "profile"],
    )
    def test_refused_in_one_line(self, capsys, tmp_path, command):
        # deeper than the JSON parser's recursion limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert (code, out, err) == (1, "", "error: malformed JSON: nested too deeply\n")


class TestIntegerOptions:
    @pytest.mark.parametrize("value", ["1_0", "\u0663", "1.5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--family", PRODUCT_SPEC, "--seed"),
            ("analyze", "--family", PRODUCT_SPEC, "--samples"),
            ("analyze", "--family", PRODUCT_SPEC, "--budget"),
            ("obstruct", "--family", "sphere-product:p=4,q=6", "--nmax"),
            ("obstruct", "--family", "sphere-product:p=4,q=6", "--L-dim"),
            ("oracle", "--family", PRODUCT_SPEC, "--seed"),
            ("oracle", "--family", PRODUCT_SPEC, "--samples"),
            ("verify", "--only", "area", "--seed"),
        ],
    )
    def test_malformed_integer_option_exits_1(self, capsys, argv, value):
        code, out, err = run_cli(capsys, *argv, value)
        assert code == 1 and out == "" and err.startswith("error:")
        assert argv[-1] in err


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
