import json
import os
import subprocess
import sys

import pytest

from richtoric.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# check


def test_check_non_toric_pair(capsys):
    code, out, _ = run_cli(capsys, "check", "--v", "132", "--w", "312")
    assert code == 1
    assert "monomial-free: no" in out
    assert "P13*P2" in out
    assert "vanishing: 23" in out
    assert "dim X_w^v = N(w)-N(v) = 2-1 = 1" in out


def test_check_toric_pair(capsys):
    code, out, _ = run_cli(capsys, "check", "--v", "1234", "--w", "1234")
    assert code == 0
    assert "dim X_w^v = N(w)-N(v) = 0-0 = 0" in out
    assert "monomial-free: yes" in out


def test_check_prints_survivor_count(capsys):
    code, out, _ = run_cli(capsys, "check", "--v", "2314", "--w", "4231")
    assert "|T_w^v| = 9" in out


def test_check_empty_richardson_variety(capsys):
    code, out, _ = run_cli(capsys, "check", "--v", "312", "--w", "132")
    assert code == 2
    assert "empty Richardson variety" in out


def test_check_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, "check", "--v", "112", "--w", "123")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "check", "--v", "12", "--w", "123")
    assert code == 2 and "error" in err


def test_check_json(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--v", "132", "--w", "312", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["monomial_free"] is False
    assert payload["in_family"] is False
    assert payload["dimension"] == 1
    assert payload["witnesses"][0]["surviving_term"] == "P13*P2"


# ---------------------------------------------------------------------------
# classify


def test_classify_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys, "classify", "--n", "3", "--output", str(out_file)
    )
    assert code == 0
    golden = open(os.path.join(GOLDEN, "classify_n3_diagonal.csv")).read()
    assert out_file.read_text() == golden


def test_classify_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RICHTORIC_OUTDIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "classify", "--n", "3")
    assert code == 0
    assert (tmp_path / "classify_n3_diagonal.csv").exists()


@pytest.mark.parametrize("route", ["output", "outdir"])
def test_classify_write_error_exits_2(tmp_path, capsys, monkeypatch, route):
    missing = tmp_path / "missing"
    if route == "output":
        path, argv = str(missing / "t.csv"), ["--output", str(missing / "t.csv")]
    else:
        monkeypatch.setenv("RICHTORIC_OUTDIR", str(missing))
        path, argv = os.path.join(str(missing), "classify_n3_diagonal.csv"), []
    code, out, err = run_cli(capsys, "classify", "--n", "3", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_classify_force_refuses_n_above_max_n(tmp_path, capsys, monkeypatch):
    # refused before the sweep: --force lifts the sweep bound, not MAX_N
    monkeypatch.setenv("RICHTORIC_OUTDIR", str(tmp_path))
    code, out, err = run_cli(capsys, "classify", "--n", "9", "--force")
    assert code == 2
    assert out == ""
    assert err == "error: n=9 is outside the supported range 2..8\n"
    assert list(tmp_path.iterdir()) == []


def test_classify_table1_comparison(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--n", "4",
        "--order", "antidiagonal",
        "--compare", "table1",
        "--output", str(tmp_path / "t.csv"),
    )
    assert code == 0
    assert "covered 58/58, missing 0" in out


def test_classify_family_comparison(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--n", "4",
        "--order", "diagonal",
        "--compare", "tn",
        "--output", str(tmp_path / "t.csv"),
    )
    assert code == 0
    assert "0 mismatches" in out


def test_classify_guard_exit(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "classify", "--n", "7", "--output", str(tmp_path / "t.csv")
    )
    assert code == 2
    assert "force" in err


def test_classify_rejects_n_below_two(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "classify", "--n", "1", "--output", str(tmp_path / "t.csv")
    )
    assert code == 2
    assert out == ""
    assert err == "error: n must be at least 2\n"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("n, order", [("5", "antidiagonal"), ("4", "diagonal")])
def test_classify_table1_refuses_before_the_sweep(tmp_path, capsys, monkeypatch, n, order):
    monkeypatch.setenv("RICHTORIC_OUTDIR", str(tmp_path))
    code, out, err = run_cli(
        capsys, "classify", "--n", n, "--order", order, "--compare", "table1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: --compare table1 applies to --n 4 --order antidiagonal\n"
    assert list(tmp_path.iterdir()) == []


def test_classify_json(tmp_path, capsys):
    out_file = tmp_path / "out.json"
    code, _, _ = run_cli(
        capsys,
        "classify",
        "--n", "3",
        "--format", "json",
        "--output", str(out_file),
    )
    assert code == 0
    records = json.loads(out_file.read_text())
    assert {"v": "132", "w": "312", "order": "diagonal",
            "monomial_free": False, "num_witnesses": 1} in records


# ---------------------------------------------------------------------------
# ssyt


def test_ssyt_counts(capsys):
    code, out, _ = run_cli(capsys, "ssyt", "--v", "123", "--w", "312", "--d", "2")
    assert code == 0
    assert "d=1: ssyt=5 standard=5 kernel=5" in out
    assert "d=2: ssyt=15 standard=14 kernel=15" in out


def test_ssyt_list_tags_non_standard(capsys):
    code, out, _ = run_cli(
        capsys, "ssyt", "--v", "123", "--w", "312", "--d", "2", "--list"
    )
    assert code == 0
    assert "[13,2]  non-standard  min=[132,231]" in out
    assert "[12,3]  standard" in out


def test_ssyt_counts_agree_on_family_pair(capsys):
    code, out, _ = run_cli(capsys, "ssyt", "--v", "1342", "--w", "2431", "--d", "2")
    assert code == 0
    for line in out.splitlines():
        if line.startswith("d="):
            nums = [int(tok.split("=")[1]) for tok in line.split()[1:]]
            assert nums[0] == nums[1] == nums[2]


def test_ssyt_empty_pair(capsys):
    code, out, _ = run_cli(capsys, "ssyt", "--v", "321", "--w", "123")
    assert code == 2


# ---------------------------------------------------------------------------
# polytope


def test_polytope_golden(capsys):
    code, out, _ = run_cli(
        capsys, "polytope", "--v", "2341", "--w", "4231", "--order", "antidiagonal"
    )
    assert code == 0
    golden = open(os.path.join(GOLDEN, "polytope_2341_4231_antidiagonal.txt")).read()
    assert out == golden


def test_polytope_point_pair(capsys):
    code, out, _ = run_cli(capsys, "polytope", "--v", "2431", "--w", "2431")
    assert code == 0
    assert "distinct points (1 of 1 columns)" in out
    assert "affine dimension: 0" in out


def test_polytope_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "polytope",
        "--v", "2341", "--w", "4231",
        "--order", "antidiagonal",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["affine_dim"] == 2
    assert len(payload["distinct_points"]) == 5
    assert ["P3*P24*P234", "P4*P23*P234"] in payload["point_labels"]


def test_polytope_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "polytope",
        "--v", "2341", "--w", "4231",
        "--order", "antidiagonal",
        "--format", "csv",
    )
    assert code == 0
    assert "# A" in out and "# S" in out and "# AS" in out
    assert "x2,1,0,0,0,0,0" in out


def test_polytope_refuses_oversized_segre_product(capsys):
    # 6 * 15 * 20 * 15 * 6 = 162,000 products: refused before any matrix is built
    code, out, err = run_cli(capsys, "polytope", "--v", "123456", "--w", "654321")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds budget" in err


def test_ssyt_bad_degree_fails_before_bruhat_check(capsys):
    code, out, err = run_cli(capsys, "ssyt", "--v", "321", "--w", "123", "--d", "0")
    assert code == 2
    assert out == ""
    assert err == "error: degree must be at least 1\n"


# ---------------------------------------------------------------------------
# verify


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "quick")
    assert code == 0
    assert "[PASS] table1" in out
    assert "suites passed" in out


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "richtoric", "check", "--v", "1234", "--w", "4321"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "monomial-free: yes" in proc.stdout
