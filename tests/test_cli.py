import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys

import pytest

from richtoric import cli, initial, tableaux
from richtoric.cli import classification_csv, main
from richtoric.initial import TermOrder, classify_all
from richtoric.perms import all_perms, bruhat_leq, perm_str

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")
CLI_CATALOGUE = os.path.join(
    os.path.dirname(__file__), "..", "perfbench", "expected", "cli.json"
)


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


@pytest.mark.parametrize("text", ["12a", "1,2,,3", "١٢٣", "+1,3,2", "1, 2,3"])
def test_check_refuses_a_non_numeric_permutation(capsys, text):
    code, out, err = run_cli(capsys, "check", "--v", text, "--w", "123")
    assert (code, out, err) == (2, "", f"error: not a permutation string: {text!r}\n")


@pytest.mark.parametrize("command", ["check", "ssyt", "polytope"])
def test_single_pair_commands_refuse_n9(capsys, command):
    code, out, err = run_cli(capsys, command, "--v", "123456789", "--w", "987654321")
    assert (code, out, err) == (2, "", "error: n=9 is outside the supported range 2..8\n")


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


def test_classify_default_json_output_is_named_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RICHTORIC_OUTDIR", str(tmp_path))
    code, out, err = run_cli(capsys, "classify", "--n", "3", "--format", "json")
    path = tmp_path / "classify_n3_diagonal.json"
    assert (code, err) == (0, "")
    assert out == f"wrote {path}: 19 pairs, 14 monomial-free\n"
    assert len(json.loads(path.read_text())) == 19
    assert list(tmp_path.iterdir()) == [path]


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


@pytest.mark.parametrize("route", ["output", "outdir"])
def test_classify_unwritable_path_refused_before_the_sweep(
    tmp_path, capsys, monkeypatch, route
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started before the output path was checked")

    monkeypatch.setattr(initial, "witness_table", no_sweep)
    missing = tmp_path / "missing"
    if route == "output":
        path, argv = str(missing / "t.csv"), ["--output", str(missing / "t.csv")]
    else:
        monkeypatch.setenv("RICHTORIC_OUTDIR", str(missing))
        path, argv = os.path.join(str(missing), "classify_n6_diagonal.csv"), []
    code, out, err = run_cli(capsys, "classify", "--n", "6", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("route", ["output", "outdir"])
def test_classify_directory_path_refused_before_the_sweep(
    tmp_path, capsys, monkeypatch, route
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started before the output path was checked")

    monkeypatch.setattr(initial, "witness_table", no_sweep)
    if route == "output":
        path, argv = str(tmp_path), ["--output", str(tmp_path)]
    else:
        monkeypatch.setenv("RICHTORIC_OUTDIR", str(tmp_path))
        path, argv = os.path.join(str(tmp_path), "classify_n6_diagonal.csv"), []
        os.mkdir(path)
    code, out, err = run_cli(capsys, "classify", "--n", "6", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {path}: Is a directory\n"


def test_classify_force_refuses_n_above_max_n(tmp_path, capsys, monkeypatch):
    # refused before the sweep: S_9 is beyond the sweep bound
    monkeypatch.setenv("RICHTORIC_OUTDIR", str(tmp_path))
    code, out, err = run_cli(capsys, "classify", "--n", "9")
    assert code == 2
    assert out == ""
    assert err == "error: n=9 is outside the supported range 2..7\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", ["8", "9"])
def test_classify_refuses_n_above_the_sweep_bound_before_the_sweep(
    tmp_path, capsys, monkeypatch, n
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started for a refused n")

    monkeypatch.setattr(initial, "witness_table", no_sweep)
    monkeypatch.setenv("RICHTORIC_OUTDIR", str(tmp_path))
    for argv in ([], ["--output", str(tmp_path / "t.csv")]):
        code, out, err = run_cli(capsys, "classify", "--n", n, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: n={n} is outside the supported range 2..7\n"
    assert list(tmp_path.iterdir()) == []


def test_classify_refused_n_leaves_an_existing_output_untouched(tmp_path, capsys):
    out_file = tmp_path / "t.csv"
    out_file.write_bytes(b"earlier results\n")
    code, _, err = run_cli(capsys, "classify", "--n", "9", "--output", str(out_file))
    assert code == 2
    assert err == "error: n=9 is outside the supported range 2..7\n"
    assert out_file.read_bytes() == b"earlier results\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_classify_write_failure_mid_stream_exits_2(capsys):
    code, out, err = run_cli(capsys, "classify", "--n", "4", "--output", "/dev/full")
    assert code == 2
    assert out == ""
    assert err == "error: cannot write /dev/full: No space left on device\n"


def _json_body(records, order):
    rows = [
        {
            "v": perm_str(r.v),
            "w": perm_str(r.w),
            "order": order.value,
            "monomial_free": r.monomial_free,
            "num_witnesses": r.num_witnesses,
        }
        for r in records
    ]
    return json.dumps(rows, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("order", list(TermOrder))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_classify_stream_matches_the_whole_body(tmp_path, capsys, n, order, fmt):
    # the streamed rows are byte-identical to the body built from classify_all
    records = classify_all(n, order)
    if fmt == "csv":
        body = classification_csv(records, order)
    else:
        body = _json_body(records, order)
    argv = ["classify", "--n", str(n), "--order", order.value, "--format", fmt]
    code, out, err = run_cli(capsys, *argv, "--output", "-")
    assert (code, out, err) == (0, body, "")
    out_file = tmp_path / "t.out"
    code, out, err = run_cli(capsys, *argv, "--output", str(out_file))
    assert (code, err) == (0, "")
    assert out_file.read_text() == body
    free = sum(r.monomial_free for r in records)
    assert out == f"wrote {out_file}: {len(records)} pairs, {free} monomial-free\n"


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
    code, out, err = run_cli(
        capsys, "classify", "--n", "8", "--output", str(tmp_path / "t.csv")
    )
    assert code == 2
    assert out == ""
    assert err == "error: n=8 is outside the supported range 2..7\n"
    assert not (tmp_path / "t.csv").exists()


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


def test_ssyt_list_tags_agree_with_the_standard_count(capsys):
    # every comparable pair of S_4 at d = 2: the tags and count_standard
    # are two routes to the same number
    for v, w in itertools.product(all_perms(4), repeat=2):
        if not bruhat_leq(v, w):
            continue
        argv = ["ssyt", "--v", perm_str(v), "--w", perm_str(w), "--d", "2", "--list"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        d2 = next(line for line in out.splitlines() if line.startswith("d=2:"))
        standard = int(d2.split()[2].removeprefix("standard="))
        assert out.count("  standard  ") == standard, argv


def test_ssyt_counts_agree_on_family_pair(capsys):
    code, out, _ = run_cli(capsys, "ssyt", "--v", "1342", "--w", "2431", "--d", "2")
    assert code == 0
    for line in out.splitlines():
        if line.startswith("d="):
            nums = [int(tok.split("=")[1]) for tok in line.split()[1:]]
            assert nums[0] == nums[1] == nums[2]


def test_ssyt_over_budget_degree_refused_before_any_output(capsys, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("a lower degree ran before the budget was checked")

    # cmd_ssyt imports enumerate_ssyt from tableaux when it runs
    monkeypatch.setattr(tableaux, "enumerate_ssyt", no_enumeration)
    code, out, err = run_cli(
        capsys, "ssyt", "--v", "12345678", "--w", "87654321", "--d", "3"
    )
    assert code == 2
    assert out == ""
    assert err == "error: |T|^d = 254^3 exceeds budget 1000000\n"


def test_ssyt_refuses_a_huge_degree_at_once(capsys):
    code, out, err = run_cli(capsys, "ssyt", "--v", "123", "--w", "321", "--d", "1000000000000")
    assert (code, out) == (2, "")
    assert err == "error: |T|^d = 6^1000000000000 exceeds budget 1000000\n"


@pytest.mark.parametrize("pair", ["12", "21"])
def test_ssyt_single_column_refuses_large_degree(capsys, pair):
    # |T| = 1 (n = 2, v = w) counts as 2 against the budget, so a degree whose
    # walk would run out of stack is refused before any output
    code, out, err = run_cli(capsys, "ssyt", "--v", pair, "--w", pair, "--d", "400")
    assert (code, out) == (2, "")
    assert err == "error: |T|^d = 1^400 (|T| counted as 2) exceeds budget 1000000\n"
    code, out, _ = run_cli(capsys, "ssyt", "--v", pair, "--w", pair, "--d", "19")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("d=")] == [
        f"d={d}: ssyt=1 standard=1 kernel=1" for d in range(1, 20)
    ]


@pytest.mark.parametrize("order", ["diagonal", "antidiagonal"])
def test_ssyt_golden(capsys, order):
    code, out, _ = run_cli(
        capsys, "ssyt", "--v", "21354", "--w", "45213", "--d", "3", "--order", order
    )
    assert code == 0
    golden = open(os.path.join(GOLDEN, f"ssyt_21354_45213_d3_{order}.txt")).read()
    assert out == golden


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_polytope_golden_formats(capsys, fmt):
    code, out, _ = run_cli(capsys, "polytope", "--v", "21435", "--w", "42351", "--format", fmt)
    assert code == 0
    golden = open(os.path.join(GOLDEN, f"polytope_21435_42351_diagonal.{fmt}")).read()
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


def test_polytope_as_from_points_agrees_with_the_product(capsys):
    # AS is read back from the polytope's merged points; the matrix product
    # it replaced must give the same block on every comparable S_3 pair and
    # on seeded S_4 pairs
    from richtoric.polytope import restricted_map_matrix, segre_matrix

    def comparable(n):
        return [p for p in itertools.product(all_perms(n), repeat=2) if bruhat_leq(*p)]

    for v, w in comparable(3) + random.Random(4).sample(comparable(4), 60):
        for order in TermOrder:
            argv = ["polytope", "--v", perm_str(v), "--w", perm_str(w), "--order", order.value]
            code, out, _ = run_cli(capsys, *argv, "--format", "csv")
            assert code == 0
            product = restricted_map_matrix(v, w, order).mul(segre_matrix(v, w))
            assert out.split("# AS\n")[1] == product.csv(), argv


def test_polytope_refuses_oversized_segre_product(capsys):
    # 6 * 15 * 20 * 15 * 6 = 162,000 products: refused before any matrix is built
    code, out, err = run_cli(capsys, "polytope", "--v", "123456", "--w", "654321")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds budget" in err


CATALOGUE_SLOT_SIZES = {
    "check6": 18,
    "check7": 18,
    "check8": 18,
    "classify4": 8,
    "classify5": 6,
    "polytope4": 18,
    "polytope5": 18,
    "ssyt5": 18,
    "ssyt6": 18,
}


@pytest.mark.parametrize("slot", sorted(CATALOGUE_SLOT_SIZES))
def test_polytope_catalogue_requests_replay(capsys, slot):
    # the benchmark's recorded answers for every request but verify (whose
    # stdout holds timings), checked here so that an output change fails
    # the tests rather than the benchmark run
    with open(CLI_CATALOGUE) as fh:
        entries = json.load(fh)["slots"][slot]
    assert len(entries) == CATALOGUE_SLOT_SIZES[slot]
    for entry in entries:
        code, out, _ = run_cli(capsys, *entry["argv"])
        assert code == entry["exit"], entry["argv"]
        assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"], entry["argv"]


def test_polytope_catalogue_hang_request_refused(capsys):
    with open(CLI_CATALOGUE) as fh:
        argv = json.load(fh)["hang"]["argv"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        "error: Segre product 6*15*20*15*6 = 162000 columns exceeds budget 20000\n"
    )


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
    # the benchmark's recorded answer, under the benchmark's timing mask
    with open(CLI_CATALOGUE) as fh:
        entry = json.load(fh)["slots"]["verify"][0]
    masked = re.sub(r"\d+\.\d+s\b", "<t>s", out)
    assert code == entry["exit"]
    assert hashlib.sha256(masked.encode()).hexdigest() == entry["sha256"]


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


def test_cli_import_loads_no_dataclasses():
    # every record is a NamedTuple; dataclasses (and inspect with it) would
    # add to the start-up of every fresh process
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys; before = set(sys.modules); import richtoric.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (sys.modules.keys() - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_cli_import_leaves_verify_unloaded():
    # only the verify command needs the suites; every other fresh process
    # skips loading (and, without cached bytecode, compiling) them
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys; import richtoric.cli; print('richtoric.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


LOADED_BY_CLI = ["richtoric", "richtoric.cli", "richtoric.initial", "richtoric.perms"]


@pytest.mark.parametrize(
    "argv,added",
    [
        ([], []),
        (["check", "--v", "132", "--w", "312"], ["richtoric.compat"]),
        (["ssyt", "--v", "123", "--w", "312", "--d", "2"], ["richtoric.tableaux"]),
        (["polytope", "--v", "2341", "--w", "4231"], ["richtoric.polytope"]),
        (["classify", "--n", "3", "--output", "-"], []),
        (["classify", "--n", "3", "--compare", "tn", "--output", "-"], ["richtoric.compat"]),
        (
            ["classify", "--n", "4", "--order", "antidiagonal", "--compare", "table1", "--output", "-"],
            ["richtoric.table1"],
        ),
    ],
    ids=["import", "check", "ssyt", "polytope", "classify", "classify-tn", "classify-table1"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, added):
    # a fresh process compiles every module it loads (no bytecode is cached
    # where PYTHONDONTWRITEBYTECODE is set), so a command loads only its own
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import contextlib, io, sys; import richtoric.cli\n"
        "ours = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'richtoric')\n"
        "at_import = ours()\n"
        f"argv = {argv!r}\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()): richtoric.cli.main(argv)\n"
        "print(at_import, sorted(set(ours()) - set(at_import)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, f"{LOADED_BY_CLI} {added}\n"), proc.stderr
