"""The package root: every public name, resolved on first use."""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

import richtoric as rt

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

EXPORTS = {
    "perms": [
        "BudgetError",
        "MAX_N",
        "SWEEP_MAX_N",
        "all_perms",
        "all_subsets",
        "bruhat_leq",
        "complement",
        "enumerate_S",
        "enumerate_T",
        "gale_leq",
        "identity",
        "induced",
        "inversions",
        "longest",
        "parse_perm",
        "partition_perm",
        "perm_leq_subset",
        "perm_leq_subset_bruhat",
        "perm_str",
        "reverse",
        "subset_leq_perm",
        "subset_leq_perm_bruhat",
        "subset_str",
    ],
    "tableaux": [
        "NoExtensionError",
        "count_standard",
        "enumerate_ssyt",
        "is_ssyt",
        "is_standard",
        "max_defining_chain",
        "max_truncation",
        "min_defining_chain",
        "min_extension",
        "row_sort",
        "rows_of",
        "tableau_str",
    ],
    "compat": [
        "Block",
        "blocks",
        "extensions_in_Tn",
        "in_Tn",
        "is_213_avoiding",
        "is_312_avoiding",
        "is_compatible",
        "lower_w",
        "maximum_block",
        "raise_v",
        "tn_pairs",
    ],
    "initial": [
        "KernelBinomial",
        "RestrictionReport",
        "TermOrder",
        "classify_all",
        "classify_rows",
        "degree2_kernel_generators",
        "initial_term",
        "is_monomial_free",
        "kernel_hilbert_dim",
        "phi_image",
        "plucker_weight",
        "restrict",
        "weight_matrix",
    ],
    "polytope": [
        "IntMatrix",
        "LatticePolytope",
        "lattice_points",
        "polytope",
        "restricted_map_matrix",
        "segre_matrix",
    ],
    "table1": ["compare_with_table1", "table1_pairs", "table1_rows"],
}


@pytest.mark.parametrize("module", list(EXPORTS))
def test_every_exported_name_is_its_module_object(module):
    defining = importlib.import_module(f"richtoric.{module}")
    for name in EXPORTS[module]:
        assert getattr(rt, name) is getattr(defining, name), name


def test_all_lists_the_exports_and_dir_shows_them():
    assert rt.__all__ == [name for names in EXPORTS.values() for name in names]
    assert set(rt.__all__) <= set(dir(rt))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        rt.no_such_name


def _fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_alone_loads_no_submodule():
    code = "import sys, richtoric; print(sorted(m for m in sys.modules if m.startswith('richtoric')))"
    assert _fresh(code) == "['richtoric']\n"


def test_a_submodule_name_outside_the_api_is_imported_not_resolved():
    code = (
        "import richtoric as rt\n"
        "print(hasattr(rt, 'cli'))\n"
        "from richtoric import cli\n"
        "print(cli.__name__)"
    )
    assert _fresh(code) == "False\nrichtoric.cli\n"


def test_the_loaded_root_is_a_plain_module():
    # CPython specialises ``rt.name`` reads in a caller's loop only on an
    # exact module type without __getattr__
    code = (
        "import types, richtoric as rt\n"
        "print(type(rt) is types.ModuleType, hasattr(rt, '__getattr__'))\n"
        "rt.in_Tn\n"
        "print(type(rt) is types.ModuleType, hasattr(rt, '__getattr__'))"
    )
    assert _fresh(code) == "False True\nTrue False\n"


def test_an_api_module_resolves_as_an_attribute():
    code = "import richtoric as rt; print(rt.tableaux.__name__, rt.table1.__name__)"
    assert _fresh(code) == "richtoric.tableaux richtoric.table1\n"


@pytest.mark.parametrize(
    "before",
    [
        "import richtoric.polytope",
        "import contextlib, io; from richtoric import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['polytope', '--v', '2341', '--w', '4231'])",
        # the traced benchmark run imports the submodule after its warm-up
        "import importlib; rt.count_standard; importlib.import_module('richtoric.polytope')",
    ],
    ids=["submodule-import", "cli-polytope", "after-warm-up"],
)
def test_polytope_stays_the_function_after_its_submodule_loads(before):
    # loading a submodule binds it on the package; the exported function
    # of the same name must win
    code = f"import richtoric as rt\n{before}\nprint(rt.polytope.__module__, callable(rt.polytope))"
    assert _fresh(code) == "richtoric.polytope True\n"


def test_no_module_checks_with_assert():
    # ``python -O`` strips assert statements, so a check the program relies
    # on must raise an exception of its own
    paths = sorted(glob.glob(os.path.join(SRC, "richtoric", "**", "*.py"), recursive=True))
    assert len(paths) >= 10
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_only_the_package_main_runs_as_a_script():
    # ``python -m richtoric`` and the console script are the entry points;
    # the doctests run under tests/test_doctests.py
    paths = sorted(glob.glob(os.path.join(SRC, "richtoric", "**", "*.py"), recursive=True))
    assert len(paths) >= 10
    found = []
    for path in paths:
        if os.path.basename(path) == "__main__.py":
            continue
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
    assert found == []
