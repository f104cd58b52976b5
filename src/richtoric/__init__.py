"""
richtoric: toric degenerations of Richardson varieties in flag varieties.

The package decides, for a pair of permutations (v, w) with v below w in
Bruhat order, whether the diagonal (or antidiagonal) degeneration of the
Richardson variety indexed by (v, w) is toric; enumerates its standard
monomial bases through semi-standard Young tableaux and defining chains;
and constructs the lattice polytope of the degenerate variety.

The root imports no submodule of its own (PEP 562).  The first public name
asked for, or the first of the six API modules asked for by attribute,
imports all six at once, binds every name below and leaves a plain module.
So ``import richtoric; richtoric.name`` costs what an eager root would,
while ``import richtoric.cli`` loads only the modules the command needs.
The function ``polytope`` shares its name with a submodule: importing a
submodule binds it on the package, and until the names are bound the root
ignores that binding for an exported name, so the name stays the function.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "perms": (
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
    ),
    "tableaux": (
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
    ),
    "compat": (
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
    ),
    "initial": (
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
    ),
    "polytope": (
        "IntMatrix",
        "LatticePolytope",
        "lattice_points",
        "polytope",
        "restricted_map_matrix",
        "segre_matrix",
    ),
    "table1": ("compare_with_table1", "table1_pairs", "table1_rows"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_PUBLIC = frozenset(__all__)


def __getattr__(name):
    # one load for every name: loading a module per name would move module
    # compiles from a caller's set-up into its first use of each module
    if name not in _PUBLIC and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module_name, names in _EXPORTS.items():
        module = import_module(f"{__name__}.{module_name}")
        namespace.update((n, getattr(module, n)) for n in names)
    # every name is bound and no API submodule is left to bind over one, so
    # the root turns into a plain module: CPython 3.11 specialises attribute
    # reads (``rt.in_Tn`` in a caller's loop) only on an exact module type
    # without ``__getattr__``
    del namespace["__getattr__"], namespace["__dir__"]
    sys.modules[__name__].__class__ = types.ModuleType
    return namespace[name]


def __dir__():
    return sorted(set(globals()) | _PUBLIC)


class _Root(types.ModuleType):
    def __setattr__(self, name, value):
        # the import system binds each submodule on the package as it loads;
        # an exported name (``polytope``) keeps its function
        if name in _PUBLIC and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Root
