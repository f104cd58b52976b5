"""
richtoric: toric degenerations of Richardson varieties in flag varieties.

The package decides, for a pair of permutations (v, w) with v below w in
Bruhat order, whether the diagonal (or antidiagonal) degeneration of the
Richardson variety indexed by (v, w) is toric; enumerates its standard
monomial bases through semi-standard Young tableaux and defining chains;
and constructs the lattice polytope of the degenerate variety.
"""

from .perms import (
    BudgetError,
    MAX_N,
    SWEEP_MAX_N,
    all_perms,
    all_subsets,
    bruhat_leq,
    complement,
    enumerate_S,
    enumerate_T,
    gale_leq,
    identity,
    induced,
    inversions,
    longest,
    parse_perm,
    partition_perm,
    perm_leq_subset,
    perm_leq_subset_bruhat,
    perm_str,
    reverse,
    subset_leq_perm,
    subset_leq_perm_bruhat,
    subset_str,
)
from .tableaux import (
    NoExtensionError,
    count_standard,
    enumerate_ssyt,
    is_ssyt,
    is_standard,
    max_defining_chain,
    max_truncation,
    min_defining_chain,
    min_extension,
    row_sort,
    rows_of,
    tableau_str,
)
from .compat import (
    Block,
    blocks,
    extensions_in_Tn,
    in_Tn,
    is_213_avoiding,
    is_312_avoiding,
    is_compatible,
    lower_w,
    maximum_block,
    raise_v,
    tn_pairs,
)
from .initial import (
    KernelBinomial,
    RestrictionReport,
    TermOrder,
    classify_all,
    classify_rows,
    degree2_kernel_generators,
    initial_term,
    is_monomial_free,
    kernel_hilbert_dim,
    phi_image,
    plucker_weight,
    restrict,
    weight_matrix,
)
from .polytope import (
    IntMatrix,
    LatticePolytope,
    lattice_points,
    polytope,
    restricted_map_matrix,
    segre_matrix,
)
from .table1 import compare_with_table1, table1_pairs, table1_rows

__version__ = "0.1.0"
