"""Grassmannian permutations: the permutations with at most one descent.

Counting formulas, pattern avoidance, and bijections onto Dyck paths
and flat-step Schroder words, each closed form backed by an
independent count.  See the grassperm command line tool for the same
features at the shell.
"""

from grassperm.perms import (
    DEFAULT_ENUMERATION_CAP,
    Perm,
    descent_positions,
    direct_sum,
    format_lehmer_code,
    format_permutation,
    identity,
    inverse,
    inversion_count,
    is_involution,
    is_permutation,
    lehmer_decode,
    lehmer_encode,
    parse_lehmer_code,
    parse_permutation,
    reverse_complement,
)
from grassperm.grassmann import (
    count_bigrassmannian,
    count_descent_at,
    count_grassmannian,
    count_involutions,
    count_union_with_inverse,
    enumerate_grassmannian,
    enumerate_involutions,
    grassmannian_blocks,
    inverse_is_grassmannian,
    is_bigrassmannian,
    is_grassmannian,
    sole_descent,
)
from grassperm.patterns import (
    avoider_counts,
    catalan,
    contains_pattern,
    count_avoiders_closed_form,
    enumerate_avoiders,
    finite_class_count,
    finite_class_formula,
    one_descent_patterns,
    weiner_formula,
)
from grassperm.dyck import (
    dyck_path_blocks,
    enumerate_dyck_paths,
    enumerate_grassmannian_paths,
    is_grassmannian_path,
    long_ascent_count,
    max_height,
    parse_dyck_path,
    path_to_permutation,
    peak_heights,
    peaks_above_height_one,
    peaks_at_even_height,
    permutation_to_path,
)
from grassperm.schroder import (
    code_to_word,
    enumerate_uudd_avoiding,
    is_35124_code,
    is_uudd_avoiding,
    prefix_values,
    word_semilength,
    word_to_code,
)
from grassperm.parity import (
    even_count,
    extend_to_even_size,
    extend_to_odd_size,
    odd_count,
    odd_count_descent_at,
)
from grassperm import kernels

__version__ = "0.1.0"


def backend() -> str:
    """Name of the counting kernels in use.  Only the pure-Python
    counters exist; benchmark results are stamped with this name."""
    return "pure-python"
