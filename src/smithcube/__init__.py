"""Smith group of the n-cube graph, computed three independent ways."""

from .bigmat import IntMatrix, InvariantFactors, from_text, snf, to_text
from .canonical import build_E, verify_bier, wilson_diagonal, wilson_form
from .cube import (adjacency, build_M, build_N, laplacian, monomial_adjacency,
                   verify_conjugacy, verify_half_lemma)
from .reduction import (CondensedMatrix, SmithGroupSummary, build_B,
                        build_condensed, laplacian_partial_check,
                        reduce_condensed, same_group, smith_group,
                        smith_group_oracle, smith_group_reduction,
                        two_local_divisors_of_M, verify_conjecture,
                        verify_shadow)
from .subsets import (count_full_rank, enumerate_subsets, has_full_rank,
                      incidence_matrix)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
