"""Smith group of the n-cube graph, computed three independent ways."""

from .bigmat import (DiagonalForm, ElemDivTable, IntMatrix, InvariantFactors,
                     block_diag, diagonal_form_to_invariant_factors, from_text,
                     is_unimodular, p_elementary_divisors, snf, to_text)
from .canonical import (build_E, build_E_jk, verify_bier, wilson_diagonal,
                        wilson_form)
from .cube import (BlockPair, adjacency, blocks, laplacian, monomial_adjacency,
                   verify_conjugacy, verify_half_lemma, zeta_matrix)
from .reduction import (CondensedMatrix, SmithGroupSummary, build_B,
                        build_condensed, laplacian_partial_check,
                        reduce_condensed, same_group, smith_group,
                        smith_group_oracle, smith_group_reduction,
                        two_local_divisors_of_M, verify_conjecture)
from .subsets import (count_full_rank, enumerate_subsets, has_full_rank,
                      incidence_matrix)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
