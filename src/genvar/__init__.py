"""Exact workbench for generic variables in acyclic cluster algebras.

Everything is integer or rational arithmetic: Laurent polynomials with
integer coefficients, finite-field point counts turned into Euler
characteristics by exact interpolation, exact decomposition oracles,
and sampled witnesses that make every certificate re-checkable.
"""

import sys

from .errors import BudgetError, ConsistencyError, InputError
from .laurent import LaurentPoly
from .quiver import (AffineData, Quiver, WildTypeError, a_n, affine_a2,
                     kronecker as kronecker_quiver, negative_part,
                     positive_part)
from .mutation import (ClusterVariableTable, Seed, cluster_monomials,
                       enumerate_cluster_variables, initial_seed, mutate)
from .reps import (Representation, direct_sum, dual_rep, ext_dim, hom_dim,
                   sample_representation, zero_rep)
from .repfq import chi_all, good_primes
from .ccmap import (DecoratedRep, GenericValue, cc_of_module, cc_of_object,
                    express_in_basis, generic_variable, rigid_integer_rep)
from .candecomp import (CanonicalDecomposition, canonical_decomposition,
                        exceptional_regular_dims, generic_ext_vanishes,
                        generic_ext_vanishes_cluster, is_schur_root,
                        verify_certificate)
from .affine import (AffineGenericValue, chebyshev_f, chebyshev_s,
                     delta_character, generic_variable_affine, s_as_f_sum,
                     tube_module_kronecker)
from .kronecker import (BaseChangeMatrix, BasisFamily, base_change,
                        build_basis, family_element, independence_check,
                        membership_check_A, positivity_report, z_character)
from .acceptance import run_all, run_criterion

__version__ = "0.1.0"

__all__ = [
    "AffineData", "AffineGenericValue", "BaseChangeMatrix", "BasisFamily",
    "BudgetError", "CanonicalDecomposition", "ClusterVariableTable",
    "ConsistencyError", "DecoratedRep", "GenericValue", "InputError",
    "LaurentPoly", "Quiver", "Representation", "Seed", "WildTypeError",
    "a_n", "affine_a2", "base_change", "build_basis",
    "cache_stats", "canonical_decomposition", "cc_of_module", "cc_of_object",
    "chi_all", "chebyshev_f", "chebyshev_s", "clear_caches", "cluster_monomials",
    "delta_character", "direct_sum", "dual_rep", "enumerate_cluster_variables",
    "exceptional_regular_dims", "express_in_basis", "ext_dim", "family_element",
    "generic_ext_vanishes", "generic_ext_vanishes_cluster",
    "generic_variable", "generic_variable_affine", "good_primes",
    "hom_dim", "independence_check", "initial_seed", "is_schur_root",
    "kronecker_quiver", "membership_check_A", "mutate", "negative_part",
    "positive_part", "positivity_report", "rigid_integer_rep",
    "run_all", "run_criterion", "s_as_f_sum", "sample_representation",
    "tube_module_kronecker", "verify_certificate",
    "z_character", "zero_rep",
]


def _caches() -> dict:
    """Every module-level functools cache by name."""
    return dict(sorted((name.partition(".")[2] + "." + attr, obj)
                       for name, mod in list(sys.modules.items()) if name.startswith("genvar.")
                       for attr, obj in vars(mod).items()
                       if hasattr(obj, "cache_clear") and obj.__module__ == name))


def clear_caches() -> None:
    """Empty every module-level cache; no answer or budget verdict changes."""
    for c in _caches().values():
        c.cache_clear()


def cache_stats() -> dict:
    """{name: {hits, misses, size}} for every cache."""
    stats = {}
    for name, c in _caches().items():
        hits, misses, _max, size = c.cache_info()
        stats[name] = {"hits": hits, "misses": misses, "size": size}
    return stats
