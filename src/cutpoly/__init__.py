"""Exact h*-polynomials of cut polytopes in the lattice spanned by their vertices.

Two independent pipelines compute and cross-check the h*-polynomial of
Cut(K_{2,n-2}): normalized-Ehrhart dilate counting, and the Groebner-basis /
initial-complex triangulation route, both against the closed form
(x+1) * A_{n-2}(x)^2.
"""

from .errors import CostGuardError, EdgeListParseError, VerificationError
from .graph import (
    CutConfiguration,
    Graph,
    Partition,
    complete_bipartite,
    configuration,
    cut_polytope_vertices,
    cut_vector,
    cycle,
    path,
    tree_from_edges,
)
from .lattice import LatticeBasis, lattice_basis, polytope_dimension
from .ehrhart import (
    CountSequence,
    count_lattice_points,
    ehrhart_from_hstar,
    hstar_from_counts,
    hstar_polynomial,
    membership_in_dilate,
    semigroup_counts,
)
from .polynomial import (
    IntPolynomial,
    eulerian,
    eulerian_by_descents,
    f_to_h,
    hstar_closed_form_k2m,
    is_palindromic,
    is_unimodal,
    stirling2,
)
from .grobner import (
    CutBinomial,
    PartitionMonomial,
    buchberger_check,
    count_standard_by_degree,
    count_type1,
    count_type2,
    enumerate_squarefree_standard,
    f_vector,
    generate_gb,
    is_standard,
    monomial,
    monomial_order_cmp,
)

__version__ = "0.1.0"
