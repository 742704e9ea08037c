"""Exact h*-polynomials of cut polytopes in the lattice spanned by their vertices.

Two independent pipelines compute and cross-check the h*-polynomial of
Cut(K_{2,n-2}): normalized-Ehrhart dilate counting, and the Groebner-basis /
initial-complex triangulation route, both against the closed form
(x+1) * A_{n-2}(x)^2.

The public names below load their module on first access (PEP 562), so that
importing one module, such as cutpoly.cli, does not import the others.
"""

_EXPORTS = {
    "errors": ("CostGuardError", "EdgeListParseError", "VerificationError"),
    "graph": ("CutConfiguration", "Graph", "complete_bipartite", "configuration",
              "cut_polytope_vertices", "cut_vector", "cycle", "path"),
    "lattice": ("LatticeBasis", "lattice_basis", "polytope_dimension"),
    "ehrhart": ("CountSequence", "count_lattice_points", "hstar_from_counts",
                "hstar_polynomial", "semigroup_counts"),
    "polynomial": ("IntPolynomial", "eulerian", "f_to_h",
                   "hstar_closed_form_k2m", "is_palindromic", "is_unimodal", "stirling2"),
    "grobner": ("CutBinomial", "PartitionMonomial", "buchberger_check",
                "count_standard_by_degree", "count_type1", "count_type2",
                "enumerate_squarefree_standard", "f_vector", "generate_gb", "is_standard",
                "monomial", "monomial_order_cmp"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    from importlib import import_module
    if name in _EXPORTS:  # a submodule not imported yet; importing sets the attribute
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
