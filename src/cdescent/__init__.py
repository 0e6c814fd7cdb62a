"""Exact enumeration of permutations by circular descent set.

The circular descent set of a permutation collects the values that sit
immediately before a smaller neighbour.  This package counts permutations
with a prescribed descent-value set through four independent routes
(brute-force scan, alternating-sum formula, minimum-element recursion,
walk of the weighted generating tree), assembles the counts into sparse
generating polynomials, and applies them to 0/1 fillings of Young
diagrams and to generalized Genocchi numbers.  The formula's statements
by runs and by a diagram's type build its gap vector, so
``cdes_formula_typed`` and ``count_tableaux_type_sum`` return
``cdes_formula``.  All arithmetic is exact.

``import cdescent`` loads no submodule: each public name is imported from
the module that defines it on first access, so a caller pays only for
the routes it uses.
"""

# Each public name and the submodule that defines it; ``__all__`` is its keys.
_EXPORTS = {
    "as_value_set": "contract",
    "iter_value_sets": "contract",
    "cdes_formula": "formula",
    "cdes_formula_typed": "formula",
    "gap_vector": "formula",
    "set_type": "formula",
    "brute_genocchi_perm_count": "genocchi",
    "gandhi_poly": "genocchi",
    "genocchi_number": "genocchi",
    "brute_cdes_count": "perms",
    "brute_cdes_nwexb_tables": "perms",
    "brute_cdes_table": "perms",
    "brute_nwexb_count": "perms",
    "brute_nwexb_table": "perms",
    "circular_descent_set": "perms",
    "nwexb_set": "perms",
    "Poly": "poly",
    "descent_set_coefficient": "poly",
    "gn": "poly",
    "gnk": "poly",
    "tau": "poly",
    "cdes_insertion_table": "recursion",
    "cdes_recursive": "recursion",
    "brute_count_tableaux": "tableaux",
    "count_tableaux_formula": "tableaux",
    "count_tableaux_transfer": "tableaux",
    "count_tableaux_type_sum": "tableaux",
    "format_filling": "tableaux",
    "is_valid_tableau": "tableaux",
    "iter_shapes": "tableaux",
    "partition_type": "tableaux",
    "shape_to_descent_set": "tableaux",
    "TreeNode": "tree",
    "build_tree": "tree",
    "iter_leaf_paths": "tree",
    "leaf_theta": "tree",
    "leaf_theta_inverse": "tree",
    "tree_weight_sum": "tree",
    "tree_weight_traversal": "tree",
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that defines a public name on first access
    (PEP 562), and keep the value so later lookups skip this hook.  The
    submodules that define them resolve too, e.g. ``cdescent.perms``."""
    from importlib import import_module

    if name in _EXPORTS.values():
        return import_module(f".{name}", __name__)  # which binds it here
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS.values()})
