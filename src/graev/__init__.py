"""Exact Graev norms and metrics on free groups over pointed metric spaces.

The norm of a word is half the minimum, over involutions with non-crossing
2-cycles, of the summed letter distances to the images' inverses; it induces
the maximal invariant metric extending the point metric.  Everything is
computed in exact rational arithmetic.

The public names below are imported from their modules on first access
(PEP 562), so importing one module, such as ``graev.cli``, loads only what
that module uses.
"""

from importlib import import_module

_EXPORTS = {
    "certificates": (
        "ConjugateDecomposition",
        "PowerCertificate",
        "decompose_conjugates",
        "exponent_obstruction",
        "exponent_sum",
        "search_power_certificate",
        "transport_certificate",
    ),
    "maps": (
        "BasisTranslation",
        "PartialContraction",
        "PointMap",
        "check_contraction",
        "check_cross_extension",
        "extend_endomorphism",
        "extend_partial_contraction",
        "grid_map",
        "rescale_grid_word",
        "scaling_norm_law",
        "triangular_translation",
    ),
    "norm": (
        "SigmaMatching",
        "enumerate_sigma",
        "graev_metric",
        "graev_norm",
        "is_sigma",
        "noncrossing_involutions",
        "norm_bruteforce",
        "norm_dp",
    ),
    "spaces": (
        "INTERVAL",
        "FiniteSpace",
        "IntervalSpace",
        "chain_space",
        "load_space",
        "resolve_space",
        "star_space",
        "tilde_dist",
    ),
    "words": (
        "Letter",
        "Word",
        "concat",
        "conjugate",
        "cyclic_shift",
        "format_word",
        "free_reduce",
        "invert_word",
        "parse_word",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
