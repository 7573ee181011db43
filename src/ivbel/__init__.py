"""Interval-valued belief structures: validation, entropy bounds, combination.

The package models bodies of evidence whose focal-set masses are known only
up to closed intervals.  It provides:

* core containers (`Frame`, `FocalSet`, `Bpa`, `IntervalBeliefStructure`)
  with validity checking and normalization,
* ten uncertainty measures over ordinary mass functions,
* exact entropy extremization over the credal polytope of an interval
  structure,
* an entropy-driven combination rule plus several published alternatives
  (p-norm aggregation, interval Dempster variants, an intuitionistic
  fuzzy route), and
* JSON/CSV/table input and output helpers and a command-line front end.

Each submodule loads when one of its names is first read, so the command line
loads only the engines a command runs.
"""

import importlib

# ``entropy`` names both a submodule and its function, and loading the
# submodule binds ``ivbel.entropy`` to the module.  Loading it here, and then
# binding the function, keeps ``ivbel.entropy`` the function.
from .entropy import entropy

# Each public name, under the module that defines it; ``__getattr__`` loads
# that module when the name is first read.
_EXPORTS = {
    "core": (
        "EMPTY_SET", "Bpa", "FocalSet", "Frame", "IntervalBeliefStructure",
        "IntervalMassResult", "IvbelError", "NormalizationError", "SchemaError",
        "TotalConflictError", "ValidityVerdict", "bel", "degenerate_bpa", "is_normalized",
        "normalize", "pignistic", "pl", "plausibility_transform", "validate_ibs",
    ),
    "entropy": ("MEASURE_IDS", "SEPARABLE_MEASURE_IDS", "EntropyMeasure", "entropy", "measure"),
    "formats": (
        "EvidenceFile", "evidence_to_json", "load_evidence", "parse_evidence",
        "result_from_json", "result_to_json",
    ),
    "fusion": (
        "CombinationReport", "combine", "dempster_combine", "dempster_combine_n",
        "proposed_combine_report",
    ),
    "optimize": ("EntropyBoundsSolution", "entropy_bounds", "max_entropy_bpa"),
    "polytope": ("contains", "enumerate_vertices"),
    "reference": (
        "denoeux_combine", "denoeux_normalize", "leezhu_combine", "song_combine",
        "song_combine_detail", "wang_combine",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
