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
"""

from .core import (
    EMPTY_SET,
    Bpa,
    FocalSet,
    Frame,
    IntervalBeliefStructure,
    IntervalMassResult,
    IvbelError,
    NormalizationError,
    SchemaError,
    TotalConflictError,
    ValidityVerdict,
    bel,
    degenerate_bpa,
    from_bpa,
    is_bayesian,
    is_normalized,
    normalize,
    pignistic,
    pl,
    plausibility_transform,
    validate_ibs,
)
from .entropy import (
    MEASURE_IDS,
    SEPARABLE_MEASURE_IDS,
    EntropyMeasure,
    entropy,
    measure,
)
from .formats import (
    EvidenceFile,
    evidence_to_json,
    load_evidence,
    parse_evidence,
    result_from_json,
    result_to_json,
)
from .fusion import (
    CombinationReport,
    DempsterDiagnostics,
    dempster_combine,
    dempster_combine_n,
    dempster_conflict,
    proposed_combine,
    proposed_combine_report,
)
from .optimize import (
    EntropyBoundsSolution,
    entropy_bounds,
    max_entropy_bpa,
    min_entropy_bpa,
)
from .polytope import contains, enumerate_vertices
from .reference import (
    IfsElement,
    SongStages,
    denoeux_combine,
    denoeux_normalize,
    ifs_combine,
    interval_pignistic,
    leezhu_combine,
    song_combine,
    song_combine_detail,
    wang_combine,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY_SET",
    "Bpa",
    "CombinationReport",
    "DempsterDiagnostics",
    "EntropyBoundsSolution",
    "EntropyMeasure",
    "EvidenceFile",
    "FocalSet",
    "Frame",
    "IfsElement",
    "IntervalBeliefStructure",
    "IntervalMassResult",
    "IvbelError",
    "MEASURE_IDS",
    "NormalizationError",
    "SEPARABLE_MEASURE_IDS",
    "SchemaError",
    "SongStages",
    "TotalConflictError",
    "ValidityVerdict",
    "bel",
    "contains",
    "degenerate_bpa",
    "dempster_combine",
    "dempster_combine_n",
    "dempster_conflict",
    "denoeux_combine",
    "denoeux_normalize",
    "entropy",
    "entropy_bounds",
    "enumerate_vertices",
    "evidence_to_json",
    "from_bpa",
    "ifs_combine",
    "interval_pignistic",
    "is_bayesian",
    "is_normalized",
    "leezhu_combine",
    "load_evidence",
    "max_entropy_bpa",
    "measure",
    "min_entropy_bpa",
    "normalize",
    "parse_evidence",
    "pignistic",
    "pl",
    "plausibility_transform",
    "proposed_combine",
    "proposed_combine_report",
    "result_from_json",
    "result_to_json",
    "song_combine",
    "song_combine_detail",
    "validate_ibs",
    "wang_combine",
]
