"""Evidential reasoning engine.

Learns basic probability assignments from tabulated case data, merges them
with expert-supplied assignments, combines evidence across many lab
parameters with Dempster's rule, and scores diagnoses against ground truth
with a precise/imprecise/non-match taxonomy.
"""

from .belief import BeliefInterval, Frame, Mask, MassFunction, is_vacuous
from .combine import (
    CombinationResult,
    combine_all,
    dempster_combine,
    fast_combine_via_commonality,
)
from .correlate import (
    CorrelationGraph,
    CorrelationMatrix,
    Group,
    PruneResult,
    build_graph,
    pearson_matrix,
    prune_components,
)
from .errors import (
    CaseSetMismatchError,
    DataFormatError,
    EmptySetMassError,
    EvidenceError,
    FrameMismatchError,
    NoEvidenceError,
    NonPositiveMassError,
    NotNormalizedError,
    PipelineError,
    TotalConflictError,
)
from .evaluate import (
    CaseTrace,
    ComparisonVerdict,
    DiagnosisResult,
    EvaluationReport,
    MatchCategory,
    classify_match,
    compare_methods,
    diagnose_case,
    evaluate_set,
    mcnemar_exact_p,
    observed_set,
)
from .expert import all_modify, part_modify
from .extract import (
    BpaSet,
    FrequencyEntry,
    FrequencyTable,
    build_frequency_table,
    extract_bpas,
    method1_consonant,
    method2,
    method3,
)
from .pipeline import PipelineConfig, run_pipeline
from .records import CaseRecord, EvidenceItemId, ReferenceIntervals, Region, discretize
from .synth import SynthConfig, generate_cases

__version__ = "0.1.0"
