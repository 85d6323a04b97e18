"""Stride-configuration lab for 2D-CNN speaker-verification backbones.

Compiles backbone specifications from stride-configuration paths on the
downsampling trellis, computes shapes, parameter counts, and FLOPs
analytically, enumerates and ranks the full stride space, and verifies the
analytic results against a minimal numeric kernel.
"""

from .analysis import (
    AnalysisError,
    ShapeUnderflowError,
    compare,
    conv_out_size,
    count_flops,
    count_params,
    trace,
)
from .builder import (
    BuildError,
    BuildRequest,
    build,
    depth_from_blocks,
    make_request,
    request_from_spec,
)
from .catalog import CATALOG_NAMES, PRINCIPAL_CONFIG, is_cataloged
from .layers import (
    BlockKind,
    ComplexityReport,
    Family,
    LayerEntry,
    ModelSpec,
    StageSpec,
    TensorShape,
)
from .metrics import (
    DegenerateScoresError,
    ScoreFileError,
    TrialScoreSet,
    compute_eer,
    compute_min_dcf,
)
from .numkernel import (
    OpCounter,
    conv2d_backward,
    conv2d_forward,
    gradcheck_conv,
    run_model,
    stats_pooling_forward,
)
from .serialize import format_table, model_from_json, model_to_json
from .strides import (
    PathClass,
    StridePair,
    TrellisEndpoint,
    TrellisPath,
    UnknownConfigError,
    canonical_name,
    classify_path,
    downsampling_factors,
    enumerate_endpoints,
    final_factors,
    resolve_name,
)
from .trellis import (
    PathFamily,
    enumerate_paths,
    golden_gemini_endpoints,
    rank_paths_by_flops,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "BlockKind",
    "BuildError",
    "BuildRequest",
    "CATALOG_NAMES",
    "ComplexityReport",
    "DegenerateScoresError",
    "Family",
    "LayerEntry",
    "ModelSpec",
    "OpCounter",
    "PRINCIPAL_CONFIG",
    "PathClass",
    "PathFamily",
    "ScoreFileError",
    "ShapeUnderflowError",
    "StageSpec",
    "StridePair",
    "TensorShape",
    "TrellisEndpoint",
    "TrellisPath",
    "TrialScoreSet",
    "UnknownConfigError",
    "build",
    "canonical_name",
    "classify_path",
    "compare",
    "compute_eer",
    "compute_min_dcf",
    "conv2d_backward",
    "conv2d_forward",
    "conv_out_size",
    "count_flops",
    "count_params",
    "depth_from_blocks",
    "downsampling_factors",
    "enumerate_endpoints",
    "enumerate_paths",
    "final_factors",
    "format_table",
    "golden_gemini_endpoints",
    "gradcheck_conv",
    "is_cataloged",
    "make_request",
    "model_from_json",
    "model_to_json",
    "rank_paths_by_flops",
    "request_from_spec",
    "resolve_name",
    "run_model",
    "stats_pooling_forward",
    "trace",
]
