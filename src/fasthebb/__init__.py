"""Hebbian deep-learning toolkit.

Soft winner-takes-all and Hebbian-PCA update rules in both a naive reference
form and a fused-matmul form that contracts the batch index early, plus
convolutional layers via patch extraction, a semi-supervised pretrain/probe
pipeline, and a benchmark harness for the naive-vs-fast comparison.
"""

from .errors import (
    BadCovariance,
    BadLabel,
    BadMagic,
    ConfigError,
    CorruptFile,
    EmptyLabeledSet,
    EquivalenceViolation,
    FastHebbError,
    GeometryError,
    InvalidTemperature,
    NonFiniteWeights,
    ShapeMismatch,
    TruncatedFile,
    UsageError,
    VersionMismatch,
)
from .rules import (
    LearningParams,
    RuleIntermediates,
    UpdateResult,
    aggregate,
    forward_linear,
    hpca_update_fast,
    hpca_update_naive,
    swta_update_fast,
    swta_update_naive,
)
from .tensor import (
    AllocationTracker,
    Tensor,
    elementwise,
    matmul,
    reduce_sum,
    softmax,
    tril_mask,
)

__version__ = "0.1.0"
