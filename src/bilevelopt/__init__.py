"""Bilevel optimization engine for gradient-based meta-learning.

A problem supplies loss/gradient/HVP oracles per task; the inner module
runs short per-task optimizations; the hypergrad module estimates the
meta-gradient by reverse, truncated-reverse, implicit, first-order, or
finite-difference strategies; the trainer averages per-task estimates and
takes meta-optimizer steps. Ten named method compositions from the
meta-learning literature are built in.
"""

from .errors import (
    BilevelError,
    ConfigError,
    EmptyClass,
    IndefiniteCurvature,
    InsufficientClasses,
    InsufficientItemsPerClass,
    InsufficientIterates,
    LayoutMismatch,
    LengthMismatch,
    MissingSegment,
    MixedDimensions,
    NonFiniteValue,
    ParseError,
    TrajectoryNotRecorded,
    UnknownMethod,
)
from .numerics import (
    CgSolve,
    Layout,
    ParamVector,
    RngStream,
    conjugate_gradient,
)
from .data import (
    ClassDirectory,
    EpisodeSpec,
    Example,
    SyntheticGaussian,
    TaskBatch,
    TaskDataset,
    load_class_directory,
    sample_task_batch,
)
from .objectives import (
    BilevelObjective,
    LossKind,
    MetaFeatureSoftmax,
    MetaInitMlp,
    Paradigm,
    QuadraticBilevel,
    Regularizer,
    Split,
    eval_F_batch,
    eval_f,
    make_meta_feature_softmax,
    make_meta_init_mlp,
    make_quadratic,
)
from .inner import (
    InnerConfig,
    InnerRule,
    InnerTrajectory,
    init_task_params,
    init_task_params_batch,
    inner_step,
    required_x_segments,
    run_inner,
    step_transposed_jvps,
)
from .hypergrad import (
    METHOD_NAMES,
    ComposedMethod,
    Darts,
    FirstOrder,
    HyperGradMethod,
    HyperGradResult,
    Implicit,
    Reverse,
    TruncatedReverse,
    compose_named_method,
    compute_hypergradient,
    hypergrad_darts,
    hypergrad_first_order,
    hypergrad_implicit,
    hypergrad_reverse,
    hypergrad_truncated,
    needs_full_trajectory,
)
from .meta_opt import Adam, MetaOptimizer, Momentum, Sgd, meta_step
from .trainer import (
    Experiment,
    ExperimentConfig,
    MetricsRecord,
    TrainState,
    apply_overrides,
    build_experiment,
    meta_evaluate,
    meta_train,
    metrics_to_jsonl,
)
from .verify import (
    CheckResult,
    analytic_quadratic_hypergrad,
    fd_gradient,
    fd_hvp,
    fd_hypergradient,
    make_zero_curvature,
    report_to_jsonl,
    run_gradcheck_suite,
)
from .params_io import read_params, write_params

__version__ = "0.1.0"
