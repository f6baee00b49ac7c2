"""Experiment orchestration: configuration, the meta-training loop, and
held-out evaluation.

One meta-iteration samples a batch of tasks, adapts the parameters of all
of them at once with the configured inner dynamics from a shared immutable
snapshot of x, estimates the per-task meta-gradients, averages them in
task-index order, and applies one meta-optimizer step; evaluation adapts
fresh tasks through the same path (_adapt). The tasks ride a leading axis
of stacked arrays, and every oracle is read from the problem's points
(objectives.BilevelObjective.at); each task's numbers are those of its run
alone. The command line takes the metrics round by round (_train_rounds),
so the rounds that completed outlive an error.
run.threads is still accepted and validated but ignored: a thread pool over
the tasks measured slower than serial on every preset tried. A section
field that feeds one runtime field reads its default from the runtime type.

All randomness derives from the run seed through named counter-based
streams (task sampling, per-task inits, evaluation, parameter init), so a
config replays exactly and changing the evaluation cadence never perturbs
training-task sampling.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from typing import get_args, get_type_hints

import numpy as np

from .data import (
    ClassDirectory,
    EpisodeSpec,
    SyntheticGaussian,
    TaskBatch,
    sample_task_batch,
)
from .errors import BilevelError, ConfigError, UnknownMethod
from .hypergrad import (
    Darts,
    FirstOrder,
    HyperGradMethod,
    Implicit,
    Reverse,
    TruncatedReverse,
    compose_named_method,
    compute_hypergradient_batch,
    needs_full_trajectory,
)
from .inner import (
    InnerConfig,
    InnerRule,
    init_task_params_batch,
    required_x_segments,
    run_inner_batch,
    softplus_inverse,
)
from .meta_opt import Adam, MetaOptimizer, Momentum, Sgd, meta_step
from .numerics import ParamVector, RngStream
from .objectives import (
    BilevelObjective,
    LossKind,
    MetaFeatureSoftmax,
    MetaInitMlp,
    Paradigm,
    QuadraticBilevel,
    Regularizer,
    Split,
    predicted_classes,
)

__all__ = [
    "DataSection",
    "ProblemSection",
    "InnerSection",
    "HypergradSection",
    "MetaOptSection",
    "RunSection",
    "ExperimentConfig",
    "Experiment",
    "TrainState",
    "MetricsRecord",
    "build_experiment",
    "meta_train",
    "meta_evaluate",
    "metrics_to_jsonl",
    "apply_overrides",
]

# stream ids carving up the run seed; values are arbitrary but frozen
_TASK_STREAM = 101
_INIT_STREAM = 102
_EVAL_TASK_STREAM = 103
_EVAL_INIT_STREAM = 104
_PARAM_STREAM = 105

_FEAT_INIT_SD_NUM = 1.0  # feat segment init sd = 1/sqrt(dim_in)
_INIT_SEGMENT_SD = 0.01


@dataclass(frozen=True)
class DataSection:
    source: str = "synthetic"
    num_classes: int = 20
    dim: int = 8
    cluster_spread: float = SyntheticGaussian.cluster_spread
    noise_sd: float = 0.5  # noisier than SyntheticGaussian's default, on purpose
    root: str | None = None
    file_format: str = "csv"
    way: int = 5
    shot: int = 1
    query: int = 15
    batch_size: int = 4  # EpisodeSpec's default is one task

    def __post_init__(self):
        if self.source not in ("synthetic", "directory"):
            raise ValueError(f"source must be 'synthetic' or 'directory', got {self.source!r}")
        if self.source == "directory" and not self.root:
            raise ValueError("directory source needs a root path")
        # checked here because a directory source never reads them
        for name in ("num_classes", "dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        EpisodeSpec(self.way, self.shot, self.query, self.batch_size)


@dataclass(frozen=True)
class ProblemSection:
    kind: str = "mlp"
    hidden: int = 0
    loss: str = LossKind.CROSS_ENTROPY.value
    reg: str = Regularizer.kind
    reg_coef: float = Regularizer.coef
    dim_feat: int = 16
    quad_a: object = 2.0
    quad_lam: float = 1.0
    quad_b: object = 1.0

    def __post_init__(self):
        if self.kind not in ("mlp", "feature_softmax", "quadratic"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        # checked here because only the problem of the chosen kind reads them
        if self.hidden < 0:
            raise ValueError("hidden must be >= 0")
        if self.dim_feat < 1:
            raise ValueError("dim_feat must be >= 1")
        if self.quad_lam <= 0:
            raise ValueError("quad_lam must be > 0")
        LossKind(self.loss)
        Regularizer(self.reg, self.reg_coef)


@dataclass(frozen=True)
class InnerSection:
    steps: int = 5
    step_size: float = 0.1
    bda_alpha: float = InnerConfig.bda_alpha

    def __post_init__(self):
        self.inner_config(InnerRule.GD)

    def inner_config(self, rule: InnerRule) -> InnerConfig:
        return InnerConfig(self.steps, self.step_size, rule, self.bda_alpha)


@dataclass(frozen=True)
class HypergradSection:
    truncation_k: int | None = TruncatedReverse.k
    cg_tol: float = Implicit.cg_tol
    cg_max_iter: int | None = Implicit.cg_max_iter
    prox_lambda: float | None = Implicit.prox_lambda
    darts_delta: float = Darts.delta

    def __post_init__(self):
        self.estimators()

    def estimators(self) -> dict[type, HyperGradMethod]:
        """Every estimator built from this section, keyed by its class."""
        return {
            Reverse: Reverse(),
            TruncatedReverse: TruncatedReverse(self.truncation_k),
            Implicit: Implicit(self.cg_tol, self.cg_max_iter, self.prox_lambda),
            FirstOrder: FirstOrder(),
            Darts: Darts(self.darts_delta),
        }


@dataclass(frozen=True)
class MetaOptSection:
    kind: str = "momentum"
    lr: float = 1e-2  # feeds all three optimizers, whose own defaults differ
    mu: float = Momentum.mu
    beta1: float = Adam.beta1
    beta2: float = Adam.beta2
    eps_hat: float = Adam.eps_hat

    def __post_init__(self):
        if self.kind not in self.optimizers():
            raise ValueError(f"unknown meta optimizer {self.kind!r}")

    def optimizers(self) -> dict[str, MetaOptimizer]:
        """Every optimizer built from this section, keyed by kind."""
        return {
            "sgd": Sgd(self.lr),
            "momentum": Momentum(self.lr, self.mu),
            "adam": Adam(self.lr, self.beta1, self.beta2, self.eps_hat),
        }


_METHOD_KINDS = {
    "reverse": Reverse,
    "truncated": TruncatedReverse,
    "implicit": Implicit,
    "first_order": FirstOrder,
    "darts": Darts,
}


@dataclass(frozen=True)
class RunSection:
    method: str = "MAML"
    paradigm: str | None = None
    inner_rule: str | None = None
    hypergrad_method: str | None = None
    meta_iterations: int = 100
    eval_every: int = 100
    eval_tasks: int = 50
    seed: int = 0
    threads: int = 1  # validated but ignored; tasks run serially

    def __post_init__(self):
        for name in ("meta_iterations", "eval_every", "eval_tasks", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.paradigm is not None:
            Paradigm(self.paradigm)
        if self.inner_rule is not None:
            InnerRule(self.inner_rule)
        if self.hypergrad_method is not None and self.hypergrad_method not in _METHOD_KINDS:
            raise ValueError(f"unknown hypergrad method {self.hypergrad_method!r}")


_SECTIONS = {
    "data": DataSection,
    "problem": ProblemSection,
    "inner": InnerSection,
    "hypergrad": HypergradSection,
    "meta_opt": MetaOptSection,
    "run": RunSection,
}


def _json_types(hint) -> tuple[type, ...]:
    """The JSON value types a field annotation admits."""
    options = get_args(hint) or (hint,)
    return tuple(t for o in options for t in ((int, float) if o is float else (o,)))


# resolved once, because get_type_hints costs more than the rest of from_dict
_FIELD_TYPES = {
    key: {name: _json_types(hint) for name, hint in get_type_hints(cls).items()}
    for key, cls in _SECTIONS.items()
}


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataSection = DataSection()
    problem: ProblemSection = ProblemSection()
    inner: InnerSection = InnerSection()
    hypergrad: HypergradSection = HypergradSection()
    meta_opt: MetaOptSection = MetaOptSection()
    run: RunSection = RunSection()

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - set(_SECTIONS)
        if unknown:
            raise ConfigError(f"{sorted(unknown)[0]}: unknown section")
        parts = {}
        for key, section_cls in _SECTIONS.items():
            body = raw.get(key, {})
            if not isinstance(body, dict):
                raise ConfigError(f"{key}: section must be an object")
            for field_name, value in body.items():
                types = _FIELD_TYPES[key].get(field_name)
                if types is None:
                    raise ConfigError(f"{key}.{field_name}: unknown field")
                # bool subclasses int, but no number field takes a JSON boolean
                if not isinstance(value, types) or (isinstance(value, bool) and int in types):
                    raise ConfigError(
                        f"{key}.{field_name}: expected "
                        f"{section_cls.__annotations__[field_name]}, got {value!r}"
                    )
            try:
                parts[key] = section_cls(**body)
            except ValueError as e:
                raise ConfigError(f"{key}: {e}") from e
        return cls(**parts)

    def to_dict(self) -> dict:
        return {key: asdict(getattr(self, key)) for key in _SECTIONS}


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply "section.field=json_value" strings to a raw config dict."""
    out = json.loads(json.dumps(raw))  # deep copy, JSON types only
    if not isinstance(out, dict):
        raise ConfigError("config root must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        path, text = item.split("=", 1)
        keys = path.strip().split(".")
        if len(keys) != 2 or not all(keys):
            raise ConfigError(f"override path {path!r} must be section.field")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        section = out.setdefault(keys[0], {})
        if not isinstance(section, dict):
            raise ConfigError(f"{keys[0]}: section must be an object")
        section[keys[1]] = value
    return out


@dataclass(frozen=True)
class Experiment:
    cfg: ExperimentConfig
    source: object  # DatasetSource or None for the quadratic problem
    problem: BilevelObjective
    paradigm: Paradigm
    inner_config: InnerConfig
    method: HyperGradMethod
    episode_spec: EpisodeSpec | None


@dataclass(frozen=True)
class TrainState:
    x: ParamVector
    opt: MetaOptimizer
    iteration: int = 0


@dataclass(frozen=True)
class MetricsRecord:
    meta_iter: int
    ul_loss: float
    mean_inner_final_loss: float
    eval_post_adapt_loss: float | None
    eval_post_adapt_accuracy: float | None
    wall_ms: float
    cg_unconverged: int = 0  # implicit solves that stopped at cg_max_iter unconverged

    def to_json_dict(self) -> dict:
        # wall_ms and cg_unconverged stay out of the serialized form so
        # identical runs produce identical files
        return {
            "meta_iter": self.meta_iter,
            "ul_loss": self.ul_loss,
            "mean_inner_final_loss": self.mean_inner_final_loss,
            "eval_post_adapt_loss": self.eval_post_adapt_loss,
            "eval_post_adapt_accuracy": self.eval_post_adapt_accuracy,
        }


def metrics_to_jsonl(records: list[MetricsRecord]) -> str:
    return "".join(json.dumps(r.to_json_dict()) + "\n" for r in records)


def _resolve_method(cfg: ExperimentConfig) -> tuple[Paradigm, InnerRule, HyperGradMethod]:
    run = cfg.run
    if run.method.strip().lower() == "custom":
        missing = [
            name
            for name in ("paradigm", "inner_rule", "hypergrad_method")
            if getattr(run, name) is None
        ]
        if missing:
            raise ConfigError(f"run.{missing[0]}: required when run.method is 'custom'")
        paradigm, rule = Paradigm(run.paradigm), InnerRule(run.inner_rule)
        kind = _METHOD_KINDS[run.hypergrad_method]
    else:
        try:
            composed = compose_named_method(run.method)
        except UnknownMethod as e:
            raise ConfigError(f"run.method: {e}") from e
        paradigm, rule = composed.paradigm, composed.inner_rule
        kind = type(composed.hypergrad_method)
    return paradigm, rule, cfg.hypergrad.estimators()[kind]


def _build(section: str, make, *args):
    """Call a runtime constructor; a value it rejects is a config error.

    TypeError counts too, because quad_a and quad_b take any JSON value.
    """
    try:
        return make(*args)
    except (ValueError, TypeError, OSError) as e:
        raise ConfigError(f"{section}: {e}") from e


def _initial_segment_values(
    name: str, length: int, gen: np.random.Generator, dim_in: int, step_size: float
) -> np.ndarray:
    if name == "init":
        return _INIT_SEGMENT_SD * gen.standard_normal(length)
    if name == "feat":
        return (_FEAT_INIT_SD_NUM / np.sqrt(dim_in)) * gen.standard_normal(length)
    if name == "rates":
        return np.full(length, softplus_inverse(step_size))
    # theta, mask_logits, warp_logdiag all start at zero
    return np.zeros(length)


def build_experiment(cfg: ExperimentConfig) -> tuple[Experiment, TrainState]:
    paradigm, rule, method = _resolve_method(cfg)
    data, prob = cfg.data, cfg.problem

    if prob.kind == "quadratic":
        source = None
        episode = None
        problem = _build("problem", QuadraticBilevel, prob.quad_a, prob.quad_lam, prob.quad_b)
    else:
        if data.source == "synthetic":
            source = _build(
                "data", SyntheticGaussian,
                data.num_classes, data.dim, data.cluster_spread, data.noise_sd, cfg.run.seed,
            )
        else:
            source = _build("data", ClassDirectory.from_path, data.root, data.file_format)
        if data.way > len(source.class_names()):
            raise ConfigError(
                f"data.way: {data.way} classes requested but the source has "
                f"{len(source.class_names())}"
            )
        episode = EpisodeSpec(data.way, data.shot, data.query, data.batch_size)
        dim_in = source.feature_dim()
        reg = Regularizer(prob.reg, prob.reg_coef)
        if prob.kind == "mlp":
            problem = _build(
                "problem", MetaInitMlp,
                dim_in, prob.hidden, data.way, LossKind(prob.loss), reg,
            )
        else:
            problem = _build(
                "problem", MetaFeatureSoftmax, dim_in, prob.dim_feat, data.way, reg
            )

    if paradigm is Paradigm.META_INIT and not problem.x_layout.has("init"):
        raise ConfigError(
            f"problem.kind: {prob.kind!r} has no initialization segment; "
            "meta-init methods need kind 'mlp'"
        )
    if paradigm is Paradigm.META_FEATURE and problem.x_layout.has("init"):
        raise ConfigError(
            f"problem.kind: {prob.kind!r} is a meta-init problem; "
            "meta-feature methods need kind 'feature_softmax' or 'quadratic'"
        )

    inner_cfg = cfg.inner.inner_config(rule)

    layout = problem.x_layout
    for name, length in required_x_segments(rule, problem.y_layout):
        layout = layout.extended(name, length)
    gen = RngStream(cfg.run.seed, _PARAM_STREAM).generator()
    dim_in_for_feat = source.feature_dim() if source is not None else 1
    pieces = [
        _initial_segment_values(
            seg.name, seg.length, gen, dim_in_for_feat, cfg.inner.step_size
        )
        for seg in layout.segments
    ]
    x = ParamVector(layout, np.concatenate(pieces))

    opt = cfg.meta_opt.optimizers()[cfg.meta_opt.kind]
    exp = Experiment(cfg, source, problem, paradigm, inner_cfg, method, episode)
    return exp, TrainState(x=x, opt=opt, iteration=0)


def _adapt(
    exp: Experiment, x: ParamVector, n_tasks: int,
    task_stream: int, init_stream: int, index: int, record: bool = False,
) -> tuple[TaskBatch, tuple[np.ndarray, ...]]:
    """Draw n_tasks y_0s on child `index` of the run's `init_stream` and
    n_tasks tasks on child `index` of its `task_stream` (None tasks for the
    quadratic, which has no data), then run every inner loop against x.
    Returns the batch and the (tasks, dim_y) stacks kept."""
    seed = exp.cfg.run.seed
    # the streams are independent, so the order of the two draws changes no value
    ys = init_task_params_batch(
        exp.paradigm, exp.problem, x, RngStream(seed, init_stream).child(index), n_tasks
    )
    if exp.source is None:
        batch = TaskBatch((None,) * n_tasks)
    else:
        spec = replace(exp.episode_spec, batch_size=n_tasks)
        batch = sample_task_batch(exp.source, spec, RngStream(seed, task_stream).child(index))
    return batch, run_inner_batch(exp.inner_config, exp.problem, x, ys, batch, record)


def meta_train(
    exp: Experiment, state: TrainState
) -> tuple[TrainState, list[MetricsRecord]]:
    """Run cfg.run.meta_iterations rounds from the given state.

    Returns the advanced state and one MetricsRecord per round. A
    BilevelError raised in a round, its evaluation included, is raised again
    as the same type with the failing round in the message.
    """
    records = []
    for state, record in _train_rounds(exp, state):
        records.append(record)
    return state, records


def _train_rounds(exp: Experiment, state: TrainState):
    """meta_train one round at a time: yields the state after each round
    with the round's MetricsRecord, so a caller can keep the records of the
    rounds that completed before an error."""
    cfg, problem = exp.cfg, exp.problem
    n_batch = cfg.data.batch_size
    for _ in range(cfg.run.meta_iterations):
        start = time.perf_counter()
        it = state.iteration
        x = state.x
        try:
            batch, kept = _adapt(
                exp, x, n_batch, _TASK_STREAM, _INIT_STREAM, it,
                record=needs_full_trajectory(exp.method),
            )
            res = compute_hypergradient_batch(
                exp.method, problem, exp.paradigm, exp.inner_config, x, kept, batch
            )
            inner_final = kept.at(-1, Split.TRAIN).value()

            # task order, one addition at a time, as a loop over tasks would
            g_total = res.grad_x[0]
            for grad in res.grad_x[1:]:
                g_total = g_total + grad
            g_mean = ParamVector(x.layout, g_total * (1.0 / n_batch), copy=False)
            ul_loss = sum(res.ul_value.tolist()) / n_batch
            inner_loss = sum(inner_final.tolist()) / n_batch

            x_next, opt_next = meta_step(state.opt, x, g_mean)
            state = TrainState(x=x_next, opt=opt_next, iteration=it + 1)

            eval_loss = eval_acc = None
            if (it + 1) % cfg.run.eval_every == 0:
                eval_loss, eval_acc = meta_evaluate(
                    exp, state, cfg.run.eval_tasks, round_index=it + 1
                )
        except BilevelError as e:
            # keeps the type, attributes and traceback of the original
            e.args = (f"run aborted at meta-iteration {it}: {e}",)
            raise
        yield state, MetricsRecord(
            meta_iter=it,
            ul_loss=ul_loss,
            mean_inner_final_loss=inner_loss,
            eval_post_adapt_loss=eval_loss,
            eval_post_adapt_accuracy=eval_acc,
            wall_ms=(time.perf_counter() - start) * 1e3,
            cg_unconverged=0 if res.cg_converged is None else int(np.sum(~res.cg_converged)),
        )


def meta_evaluate(
    exp: Experiment, state: TrainState, n_tasks: int, round_index: int | None = None
) -> tuple[float, float | None]:
    """Post-adaptation validation loss (and accuracy, for classifiers) on
    fresh tasks, all adapted at once on stacked arrays. Reads state.x but
    never changes it; task draws depend only on the seed and round_index,
    not on training progress."""
    r = state.iteration if round_index is None else round_index
    batch, kept = _adapt(exp, state.x, n_tasks, _EVAL_TASK_STREAM, _EVAL_INIT_STREAM, r)
    # the run's val split parts, which BDA's steps built already
    losses, scores = exp.problem.val_losses_and_scores(
        state.x, kept[-1], kept.parts(Split.VAL)
    )
    mean_loss = float(np.mean(losses))
    if scores is None:
        return mean_loss, None
    hits = predicted_classes(scores) == batch.val_labels
    return mean_loss, float(np.mean(np.mean(hits, axis=-1)))
