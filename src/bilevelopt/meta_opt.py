"""Meta-parameter update schemes.

Functional style: each optimizer is a frozen value carrying its own state,
and meta_step returns the updated parameters together with a new optimizer
value. Default choice is SGD with momentum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import LayoutMismatch, NonFiniteValue
from .numerics import ParamVector

__all__ = ["Sgd", "Momentum", "Adam", "MetaOptimizer", "meta_step"]


@dataclass(frozen=True)
class Sgd:
    lr: float

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be > 0")


@dataclass(frozen=True)
class Momentum:
    lr: float = 1e-2
    mu: float = 0.9
    velocity: ParamVector | None = None

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("mu must be in [0, 1)")


@dataclass(frozen=True)
class Adam:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8
    m: ParamVector | None = None
    v: ParamVector | None = None
    step_count: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if self.eps_hat <= 0:
            raise ValueError("eps_hat must be > 0")


MetaOptimizer = Union[Sgd, Momentum, Adam]


def meta_step(
    opt: MetaOptimizer, x: ParamVector, g: ParamVector
) -> tuple[ParamVector, MetaOptimizer]:
    if x.layout != g.layout:
        raise LayoutMismatch("gradient layout does not match parameter layout")
    if not g.is_finite():
        raise NonFiniteValue("meta-gradient is not finite")

    # an overflow leaves a non-finite x_next, which raises below, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(opt, Sgd):
            x_next = x - opt.lr * g
            opt_next = opt
        elif isinstance(opt, Momentum):
            vel = opt.velocity if opt.velocity is not None else ParamVector.zeros(x.layout)
            if vel.layout != x.layout:
                raise LayoutMismatch("momentum state layout does not match parameters")
            vel = opt.mu * vel + g
            x_next = x - opt.lr * vel
            opt_next = replace(opt, velocity=vel)
        elif isinstance(opt, Adam):
            m = opt.m if opt.m is not None else ParamVector.zeros(x.layout)
            v = opt.v if opt.v is not None else ParamVector.zeros(x.layout)
            if m.layout != x.layout or v.layout != x.layout:
                raise LayoutMismatch("adam state layout does not match parameters")
            t = opt.step_count + 1
            m = opt.beta1 * m + (1.0 - opt.beta1) * g
            v = v.like(opt.beta2 * v.values + (1.0 - opt.beta2) * g.values * g.values)
            if not v.is_finite():  # an infinite v would freeze its coordinates of x unseen
                raise NonFiniteValue("adam's second moment is not finite")
            m_hat = m.values / (1.0 - opt.beta1 ** t)
            v_hat = v.values / (1.0 - opt.beta2 ** t)
            x_next = x.like(x.values - opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps_hat))
            opt_next = replace(opt, m=m, v=v, step_count=t)
        else:
            raise TypeError(f"unknown optimizer {opt!r}")

    if not x_next.is_finite():
        raise NonFiniteValue("meta step produced non-finite parameters")
    return x_next, opt_next
