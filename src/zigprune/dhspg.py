"""Group-sparsity optimizer with a dual half-space search direction.

Training runs in three phases. A momentum-SGD warm-up; a one-shot split of the
groups into a penalized set (top-K salience) and its complement; then the main
loop where non-penalized variables take plain momentum-SGD steps while each
penalized group follows the negative subgradient of
f + sum_g lambda_g * ||x_g||, with lambda_g re-chosen every step so the
direction descends both the objective and the group magnitude. Once the
projection phase starts, a penalized group whose trial iterate leaves the
half-space {v : <x_g, v> >= eps * ||x_g||^2} is zeroed and frozen; projection
stops when the target number of zero groups is reached.

Salience measures how redundant a group is. When the caller also supplies
per-group costs (the FLOPs a group's removal saves), each group's salience is
scaled by its cost over the mean cost, so among equally redundant groups the
penalized set takes the ones whose removal saves the most.

The baseline mode ("hspg") instead penalizes every group with one global
coefficient and never targets a specific count, which is exactly the control
the sweep utilities contrast against.

Groups are held in CSR form: ``idx`` is all groups' indices into the flat
iterate, concatenated in group order; group i starts at ``off[i]`` and
``seg`` names each entry's group. A step gathers ``x[idx]`` and
``velocity[idx]`` once and takes per-group norms and dots with
``np.add.reduceat(., off)``. Group state is one array per field, indexed by
group: ``penalized``, ``frozen``, ``penalty``, ``cos_theta``, ``salience``,
``cost_weight``, ``component``. Frozen groups' indices sit in one array.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Annotated, Optional

import numpy as np

from .errors import ConfigError, Count, KExceedsGroupCount, NonNegative, Size, check_fields

MODES = ("dhspg", "hspg", "sgd")


@dataclass
class OptimizerConfig:
    learning_rate: Annotated[float, "(0, inf)"] = 0.1
    lr_decay: NonNegative = 0.1      # multiplier applied every period
    lr_period_epochs: Size = 10
    lr_floor: NonNegative = 1e-4
    momentum: Annotated[float, "[0, 1)"] = 0.9
    target_zero_groups: Count = 0    # ignored in hspg/sgd modes
    warmup_steps: Optional[Count] = None        # None: half the first period
    project_start_step: Optional[Count] = None
    norm_floor: Annotated[float, "(0, inf)"] = 1e-6  # safeguard denominator
    default_penalty: NonNegative = 1e-3  # coefficient when no adjustment is needed
    penalty_amplify: Annotated[float, "[1, inf)"] = 2.0
    project_epsilon: Annotated[float, "[0, 1)"] = 0.0
    global_penalty: NonNegative = 1e-3   # hspg mode's single coefficient
    salience_cos_weight: NonNegative = 0.5
    salience_mag_weight: NonNegative = 0.5
    mode: Annotated[str, MODES] = "dhspg"

    def validate(self) -> None:
        """Raise a ConfigError naming the first field outside its
        annotation, or when warm-up ends after projection starts; a step
        left None is compared once ``resolved`` sets it."""
        check_fields(vars(self), OptimizerConfig, "optimizer")
        warm, proj = self.warmup_steps, self.project_start_step
        if warm is not None and proj is not None and warm > proj:
            raise ConfigError("optimizer 'warmup_steps' must not exceed 'project_start_step' "
                              "(projection cannot start before warm-up ends)")

    def resolved(self, steps_per_epoch: int) -> "OptimizerConfig":
        """This config, validated, with a None ``warmup_steps`` or
        ``project_start_step`` set to half the first decay period:
        ``lr_period_epochs // 2`` epochs of ``steps_per_epoch`` steps. The
        optimizer and the harness both read a None step through this."""
        self.validate()
        half_period = (self.lr_period_epochs // 2) * steps_per_epoch
        warm, proj = self.warmup_steps, self.project_start_step
        cfg = replace(self, warmup_steps=half_period if warm is None else warm,
                      project_start_step=half_period if proj is None else proj)
        cfg.validate()
        return cfg


def choose_penalty(cos_theta, grad_norm, default_penalty: float, amplify: float):
    """Per group: the default where cos_theta >= 0, else amplify times the
    interval's low end, capped at its high end. Scalars or arrays."""
    opposed = cos_theta < 0.0
    lo = -cos_theta * grad_norm
    hi = -grad_norm / np.where(opposed, cos_theta, -1.0)
    return np.where(opposed, np.minimum(amplify * lo, hi), default_penalty)[()]


def group_cosine(dot, x_norm, grad_norm, floor: float):
    """Cosine of the angle between x_g and grad_g from their dot product and
    norms, each norm floored. Scalars or arrays."""
    return np.clip(dot / (np.maximum(x_norm, floor) * np.maximum(grad_norm, floor)),
                   -1.0, 1.0)[()]


class DhspgOptimizer:
    """Owns the flat iterate; one training loop drives it via step()."""

    def __init__(self, x0: np.ndarray, groups: list[np.ndarray],
                 config: OptimizerConfig, steps_per_epoch: int = 1,
                 group_components: Optional[list[int]] = None,
                 group_costs: Optional[list[float]] = None):
        self.steps_per_epoch = max(1, steps_per_epoch)
        self.cfg = config.resolved(self.steps_per_epoch)
        self.x = np.asarray(x0, dtype=float).copy()
        self.velocity = np.zeros_like(self.x)
        self.t = 0
        n = len(groups)
        sizes = np.array([len(ix) for ix in groups], dtype=np.intp)
        self.idx = np.concatenate(groups).astype(np.intp) if n else np.empty(0, dtype=np.intp)
        self.off = np.cumsum(sizes) - sizes
        self.seg = np.repeat(np.arange(n), sizes)
        if (sizes == 0).any():
            raise ConfigError(f"group {int(np.argmin(sizes))} has no indices")
        if self.idx.size and (self.idx.min() < 0 or self.idx.max() >= self.x.size
                              or np.bincount(self.idx).max() > 1):
            raise ConfigError(f"group indices must be distinct and lie in [0, {self.x.size})")
        if group_components is not None and len(group_components) != n:
            raise ConfigError("group_components must align with groups")
        self.component = None if group_components is None else \
            np.asarray(group_components, dtype=np.intp)
        self.cost_weight = np.ones(n)
        if group_costs is not None:
            costs = np.asarray(group_costs, dtype=float)
            if costs.shape != (n,) or (costs < 0).any():
                raise ConfigError("group_costs must be nonnegative and align with groups")
            mean = float(costs.mean()) if n else 0.0
            if mean > 0:
                self.cost_weight = costs / mean
        self.penalized, self.frozen = np.zeros((2, n), dtype=bool)
        self.penalty, self.cos_theta, self.salience = np.zeros((3, n))
        self._frozen_idx = np.empty(0, dtype=np.intp)
        self._partitioned = False

    # -- schedule ----------------------------------------------------------

    def learning_rate(self) -> float:
        epoch = self.t // self.steps_per_epoch
        lr = self.cfg.learning_rate * self.cfg.lr_decay ** (epoch // self.cfg.lr_period_epochs)
        return max(lr, self.cfg.lr_floor)

    # -- group bookkeeping ---------------------------------------------------

    def _sum(self, a: np.ndarray) -> np.ndarray:
        """Per-group sums of an array laid out like idx."""
        return np.add.reduceat(a, self.off)

    def _is_zero(self, xg: np.ndarray) -> np.ndarray:
        """Per group: every entry of the gathered iterate is exactly zero."""
        return ~np.logical_or.reduceat(xg != 0, self.off)

    def zero_group_ids(self) -> list[int]:
        return np.flatnonzero(self._is_zero(self.x[self.idx])).tolist()

    def zero_group_count(self) -> int:
        return int(np.count_nonzero(self._is_zero(self.x[self.idx])))

    def group_sparsity(self) -> float:
        return self.zero_group_count() / self.off.size if self.off.size else 0.0

    def penalty_stats(self) -> dict:
        lams = self.penalty[self.penalized & ~self.frozen]
        if not lams.size:
            return {"penalty_min": 0.0, "penalty_mean": 0.0, "penalty_max": 0.0}
        return {"penalty_min": float(lams.min()),
                "penalty_mean": float(np.mean(lams)),
                "penalty_max": float(lams.max())}

    # -- phases -------------------------------------------------------------

    def compute_salience(self, grad_est: np.ndarray) -> None:
        """Redundancy score: alignment of the projection-to-zero direction
        with the negative gradient, plus inverse relative magnitude, times
        the group's cost weight (its cost over the mean cost, or 1 when no
        costs were given)."""
        cfg = self.cfg
        xg, gg = self.x[self.idx], grad_est[self.idx]
        mags = np.sqrt(self._sum(xg * xg))
        top = np.max(mags, initial=cfg.norm_floor)
        self.cos_theta = group_cosine(self._sum(xg * gg), mags,
                                      np.sqrt(self._sum(gg * gg)), cfg.norm_floor)
        self.salience = self.cost_weight * (
            cfg.salience_cos_weight * self.cos_theta
            + cfg.salience_mag_weight * (1.0 - mags / top))

    def partition_penalized(self) -> None:
        """Fix the penalized set: top-K salience, ties to the lower index.

        When component ids are supplied, selection skips a group that would
        leave its component with no unpenalized group, so compression always
        has a survivor to keep.
        """
        k = self.cfg.target_zero_groups
        n = self.salience.size
        if k > n:
            raise KExceedsGroupCount(f"K={k} exceeds {n} groups")
        order = np.lexsort((np.arange(n), -self.salience))
        if self.component is not None:
            # eligible: ranked, in salience order, below its component's last
            _, comp, sizes = np.unique(self.component[order], return_inverse=True,
                                       return_counts=True)
            rank = np.empty(n, dtype=np.intp)
            rank[np.argsort(comp, kind="stable")] = \
                np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            order = order[rank < sizes[comp] - 1]
        if order.size < k:
            raise ConfigError(f"cannot penalize {k} groups while keeping one per component")
        self.penalized[order[:k]] = True
        self._partitioned = True

    def select_lambda(self, xg: np.ndarray, gg: np.ndarray, x_sq: np.ndarray) -> None:
        """Re-choose each active (penalized, unfrozen) group's coefficient from
        the gathered iterate xg and gradient estimate gg; x_sq is xg's sums of squares."""
        cfg = self.cfg
        active = self.penalized & ~self.frozen
        g_norm = np.sqrt(self._sum(gg * gg))
        cos = group_cosine(self._sum(xg * gg), np.sqrt(x_sq), g_norm, cfg.norm_floor)
        self.cos_theta[active] = cos[active]
        if cfg.mode == "hspg":
            self.penalty[active] = cfg.global_penalty
        else:
            self.penalty[active] = choose_penalty(
                cos, g_norm, cfg.default_penalty, cfg.penalty_amplify)[active]

    def direction(self, grad_est: np.ndarray, xg: np.ndarray,
                  x_sq: np.ndarray) -> np.ndarray:
        """Negative gradient estimate, with the magnitude-penalty pull added
        on active groups (frozen groups have zero velocity and do not move)."""
        d = -grad_est
        pull = (self.penalized & ~self.frozen)[self.seg]
        scale = self.penalty / np.maximum(np.sqrt(x_sq), self.cfg.norm_floor)
        d[self.idx[pull]] -= scale[self.seg[pull]] * xg[pull]
        return d

    def halfspace_project(self, trial: np.ndarray, xg: np.ndarray,
                          x_sq: np.ndarray) -> None:
        """Zero-and-freeze active groups whose trial left the half-space; in
        dhspg mode only the first (target - zero groups) of them, in group
        order, so projection stops at the target count."""
        cfg = self.cfg
        inner = self._sum(xg * trial[self.idx])
        leaving = np.flatnonzero(self.penalized & ~self.frozen
                                 & (inner < cfg.project_epsilon * x_sq))
        if cfg.mode == "dhspg" and leaving.size:
            achieved = int(np.count_nonzero(self._is_zero(xg)))
            leaving = leaving[:max(cfg.target_zero_groups - achieved, 0)]
        if leaving.size:
            self.frozen[leaving] = True
            self._frozen_idx = self.idx[self.frozen[self.seg]]
            trial[self._frozen_idx] = 0.0
            self.velocity[self._frozen_idx] = 0.0
        self.x = trial

    # -- main entry -----------------------------------------------------------

    def step(self, grad: np.ndarray) -> None:
        cfg = self.cfg
        alpha = self.learning_rate()
        self.velocity *= cfg.momentum
        self.velocity += grad
        self.velocity[self._frozen_idx] = 0.0
        if not self._partitioned and cfg.mode != "sgd" and self.t >= cfg.warmup_steps:
            if cfg.mode == "hspg":
                self.penalized[:] = True
                self._partitioned = True
            else:
                # the gradient estimate at the warm-up boundary seeds the scores
                self.compute_salience(self.velocity)
                self.partition_penalized()
        if not (self.penalized & ~self.frozen).any():
            # warm-up, sgd mode, or no group left to pull or project
            self.x -= alpha * self.velocity
        else:
            xg = self.x[self.idx]
            x_sq = self._sum(xg * xg)
            self.select_lambda(xg, self.velocity[self.idx], x_sq)
            trial = self.x + alpha * self.direction(self.velocity, xg, x_sq)
            if self.t >= cfg.project_start_step:
                self.halfspace_project(trial, xg, x_sq)
            else:
                self.x = trial
        self.t += 1
