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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, KExceedsGroupCount

MODES = ("dhspg", "hspg", "sgd")


@dataclass
class OptimizerConfig:
    learning_rate: float = 0.1
    lr_decay: float = 0.1            # multiplier applied every period
    lr_period_epochs: int = 10
    lr_floor: float = 1e-4
    momentum: float = 0.9
    target_zero_groups: int = 0      # ignored in hspg/sgd modes
    warmup_steps: Optional[int] = None          # None: harness picks half a period
    project_start_step: Optional[int] = None
    norm_floor: float = 1e-6         # safeguard denominator
    default_penalty: float = 1e-3    # coefficient when no adjustment is needed
    penalty_amplify: float = 2.0
    project_epsilon: float = 0.0
    global_penalty: float = 1e-3     # hspg mode's single coefficient
    salience_cos_weight: float = 0.5
    salience_mag_weight: float = 0.5
    mode: str = "dhspg"

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.project_epsilon < 1.0:
            raise ConfigError("project_epsilon must lie in [0, 1)")
        if self.norm_floor <= 0:
            raise ConfigError("norm_floor must be positive")
        if (self.warmup_steps or 0) > (self.project_start_step or 0):
            raise ConfigError("projection cannot start before warm-up ends")
        if self.target_zero_groups < 0:
            raise ConfigError("target_zero_groups must be nonnegative")


@dataclass
class GroupState:
    indices: np.ndarray
    component_id: int = -1
    cos_theta: float = 0.0
    salience: float = 0.0
    penalized: bool = False
    penalty: float = 0.0
    frozen: bool = False
    cost_weight: float = 1.0         # group cost / mean cost; 1 without costs


def lambda_interval(cos_theta: float, grad_norm: float):
    """Admissible penalty interval (lo, hi), or None when any positive value
    keeps the direction inside both half-spaces (cos_theta >= 0)."""
    if cos_theta >= 0.0:
        return None
    return -cos_theta * grad_norm, -grad_norm / cos_theta


def choose_penalty(cos_theta: float, grad_norm: float,
                   default_penalty: float, amplify: float) -> float:
    interval = lambda_interval(cos_theta, grad_norm)
    if interval is None:
        return default_penalty
    lo, hi = interval
    return min(amplify * lo, hi)


def group_cosine(x_g: np.ndarray, grad_g: np.ndarray, floor: float) -> float:
    denom = max(float(np.linalg.norm(x_g)), floor) * \
        max(float(np.linalg.norm(grad_g)), floor)
    return float(np.clip(np.dot(x_g, grad_g) / denom, -1.0, 1.0))


class DhspgOptimizer:
    """Owns the flat iterate; one training loop drives it via step()."""

    def __init__(self, x0: np.ndarray, groups: list[np.ndarray],
                 config: OptimizerConfig, steps_per_epoch: int = 1,
                 group_components: Optional[list[int]] = None,
                 group_costs: Optional[list[float]] = None):
        config.validate()
        self.cfg = config
        self.x = np.asarray(x0, dtype=float).copy()
        self.velocity = np.zeros_like(self.x)
        self.t = 0
        comps = group_components or [-1] * len(groups)
        if len(comps) != len(groups):
            raise ConfigError("group_components must align with groups")
        self.groups = [GroupState(indices=np.asarray(ix, dtype=np.intp),
                                  component_id=ci)
                       for ix, ci in zip(groups, comps)]
        if group_costs is not None:
            costs = np.asarray(group_costs, dtype=float)
            if costs.shape != (len(groups),) or (costs < 0).any():
                raise ConfigError("group_costs must be nonnegative and align with groups")
            mean = float(costs.mean()) if len(costs) else 0.0
            if mean > 0:
                for gs, c in zip(self.groups, costs):
                    gs.cost_weight = float(c) / mean
        self.steps_per_epoch = max(1, steps_per_epoch)
        self.warmup_until = config.warmup_steps or 0
        self.project_from = config.project_start_step or 0
        self._partitioned = False
        self._floor_components = group_components is not None

    # -- schedule ----------------------------------------------------------

    def learning_rate(self) -> float:
        epoch = self.t // self.steps_per_epoch
        lr = self.cfg.learning_rate * self.cfg.lr_decay ** (epoch // self.cfg.lr_period_epochs)
        return max(lr, self.cfg.lr_floor)

    # -- group bookkeeping ---------------------------------------------------

    def zero_group_count(self) -> int:
        return sum(1 for gs in self.groups if not self.x[gs.indices].any())

    def group_sparsity(self) -> float:
        return self.zero_group_count() / len(self.groups) if self.groups else 0.0

    def penalty_stats(self) -> dict:
        lams = [gs.penalty for gs in self.groups if gs.penalized and not gs.frozen]
        if not lams:
            return {"penalty_min": 0.0, "penalty_mean": 0.0, "penalty_max": 0.0}
        return {"penalty_min": float(min(lams)),
                "penalty_mean": float(np.mean(lams)),
                "penalty_max": float(max(lams))}

    # -- phases -------------------------------------------------------------

    def warmup_step(self, grad: np.ndarray) -> None:
        """Momentum SGD on all variables, no penalization."""
        alpha = self.learning_rate()
        self.velocity *= self.cfg.momentum
        self.velocity += grad
        self.x -= alpha * self.velocity
        self.t += 1

    def compute_salience(self, grad_est: np.ndarray) -> None:
        """Redundancy score: alignment of the projection-to-zero direction
        with the negative gradient, plus inverse relative magnitude, times
        the group's cost weight (its cost over the mean cost, or 1 when no
        costs were given)."""
        floor = self.cfg.norm_floor
        mags = [float(np.linalg.norm(self.x[gs.indices])) for gs in self.groups]
        top = max(max(mags), floor) if mags else floor
        for gs, mag in zip(self.groups, mags):
            gs.cos_theta = group_cosine(self.x[gs.indices], grad_est[gs.indices], floor)
            gs.salience = gs.cost_weight * (
                self.cfg.salience_cos_weight * gs.cos_theta
                + self.cfg.salience_mag_weight * (1.0 - mag / top))

    def partition_penalized(self) -> None:
        """Fix the penalized set: top-K salience, ties to the lower index.

        When component ids are supplied, selection skips a group that would
        leave its component with no unpenalized group, so compression always
        has a survivor to keep.
        """
        k = self.cfg.target_zero_groups
        if k > len(self.groups):
            raise KExceedsGroupCount(f"K={k} exceeds {len(self.groups)} groups")
        order = sorted(range(len(self.groups)),
                       key=lambda i: (-self.groups[i].salience, i))
        remaining: dict[int, int] = {}
        if self._floor_components:
            for gs in self.groups:
                remaining[gs.component_id] = remaining.get(gs.component_id, 0) + 1
        chosen = 0
        for i in order:
            if chosen == k:
                break
            gs = self.groups[i]
            if self._floor_components and remaining[gs.component_id] <= 1:
                continue
            gs.penalized = True
            chosen += 1
            if self._floor_components:
                remaining[gs.component_id] -= 1
        if chosen < k:
            raise ConfigError(
                f"cannot penalize {k} groups while keeping one per component"
            )
        self._partitioned = True

    def select_lambda(self, grad_est: np.ndarray) -> None:
        """Re-choose each penalized group's coefficient from the current
        iterate and gradient estimate."""
        cfg = self.cfg
        for gs in self.groups:
            if not gs.penalized or gs.frozen:
                continue
            g_g = grad_est[gs.indices]
            gs.cos_theta = group_cosine(self.x[gs.indices], g_g, cfg.norm_floor)
            if cfg.mode == "hspg":
                gs.penalty = cfg.global_penalty
            else:
                gs.penalty = choose_penalty(gs.cos_theta,
                                            float(np.linalg.norm(g_g)),
                                            cfg.default_penalty,
                                            cfg.penalty_amplify)

    def direction(self, grad_est: np.ndarray) -> np.ndarray:
        """Negative gradient estimate, with the magnitude-penalty pull added
        on penalized groups; frozen groups do not move."""
        d = -grad_est.copy()
        floor = self.cfg.norm_floor
        for gs in self.groups:
            if gs.frozen:
                d[gs.indices] = 0.0
            elif gs.penalized:
                x_g = self.x[gs.indices]
                scale = gs.penalty / max(float(np.linalg.norm(x_g)), floor)
                d[gs.indices] -= scale * x_g
        return d

    def halfspace_project(self, trial: np.ndarray) -> None:
        """Zero-and-freeze penalized groups whose trial left the half-space;
        in dhspg mode projection stops at the target count."""
        cfg = self.cfg
        achieved = self.zero_group_count()
        for gs in self.groups:
            if not gs.penalized or gs.frozen:
                continue
            if cfg.mode == "dhspg" and achieved >= cfg.target_zero_groups:
                break
            x_g = self.x[gs.indices]
            if np.dot(x_g, trial[gs.indices]) < cfg.project_epsilon * np.dot(x_g, x_g):
                trial[gs.indices] = 0.0
                gs.frozen = True
                self.velocity[gs.indices] = 0.0
                achieved += 1
        self.x = trial

    # -- main entry -----------------------------------------------------------

    def step(self, grad: np.ndarray) -> None:
        cfg = self.cfg
        if cfg.mode == "sgd" or self.t < self.warmup_until:
            self.warmup_step(grad)
            return
        if not self._partitioned:
            if cfg.mode == "hspg":
                for gs in self.groups:
                    gs.penalized = True
                self._partitioned = True
            else:
                # gradient estimate at the warm-up boundary seeds the scores
                est_now = cfg.momentum * self.velocity + grad
                self.compute_salience(est_now)
                self.partition_penalized()
        alpha = self.learning_rate()
        self.velocity *= cfg.momentum
        self.velocity += grad
        for gs in self.groups:
            if gs.frozen:
                self.velocity[gs.indices] = 0.0
        self.select_lambda(self.velocity)
        trial = self.x + alpha * self.direction(self.velocity)
        if self.t >= self.project_from:
            self.halfspace_project(trial)
        else:
            self.x = trial
        self.t += 1
