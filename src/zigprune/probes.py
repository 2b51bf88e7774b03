"""Numeric property probes for the optimizer's direction construction.

Each probe evaluates one of the method's convergence inequalities at random
iterates of a fixed quadratic f(x) = x'Ax/2 with full gradients:

  * sufficient decrease: with alpha <= 1/L and every penalty below its
    admissible root bound, f(x + alpha d) <= f(x) - (alpha - L alpha^2/2) *
    ||grad restricted to the non-penalized set||^2.
  * magnitude decrease: per penalized group, any step below
    2 <x_g, -d_g> / ||d_g||^2 strictly shrinks ||x_g||.
  * norm-update identity: at the fractional step omega * <x_g, -d_g> /
    ||d_g||^2, the new squared norm equals
    ||x_g||^2 (1 + (omega^2 - 2 omega) cos^2), with cos measured between
    x_g and -d_g.
  * contraction: the shared step omega * min_g <x_g,-d_g>/||d_g||^2 shrinks
    the penalized block by the factor 1 - (2 omega - omega^2) rho^2 whenever
    every penalized group has |cos| >= rho.

Iterates violating a probe's stated hypothesis are redrawn (and counted), so
every evaluation happens under the conditions the inequality assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dhspg import DhspgOptimizer, OptimizerConfig

_NORM_FLOOR = 1e-12


@dataclass
class QuadraticProbe:
    matrix: np.ndarray
    groups: list[np.ndarray]
    penalized: list[int]
    omega: float = 0.5
    rho: float = 0.1
    step_fraction: float = 0.5   # alpha = step_fraction / L
    default_penalty: float = 1e-3
    penalty_amplify: float = 2.0

    @property
    def lipschitz(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).max())

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def value(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ self.matrix @ x)


def default_probe(n_groups: int = 6, group_size: int = 4,
                  n_penalized: int = 3, seed: int = 0,
                  omega: float = 0.5, rho: float = 0.1) -> QuadraticProbe:
    """Random symmetric PSD quadratic with moderate conditioning."""
    rng = np.random.default_rng(seed)
    n = n_groups * group_size
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = rng.uniform(0.5, 2.0, size=n)
    a = (q * eigs) @ q.T
    a = 0.5 * (a + a.T)
    groups = [np.arange(g * group_size, (g + 1) * group_size)
              for g in range(n_groups)]
    return QuadraticProbe(matrix=a, groups=groups,
                          penalized=list(range(n_penalized)),
                          omega=omega, rho=rho)


def _penalty_root_bound(cos: float, grad_norm: float, lip: float,
                        alpha: float) -> float:
    """Largest penalty keeping the per-group slack term nonpositive."""
    a2 = lip * alpha * alpha
    lin = (1.0 - lip * alpha) * alpha * cos * grad_norm
    disc = lin * lin + 2.0 * a2 * (alpha - a2 / 2.0) * grad_norm * grad_norm
    return (lin + np.sqrt(disc)) / a2


def _penalized_groups(probe: QuadraticProbe, x: np.ndarray, d: np.ndarray):
    """Each penalized group's (x_g, d_g, <x_g, -d_g>, ||d_g||^2)."""
    for gi in probe.penalized:
        idx = probe.groups[gi]
        x_g, d_g = x[idx], d[idx]
        yield x_g, d_g, float(x_g @ -d_g), float(d_g @ d_g)


def _draw(probe: QuadraticProbe, name: str, trials: int, seed: int, amplify: float,
          evaluate, worst: float = 0.0) -> dict:
    """Check one inequality at ``trials`` random iterates.

    At each iterate x the optimizer that trains, over the probe's groups
    with its penalized groups marked, picks each penalized group's penalty
    and builds the direction d. ``evaluate(x, grad, d, opt)`` returns
    (value, failed) pairs, ``max_violation`` being the largest value, or
    None when x breaks the inequality's hypothesis: x is then redrawn and
    counted. ``opt.penalty`` and ``opt.cos_theta`` hold the choices at x.
    """
    rng = np.random.default_rng(seed)
    cfg = OptimizerConfig(default_penalty=probe.default_penalty,
                          penalty_amplify=amplify, norm_floor=_NORM_FLOOR)
    opt = DhspgOptimizer(np.zeros(probe.matrix.shape[0]), probe.groups, cfg)
    opt.penalized[probe.penalized] = True
    failures = resamples = done = 0
    while done < trials:
        x = rng.normal(size=probe.matrix.shape[0])
        grad = probe.gradient(x)
        xg = x[opt.idx]
        x_sq = np.add.reduceat(xg * xg, opt.off)
        opt.select_lambda(xg, grad[opt.idx], x_sq)
        d = opt.direction(grad, xg, x_sq)
        pairs = evaluate(x, grad, d, opt)
        if pairs is None:
            resamples += 1
            if resamples > 100 * trials:
                raise RuntimeError("probe hypothesis unattainable")
            continue
        for value, failed in pairs:
            worst = max(worst, value)
            if failed:
                failures += 1
        done += 1
    return {"name": name, "trials": trials, "failures": failures,
            "max_violation": worst, "resamples": resamples,
            "passed": failures == 0}


def probe_sufficient_decrease(probe: QuadraticProbe, trials: int = 100,
                              seed: int = 0, amplify: float = 1.01) -> dict:
    lip = probe.lipschitz
    alpha = probe.step_fraction / lip
    np_idx = np.concatenate([probe.groups[g] for g in range(len(probe.groups))
                             if g not in probe.penalized])

    def evaluate(x, grad, d, opt):
        if not all(
                opt.penalty[gi] < _penalty_root_bound(
                    opt.cos_theta[gi], float(np.linalg.norm(grad[probe.groups[gi]])), lip, alpha)
                for gi in probe.penalized):
            return None
        lhs = probe.value(x + alpha * d)
        rhs = probe.value(x) - (alpha - lip * alpha * alpha / 2.0) * \
            float(grad[np_idx] @ grad[np_idx])
        violation = lhs - rhs
        return [(violation, violation > 1e-12)]

    return _draw(probe, "sufficient_decrease", trials, seed, amplify, evaluate)


def probe_magnitude_decrease(probe: QuadraticProbe, trials: int = 100,
                             seed: int = 0) -> dict:
    def evaluate(x, grad, d, opt):
        pairs = []
        for x_g, d_g, b, a in _penalized_groups(probe, x, d):
            if b <= 0 or a <= 0:
                # penalty selection must make <x, -d> positive
                pairs.append((-np.inf, True))
                continue
            for frac in (0.25, 0.5, 0.99):
                alpha = frac * 2.0 * b / a
                shrink = float(np.linalg.norm(x_g + alpha * d_g)) - \
                    float(np.linalg.norm(x_g))
                pairs.append((shrink, shrink >= 0))
        return pairs

    return _draw(probe, "magnitude_decrease", trials, seed, probe.penalty_amplify,
                 evaluate, worst=-np.inf)


def probe_norm_update_identity(probe: QuadraticProbe, trials: int = 100,
                               seed: int = 0, tol: float = 1e-10) -> dict:
    omega = probe.omega

    def evaluate(x, grad, d, opt):
        pairs = []
        for x_g, d_g, b, a in _penalized_groups(probe, x, d):
            alpha = omega * b / a
            cos = b / (np.linalg.norm(x_g) * np.linalg.norm(d_g))
            lhs = float(np.sum((x_g + alpha * d_g) ** 2))
            rhs = float(x_g @ x_g) * (1.0 + (omega * omega - 2.0 * omega) * cos * cos)
            residual = abs(lhs - rhs)
            pairs.append((residual, residual > tol))
        return pairs

    return _draw(probe, "norm_update_identity", trials, seed, probe.penalty_amplify,
                 evaluate)


def probe_contraction(probe: QuadraticProbe, trials: int = 100,
                      seed: int = 0) -> dict:
    omega, rho = probe.omega, probe.rho
    gamma_sq = (2.0 * omega - omega * omega) * rho * rho
    p_idx = np.concatenate([probe.groups[g] for g in probe.penalized])

    def evaluate(x, grad, d, opt):
        ratios = []
        for x_g, d_g, b, a in _penalized_groups(probe, x, d):
            cos = b / max(np.linalg.norm(x_g) * np.linalg.norm(d_g), _NORM_FLOOR)
            if abs(cos) < rho or b <= 0:
                return None
            ratios.append(b / a)
        alpha = omega * min(ratios)
        lhs = float(np.sum((x[p_idx] + alpha * d[p_idx]) ** 2))
        rhs = (1.0 - gamma_sq) * float(x[p_idx] @ x[p_idx])
        violation = lhs - rhs
        return [(violation, violation > 1e-12)]

    return _draw(probe, "contraction", trials, seed, probe.penalty_amplify, evaluate)


def run_lemma_probes(probe: QuadraticProbe | None = None, trials: int = 100,
                     seed: int = 0) -> dict[str, dict]:
    """Run all four probes; every inequality must hold at every iterate."""
    probe = probe or default_probe()
    results = [
        probe_sufficient_decrease(probe, trials, seed),
        probe_magnitude_decrease(probe, trials, seed + 1),
        probe_norm_update_identity(probe, trials, seed + 2),
        probe_contraction(probe, trials, seed + 3),
    ]
    return {r["name"]: r for r in results}
