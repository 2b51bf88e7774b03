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

from .dhspg import choose_penalty, group_cosine

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


def _penalties_and_direction(probe: QuadraticProbe, x: np.ndarray,
                             amplify: float):
    grad = probe.gradient(x)
    d = -grad.copy()
    lams = {}
    coss = {}
    for gi in probe.penalized:
        idx = probe.groups[gi]
        x_g, g_g = x[idx], grad[idx]
        x_norm, g_norm = float(np.linalg.norm(x_g)), float(np.linalg.norm(g_g))
        cos = group_cosine(x_g @ g_g, x_norm, g_norm, _NORM_FLOOR)
        lam = choose_penalty(cos, g_norm, probe.default_penalty, amplify)
        d[idx] -= lam * x_g / max(x_norm, _NORM_FLOOR)
        lams[gi] = lam
        coss[gi] = cos
    return grad, d, lams, coss


def _penalty_root_bound(cos: float, grad_norm: float, lip: float,
                        alpha: float) -> float:
    """Largest penalty keeping the per-group slack term nonpositive."""
    a2 = lip * alpha * alpha
    lin = (1.0 - lip * alpha) * alpha * cos * grad_norm
    disc = lin * lin + 2.0 * a2 * (alpha - a2 / 2.0) * grad_norm * grad_norm
    return (lin + np.sqrt(disc)) / a2


def _draw(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=n)


def _result(name, trials, failures, worst, resamples):
    return {"name": name, "trials": trials, "failures": failures,
            "max_violation": worst, "resamples": resamples,
            "passed": failures == 0}


def probe_sufficient_decrease(probe: QuadraticProbe, trials: int = 100,
                              seed: int = 0, amplify: float = 1.01) -> dict:
    rng = np.random.default_rng(seed)
    lip = probe.lipschitz
    alpha = probe.step_fraction / lip
    np_idx = np.concatenate([probe.groups[g] for g in range(len(probe.groups))
                             if g not in probe.penalized])
    failures = 0
    worst = 0.0
    resamples = 0
    done = 0
    while done < trials:
        x = _draw(rng, probe.matrix.shape[0])
        grad, d, lams, coss = _penalties_and_direction(probe, x, amplify)
        ok = all(
            lams[gi] < _penalty_root_bound(
                coss[gi], float(np.linalg.norm(grad[probe.groups[gi]])), lip, alpha)
            for gi in probe.penalized)
        if not ok:
            resamples += 1
            if resamples > 100 * trials:
                raise RuntimeError("probe hypothesis unattainable")
            continue
        lhs = probe.value(x + alpha * d)
        rhs = probe.value(x) - (alpha - lip * alpha * alpha / 2.0) * \
            float(grad[np_idx] @ grad[np_idx])
        violation = lhs - rhs
        worst = max(worst, violation)
        if violation > 1e-12:
            failures += 1
        done += 1
    return _result("sufficient_decrease", trials, failures, worst, resamples)


def probe_magnitude_decrease(probe: QuadraticProbe, trials: int = 100,
                             seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    failures = 0
    worst = -np.inf
    for _ in range(trials):
        x = _draw(rng, probe.matrix.shape[0])
        _, d, _, _ = _penalties_and_direction(probe, x, probe.penalty_amplify)
        for gi in probe.penalized:
            idx = probe.groups[gi]
            x_g, d_g = x[idx], d[idx]
            b = float(x_g @ -d_g)
            a = float(d_g @ d_g)
            if b <= 0 or a <= 0:
                failures += 1  # penalty selection must make <x, -d> positive
                continue
            for frac in (0.25, 0.5, 0.99):
                alpha = frac * 2.0 * b / a
                shrink = float(np.linalg.norm(x_g + alpha * d_g)) - \
                    float(np.linalg.norm(x_g))
                worst = max(worst, shrink)
                if shrink >= 0:
                    failures += 1
    return _result("magnitude_decrease", trials, failures, worst, 0)


def probe_norm_update_identity(probe: QuadraticProbe, trials: int = 100,
                               seed: int = 0, tol: float = 1e-10) -> dict:
    rng = np.random.default_rng(seed)
    omega = probe.omega
    failures = 0
    worst = 0.0
    for _ in range(trials):
        x = _draw(rng, probe.matrix.shape[0])
        _, d, _, _ = _penalties_and_direction(probe, x, probe.penalty_amplify)
        for gi in probe.penalized:
            idx = probe.groups[gi]
            x_g, d_g = x[idx], d[idx]
            b = float(x_g @ -d_g)
            a = float(d_g @ d_g)
            alpha = omega * b / a
            cos = float(x_g @ -d_g) / (np.linalg.norm(x_g) * np.linalg.norm(d_g))
            lhs = float(np.sum((x_g + alpha * d_g) ** 2))
            rhs = float(x_g @ x_g) * (1.0 + (omega * omega - 2.0 * omega) * cos * cos)
            residual = abs(lhs - rhs)
            worst = max(worst, residual)
            if residual > tol:
                failures += 1
    return _result("norm_update_identity", trials, failures, worst, 0)


def probe_contraction(probe: QuadraticProbe, trials: int = 100,
                      seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    omega, rho = probe.omega, probe.rho
    gamma_sq = (2.0 * omega - omega * omega) * rho * rho
    p_idx = np.concatenate([probe.groups[g] for g in probe.penalized])
    failures = 0
    worst = 0.0
    resamples = 0
    done = 0
    while done < trials:
        x = _draw(rng, probe.matrix.shape[0])
        _, d, _, _ = _penalties_and_direction(probe, x, probe.penalty_amplify)
        ratios = []
        ok = True
        for gi in probe.penalized:
            idx = probe.groups[gi]
            x_g, d_g = x[idx], d[idx]
            b = float(x_g @ -d_g)
            a = float(d_g @ d_g)
            cos = b / max(np.linalg.norm(x_g) * np.linalg.norm(d_g), _NORM_FLOOR)
            if abs(cos) < rho or b <= 0:
                ok = False
                break
            ratios.append(b / a)
        if not ok:
            resamples += 1
            if resamples > 100 * trials:
                raise RuntimeError("probe hypothesis unattainable")
            continue
        alpha = omega * min(ratios)
        lhs = float(np.sum((x[p_idx] + alpha * d[p_idx]) ** 2))
        rhs = (1.0 - gamma_sq) * float(x[p_idx] @ x[p_idx])
        violation = lhs - rhs
        worst = max(worst, violation)
        if violation > 1e-12:
            failures += 1
        done += 1
    return _result("contraction", trials, failures, worst, resamples)


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
