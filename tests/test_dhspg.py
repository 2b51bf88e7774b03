import numpy as np
import pytest

from zigprune.dhspg import (
    DhspgOptimizer,
    OptimizerConfig,
    choose_penalty,
    group_cosine,
)
from zigprune.errors import ConfigError, KExceedsGroupCount


def flat_groups(sizes):
    out = []
    start = 0
    for s in sizes:
        out.append(np.arange(start, start + s))
        start += s
    return out


def make_opt(x0, sizes, **cfg_kwargs):
    cfg = OptimizerConfig(**cfg_kwargs)
    return DhspgOptimizer(np.asarray(x0, float), flat_groups(sizes), cfg)


# -- warm-up ----------------------------------------------------------------

def test_warmup_quadratic_single_step():
    opt = make_opt([1.0], [1], learning_rate=0.1, momentum=0.0,
                   warmup_steps=10, project_start_step=10, lr_floor=0.0)
    opt.step(np.array([1.0]))  # grad of f = x^2/2 at x=1
    assert opt.x[0] == pytest.approx(0.9)


def test_warmup_zero_gradient_keeps_iterate():
    opt = make_opt([2.0, -1.0], [2], momentum=0.9, warmup_steps=5,
                   project_start_step=5)
    opt.step(np.zeros(2))
    assert np.array_equal(opt.x, [2.0, -1.0])


def test_warmup_matches_sgd_oracle_trajectory():
    rng = np.random.default_rng(8)
    a = rng.uniform(0.5, 2.0, size=6)  # f(x) = sum a_i x_i^2 / 2
    x0 = rng.normal(size=6)

    opt = make_opt(x0, [3, 3], learning_rate=0.05, momentum=0.9,
                   warmup_steps=200, project_start_step=200, lr_floor=0.0,
                   lr_period_epochs=10 ** 6)
    x_ref = x0.copy()
    v_ref = np.zeros(6)
    for _ in range(100):
        g = a * opt.x
        opt.step(g)
        v_ref = 0.9 * v_ref + a * x_ref
        x_ref = x_ref - 0.05 * v_ref
    assert np.abs(opt.x - x_ref).max() < 1e-12


# -- salience ----------------------------------------------------------------

def cosine(x_g, grad_g, floor):
    return group_cosine(x_g @ grad_g, np.linalg.norm(x_g), np.linalg.norm(grad_g), floor)


def test_cosine_aligned_and_opposed():
    assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1e-6) == 1.0
    assert cosine(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 1e-6) == -1.0


def test_salience_prefers_small_magnitude():
    opt = make_opt([3.0, 0.1, 1.0], [1, 1, 1], warmup_steps=0,
                   project_start_step=0)
    grad = np.array([3.0, 0.1, 1.0])  # cos_theta = 1 for all groups
    opt.compute_salience(grad)
    sal = list(opt.salience)
    assert sal[0] == min(sal)  # largest magnitude scores lowest
    assert sal[1] == max(sal)


# -- penalized-set selection ---------------------------------------------------

def test_partition_top_k_with_tie_break():
    opt = make_opt([1.0, 1.0, 1.0], [1, 1, 1], target_zero_groups=2)
    opt.salience[:] = (0.9, 0.1, 0.5)
    opt.partition_penalized()
    assert list(opt.penalized) == [True, False, True]


def test_partition_k_zero_and_k_all():
    opt = make_opt([1.0, 2.0], [1, 1], target_zero_groups=0)
    opt.partition_penalized()
    assert not opt.penalized.any()
    opt2 = make_opt([1.0, 2.0], [1, 1], target_zero_groups=2)
    opt2.partition_penalized()
    assert opt2.penalized.all()


def test_partition_k_too_large():
    opt = make_opt([1.0, 2.0], [1, 1], target_zero_groups=3)
    with pytest.raises(KExceedsGroupCount):
        opt.partition_penalized()


def test_partition_respects_component_floor():
    cfg = OptimizerConfig(target_zero_groups=2)
    opt = DhspgOptimizer(np.ones(4), flat_groups([1, 1, 1, 1]), cfg,
                         group_components=[0, 0, 1, 1])
    opt.salience[:] = (0.9, 0.8, 0.1, 0.2)
    opt.partition_penalized()
    # naive top-2 would take both groups of component 0
    assert list(opt.penalized) == [True, False, False, True]


def test_partition_weighs_group_costs():
    # equal magnitude and cosine: without costs the lower index wins the
    # tie; with costs the group whose removal saves more is penalized
    x0, grad = np.ones(2), np.ones(2)
    cfg = OptimizerConfig(target_zero_groups=1)
    plain = DhspgOptimizer(x0, flat_groups([1, 1]), cfg)
    plain.compute_salience(grad)
    plain.partition_penalized()
    assert list(plain.penalized) == [True, False]

    costed = DhspgOptimizer(x0, flat_groups([1, 1]), cfg,
                            group_costs=[1.0, 3.0])
    costed.compute_salience(grad)
    assert list(costed.cost_weight) == [0.5, 1.5]
    costed.partition_penalized()
    assert list(costed.penalized) == [False, True]
    with pytest.raises(ConfigError):
        DhspgOptimizer(x0, flat_groups([1, 1]), cfg, group_costs=[1.0])


# -- penalty interval -----------------------------------------------------------

def lambda_interval(cos_theta: float, grad_norm: float):
    """Admissible penalty interval (lo, hi), or None when any positive value
    keeps the direction inside both half-spaces (cos_theta >= 0); the
    interval ``choose_penalty`` picks from."""
    if cos_theta >= 0.0:
        return None
    return -cos_theta * grad_norm, -grad_norm / cos_theta


def test_lambda_interval_values():
    assert lambda_interval(-0.5, 2.0) == (1.0, 4.0)
    lo, hi = lambda_interval(-1.0, 3.0)
    assert lo == pytest.approx(3.0) and hi == pytest.approx(3.0)
    assert lambda_interval(0.2, 2.0) is None


def test_choose_penalty_amplify_and_project_back():
    assert choose_penalty(-0.5, 2.0, 1e-3, 2.0) == pytest.approx(2.0)
    assert choose_penalty(-0.9, 1.0, 1e-3, 2.0) == pytest.approx(1.0 / 0.9)
    assert choose_penalty(0.3, 2.0, 1e-3, 2.0) == pytest.approx(1e-3)
    assert choose_penalty(-1.0, 3.0, 1e-3, 2.0) == pytest.approx(3.0)


# -- direction --------------------------------------------------------------

def direction_for(x_g, grad_g, penalty):
    cfg = OptimizerConfig(target_zero_groups=1, warmup_steps=0,
                          project_start_step=0)
    opt = DhspgOptimizer(np.asarray(x_g, float), [np.arange(len(x_g))], cfg)
    opt.penalized[0] = True
    opt.penalty[0] = penalty
    return opt.direction(np.asarray(grad_g, float), opt.x, np.array([opt.x @ opt.x]))


def test_direction_antiparallel_stall():
    d = direction_for([1.0, 0.0], [-1.0, 0.0], penalty=1.0)
    assert np.abs(d).max() < 1e-12  # the degenerate cos=-1 boundary case


def test_direction_in_both_halfspaces():
    d = direction_for([0.0, 1.0], [1.0, 0.0], penalty=1e-3)
    assert np.allclose(d, [-1.0, -1e-3])
    assert np.dot(d, [-1.0, 0.0]) > 0  # descends f
    assert np.dot(d, [0.0, -1.0]) > 0  # descends the magnitude


def test_direction_dual_halfspace_randomized():
    rng = np.random.default_rng(123)
    cfg = OptimizerConfig()
    hits = 0
    for _ in range(1000):
        x_g = rng.normal(size=8)
        grad_g = rng.normal(size=8)
        cos = cosine(x_g, grad_g, cfg.norm_floor)
        interval = lambda_interval(cos, float(np.linalg.norm(grad_g)))
        if interval is None:
            lam = cfg.default_penalty
        else:
            lo, hi = interval
            lam = 0.5 * (lo + hi)  # strictly interior
        d = direction_for(x_g, grad_g, lam)
        if np.dot(d, -grad_g) > 0 and np.dot(d, -x_g) > 0:
            hits += 1
    assert hits == 1000


# -- half-space projection ------------------------------------------------------

def project_case(x_g, trial_g, eps):
    cfg = OptimizerConfig(target_zero_groups=1, project_epsilon=eps)
    opt = DhspgOptimizer(np.asarray(x_g, float), [np.arange(len(x_g))], cfg)
    opt.penalized[0] = True
    opt.halfspace_project(np.asarray(trial_g, float), opt.x, np.array([opt.x @ opt.x]))
    return opt


def test_project_negative_inner_product_zeros_group():
    opt = project_case([1.0, 0.0], [-0.1, 0.05], eps=0.0)
    assert np.array_equal(opt.x, [0.0, 0.0])
    assert opt.frozen[0]


def test_project_positive_inner_product_keeps_trial():
    opt = project_case([1.0, 0.0], [0.5, 0.2], eps=0.0)
    assert np.array_equal(opt.x, [0.5, 0.2])
    assert not opt.frozen[0]


def test_project_threshold_case():
    opt = project_case([1.0, 0.0], [0.5, 0.0], eps=0.9)
    assert np.array_equal(opt.x, [0.0, 0.0])


def test_projection_stops_at_target():
    cfg = OptimizerConfig(target_zero_groups=1, project_epsilon=0.0)
    opt = DhspgOptimizer(np.array([1.0, 1.0]), flat_groups([1, 1]), cfg)
    opt.penalized[:] = True
    opt.halfspace_project(np.array([-0.5, -0.5]), opt.x, opt.x ** 2)
    assert opt.zero_group_count() == 1  # second group kept despite the exit


# -- end-to-end behavior on a synthetic least-squares problem ------------------

def lsq_problem(seed=0, m=200, groups=8, size=4, support=(0, 3, 5)):
    rng = np.random.default_rng(seed)
    n = groups * size
    X = rng.normal(size=(m, n))
    w = np.zeros(n)
    for gi in support:
        w[gi * size:(gi + 1) * size] = rng.normal(1.0, 0.2, size)
    y = X @ w
    return X, y, flat_groups([size] * groups)


def run_training(opt, X, y, epochs=40, batch=32, seed=1):
    rng = np.random.default_rng(seed)
    m = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(m)
        for lo in range(0, m, batch):
            idx = order[lo:lo + batch]
            r = X[idx] @ opt.x - y[idx]
            opt.step(X[idx].T @ r / len(idx))
    return opt


def test_exact_target_count_on_group_sparse_lsq():
    X, y, groups = lsq_problem()
    spe = (X.shape[0] + 31) // 32
    cfg = OptimizerConfig(learning_rate=0.05, momentum=0.9,
                          target_zero_groups=5, warmup_steps=5 * spe,
                          project_start_step=5 * spe, lr_period_epochs=40,
                          default_penalty=0.1)
    opt = DhspgOptimizer(np.zeros(X.shape[1]) + 0.1, groups, cfg,
                         steps_per_epoch=spe)
    run_training(opt, X, y)
    assert opt.zero_group_count() == 5
    # groups with real support survive
    for gi in (0, 3, 5):
        assert np.linalg.norm(opt.x[groups[gi]]) > 0.5


def test_frozen_groups_never_reactivate():
    X, y, groups = lsq_problem(seed=3)
    spe = (X.shape[0] + 31) // 32
    cfg = OptimizerConfig(learning_rate=0.05, momentum=0.9,
                          target_zero_groups=4, warmup_steps=2 * spe,
                          project_start_step=2 * spe, lr_period_epochs=40,
                          default_penalty=0.1)
    opt = DhspgOptimizer(np.zeros(X.shape[1]) + 0.1, groups, cfg,
                         steps_per_epoch=spe)
    rng = np.random.default_rng(1)
    m = X.shape[0]
    frozen_history = []
    for _ in range(60):
        order = rng.permutation(m)
        for lo in range(0, m, 32):
            idx = order[lo:lo + 32]
            opt.step(X[idx].T @ (X[idx] @ opt.x - y[idx]) / len(idx))
            frozen_now = frozenset(np.flatnonzero(opt.frozen).tolist())
            frozen_history.append(frozen_now)
            for i in frozen_now:
                assert not opt.x[groups[i]].any()
    for earlier, later in zip(frozen_history, frozen_history[1:]):
        assert earlier <= later


def test_k_zero_reduces_to_momentum_sgd():
    X, y, groups = lsq_problem(seed=5)
    cfg = OptimizerConfig(learning_rate=0.05, momentum=0.9, target_zero_groups=0,
                          warmup_steps=0, project_start_step=0)
    opt = DhspgOptimizer(np.full(X.shape[1], 0.1), groups, cfg, steps_per_epoch=7)
    sgd = DhspgOptimizer(np.full(X.shape[1], 0.1), groups,
                         OptimizerConfig(learning_rate=0.05, momentum=0.9, mode="sgd"),
                         steps_per_epoch=7)
    run_training(opt, X, y, epochs=10, seed=2)
    run_training(sgd, X, y, epochs=10, seed=2)
    assert np.array_equal(opt.x, sgd.x)


def test_hspg_zero_lambda_equals_sgd():
    X, y, groups = lsq_problem(seed=6)
    hspg = DhspgOptimizer(np.full(X.shape[1], 0.1), groups,
                          OptimizerConfig(learning_rate=0.05, momentum=0.9,
                                          mode="hspg", global_penalty=0.0,
                                          warmup_steps=0, project_start_step=0),
                          steps_per_epoch=7)
    sgd = DhspgOptimizer(np.full(X.shape[1], 0.1), groups,
                         OptimizerConfig(learning_rate=0.05, momentum=0.9, mode="sgd"),
                         steps_per_epoch=7)
    run_training(hspg, X, y, epochs=5, seed=4)
    run_training(sgd, X, y, epochs=5, seed=4)
    # no regularization pull and trials keep positive inner products here
    assert np.abs(hspg.x - sgd.x).max() < 1e-12


def test_hspg_deterministic_for_fixed_seed():
    X, y, groups = lsq_problem(seed=7)
    def run():
        opt = DhspgOptimizer(np.full(X.shape[1], 0.1), groups,
                             OptimizerConfig(learning_rate=0.05, momentum=0.9,
                                             mode="hspg", global_penalty=0.1,
                                             warmup_steps=10, project_start_step=10),
                             steps_per_epoch=7)
        return run_training(opt, X, y, epochs=8, seed=9).x
    assert np.array_equal(run(), run())


def test_null_phase_step_is_half_the_first_period():
    # lr_period_epochs 10 at 3 steps an epoch: a null step is step 15
    groups = flat_groups([2, 2])
    cfg = OptimizerConfig(warmup_steps=5)
    opt = DhspgOptimizer(np.ones(4), groups, cfg, steps_per_epoch=3)
    assert (opt.cfg.warmup_steps, opt.cfg.project_start_step) == (5, 15)
    assert cfg.project_start_step is None  # the caller's config is left as it was
    opt = DhspgOptimizer(np.ones(4), groups, OptimizerConfig(), steps_per_epoch=3)
    assert (opt.cfg.warmup_steps, opt.cfg.project_start_step) == (15, 15)
    opt = DhspgOptimizer(np.ones(4), groups, OptimizerConfig(project_start_step=8))
    assert (opt.cfg.warmup_steps, opt.cfg.project_start_step) == (5, 8)
    with pytest.raises(ConfigError, match="warmup_steps"):
        DhspgOptimizer(np.ones(4), groups, OptimizerConfig(warmup_steps=16), steps_per_epoch=3)


def test_null_projection_start_holds_projection_back():
    # group 0 is penalized at step 0 and every trial step crosses zero, but
    # with projection_start_step null (half of the 10-epoch first period,
    # one step an epoch) it is projected only at step 5
    cfg = OptimizerConfig(warmup_steps=0, target_zero_groups=1, learning_rate=0.5,
                          momentum=0.0)
    opt = DhspgOptimizer(np.array([1.0, 10.0]), flat_groups([1, 1]), cfg)
    zeros = []
    for _ in range(7):
        opt.step(np.array([4.0 * np.sign(opt.x[0]), 0.0]))
        zeros.append(opt.zero_group_count())
    assert zeros == [0, 0, 0, 0, 0, 1, 1]


def test_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(project_epsilon=1.0).validate()
    with pytest.raises(ConfigError):
        OptimizerConfig(warmup_steps=5, project_start_step=2).validate()
    with pytest.raises(ConfigError):
        OptimizerConfig(mode="adam").validate()


# -- reference oracle: the per-group loop the array optimizer replaced -------

class ReferenceDhspg:
    """Test-only copy of the per-group DHSPG: one Python loop per group for
    velocity zeroing, penalty choice, direction and projection."""

    def __init__(self, x0, groups, cfg, steps_per_epoch=1,
                 group_components=None, group_costs=None):
        self.cfg, self.t = cfg, 0
        self.x = np.asarray(x0, float).copy()
        self.velocity = np.zeros_like(self.x)
        self.groups = [np.asarray(ix, dtype=np.intp) for ix in groups]
        n = len(groups)
        self.component = list(group_components or [-1] * n)
        self.floor_components = group_components is not None
        self.cost_weight = [1.0] * n
        if group_costs is not None and np.mean(group_costs) > 0:
            self.cost_weight = [float(c) / float(np.mean(group_costs)) for c in group_costs]
        self.cos_theta, self.salience, self.penalty = [0.0] * n, [0.0] * n, [0.0] * n
        self.penalized, self.frozen = [False] * n, [False] * n
        self.steps_per_epoch = max(1, steps_per_epoch)
        self.partitioned = False

    def learning_rate(self):
        epoch = self.t // self.steps_per_epoch
        lr = self.cfg.learning_rate * self.cfg.lr_decay ** (epoch // self.cfg.lr_period_epochs)
        return max(lr, self.cfg.lr_floor)

    def cosine(self, x_g, g_g):
        floor = self.cfg.norm_floor
        denom = max(float(np.linalg.norm(x_g)), floor) * max(float(np.linalg.norm(g_g)), floor)
        return float(np.clip(np.dot(x_g, g_g) / denom, -1.0, 1.0))

    def zero_group_count(self):
        return sum(1 for ix in self.groups if not self.x[ix].any())

    def partition(self, grad_est):
        cfg, n = self.cfg, len(self.groups)
        mags = [float(np.linalg.norm(self.x[ix])) for ix in self.groups]
        top = max(max(mags), cfg.norm_floor) if mags else cfg.norm_floor
        for i, ix in enumerate(self.groups):
            self.cos_theta[i] = self.cosine(self.x[ix], grad_est[ix])
            self.salience[i] = self.cost_weight[i] * (
                cfg.salience_cos_weight * self.cos_theta[i]
                + cfg.salience_mag_weight * (1.0 - mags[i] / top))
        remaining = {}
        for c in self.component:
            remaining[c] = remaining.get(c, 0) + 1
        chosen = 0
        for i in sorted(range(n), key=lambda i: (-self.salience[i], i)):
            if chosen == cfg.target_zero_groups:
                break
            if self.floor_components and remaining[self.component[i]] <= 1:
                continue
            self.penalized[i] = True
            chosen += 1
            remaining[self.component[i]] -= 1

    def step(self, grad):
        cfg = self.cfg
        alpha = self.learning_rate()
        if cfg.mode == "sgd" or self.t < (cfg.warmup_steps or 0):
            self.velocity = cfg.momentum * self.velocity + grad
            self.x = self.x - alpha * self.velocity
            self.t += 1
            return
        if not self.partitioned:
            if cfg.mode == "hspg":
                self.penalized = [True] * len(self.groups)
            else:
                self.partition(cfg.momentum * self.velocity + grad)
            self.partitioned = True
        self.velocity = cfg.momentum * self.velocity + grad
        for i, ix in enumerate(self.groups):
            if self.frozen[i]:
                self.velocity[ix] = 0.0
        d = -self.velocity.copy()
        for i, ix in enumerate(self.groups):
            if self.frozen[i]:
                d[ix] = 0.0
            elif self.penalized[i]:
                x_g, g_g = self.x[ix], self.velocity[ix]
                self.cos_theta[i] = cos = self.cosine(x_g, g_g)
                g_norm = float(np.linalg.norm(g_g))
                if cfg.mode == "hspg":
                    self.penalty[i] = cfg.global_penalty
                elif cos >= 0.0:
                    self.penalty[i] = cfg.default_penalty
                else:
                    self.penalty[i] = min(cfg.penalty_amplify * -cos * g_norm, -g_norm / cos)
                d[ix] -= self.penalty[i] / max(float(np.linalg.norm(x_g)), cfg.norm_floor) * x_g
        trial = self.x + alpha * d
        if self.t >= (cfg.project_start_step or 0):
            achieved = self.zero_group_count()
            for i, ix in enumerate(self.groups):
                if not self.penalized[i] or self.frozen[i]:
                    continue
                if cfg.mode == "dhspg" and achieved >= cfg.target_zero_groups:
                    break
                x_g = self.x[ix]
                if np.dot(x_g, trial[ix]) < cfg.project_epsilon * np.dot(x_g, x_g):
                    trial[ix] = 0.0
                    self.velocity[ix] = 0.0
                    self.frozen[i] = True
                    achieved += 1
        self.x = trial
        self.t += 1


def scattered_problem(seed, sizes, n_free, planted):
    """Quadratic 1/2 sum d_i (x_i - x*_i)^2 over groups of the given sizes
    laid on a shuffled index set, plus n_free coordinates in no group; the
    planted groups have x* = 0."""
    rng = np.random.default_rng(seed)
    n = sum(sizes) + n_free
    perm = rng.permutation(n)
    groups = np.split(perm[:sum(sizes)], np.cumsum(sizes)[:-1])
    x_star = rng.normal(size=n)
    for i in planted:
        x_star[groups[i]] = 0.0
    return groups, x_star, rng.uniform(0.5, 1.5, size=n), rng.normal(size=n)


ORACLE_CASES = {
    "dhspg-momentum": dict(cfg=dict(momentum=0.9), k=3),
    "dhspg-no-momentum": dict(cfg=dict(momentum=0.0), k=3),
    "dhspg-cosine-salience": dict(cfg=dict(salience_cos_weight=1.0, salience_mag_weight=0.0), k=3),
    "dhspg-magnitude-salience": dict(cfg=dict(salience_cos_weight=0.0, salience_mag_weight=1.0,
                                              momentum=0.0), k=4),
    "dhspg-costs": dict(cfg={}, k=3, costs=True),
    "dhspg-component-floor": dict(cfg={}, k=4, components=True),
    "dhspg-epsilon": dict(cfg=dict(project_epsilon=0.4), k=3),
    "hspg-momentum": dict(cfg=dict(mode="hspg", global_penalty=0.3), k=0),
    "hspg-no-momentum": dict(cfg=dict(mode="hspg", global_penalty=0.3, momentum=0.0,
                                      project_epsilon=0.2), k=0),
    "sgd": dict(cfg=dict(mode="sgd"), k=0),
}


def run_against_reference(seed, case, sizes=(3, 1, 5, 2, 4, 2, 6, 1), n_free=5,
                          planted=(1, 3, 4, 6), steps=80, x0_zero=()):
    groups, x_star, curvature, x0 = scattered_problem(seed, sizes, n_free, planted)
    x0[np.concatenate([groups[i] for i in x0_zero] or [[]]).astype(int)] = 0.0
    cfg = OptimizerConfig(**{**dict(learning_rate=0.1, lr_decay=0.5, lr_period_epochs=20,
                                    warmup_steps=10, project_start_step=15,
                                    default_penalty=1.0, target_zero_groups=case["k"]),
                             **case["cfg"]})
    extra = {}
    if case.get("costs"):
        extra["group_costs"] = list(np.random.default_rng(seed).uniform(0, 3, len(sizes)))
    if case.get("components"):
        extra["group_components"] = [i % 3 for i in range(len(sizes))]
    opt = DhspgOptimizer(x0, groups, cfg, steps_per_epoch=7, **extra)
    ref = ReferenceDhspg(x0, groups, cfg, steps_per_epoch=7, **extra)
    for _ in range(steps):
        grad = curvature * (ref.x - x_star)
        opt.step(grad.copy())
        ref.step(grad)
        assert np.abs(opt.x - ref.x).max() <= 1e-12
        assert list(opt.penalized) == ref.penalized
        assert list(opt.frozen) == ref.frozen
        for i in np.flatnonzero(opt.frozen):
            assert not opt.x[groups[i]].any() and not opt.velocity[groups[i]].any()
    return opt, ref


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_matches_per_group_reference(name, seed):
    opt, ref = run_against_reference(seed, ORACLE_CASES[name])
    assert opt.zero_group_count() == ref.zero_group_count()
    assert opt.frozen.any() == (name != "sgd")
    assert opt.penalty_stats()["penalty_mean"] == pytest.approx(
        np.mean([p for p, on, fz in zip(ref.penalty, ref.penalized, ref.frozen)
                 if on and not fz] or [0.0]), abs=1e-12)


def test_projection_cap_counts_zero_groups_in_group_order():
    # group 7 starts at zero and costs nothing, so it is never penalized but
    # counts toward the target: when the four planted groups leave the
    # half-space on the same step, only the first three in group order freeze
    case = dict(cfg=dict(momentum=0.0, learning_rate=0.5, lr_decay=1.0,
                         salience_cos_weight=0.0, salience_mag_weight=1.0), k=4)
    groups, x_star, curvature, x0 = scattered_problem(4, (3, 1, 5, 2, 4, 2, 6, 1), 5,
                                                      (1, 3, 4, 6))
    x0[groups[7]] = 0.0
    x_star[groups[7]] = 0.0
    cfg = OptimizerConfig(**{**dict(warmup_steps=10, project_start_step=10,
                                    default_penalty=0.3, target_zero_groups=4),
                             **case["cfg"]})
    costs = [1.0] * 7 + [0.0]
    opt = DhspgOptimizer(x0, groups, cfg, group_costs=costs)
    ref = ReferenceDhspg(x0, groups, cfg, group_costs=costs)
    frozen_counts = []
    for _ in range(30):
        grad = curvature * (ref.x - x_star)
        opt.step(grad.copy())
        ref.step(grad)
        assert np.abs(opt.x - ref.x).max() <= 1e-12
        assert list(opt.frozen) == ref.frozen
        frozen_counts.append(int(opt.frozen.sum()))
    assert frozen_counts[10] == 3 and frozen_counts[-1] == 3  # cap bit on one step
    assert list(np.flatnonzero(opt.frozen)) == [1, 3, 4]
    assert opt.zero_group_ids() == [1, 3, 4, 7]


# -- loud failures ---------------------------------------------------------------

@pytest.mark.parametrize("groups", [
    [np.arange(2), np.arange(2, 2)],      # a group with no indices
    [np.arange(2), np.array([2, 4])],     # an index outside x0
    [np.arange(2), np.array([-1])],       # a negative index
    [np.arange(2), np.array([1, 2])],     # index 1 in two groups
])
def test_malformed_groups_raise(groups):
    with pytest.raises(ConfigError):
        DhspgOptimizer(np.ones(4), groups, OptimizerConfig())


@pytest.mark.parametrize("mode", ["dhspg", "hspg", "sgd"])
def test_no_groups_at_all(mode):
    cfg = OptimizerConfig(mode=mode, warmup_steps=1, project_start_step=1)
    opt = DhspgOptimizer(np.ones(3), [], cfg, group_components=[], group_costs=[])
    for _ in range(3):
        opt.step(np.full(3, 0.5))
    assert opt.zero_group_count() == 0 and opt.zero_group_ids() == []
    assert opt.group_sparsity() == 0.0
    assert opt.penalty_stats()["penalty_mean"] == 0.0
    assert np.all(opt.x < 1.0)
