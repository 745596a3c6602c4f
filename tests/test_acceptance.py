"""Acceptance suite.

One test (or test group) per exit criterion, each at its stated tolerance:

  1 oracle suite (fast): Tweedie vs conjugate posterior mean <= 1e-10;
    mixture score vs finite differences rel. err <= 1e-6 at 100 points;
    mask orthogonality exact and adjoint identity <= 1e-12; control-energy
    decomposition <= 1e-12.
  2 gradient suite: backward vs central finite differences on random MLPs
    and on a K=5, d=2, N=2 rollout (rel. err <= 1e-3); zero score-network
    gradient through the learned-control guidance path.
  3 dynamics suite: uncontrolled sampling of N(0, I) lands on N(0, I)
    (mean within 3 SE, variance within 5% at 1e4 samples); a zero control
    reproduces the uncontrolled trajectory bit for bit under paired noise.
  4 smoke optimization: on the 2-D mixture task, joint and control-wise
    training each cut the objective by >= 50% within 200 updates; inactive
    agents stay frozen throughout control-wise sweeps.
  5 directional comparison: on the 16x16 shapes task with two agents, both
    learned-control modes reach strictly lower mean terminal cost than the
    gradient-guidance baseline over 1024 paired samples, and all three
    methods classify >= 90% into the target class.
  6 product-of-experts bias: the naive score-sum variance for two
    standard normal experts is compared with the exact product variance
    0.5: it must miss that value by more than the +/- 5% band and land on
    1/(2n - 1) = 1/3; on disjoint-mode mixtures the naive sampler scores
    lower true-product log-density than direct product samples.
  7 reproducibility: identical config and seed give byte-identical
    metric files (across BLAS thread counts too, which
    tests/test_artifact_digests.py checks in two processes).
"""
import numpy as np
import pytest

from coopdiff import tape
from coopdiff.aggregation import aggregate, make_mask, scatter_adjoint
from coopdiff.control import eval_control, make_policy, tweedie_guidance
from coopdiff.costs import QuadraticWell, SocConfig
from coopdiff.nn import Mlp
from coopdiff.optimize import (
    TrainPlan,
    bptt_rollout,
    controlwise_ido,
    joint_ido,
    sample_poe_naive,
    sample_uncontrolled,
)
from coopdiff.scores import (
    AnalyticGmmScore,
    GaussianMixture,
    MlpScore,
    gmm_score,
    tweedie,
)
from coopdiff.sde import (
    NoiseSchedule,
    NoiseStream,
    derive_rng,
    make_time_grid,
    marginal_coeffs,
)
from coopdiff.harness import (
    build_assets,
    parse_config_text,
    run_experiment,
    with_overrides,
)
from guidance_replay import record_guidance, replay_guidance
import opgraphs as ops
from oracles import (
    ZeroCost,
    gmm_diffused,
    gmm_log_density,
    gmm_sample,
    masked_control_energy,
    sample_reverse_sde,
    selection_matrix,
)
from rollout_history import recorded

SCHEDULE = NoiseSchedule()


# ---------------------------------------------------------------------------
# criterion 1: oracle suite
# ---------------------------------------------------------------------------

def test_criterion1_tweedie_matches_conjugate_posterior_mean():
    mu0 = np.array([1.3, -0.4])
    gmm = GaussianMixture(weights=[1.0], means=[mu0], variances=[1.0])
    rng = derive_rng(100, 0)
    for t in rng.uniform(0.01, 1.0, size=25):
        alpha, sigma = marginal_coeffs(SCHEDULE, t)
        x = rng.standard_normal((16, 2)) * 2.0
        score = gmm_score(gmm, x, float(t), SCHEDULE)[0]
        got = tweedie(x, float(t), score, SCHEDULE)
        want = alpha * x + sigma ** 2 * mu0  # conjugate-Gaussian E[x0 | x_t]
        assert np.max(np.abs(got - want)) <= 1e-10


def test_criterion1_gmm_score_vs_finite_differences():
    gmm = GaussianMixture(
        weights=[0.2, 0.5, 0.3],
        means=[[0.5, 1.0], [-1.5, 0.0], [1.0, -2.0]],
        variances=[0.4, 1.0, 0.6],
    )
    rng = derive_rng(100, 1)
    h = 1e-6
    for _ in range(100):
        t = float(rng.uniform(0.0, 1.0))
        x = rng.standard_normal(2) * 2.0
        mix = gmm_diffused(gmm, t, SCHEDULE)
        s = gmm_score(gmm, x[None, :], t, SCHEDULE)[0][0]
        for i in range(2):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (gmm_log_density(mix, xp[None, :])[0]
                  - gmm_log_density(mix, xm[None, :])[0]) / (2 * h)
            assert abs(fd - s[i]) / max(abs(fd), abs(s[i]), 1e-12) <= 1e-6


def test_criterion1_mask_orthogonality_and_adjoint_identity():
    for preset, n, d, hw in (("h-stripes", 3, 256, (16, 16)),
                             ("halves", 2, 10, None),
                             ("v-stripes", 4, 64, (8, 8))):
        agg = make_mask(preset, n, d, image_hw=hw)
        m = selection_matrix(agg)
        assert np.array_equal(m @ m.T, np.eye(d))  # exact, integer entries
        rng = derive_rng(100, 2)
        xs = [rng.standard_normal((5, d)) for _ in range(n)]
        g = rng.standard_normal((5, d))
        lhs = float((aggregate(agg, xs) * g).sum())
        rhs = float(sum((x * s).sum()
                        for x, s in zip(xs, scatter_adjoint(agg, g))))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_criterion1_control_energy_decomposition():
    rng = derive_rng(100, 3)
    agg = make_mask("h-stripes", 3, 256, image_hw=(16, 16))
    us = [rng.standard_normal((8, 256)) for _ in range(3)]
    masked = masked_control_energy(agg, us)
    restricted = float(
        sum(((u * agg.masks[i]) ** 2).sum() for i, u in enumerate(us))
    )
    assert abs(masked - restricted) <= 1e-12 * max(1.0, masked)


# ---------------------------------------------------------------------------
# criterion 2: gradient suite
# ---------------------------------------------------------------------------

def _central_diff(forward, param, idx, h):
    orig = param.value.copy()
    up = orig.copy()
    up.reshape(-1)[idx] += h
    param.value = up
    fp = forward()
    dn = orig.copy()
    dn.reshape(-1)[idx] -= h
    param.value = dn
    fm = forward()
    param.value = orig
    return (fp - fm) / (2 * h)


def test_criterion2_mlp_backward_vs_finite_differences():
    rng = derive_rng(101, 0)
    for sizes in ([3, 16, 16, 2], [4, 8, 1], [2, 32, 32, 2]):
        mlp = Mlp(sizes, derive_rng(101, sizes[0]))
        x = rng.standard_normal((4, sizes[0]))

        def loss():
            out = ops.mlp_node(mlp, x)
            return ops.reduce_sum(ops.mul(out, out))

        root = loss()
        ops.backward(root)
        check_rng = np.random.default_rng(0)
        for p in mlp.params():
            for idx in check_rng.choice(p.value.size,
                                        size=min(4, p.value.size),
                                        replace=False):
                fd = _central_diff(lambda: loss().value.item(), p, idx, 1e-5)
                an = p.grad.reshape(-1)[idx]
                if abs(fd) > 1e-10 or abs(an) > 1e-10:
                    assert abs(fd - an) / max(abs(fd), abs(an)) <= 1e-3


def test_criterion2_rollout_backward_vs_finite_differences(monkeypatch):
    # K = 5, d = 2, N = 2 coupled rollout, guidance frozen at base values
    # (stopgrad makes the guidance a constant of the function backward
    # differentiates)
    gmm = GaussianMixture(weights=[0.5, 0.5], means=[[-1.0, 0.0], [1.0, 0.0]],
                          variances=[0.3, 0.3])
    score = AnalyticGmmScore(gmm, SCHEDULE)
    agg = make_mask("halves", 2, 2)
    cfg = SocConfig(control_weight=0.4, running_scale=0.6)
    psi = QuadraticWell(np.array([1.0, -0.5]))
    grid = make_time_grid(5, 1e-3)
    policies = [
        make_policy(2, i, derive_rng(101, 10 + i), hidden=(6,),
                    gain_hidden=(4,), guidance_gain_init=-0.5)
        for i in range(2)
    ]
    noise = NoiseStream(7)
    frozen = record_guidance(monkeypatch)
    root, _ = bptt_rollout(policies, score, agg, cfg, grid, psi, SCHEDULE,
                           noise, batch=2)
    tape.backward(root)
    params = [p for pol in policies for p in pol.params()]
    grads = [p.grad.copy() for p in params]
    replay_guidance(monkeypatch, frozen)

    def forward():
        value, _ = bptt_rollout(policies, score, agg, cfg, grid, psi,
                                SCHEDULE, noise, batch=2)
        return value.value.item()

    check_rng = np.random.default_rng(1)
    worst = 0.0
    for p, g in zip(params, grads):
        for idx in check_rng.choice(p.value.size, size=min(3, p.value.size),
                                    replace=False):
            fd = _central_diff(forward, p, idx, 1e-6)
            an = g.reshape(-1)[idx]
            # below ~1e-7 central differences of an O(10) objective are
            # pure cancellation noise (eps * |J| / h ~ 1e-9)
            if max(abs(fd), abs(an)) < 1e-7:
                continue
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
    assert worst <= 1e-3, worst


def test_criterion2_stopgrad_isolates_score_network(monkeypatch):
    # (a) standalone guidance assembly: the score network receives zero
    # adjoint when its only connection to the loss is the guidance input
    agg = make_mask("halves", 2, 2)
    psi = QuadraticWell(np.array([0.3, -0.3]))
    net = MlpScore(2, (16,), 8, derive_rng(101, 20), schedule=SCHEDULE)
    policy = make_policy(2, 0, derive_rng(101, 21), hidden=(8,),
                         guidance_gain_init=-1.0)
    rng = derive_rng(101, 22)
    xs = [ops.constant(rng.standard_normal((3, 2))) for _ in range(2)]
    scores = [ops.score_node(net, x, 0.5) for x in xs]
    x0h = [ops.tweedie(x, 0.5, s, SCHEDULE) for x, s in zip(xs, scores)]
    _, grad = tweedie_guidance(psi,
                               ops.aggregate(agg, ops.stack(x0h)).value)
    u = eval_control(policy, xs[0], xs[1], 0.5, scatter_adjoint(agg, grad)[0])
    ops.backward(ops.reduce_sum(ops.mul(u, u)))
    assert all(p.grad is None or np.all(p.grad == 0.0) for p in net.params())
    assert any(np.any(p.grad != 0.0) for p in policy.params()
               if p.grad is not None)

    # (b) full rollout: replacing the live guidance computation by its
    # captured values leaves every score-parameter gradient bit-identical,
    # so the guidance path contributes exactly zero adjoint
    agg1 = make_mask("halves", 2, 2)
    cfg = SocConfig(control_weight=0.2, running_scale=0.5)
    grid = make_time_grid(4, 1e-2)
    policies = [
        make_policy(2, i, derive_rng(101, 30 + i), hidden=(6,),
                    guidance_gain_init=-0.5)
        for i in range(2)
    ]
    noise = NoiseStream(8)
    captured = record_guidance(monkeypatch)
    root, _ = bptt_rollout(policies, net, agg1, cfg, grid, psi, SCHEDULE,
                           noise, batch=2)
    tape.backward(root)
    live_grads = [p.grad.copy() for p in net.params()]
    replay_guidance(monkeypatch, captured)
    root2, _ = bptt_rollout(policies, net, agg1, cfg, grid, psi, SCHEDULE,
                            noise, batch=2)
    tape.backward(root2)
    for a, p in zip(live_grads, net.params()):
        assert np.array_equal(a, p.grad)


# ---------------------------------------------------------------------------
# criterion 3: dynamics suite
# ---------------------------------------------------------------------------

def test_criterion3_uncontrolled_standard_normal_marginals():
    gmm = GaussianMixture(weights=[1.0], means=[[0.0, 0.0]], variances=[1.0])
    score = AnalyticGmmScore(gmm, SCHEDULE)
    grid = make_time_grid(500, 1e-3)
    n = 10_000
    x = sample_reverse_sde(score, grid, SCHEDULE, seed=33, batch=n, dim=2)
    se = 1.0 / np.sqrt(n)
    assert np.all(np.abs(x.mean(axis=0)) <= 3 * se), x.mean(axis=0)
    var = x.var(axis=0)
    assert np.all(np.abs(var - 1.0) <= 0.05), var


def test_criterion3_zero_control_is_bit_exact_uncontrolled():
    gmm = GaussianMixture(weights=[0.5, 0.5], means=[[-1.0, 0.0], [1.0, 0.0]],
                          variances=[0.25, 0.25])
    score = AnalyticGmmScore(gmm, SCHEDULE)
    agg = make_mask("halves", 2, 2)
    cfg = SocConfig(control_weight=1.0, running_scale=1.0)
    psi = QuadraticWell(np.array([1.0, 1.0]))
    grid = make_time_grid(60, 1e-3)
    policies = [
        make_policy(2, i, derive_rng(102, i), guidance_gain_init=0.0)
        for i in range(2)
    ]
    with recorded(grid) as controlled:
        bptt_rollout(policies, score, agg, cfg, grid, psi, SCHEDULE,
                     NoiseStream(12), batch=64)
    with recorded(grid) as uncontrolled:
        sample_uncontrolled(score, agg, cfg, grid, psi, SCHEDULE, seed=12,
                            batch=64)
    assert len(controlled.states) == len(uncontrolled.states) == grid.steps
    for k in range(len(controlled.states)):
        for i in range(2):
            assert np.array_equal(controlled.states[k][i],
                                  uncontrolled.states[k][i]), (k, i)


# ---------------------------------------------------------------------------
# criterion 4: smoke optimization on the 2-D mixture task
# ---------------------------------------------------------------------------

SMOKE_SEED = 11


def _smoke_setup():
    gmm = GaussianMixture(weights=[0.5, 0.5], means=[[-1.2, 0.0], [1.2, 0.0]],
                          variances=[0.25, 0.25])
    score = AnalyticGmmScore(gmm, SCHEDULE)
    agg = make_mask("halves", 2, 2)
    cfg = SocConfig(control_weight=0.05, running_scale=0.1)
    psi = QuadraticWell(np.array([2.0, -1.5]))
    grid = make_time_grid(30, 1e-3)
    return score, agg, cfg, psi, grid


def _smoke_policies():
    return [
        make_policy(2, i, derive_rng(7, 100 + i), hidden=(32, 32),
                    gain_hidden=(16,))
        for i in range(2)
    ]


def _reduction(curve):
    objectives = [c.objective for c in curve]
    initial = float(np.mean(objectives[:10]))
    final = float(np.mean(objectives[-10:]))
    return initial, final


def test_criterion4_joint_ido_halves_objective():
    score, agg, cfg, psi, grid = _smoke_setup()
    plan = TrainPlan(updates=200, batch=48, lr=4e-2)
    curve = joint_ido(plan, _smoke_policies(), score, agg, cfg, grid, psi,
                      SCHEDULE, seed=SMOKE_SEED)
    initial, final = _reduction(curve)
    assert final <= 0.5 * initial, (initial, final)
    # smoothed curve decreases end to end
    smooth = np.convolve([c.objective for c in curve],
                         np.ones(20) / 20, mode="valid")
    assert smooth[-1] < smooth[0]


def test_criterion4_controlwise_ido_halves_objective_and_freezes():
    score, agg, cfg, psi, grid = _smoke_setup()
    plan = TrainPlan(outer_iters=20, inner_steps=5,
                     batch=48, lr=4e-2)
    policies = _smoke_policies()
    snapshots = []

    def on_update(update, pols):
        snapshots.append(
            (update, [[p.value.copy() for p in pol.params()] for pol in pols])
        )

    curve = controlwise_ido(plan, policies, score, agg, cfg, grid, psi,
                            SCHEDULE, seed=SMOKE_SEED, on_update=on_update)
    assert len(curve) == 200
    initial, final = _reduction(curve)
    assert final <= 0.5 * initial, (initial, final)

    # freeze assertions across all 200 updates: within an agent's inner
    # block the other agent's parameters never move
    m = plan.inner_steps
    for (u_prev, prev), (u_next, cur) in zip(snapshots, snapshots[1:]):
        active = (u_next // m) % 2
        if (u_prev // m) % 2 != active:
            continue  # block boundary
        for agent in range(2):
            if agent == active:
                continue
            for a, b in zip(prev[agent], cur[agent]):
                assert np.array_equal(a, b), (
                    f"agent {agent} drifted during update {u_next}"
                )


# ---------------------------------------------------------------------------
# criterion 5: directional comparison on the shapes task
# ---------------------------------------------------------------------------

SHAPES_BASE = """
task = shapes16
method = cdps
seed = 5
num_agents = 2
mask = h-stripes
grid.steps = 80
grid.eps = 0.02
soc.control_weight = 0.00001
soc.running_scale = 1.0
soc.seam_beta = 0.05
soc.seam_gamma = 0.05
soc.target_class = cross
plan.updates = 250
plan.outer_iters = 25
plan.inner_steps = 5
plan.batch = 16
plan.lr = 0.002
policy.hidden = 128 128
policy.gain_hidden = 32
policy.guidance_gain_init = -100.0
cdps.alpha_guid = 100.0
score.train_steps = 4000
shapes.per_class = 400
eval_samples = 1024
eval_chunk = 256
output_dir = shapes-acceptance
"""


@pytest.fixture(scope="session")
def shapes_assets():
    config = parse_config_text(SHAPES_BASE)
    return config, build_assets(config)


@pytest.fixture(scope="session")
def shapes_reports(shapes_assets, tmp_path_factory):
    config, assets = shapes_assets
    root = tmp_path_factory.mktemp("shapes_runs")
    reports = {}
    for method in ("cdps", "joint", "controlwise"):
        cfg = with_overrides(config, method=method,
                             output_dir=str(root / method))
        reports[method] = run_experiment(cfg, assets=assets)
    return reports


def test_criterion5_learned_control_beats_guidance_baseline(shapes_reports):
    psi_cdps = shapes_reports["cdps"].mean_psi
    psi_joint = shapes_reports["joint"].mean_psi
    psi_cw = shapes_reports["controlwise"].mean_psi
    assert psi_joint < psi_cdps, (psi_joint, psi_cdps)
    assert psi_cw < psi_cdps, (psi_cw, psi_cdps)


def test_criterion5_all_methods_hit_target_class(shapes_reports):
    for method, report in shapes_reports.items():
        assert report.accuracy >= 0.90, (method, report.accuracy)


def test_criterion5_runs_emit_complete_artifacts(shapes_reports):
    for method, report in shapes_reports.items():
        out = report.output_dir
        for name in ("config.txt", "metrics.csv", "curve.csv", "samples.pgm",
                     "agent0.pgm", "agent1.pgm"):
            assert (out / name).exists(), (method, name)
        curve_lines = (out / "curve.csv").read_text().splitlines()
        if method == "cdps":
            assert len(curve_lines) == 1  # header only
        else:
            assert len(curve_lines) == 251  # header + one row per update


# ---------------------------------------------------------------------------
# criterion 6: product-of-experts bias
# ---------------------------------------------------------------------------

def test_criterion6_two_standard_normals_product_variance():
    # the exact product N(0,1) * N(0,1) is N(0, 1/2). Each expert stays
    # N(0, 1) under the VP forward SDE, so the summed score is -2x at every
    # t and the reverse dynamics relax to the OU stationary variance
    # 1/(2n - 1) = 1/3: the naive sampler must miss the product variance by
    # more than the +/- 5% band, on the over-concentrated side
    gmm = GaussianMixture(weights=[1.0], means=[[0.0]], variances=[1.0])
    product = _product_mixture(gmm, gmm)
    w, m, v = product.weights, product.means[:, 0], product.variances
    exact_var = float(np.sum(w * (v + m * m)) - np.sum(w * m) ** 2)
    assert exact_var == 0.5, f"exact product variance {exact_var} vs 1/2"

    score = AnalyticGmmScore(gmm, SCHEDULE)
    grid = make_time_grid(500, 1e-3)
    x = sample_poe_naive([score, score], 1, SocConfig(), grid, ZeroCost(),
                         SCHEDULE, seed=44, batch=50_000).terminal_y
    var = float(x.var())
    band = 0.05 * exact_var
    assert var < exact_var - band, (
        f"naive score-sum terminal variance {var:.4f} is within (or above) "
        f"the +/- 5% band around the exact product variance {exact_var}; "
        f"expected the biased value 1/3"
    )
    # 0.01 is ~5 sampling SE at 50k samples and covers the 0.0016 offset
    # of the Euler-Maruyama chain's own variance (0.33496) from 1/3
    n = 2
    assert abs(var - 1.0 / (2 * n - 1)) <= 0.01, (
        f"naive score-sum terminal variance {var:.4f} vs 1/(2n - 1) = 1/3 "
        f"(the OU stationary variance of the summed score -2x)"
    )


def _product_mixture(a: GaussianMixture, b: GaussianMixture) -> GaussianMixture:
    """Closed-form (renormalised) product of two isotropic mixtures."""
    weights, means, variances = [], [], []
    for wi, mi, vi in zip(a.weights, a.means, a.variances):
        for wj, mj, vj in zip(b.weights, b.means, b.variances):
            v = vi * vj / (vi + vj)
            m = (mi * vj + mj * vi) / (vi + vj)
            d = mi.size
            overlap = np.exp(-0.5 * ((mi - mj) ** 2).sum() / (vi + vj)) / (
                (2 * np.pi * (vi + vj)) ** (d / 2)
            )
            weights.append(wi * wj * overlap)
            means.append(m)
            variances.append(v)
    weights = np.asarray(weights)
    weights = weights / weights.sum()
    return GaussianMixture(weights=weights, means=np.asarray(means),
                           variances=np.asarray(variances))


def test_criterion6_disjoint_modes_bias_sign():
    # disjoint, well-separated mode sets: the experts nearly agree on a
    # far mode but disagree about the near one. The true product weights
    # each mode pairing by its overlap, which the score sum ignores, so
    # the naive sampler parks a large share of its mass around compromises
    # between the disagreeing modes where the product has little density.
    # Sign-only assertion on the mean true-product log-density.
    a = GaussianMixture(weights=[0.5, 0.5], means=[[0.0, 0.0], [4.0, 4.0]],
                        variances=[0.3, 0.3])
    b = GaussianMixture(weights=[0.5, 0.5], means=[[1.2, 1.2], [4.3, 4.3]],
                        variances=[0.3, 0.3])
    product = _product_mixture(a, b)
    grid = make_time_grid(300, 1e-3)
    naive = sample_poe_naive(
        [AnalyticGmmScore(a, SCHEDULE), AnalyticGmmScore(b, SCHEDULE)],
        2, SocConfig(), grid, ZeroCost(), SCHEDULE, seed=45, batch=4096,
    ).terminal_y
    direct = gmm_sample(product, derive_rng(45, 1), 4096)
    naive_ld = gmm_log_density(product, naive).mean()
    direct_ld = gmm_log_density(product, direct).mean()
    assert naive_ld < direct_ld, (naive_ld, direct_ld)


# ---------------------------------------------------------------------------
# criterion 7: reproducibility
# ---------------------------------------------------------------------------

REPRO_CFG = """
task = gmm2d
method = joint
seed = 17
mask = halves
grid.steps = 20
grid.eps = 0.001
soc.control_weight = 0.05
soc.running_scale = 0.1
soc.target = 2.0 -1.5
plan.updates = 8
plan.batch = 8
plan.lr = 0.02
policy.hidden = 16 16
policy.gain_hidden = 8
eval_samples = 64
eval_chunk = 32
output_dir = {out}
"""


def test_criterion7_metric_files_are_byte_identical(tmp_path, monkeypatch):
    # both runs share one process; the two-thread-count case runs in
    # subprocesses (tests/test_artifact_digests.py)
    monkeypatch.setenv("COOPDIFF_OUTPUT_ROOT", str(tmp_path))
    first = run_experiment(parse_config_text(REPRO_CFG.format(out="a")))
    second = run_experiment(parse_config_text(REPRO_CFG.format(out="b")))
    for name in ("metrics.csv", "curve.csv", "samples.csv"):
        a = (first.output_dir / name).read_bytes()
        b = (second.output_dir / name).read_bytes()
        assert a == b, name
    # config snapshots differ only in the output directory line
    diff = set(
        (first.output_dir / "config.txt").read_text().splitlines()
    ) ^ set((second.output_dir / "config.txt").read_text().splitlines())
    assert all(line.startswith("output_dir") for line in diff)
