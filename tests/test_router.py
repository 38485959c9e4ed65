"""Routing: capacity, selection, dropping, balance loss, rescue rerouting.

The load-bearing test here is the brute-force oracle: an independent
token-by-token simulator of top-1 capacity routing (and of the iterative
rescue pass), checked exhaustively against route()/ntlb_reroute() over every
argmax preference assignment on small instances.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlab.router import (
    POLICIES,
    DispatchPlan,
    RouterConfig,
    apply_policy,
    build_dispatch_combine,
    expert_capacity,
    fill_slots,
    ntlb_reroute,
    route,
)
from switchlab.switch_layer import (
    SwitchLayerParams,
    init_switch_layer_params,
    switch_ffn_bwd,
    switch_ffn_fwd,
)
from switchlab.tensor_core import (
    InvalidArgumentError,
    NumericError,
    RngStream,
    grad_check,
    quantize_bf16,
    softmax,
)

ARGMAX = RouterConfig(num_experts=2)  # convenience for policy-free tests


# ---------------------------------------------------------------------------
# Brute-force oracle (independent of the library implementation)
# ---------------------------------------------------------------------------


def brute_force_route(probs, capacity):
    """Token-by-token reference: argmax with lowest-index ties, fill in order."""
    counts = {}
    assignment, position, dropped = [], [], []
    for row in probs:
        best = max(range(len(row)), key=lambda e: (row[e], -e))
        used = counts.get(best, 0)
        if used < capacity:
            assignment.append(best)
            position.append(used)
            dropped.append(False)
            counts[best] = used + 1
        else:
            assignment.append(best)
            position.append(-1)
            dropped.append(True)
    return assignment, position, dropped


def brute_force_ntlb(probs, assignment, position, dropped, capacity, stages):
    """Reference rescue pass: still-dropped tokens try their next choices."""
    assignment = list(assignment)
    position = list(position)
    dropped = list(dropped)
    counts = {}
    for e, d in zip(assignment, dropped):
        if not d:
            counts[e] = counts.get(e, 0) + 1
    n = len(probs[0])
    for k in range(1, min(stages, n - 1) + 1):
        for t in range(len(probs)):
            if not dropped[t]:
                continue
            prefs = sorted(range(n), key=lambda e: (-probs[t][e], e))
            cand = prefs[k]
            if counts.get(cand, 0) < capacity:
                assignment[t] = cand
                position[t] = counts.get(cand, 0)
                dropped[t] = False
                counts[cand] = counts.get(cand, 0) + 1
    return assignment, position, dropped


def plan_from_preferences(prefs, num_experts, capacity_factor, ntlb_stages=0):
    """Build inputs whose router logits realize the given preference matrix."""
    logits = np.asarray(prefs, dtype=np.float32)
    w = np.eye(num_experts, dtype=np.float32)
    cfg = RouterConfig(
        num_experts=num_experts, capacity_factor=capacity_factor, ntlb_stages=ntlb_stages
    )
    return route(logits, w, cfg, RngStream(0), "eval")


# ---------------------------------------------------------------------------
# expert_capacity
# ---------------------------------------------------------------------------


class TestExpertCapacity:
    def test_known_values(self):
        assert expert_capacity(64, 4, 1.0) == 16
        assert expert_capacity(64, 4, 1.25) == 20
        assert expert_capacity(10, 4, 1.0) == 3  # ceil of 2.5

    def test_floor_of_one(self):
        assert expert_capacity(1, 8, 1.0) == 1
        assert expert_capacity(4, 8, 0.5) == 1

    def test_ceil_keeps_total_capacity_sufficient(self):
        # brute check: N * C >= tokens * cf / 1 for every small grid point
        for tokens in range(1, 20):
            for experts in range(1, 6):
                for cf in (0.5, 1.0, 1.25, 2.0):
                    c = expert_capacity(tokens, experts, cf)
                    assert experts * c >= min(tokens, tokens / experts * cf * experts) * 0 + tokens / experts * cf

    def test_zero_experts_rejected(self):
        with pytest.raises(InvalidArgumentError):
            expert_capacity(10, 0, 1.0)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class TestApplyPolicy:
    def test_argmax_is_identity(self):
        x = RngStream(0).normal((4, 3))
        cfg = RouterConfig(num_experts=2, policy="argmax")
        out, scale = apply_policy(x, cfg, RngStream(1), "train")
        assert out is x and scale is None

    def test_zero_eps_jitter_is_identity(self):
        x = RngStream(0).normal((4, 3))
        cfg = RouterConfig(num_experts=2, policy="input_jitter", jitter_eps=0.0)
        out, scale = apply_policy(x, cfg, RngStream(1), "train")
        assert out is x and scale is None

    def test_jitter_bounds(self):
        x = np.ones((100, 8), dtype=np.float32)
        cfg = RouterConfig(num_experts=2, policy="input_jitter", jitter_eps=0.01)
        out, scale = apply_policy(x, cfg, RngStream(2), "train")
        assert np.array_equal(out, x * scale)
        assert (out >= 0.99).all() and (out <= 1.01).all()
        assert not np.array_equal(out, x)

    def test_eval_mode_is_identity_for_all_policies(self):
        x = RngStream(3).normal((5, 4))
        for policy in ("argmax", "sample_softmax", "input_dropout", "input_jitter"):
            cfg = RouterConfig(num_experts=2, policy=policy)
            out, scale = apply_policy(x, cfg, RngStream(4), "eval")
            assert out is x and scale is None

    def test_input_dropout_scaling(self):
        x = np.ones((2000, 10), dtype=np.float32)
        cfg = RouterConfig(num_experts=2, policy="input_dropout", dropout_rate=0.25)
        out, scale = apply_policy(x, cfg, RngStream(5), "train")
        assert np.array_equal(out, x * scale)
        kept = out != 0
        assert abs(kept.mean() - 0.75) < 0.01
        assert np.allclose(out[kept], 1 / 0.75)
        assert abs(out.mean() - 1.0) < 0.01  # inverted dropout is unbiased

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            RouterConfig(num_experts=0)
        with pytest.raises(InvalidArgumentError):
            RouterConfig(num_experts=2, capacity_factor=-1.0)
        with pytest.raises(InvalidArgumentError):
            RouterConfig(num_experts=2, policy="nonsense")
        with pytest.raises(InvalidArgumentError):
            RouterConfig(num_experts=2, dropout_rate=1.0)


# ---------------------------------------------------------------------------
# route()
# ---------------------------------------------------------------------------


class TestRoute:
    def test_three_token_hand_example(self):
        # preferences (e0, e0, e1) with capacity 1
        plan, _ = plan_from_preferences(
            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 2, 0.5
        )
        assert plan.capacity == 1
        assert list(plan.expert_index) == [0, 0, 1]
        assert list(plan.dropped) == [False, True, False]
        assert list(plan.position_in_expert) == [0, -1, 0]

    def test_single_token_never_dropped(self):
        for n in (1, 2, 5):
            x = RngStream(6).normal((1, n)).astype(np.float32)
            plan, _ = route(x, np.eye(n, dtype=np.float32), RouterConfig(num_experts=n), RngStream(0), "eval")
            assert not plan.dropped.any()
            assert plan.capacity >= 1

    def test_zero_weights_tie_break_to_expert_zero(self):
        x = RngStream(7).normal((64, 8)).astype(np.float32)
        w = np.zeros((8, 4), dtype=np.float32)
        plan, stats = route(x, w, RouterConfig(num_experts=4, capacity_factor=4.0), RngStream(0), "eval")
        assert (plan.expert_index == 0).all()
        assert np.allclose(stats.f, [1, 0, 0, 0])
        assert np.allclose(stats.P, [0.25] * 4)

    def test_gate_equals_router_prob_of_choice(self):
        x = RngStream(8).normal((10, 4)).astype(np.float32)
        w = RngStream(9).normal((4, 3)).astype(np.float32)
        plan, _ = route(x, w, RouterConfig(num_experts=3), RngStream(0), "eval")
        expected = plan.router_probs[np.arange(10), plan.expert_index]
        assert np.array_equal(plan.gate, expected)

    def test_non_finite_logits_name_token(self):
        x = np.ones((3, 2), dtype=np.float32)
        x[1, 0] = np.inf
        with pytest.raises(NumericError, match="token 1"):
            route(x, np.eye(2, dtype=np.float32), RouterConfig(num_experts=2), RngStream(0), "eval")

    def test_overflowing_logits_name_token(self):
        x = np.ones((3, 2), dtype=np.float32)
        x[2] = 3e38  # finite, but the logits overflow
        with pytest.raises(NumericError, match="logits for token 2"):
            route(x, 10 * np.eye(2, dtype=np.float32), RouterConfig(num_experts=2), RngStream(0), "eval")

    def test_sample_policy_samples_in_train_argmax_in_eval(self):
        x = np.tile(np.array([[0.1, 0.0]], dtype=np.float32), (400, 1))
        w = np.eye(2, dtype=np.float32)
        cfg = RouterConfig(num_experts=2, policy="sample_softmax", capacity_factor=2.0)
        train_plan, _ = route(x, w, cfg, RngStream(10), "train")
        eval_plan, _ = route(x, w, cfg, RngStream(10), "eval")
        assert (eval_plan.expert_index == 0).all()
        frac = (train_plan.expert_index == 1).mean()
        p1 = softmax(np.array([0.1, 0.0]))[1]
        assert abs(frac - p1) < 0.06

    @given(st.integers(min_value=-5, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_argmax_invariant_to_constant_logit_shift(self, shift):
        x = RngStream(11).normal((12, 3)).astype(np.float32)
        w = RngStream(12).normal((3, 3)).astype(np.float32)
        plan, _ = route(x, w, RouterConfig(num_experts=3), RngStream(0), "eval")
        shifted_logits = (x @ w + shift).astype(np.float32)
        plan2, _ = route(
            shifted_logits, np.eye(3, dtype=np.float32), RouterConfig(num_experts=3), RngStream(0), "eval"
        )
        assert np.array_equal(plan.expert_index, plan2.expert_index)


class TestRoutingOracle:
    def test_exhaustive_small_instances(self):
        # every argmax preference assignment for tokens <= 6, N <= 3, C <= 2
        for n in (1, 2, 3):
            for tokens in range(1, 7):
                for capacity in (1, 2):
                    cf = capacity * n / tokens  # makes ceil(T/N * cf) == capacity
                    if expert_capacity(tokens, n, cf) != capacity:
                        continue
                    for prefs in itertools.product(range(n), repeat=tokens):
                        logits = np.zeros((tokens, n), dtype=np.float32)
                        logits[np.arange(tokens), prefs] = 1.0
                        plan, _ = plan_from_preferences(logits, n, cf)
                        probs = softmax(logits, axis=-1)
                        a, p, d = brute_force_route(probs.tolist(), capacity)
                        assert list(plan.expert_index) == a
                        assert list(plan.position_in_expert) == p
                        assert list(plan.dropped) == d
                        self._check_conservation(plan)

    @staticmethod
    def _check_conservation(plan: DispatchPlan):
        # every token is either dropped or occupies exactly one distinct slot
        kept = ~plan.dropped
        slots = set()
        for e, c in zip(plan.expert_index[kept], plan.position_in_expert[kept]):
            assert (e, c) not in slots
            slots.add((e, c))
        for e in range(plan.num_experts):
            positions = sorted(
                plan.position_in_expert[kept & (plan.expert_index == e)]
            )
            assert positions == list(range(len(positions)))  # prefix property
            assert len(positions) <= plan.capacity


# ---------------------------------------------------------------------------
# Load-balance loss
# ---------------------------------------------------------------------------


class TestLoadBalanceLoss:
    @pytest.mark.parametrize("n", [2, 4, 8, 64])
    def test_uniform_gives_alpha(self, n):
        # Token i prefers expert i, so f is uniform, and each expert's column
        # of the softmax holds the same values, so P is uniform too.
        eye = np.eye(n, dtype=np.float32)
        _, stats = route(eye, eye, RouterConfig(num_experts=n, alpha=0.01), RngStream(0), "eval")
        assert stats.aux_loss == pytest.approx(0.01, abs=1e-9)

    def test_fully_collapsed(self):
        x = np.ones((2, 1), dtype=np.float32)
        w = np.array([[100.0, 0.0]], dtype=np.float32)
        _, stats = route(x, w, RouterConfig(num_experts=2, alpha=0.01), RngStream(0), "eval")
        assert stats.aux_loss == pytest.approx(0.02, abs=1e-9)

    def test_uniform_minimizes_among_f_equals_p(self):
        # for f == P on the simplex, alpha*N*sum(f^2) is minimized at uniform
        rng = RngStream(13)
        n = 5
        uniform = 0.01 * n * n * (1 / n) ** 2
        for _ in range(10_000):
            f = rng.uniform((n,))
            f = f / f.sum()
            assert 0.01 * n * float(f @ f) >= uniform - 1e-12

    def test_gradient_matches_fd_with_constant_f(self):
        # The switch layer's inline balance gradient, alone: with a zero
        # upstream gradient and no probe moving an expert choice (so f stays
        # constant), only the P path of the aux loss reaches x and the router
        # weights.
        rng = RngStream(14)
        cfg = RouterConfig(num_experts=4, alpha=0.01)
        x = rng.substream("x").normal((6, 5))
        params = init_switch_layer_params(5, 3, 4, rng.substream("params"), scale=1.0)

        def f(p):
            sp = SwitchLayerParams(p[1], params.w_in, params.w_out)
            out, cache = switch_ffn_fwd(p[0], sp, cfg, RngStream(0), "eval")
            g = switch_ffn_bwd(np.zeros_like(out.y), cache)
            return out.stats.aux_loss, [g["x"], g["w_router"]]

        assert grad_check(f, [x, params.w_router]).max_rel_err < 1e-4


# ---------------------------------------------------------------------------
# No-token-left-behind
# ---------------------------------------------------------------------------


class TestNtlb:
    def test_hand_example_second_choice_rescue(self):
        # 3 tokens, 2 experts, C=2, all prefer e0 with e1 second
        plan, _ = plan_from_preferences(
            [[1.0, 0.0]] * 3, 2, 4 / 3
        )
        assert plan.capacity == 2
        assert list(plan.dropped) == [False, False, True]
        rescued = ntlb_reroute(plan, 1)
        assert list(rescued.dropped) == [False, False, False]
        assert rescued.expert_index[2] == 1
        assert rescued.position_in_expert[2] == 0
        assert rescued.gate[2] == plan.router_probs[2, 1]

    def test_no_dropped_tokens_is_fixed_point(self):
        plan, _ = plan_from_preferences([[1.0, 0.0], [0.0, 1.0]], 2, 1.0)
        assert not plan.dropped.any()
        rescued = ntlb_reroute(plan, 1)
        assert np.array_equal(rescued.expert_index, plan.expert_index)
        assert np.array_equal(rescued.position_in_expert, plan.position_in_expert)
        assert np.array_equal(rescued.gate, plan.gate)

    def test_stage_clamp_warns(self):
        plan, _ = plan_from_preferences([[1.0, 0.0]] * 3, 2, 0.5)
        with pytest.warns(UserWarning, match="clamped"):
            ntlb_reroute(plan, 5)

    def test_monotone_dropped_counts_exhaustive(self):
        # adversarial exhaustive check: N <= 3, C <= 2, tokens <= 6
        for n in (2, 3):
            for tokens in range(1, 7):
                for capacity in (1, 2):
                    cf = capacity * n / tokens
                    if expert_capacity(tokens, n, cf) != capacity:
                        continue
                    for prefs in itertools.product(range(n), repeat=tokens):
                        base = 2.0 * np.eye(n)[list(prefs)] + 0.1 * np.arange(n)
                        plan, _ = plan_from_preferences(base.astype(np.float32), n, cf)
                        probs = plan.router_probs
                        prev_dropped = plan.dropped.sum()
                        prev = plan
                        for stages in range(1, n):
                            nxt = ntlb_reroute(plan, stages)
                            a, p, d = brute_force_ntlb(
                                probs.tolist(),
                                plan.expert_index,
                                plan.position_in_expert,
                                plan.dropped,
                                capacity,
                                stages,
                            )
                            assert list(nxt.expert_index) == a
                            assert list(nxt.dropped) == d
                            assert nxt.dropped.sum() <= prev.dropped.sum() <= prev_dropped
                            TestRoutingOracle._check_conservation(nxt)
                            prev = nxt

    def test_config_level_ntlb_matches_explicit_call(self):
        logits = np.array([[1.0, 0.0]] * 3, dtype=np.float32)
        w = np.eye(2, dtype=np.float32)
        plain_cfg = RouterConfig(num_experts=2, capacity_factor=4 / 3)
        ntlb_cfg = RouterConfig(num_experts=2, capacity_factor=4 / 3, ntlb_stages=1)
        plain, _ = route(logits, w, plain_cfg, RngStream(0), "eval")
        via_cfg, _ = route(logits, w, ntlb_cfg, RngStream(0), "eval")
        explicit = ntlb_reroute(plain, 1)
        assert np.array_equal(via_cfg.expert_index, explicit.expert_index)
        assert np.array_equal(via_cfg.dropped, explicit.dropped)

    def test_stats_unchanged_by_ntlb(self):
        # f counts pre-capacity intent; rescuing dropped tokens must not move it
        logits = np.array([[1.0, 0.0]] * 4, dtype=np.float32)
        w = np.eye(2, dtype=np.float32)
        _, stats_plain = route(logits, w, RouterConfig(num_experts=2, capacity_factor=0.5), RngStream(0), "eval")
        _, stats_ntlb = route(
            logits, w,
            RouterConfig(num_experts=2, capacity_factor=0.5, ntlb_stages=1),
            RngStream(0), "eval",
        )
        assert np.array_equal(stats_plain.f, stats_ntlb.f)
        assert stats_plain.aux_loss == stats_ntlb.aux_loss


def full_sort_ntlb(plan, stages):
    """``ntlb_reroute`` as it was before it sorted only the dropped rows: every
    token's preference order comes from one stable sort of all [T, E] probs."""
    out = plan.copy()
    order = np.argsort(-out.router_probs, axis=1, kind="stable")
    kept = np.flatnonzero(~out.dropped)
    counts = np.bincount(
        out.slot_key(kept, out.expert_index[kept]), minlength=out.num_groups * out.num_experts
    )
    for k in range(1, stages + 1):
        waiting = np.flatnonzero(out.dropped)
        if waiting.size == 0:
            break
        candidate = order[waiting, k]
        position, counts = fill_slots(out.slot_key(waiting, candidate), counts, out.capacity)
        landed = position >= 0
        t, e = waiting[landed], candidate[landed]
        out.expert_index[t] = e
        out.position_in_expert[t] = position[landed]
        out.gate[t] = out.router_probs[t, e]
        out.dropped[t] = False
    return out


@pytest.mark.parametrize("policy", POLICIES)
def test_full_ntlb_leaves_no_dropped_token_beside_a_free_slot(policy):
    # E - 1 stages offer each dropped token every expert it does not hold,
    # so a token still dropped after them found every expert of its group
    # full. Under sample_softmax the held expert is the sampled one, which
    # need not be the most probable.
    groups, size, experts = 2, 16, 4
    cfg = RouterConfig(experts, capacity_factor=1.0, policy=policy)
    dropped = 0
    for seed in range(40):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((groups, size, 8)).astype(np.float32)
        w = gen.standard_normal((8, experts)).astype(np.float32)
        plan, _ = route(x, w, cfg, RngStream(seed), "train")
        dropped += plan.dropped.sum()
        out = ntlb_reroute(plan, experts - 1)
        kept = np.flatnonzero(~out.dropped)
        counts = np.bincount(
            out.slot_key(kept, out.expert_index[kept]), minlength=groups * experts
        ).reshape(groups, experts)
        full = (counts == out.capacity).all(axis=1)
        assert full[np.flatnonzero(out.dropped) // size].all(), f"seed {seed}"
    assert dropped > 0


@pytest.mark.parametrize("groups", [None, 4], ids=["flat", "grouped"])
@pytest.mark.parametrize("stages", [1, 2, 3])
def test_ntlb_reroute_equals_full_sort_oracle(stages, groups):
    gen = np.random.default_rng(stages)
    x = gen.standard_normal((4 * 24, 8)).astype(np.float32)
    x[:, 0] = np.abs(x[:, 0]) + 1.0
    x[::5] = 0.0  # uniform probabilities: every rank is a tie
    if groups is not None:
        x = x.reshape(groups, -1, 8)
    w = gen.standard_normal((8, 4)).astype(np.float32)
    w[0] = [3.0, 2.0, 1.0, 0.0]  # most tokens rank the experts alike, so many overflow
    plan, _ = route(x, w, RouterConfig(4, capacity_factor=0.5), RngStream(0), "eval")
    assert plan.dropped.sum() > plan.num_tokens // 3
    got, want = ntlb_reroute(plan, stages), full_sort_ntlb(plan, stages)
    assert got.dropped.sum() < plan.dropped.sum()
    for name in ("expert_index", "gate", "position_in_expert", "dropped"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# Grouped routing
# ---------------------------------------------------------------------------


class TestGroupedRoute:
    @pytest.mark.parametrize(
        "cfg",
        [
            RouterConfig(8),
            RouterConfig(8, capacity_factor=0.5, ntlb_stages=1),
            RouterConfig(8, capacity_factor=0.5, ntlb_stages=2),
            RouterConfig(8, capacity_factor=0.5, selective_precision=True, ntlb_stages=1),
            RouterConfig(8, capacity_factor=0.01),
        ],
        ids=["argmax", "ntlb1", "ntlb2", "selective_precision", "capacity1"],
    )
    def test_groups_equal_separate_calls(self, cfg):
        gen = np.random.default_rng(5)
        x = gen.standard_normal((4, 48, 16)).astype(np.float32)
        w = gen.standard_normal((16, 8)).astype(np.float32)
        plan, stats = route(x, w, cfg, RngStream(0), "eval")
        rows = [route(xg, w, cfg, RngStream(0), "eval") for xg in x]
        assert plan.num_groups == 4 and plan.capacity == rows[0][0].capacity
        assert plan.dropped.any() or cfg.capacity_factor > 1
        for name in (
            "expert_index", "gate", "position_in_expert", "dropped", "router_probs",
            "router_inputs",
        ):
            got = getattr(plan, name)
            want = np.concatenate([getattr(p, name) for p, _ in rows])
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert np.array_equal(stats.f, np.mean([s.f for _, s in rows], axis=0))
        assert np.array_equal(stats.P, np.mean([s.P for _, s in rows], axis=0))
        assert stats.aux_loss == float(np.mean([s.aux_loss for _, s in rows]))


# ---------------------------------------------------------------------------
# Dispatch / combine tensors
# ---------------------------------------------------------------------------


class TestDispatchCombine:
    def test_three_token_example_has_two_nonzeros(self):
        plan, _ = plan_from_preferences([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 2, 0.5)
        dispatch, combine = build_dispatch_combine(plan)
        assert (combine != 0).sum() == 2
        assert dispatch.shape == (3, 2, 1)
        assert dispatch.dtype == bool

    def test_single_expert_three_tokens_one_slot(self):
        plan, _ = plan_from_preferences([[1.0]] * 3, 1, 1 / 3)
        assert plan.capacity == 1
        _, combine = build_dispatch_combine(plan)
        assert (combine != 0).sum() == 1

    def test_identity_expert_reproduces_gate_scaled_inputs(self):
        x = RngStream(18).normal((6, 3)).astype(np.float32)
        w = RngStream(19).normal((3, 2)).astype(np.float32)
        plan, _ = route(x, w, RouterConfig(num_experts=2, capacity_factor=2.0), RngStream(0), "eval")
        dispatch, combine = build_dispatch_combine(plan)
        expert_in = np.einsum("td,tec->ecd", x, dispatch.astype(np.float32))
        y = np.einsum("ecd,tec->td", expert_in, combine)  # experts are identity
        kept = ~plan.dropped
        assert np.allclose(y[kept], plan.gate[kept, None] * x[kept], atol=1e-6)
        assert np.array_equal(y[~kept], np.zeros((0, 3))) or (y[~kept] == 0).all()

    def test_selective_precision_quantizes_combine(self):
        x = RngStream(20).normal((8, 3)).astype(np.float32)
        w = RngStream(21).normal((3, 2)).astype(np.float32)
        plan, _ = route(x, w, RouterConfig(num_experts=2, capacity_factor=2.0), RngStream(0), "eval")
        _, combine = build_dispatch_combine(plan, selective_precision=True)
        assert np.array_equal(quantize_bf16(combine), combine)

    def test_combine_values_are_gates(self):
        plan, _ = plan_from_preferences([[2.0, 1.0], [1.0, 2.0]], 2, 1.0)
        _, combine = build_dispatch_combine(plan)
        for t in range(2):
            assert combine[t, plan.expert_index[t], plan.position_in_expert[t]] == plan.gate[t]
