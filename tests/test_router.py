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
    DispatchPlan,
    RouterConfig,
    apply_policy,
    build_dispatch_combine,
    expert_capacity,
    load_balance_loss,
    load_balance_loss_backward,
    ntlb_reroute,
    route,
)
from switchlab.tensor_core import (
    InvalidArgumentError,
    NumericError,
    RngStream,
    grad_check,
    one_hot,
    quantize_bf16,
    softmax,
    softmax_backward,
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
        assert np.array_equal(apply_policy(x, cfg, RngStream(1), "train"), x)

    def test_zero_eps_jitter_is_identity(self):
        x = RngStream(0).normal((4, 3))
        cfg = RouterConfig(num_experts=2, policy="input_jitter", jitter_eps=0.0)
        assert np.array_equal(apply_policy(x, cfg, RngStream(1), "train"), x)

    def test_jitter_bounds(self):
        x = np.ones((100, 8), dtype=np.float32)
        cfg = RouterConfig(num_experts=2, policy="input_jitter", jitter_eps=0.01)
        out = apply_policy(x, cfg, RngStream(2), "train")
        assert (out >= 0.99).all() and (out <= 1.01).all()
        assert not np.array_equal(out, x)

    def test_eval_mode_is_identity_for_all_policies(self):
        x = RngStream(3).normal((5, 4))
        for policy in ("argmax", "sample_softmax", "input_dropout", "input_jitter"):
            cfg = RouterConfig(num_experts=2, policy=policy)
            assert np.array_equal(apply_policy(x, cfg, RngStream(4), "eval"), x)

    def test_input_dropout_scaling(self):
        x = np.ones((2000, 10), dtype=np.float32)
        cfg = RouterConfig(num_experts=2, policy="input_dropout", dropout_rate=0.25)
        out = apply_policy(x, cfg, RngStream(5), "train")
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
        probs = np.full((n, n), 1.0 / n)
        mask = np.eye(n, dtype=np.float32)
        assert load_balance_loss(probs, mask, 0.01) == pytest.approx(0.01, abs=1e-9)

    def test_fully_collapsed(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        mask = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert load_balance_loss(probs, mask, 0.01) == pytest.approx(0.02, abs=1e-9)

    def test_uniform_minimizes_among_f_equals_p(self):
        # for f == P on the simplex, alpha*N*sum(f^2) is minimized at uniform
        rng = RngStream(13)
        n = 5
        uniform = 0.01 * n * n * (1 / n) ** 2
        for _ in range(10_000):
            f = rng.uniform((n,))
            f = f / f.sum()
            assert 0.01 * n * float(f @ f) >= uniform - 1e-12

    def test_rejects_non_one_hot_mask(self):
        probs = np.full((2, 2), 0.5)
        with pytest.raises(InvalidArgumentError):
            load_balance_loss(probs, np.array([[0.5, 0.5], [1.0, 0.0]]), 0.01)
        with pytest.raises(InvalidArgumentError):
            load_balance_loss(probs, np.array([[1.0, 1.0], [1.0, 0.0]]), 0.01)

    def test_gradient_matches_fd_with_frozen_f(self):
        rng = RngStream(14)
        logits = rng.normal((6, 4))
        mask = one_hot(np.argmax(logits, axis=1), 4)

        def f(params):
            probs = softmax(params[0], axis=-1)
            loss = load_balance_loss(probs, mask, 0.01)
            d_probs = load_balance_loss_backward(probs, mask, 0.01)
            return loss, [softmax_backward(d_probs, probs)]

        assert grad_check(f, [logits]).max_rel_err < 1e-4

    def test_gradient_isolated_from_mask_path(self):
        # perturbing the dispatch mask must leave the analytic gradient's
        # dependence structure unchanged: grad rows are alpha*N*f/T
        probs = softmax(RngStream(15).normal((8, 3)), axis=-1)
        mask_a = one_hot(np.argmax(probs, axis=1), 3)
        grad_a = load_balance_loss_backward(probs, mask_a, 0.01)
        f_a = mask_a.mean(axis=0)
        assert np.allclose(grad_a, np.broadcast_to(0.01 * 3 * f_a / 8, probs.shape))
        # a different (still one-hot) mask changes f but the gradient stays
        # independent of probs themselves
        mask_b = one_hot(np.roll(np.argmax(probs, axis=1), 1), 3)
        grad_b = load_balance_loss_backward(probs * 0.9 + 0.1 / 3, mask_b, 0.01)
        f_b = mask_b.mean(axis=0)
        assert np.allclose(grad_b, np.broadcast_to(0.01 * 3 * f_b / 8, probs.shape))


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
                        base = 2.0 * one_hot(np.array(prefs), n) + 0.1 * np.arange(n)
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
