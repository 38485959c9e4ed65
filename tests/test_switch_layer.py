"""Expert layers: the index gather/scatter kernel against the one-hot reference.

The layers place tokens into expert slots by index. The reference here is
the one-hot [tokens, experts, capacity] form from ``build_dispatch_combine``,
gathered and scattered with einsums; swapping it in for the index kernel
must leave every output and gradient bit-identical.
"""

from dataclasses import dataclass, fields, is_dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlab import parallel_sim
from switchlab import switch_layer as sl
from switchlab.router import (
    RouterConfig,
    build_dispatch_combine,
    expert_capacity,
    fill_slots,
    ntlb_reroute,
    route,
)
from switchlab.switch_layer import (
    AttentionConfig,
    SwitchLayerParams,
    attention_bwd,
    attention_fwd,
    dense_ffn,
    init_attention_weights,
    init_switch_layer_params,
    moe_topk_ffn,
    moe_topk_ffn_bwd,
    moe_topk_ffn_fwd,
    switch_ffn,
    switch_ffn_bwd,
    switch_ffn_fwd,
)
from switchlab.tensor_core import RngStream, relu, relu_backward

D_MODEL, D_FF, EXPERTS = 16, 24, 4


# ---------------------------------------------------------------------------
# One-hot reference kernel
# ---------------------------------------------------------------------------


@dataclass
class OneHotSlots:
    """Stands in for the slot map, carrying the one-hot routing tensors.

    ``token``/``expert``/``slot`` list every kept token, which is where the
    one-hot backward reads the gate gradient off ``d_combine``.
    """

    dispatch: np.ndarray
    combine: np.ndarray
    token: np.ndarray
    expert: np.ndarray
    slot: np.ndarray

    @classmethod
    def from_plan(cls, plan, selective_precision):
        dispatch, combine = build_dispatch_combine(plan, selective_precision)
        kept = np.flatnonzero(~plan.dropped)
        return cls(
            dispatch, combine, kept, plan.expert_index[kept], plan.position_in_expert[kept]
        )

    def gather(self, x, gated=False):
        w = self.combine if gated else self.dispatch.astype(x.dtype)
        return np.einsum("td,tec->ecd", x, w)

    def scatter(self, buf, gated=False):
        w = self.combine if gated else self.dispatch.astype(buf.dtype)
        return np.einsum("ecd,tec->td", buf, w)


def onehot_buffers_fwd(x, slots, w_in, w_out, expert_dropout, rng, mode):
    expert_in = slots.gather(x)
    num_experts = w_in.shape[0]
    if w_out is None:
        expert_out = np.stack([expert_in[e] @ w_in[e] for e in range(num_experts)])
        pre_relu = activated = drop_scale = None
    else:
        pre_relu = np.stack([expert_in[e] @ w_in[e] for e in range(num_experts)])
        activated, drop_scale = sl._dropout(relu(pre_relu), expert_dropout, rng, mode)
        expert_out = np.stack([activated[e] @ w_out[e] for e in range(num_experts)])
    y = slots.scatter(expert_out, gated=True)
    cache = SimpleNamespace(
        slots=slots, expert_in=expert_in, pre_relu=pre_relu, activated=activated,
        drop_scale=drop_scale, expert_out=expert_out, w_in=w_in, w_out=w_out,
        linear=w_out is None,
    )
    return y, cache


def onehot_buffers_bwd(grad_y, cache):
    s = cache.slots
    num_experts = cache.w_in.shape[0]
    d_expert_out = np.einsum("td,tec->ecd", grad_y, s.combine)
    d_combine = np.einsum("td,ecd->tec", grad_y, cache.expert_out)
    if cache.linear:
        dw_in = np.stack([cache.expert_in[e].T @ d_expert_out[e] for e in range(num_experts)])
        d_expert_in = np.stack([d_expert_out[e] @ cache.w_in[e].T for e in range(num_experts)])
        dw_out = None
    else:
        dw_out = np.stack([cache.activated[e].T @ d_expert_out[e] for e in range(num_experts)])
        d_act = np.stack([d_expert_out[e] @ cache.w_out[e].T for e in range(num_experts)])
        if cache.drop_scale is not None:
            d_act = d_act * cache.drop_scale
        dh = relu_backward(d_act, cache.pre_relu)
        dw_in = np.stack([cache.expert_in[e].T @ dh[e] for e in range(num_experts)])
        d_expert_in = np.stack([dh[e] @ cache.w_in[e].T for e in range(num_experts)])
    dx = np.einsum("ecd,tec->td", d_expert_in, s.dispatch.astype(grad_y.dtype))
    return dx, d_combine[s.token, s.expert, s.slot], dw_in, dw_out


def index_and_onehot(monkeypatch, run):
    """``run()`` with the index kernel, then with the one-hot reference."""
    got = run()
    with monkeypatch.context() as mp:
        for mod in (sl, parallel_sim):
            mp.setattr(mod, "_Slots", OneHotSlots)
            mp.setattr(mod, "_expert_buffers_fwd", onehot_buffers_fwd)
        mp.setattr(sl, "_expert_buffers_bwd", onehot_buffers_bwd)
        want = run()
    return got, want


def assert_bitwise(got, want):
    assert got.keys() == want.keys()
    for key in want:
        if want[key] is None:
            assert got[key] is None, key
            continue
        g, w = np.asarray(got[key]), np.asarray(want[key])
        assert g.dtype == w.dtype, key
        assert np.array_equal(g, w), f"{key}: max diff {np.abs(g - w).max()}"


def make_case(num_tokens=96, experts=EXPERTS, expert_form="ffn", dropout=0.0, seed=0):
    rng = RngStream(seed)
    x = rng.substream("x").normal((num_tokens, D_MODEL)).astype(np.float32)
    params = init_switch_layer_params(
        D_MODEL, D_FF, experts, rng.substream("params"), scale=1.0,
        expert_dropout_rate=dropout, expert_form=expert_form,
    )
    return x, params


def grad_of(y):
    return np.cos(y).astype(y.dtype)


# ---------------------------------------------------------------------------
# Index kernel == one-hot reference
# ---------------------------------------------------------------------------


class TestIndexKernelMatchesOneHot:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("selective_precision", [False, True])
    @pytest.mark.parametrize("ntlb_stages", [0, 2])
    def test_switch_ffn(self, monkeypatch, mode, selective_precision, ntlb_stages):
        x, params = make_case(dropout=0.3)
        cfg = RouterConfig(
            EXPERTS, capacity_factor=1.0, policy="input_jitter",
            ntlb_stages=ntlb_stages, selective_precision=selective_precision,
        )

        def run():
            out, cache = switch_ffn_fwd(x, params, cfg, RngStream(5), mode)
            return {"y": out.y, **switch_ffn_bwd(grad_of(out.y), cache)}

        assert_bitwise(*index_and_onehot(monkeypatch, run))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("renormalize", [False, True])
    @pytest.mark.parametrize("selective_precision", [False, True])
    def test_moe_topk_ffn(self, monkeypatch, k, renormalize, selective_precision):
        x, params = make_case(dropout=0.3)
        cfg = RouterConfig(
            EXPERTS, capacity_factor=1.0, policy="input_jitter",
            selective_precision=selective_precision,
        )

        def run():
            out, cache = moe_topk_ffn_fwd(x, params, k, cfg, RngStream(5), "train", renormalize)
            return {"y": out.y, **moe_topk_ffn_bwd(grad_of(out.y), cache)}

        assert_bitwise(*index_and_onehot(monkeypatch, run))

    @pytest.mark.parametrize("selective_precision", [False, True])
    def test_linear_attention_experts(self, monkeypatch, selective_precision):
        x, q_params = make_case(expert_form="linear")
        router = RouterConfig(EXPERTS, capacity_factor=1.0, selective_precision=selective_precision)
        acfg = AttentionConfig(num_heads=2, expert_form="linear", router=router)
        weights = init_attention_weights(D_MODEL, RngStream(1), dense_q=False)
        xb = x.reshape(6, 16, D_MODEL)

        def run():
            out, cache = attention_fwd(xb, weights, acfg, RngStream(2), "train", q_params=q_params)
            return {"y": out.y, **attention_bwd(grad_of(out.y), cache)}

        assert_bitwise(*index_and_onehot(monkeypatch, run))

    @pytest.mark.parametrize(
        "strategy, n, m",
        [("data", 2, 1), ("model", 1, 2), ("data+model", 2, 2),
         ("expert+data", 4, 1), ("expert+model+data", 4, 2)],
    )
    @pytest.mark.parametrize("selective_precision", [False, True])
    def test_sharded_switch_layer(self, monkeypatch, strategy, n, m, selective_precision):
        x, params = make_case(num_tokens=128)
        mesh = parallel_sim.make_mesh(n, m, strategy, EXPERTS)
        cfg = RouterConfig(EXPERTS, selective_precision=selective_precision)

        def run():
            out, _ = parallel_sim.run_sharded_switch_layer(x, params, mesh, cfg, RngStream(0))
            return {"y": out.y}

        assert_bitwise(*index_and_onehot(monkeypatch, run))

    @pytest.mark.parametrize("selective_precision", [False, True])
    def test_zero_gate_leaves_its_slot_empty(self, monkeypatch, selective_precision):
        # Two experts 200 logits apart: the second choice's probability
        # underflows to exactly 0, yet capacity keeps it.
        x = np.abs(make_case(num_tokens=32)[0])
        w_router = np.zeros((D_MODEL, 2), dtype=np.float32)
        w_router[:, 0] = 200.0 / np.abs(x).sum(axis=1).min()
        _, base = make_case(experts=2)
        params = SwitchLayerParams(w_router, base.w_in, base.w_out)
        cfg = RouterConfig(2, capacity_factor=2.0, selective_precision=selective_precision)

        def run():
            out, cache = moe_topk_ffn_fwd(x, params, 2, cfg, RngStream(0), "eval")
            second = cache.plans[1]
            assert not second.dropped.any() and (second.gate == 0).all()
            return {"y": out.y, **moe_topk_ffn_bwd(grad_of(out.y), cache)}

        got, want = index_and_onehot(monkeypatch, run)
        assert_bitwise(got, want)
        _, cache = moe_topk_ffn_fwd(x, params, 2, cfg, RngStream(0), "eval")
        assert cache.buffers[1].slots.token.size == 0

    def test_every_token_dropped(self, monkeypatch):
        x, params = make_case()
        cfg = RouterConfig(EXPERTS)
        plan, _ = route(x, params.w_router, cfg, RngStream(0), "eval")
        plan.dropped[:] = True
        plan.position_in_expert[:] = -1

        def run():
            out, cache = switch_ffn_fwd(x, params, cfg, RngStream(0), "eval", frozen_plan=plan)
            assert np.array_equal(out.y, x)
            return {"y": out.y, **switch_ffn_bwd(grad_of(out.y), cache)}

        assert_bitwise(*index_and_onehot(monkeypatch, run))

    @pytest.mark.parametrize("k", [1, 2])
    def test_capacity_one(self, monkeypatch, k):
        x, params = make_case(dropout=0.3)
        cfg = RouterConfig(EXPERTS, capacity_factor=0.01)
        assert expert_capacity(x.shape[0], EXPERTS, 0.01) == 1

        def run():
            out, cache = moe_topk_ffn_fwd(x, params, k, cfg, RngStream(3), "train")
            return {"y": out.y, **moe_topk_ffn_bwd(grad_of(out.y), cache)}

        assert_bitwise(*index_and_onehot(monkeypatch, run))


# ---------------------------------------------------------------------------
# Docstring equivalences and structure
# ---------------------------------------------------------------------------


class TestEquivalences:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_top1_mixture_is_switch_ffn(self, mode):
        x, params = make_case(dropout=0.3)
        cfg = RouterConfig(EXPERTS, capacity_factor=1.0, policy="input_jitter", ntlb_stages=1)
        rng_moe, rng_switch = RngStream(8), RngStream(8)
        moe = moe_topk_ffn(x, params, 1, cfg, rng_moe, mode)
        switch = switch_ffn(x, params, cfg, rng_switch, mode)
        assert np.array_equal(moe.y, switch.y)
        assert moe.aux_loss == switch.aux_loss
        assert moe.dropped_fraction == switch.dropped_fraction
        assert rng_moe.state() == rng_switch.state()

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_single_expert_switch_is_dense_ffn(self, mode):
        x, params = make_case(experts=1)
        out = switch_ffn(x, params, RouterConfig(1, capacity_factor=1.0), RngStream(0), mode)
        assert out.dropped_fraction == 0.0
        assert np.array_equal(out.y, dense_ffn(x, params.w_in[0], params.w_out[0]))

    @pytest.mark.parametrize("strategy, n", [("data", 2), ("expert+data", 4)])
    def test_one_column_mesh_is_bitwise_per_row_switch_ffn(self, strategy, n):
        x, params = make_case(num_tokens=128)
        cfg = RouterConfig(EXPERTS)
        mesh = parallel_sim.make_mesh(n, 1, strategy, EXPERTS)
        out, _ = parallel_sim.run_sharded_switch_layer(x, params, mesh, cfg, RngStream(0))
        rows = [switch_ffn(xi, params, cfg, RngStream(0), "eval").y for xi in np.split(x, n)]
        assert np.array_equal(out.y, np.concatenate(rows))

    def test_second_choice_skips_the_landed_first_choice(self):
        # NTLB moves some first choices off the top expert; the second
        # choice is then the best expert other than the landed one.
        x, params = make_case()
        cfg = RouterConfig(EXPERTS, capacity_factor=1.0, ntlb_stages=2)
        _, cache = moe_topk_ffn_fwd(x, params, 2, cfg, RngStream(0), "eval")
        first, second = cache.plans
        order = np.argsort(-first.router_probs, axis=1, kind="stable")
        assert (first.expert_index != order[:, 0]).any()
        for t in range(x.shape[0]):
            rest = [e for e in order[t] if e != first.expert_index[t]]
            assert second.expert_index[t] == rest[0]

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_frozen_plans_reproduce_the_mixture(self, renormalize):
        x, params = make_case()
        cfg = RouterConfig(EXPERTS, capacity_factor=1.0, ntlb_stages=1)
        out, cache = moe_topk_ffn_fwd(x, params, 2, cfg, RngStream(0), "eval", renormalize)
        again, _ = moe_topk_ffn_fwd(
            x, params, 2, cfg, RngStream(0), "eval", renormalize, frozen_plans=cache.plans
        )
        assert np.array_equal(again.y, out.y)

    @pytest.mark.parametrize("k", [1, 2])
    def test_caches_hold_no_one_hot_tensor(self, k):
        x, params = make_case(num_tokens=64)
        cfg = RouterConfig(EXPERTS)
        capacity = expert_capacity(64, EXPERTS, cfg.capacity_factor)
        one_hot_size = 64 * EXPERTS * capacity
        _, switch_cache = switch_ffn_fwd(x, params, cfg, RngStream(0), "train")
        _, moe_cache = moe_topk_ffn_fwd(x, params, k, cfg, RngStream(0), "train")
        for cache in (switch_cache, moe_cache):
            sizes = list(_array_sizes(cache))
            assert sizes and one_hot_size not in sizes


def _array_sizes(obj):
    if isinstance(obj, np.ndarray):
        yield obj.size
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _array_sizes(item)
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _array_sizes(getattr(obj, f.name))


# ---------------------------------------------------------------------------
# Slot filling
# ---------------------------------------------------------------------------


def loop_fill_slots(choices, counts, capacity):
    counts = list(counts)
    position = []
    for e in choices:
        if counts[e] < capacity:
            position.append(counts[e])
            counts[e] += 1
        else:
            position.append(-1)
    return position, counts


class TestFillSlots:
    @settings(max_examples=60, deadline=None)
    @given(
        num_tokens=st.integers(1, 4096),
        experts=st.integers(1, 16),
        capacity=st.integers(1, 600),
        seed=st.integers(0, 2**31),
    )
    def test_matches_loop_and_slots_are_unique(self, num_tokens, experts, capacity, seed):
        gen = np.random.default_rng(seed)
        # Skewed choices so that some experts overflow.
        choices = np.minimum(gen.geometric(0.3, num_tokens) - 1, experts - 1)
        counts = gen.integers(0, capacity + 1, experts)
        position, after = fill_slots(choices, counts, capacity)
        want_position, want_after = loop_fill_slots(choices, counts, capacity)
        assert position.tolist() == want_position
        assert after.tolist() == want_after
        landed = position >= 0
        assert (position < capacity).all()
        pairs = set(zip(choices[landed].tolist(), position[landed].tolist()))
        assert len(pairs) == int(landed.sum())
        assert not pairs & {(e, c) for e in range(experts) for c in range(counts[e])}

    @settings(max_examples=40, deadline=None)
    @given(
        num_tokens=st.integers(1, 4096),
        experts=st.integers(2, 16),
        capacity_factor=st.floats(0.1, 2.0),
        stages=st.integers(1, 15),
        seed=st.integers(0, 2**31),
    )
    def test_ntlb_never_raises_drops(self, num_tokens, experts, capacity_factor, stages, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((num_tokens, 8)).astype(np.float32)
        w = gen.standard_normal((8, experts)).astype(np.float32)
        cfg = RouterConfig(experts, capacity_factor=capacity_factor)
        plan, _ = route(x, w, cfg, RngStream(0), "eval")
        rescued = ntlb_reroute(plan, min(stages, experts - 1))
        assert rescued.dropped.sum() <= plan.dropped.sum()
        kept = ~rescued.dropped
        slots = set(zip(rescued.expert_index[kept].tolist(),
                        rescued.position_in_expert[kept].tolist()))
        assert len(slots) == int(kept.sum()) <= experts * plan.capacity
        assert (rescued.position_in_expert[kept] < plan.capacity).all()

