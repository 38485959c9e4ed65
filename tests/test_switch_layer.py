"""Expert layers: the sliced index kernel against the padded one-hot reference.

The layers gather the kept tokens by index, sorted by expert, and run each
expert on its own slice of them. The reference here is the one-hot
[tokens, experts, capacity] form from ``build_dispatch_combine``, gathered
into zero-padded [E, C, d] buffers and scattered with einsums. The top-k
layer runs all its ranks through one shared slot map; its reference runs
each rank through its own one-hot buffers and sums them.

Both forms draw the one expert-dropout mask of the kernel, a row per kept
entry. On random layers every output and gradient agrees with the
reference within 1e-6 of the largest magnitude among them. At the shapes
the tests below pin, the bits are equal, except where the top-k reference
rounds a weight gradient per rank.
"""

from dataclasses import dataclass, fields, is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    dense_ffn_bwd,
    dense_ffn_fwd,
    init_attention_weights,
    init_switch_layer_params,
    moe_topk_ffn_bwd,
    moe_topk_ffn_fwd,
    switch_ffn,
    switch_ffn_bwd,
    switch_ffn_fwd,
)
from switchlab.tensor_core import (
    RngStream, inverted_dropout, relu, relu_backward, softmax_backward,
)

D_MODEL, D_FF, EXPERTS = 16, 24, 4


# ---------------------------------------------------------------------------
# One-hot reference kernel
# ---------------------------------------------------------------------------


@dataclass
class OneHotSlots:
    """Stands in for the slot map, carrying the one-hot routing tensors.

    ``token``/``expert``/``slot`` list every kept token, which is where the
    one-hot backward reads the gate gradient off ``d_combine``. It holds one
    rank of a routed layer, so alone it stands in for the switch layer (the
    routed FFN at k = 1). A grouped plan's one-hot axis runs over its G·E
    slot budgets, keyed v = g·E + e, and budget v runs expert v mod E.

    The layer's expert dropout draws one [K, d_ff] mask, a row per occupied
    slot of every rank, in ``_Slots`` order: expert, then group, then slot.
    Occupied slot i of this rank, at (``budget[i]``, ``occupied[i]``), takes
    row ``row[i]`` of it.
    """

    dispatch: np.ndarray
    combine: np.ndarray
    token: np.ndarray
    expert: np.ndarray
    slot: np.ndarray
    budget: np.ndarray
    occupied: np.ndarray
    row: np.ndarray
    num_entries: int

    @classmethod
    def rank_of(cls, plans, rank, selective_precision):
        """Rank ``rank`` of a layer's plans, which share one capacity budget."""
        experts, groups, capacity = plans[0].num_experts, plans[0].num_groups, plans[0].capacity
        one_hots = [_one_hot(p, selective_precision) for p in plans]

        def mask_order(dispatch):
            _, v, c = np.nonzero(dispatch)
            return ((v % experts) * groups + v // experts) * capacity + c

        every_rank = np.sort(np.concatenate([mask_order(d) for _, d, _ in one_hots]))
        plan, dispatch, combine = one_hots[rank]
        _, budget, occupied = np.nonzero(dispatch)
        kept = np.flatnonzero(~plan.dropped)
        return cls(
            dispatch, combine, kept, plan.expert_index[kept], plan.position_in_expert[kept],
            budget, occupied, np.searchsorted(every_rank, mask_order(dispatch)),
            every_rank.size,
        )

    @classmethod
    def from_plans(cls, plans, selective_precision):
        """Stands in for ``_Slots.from_plans`` at k = 1."""
        (_,) = plans
        return cls.rank_of(plans, 0, selective_precision)

    def gather(self, x, gated=False):
        w = self.combine if gated else self.dispatch.astype(x.dtype)
        return np.einsum("td,tec->ecd", x, w)

    def scatter(self, buf, gated=False):
        w = self.combine if gated else self.dispatch.astype(buf.dtype)
        return np.einsum("ecd,tec->td", buf, w)


def _one_hot(plan, selective_precision):
    """The plan with its groups flattened into slot budgets, and its one-hot
    dispatch and combine tensors."""
    group_size = plan.num_tokens // plan.num_groups
    key = np.arange(plan.num_tokens) // group_size * plan.num_experts + plan.expert_index
    # build_dispatch_combine reads the one-hot width off router_probs.
    plan = replace(
        plan, expert_index=key, router_probs=np.tile(plan.router_probs, plan.num_groups),
        num_groups=1,
    )
    return (plan, *build_dispatch_combine(plan, selective_precision))


def onehot_buffers_fwd(x, slots, w_in, w_out, expert_dropout, rng, mode):
    expert_in = slots.gather(x)
    # One 2-D product per slot budget v, with expert v mod E's weights.
    experts = [(v, v % w_in.shape[0]) for v in range(expert_in.shape[0])]
    if w_out is None:
        expert_out = np.stack([expert_in[v] @ w_in[e] for v, e in experts])
        pre_relu = activated = drop_scale = None
    else:
        pre_relu = np.stack([expert_in[v] @ w_in[e] for v, e in experts])
        activated, drop_scale = relu(pre_relu), None
        _, keep = inverted_dropout(
            np.ones((slots.num_entries, pre_relu.shape[-1]), pre_relu.dtype),
            expert_dropout, rng, mode,
        )
        if keep is not None:
            drop_scale = np.zeros_like(pre_relu)
            drop_scale[slots.budget, slots.occupied] = keep[slots.row]
            activated = activated * drop_scale
        expert_out = np.stack([activated[v] @ w_out[e] for v, e in experts])
    y = slots.scatter(expert_out, gated=True)
    cache = SimpleNamespace(
        slots=slots, expert_in=expert_in, pre_relu=pre_relu, activated=activated,
        drop_scale=drop_scale, expert_out=expert_out, w_in=w_in, w_out=w_out,
        linear=w_out is None,
    )
    return y, cache


def onehot_buffers_bwd(grad_y, cache):
    """Products against transposed weights run on contiguous copies, whose
    rows round alike at any row count; a transposed view's rows round
    otherwise below 9-37 rows, so at these small capacities it would
    disagree with the slices in the last place."""
    s = cache.slots
    num_experts = cache.w_in.shape[0]
    t = lambda w: np.ascontiguousarray(w.T)
    d_expert_out = np.einsum("td,tec->ecd", grad_y, s.combine)
    d_combine = np.einsum("td,ecd->tec", grad_y, cache.expert_out)
    if cache.linear:
        dw_in = np.stack([cache.expert_in[e].T @ d_expert_out[e] for e in range(num_experts)])
        d_expert_in = np.stack([d_expert_out[e] @ t(cache.w_in[e]) for e in range(num_experts)])
        dw_out = None
    else:
        dw_out = np.stack([cache.activated[e].T @ d_expert_out[e] for e in range(num_experts)])
        d_act = np.stack([d_expert_out[e] @ t(cache.w_out[e]) for e in range(num_experts)])
        if cache.drop_scale is not None:
            d_act = d_act * cache.drop_scale
        dh = relu_backward(d_act, cache.pre_relu)
        dw_in = np.stack([cache.expert_in[e].T @ dh[e] for e in range(num_experts)])
        d_expert_in = np.stack([dh[e] @ t(cache.w_in[e]) for e in range(num_experts)])
    dx = np.einsum("ecd,tec->td", d_expert_in, s.dispatch.astype(grad_y.dtype))
    return dx, d_combine[s.token, s.expert, s.slot], dw_in, dw_out


def index_and_onehot(run):
    """``run()`` with the sliced kernel, then with the one-hot reference."""
    got = run()
    with pytest.MonkeyPatch.context() as mp:
        for mod in (sl, parallel_sim):
            mp.setattr(mod, "_Slots", OneHotSlots)
            mp.setattr(mod, "_expert_slices_fwd", onehot_buffers_fwd)
        mp.setattr(sl, "_expert_slices_bwd", onehot_buffers_bwd)
        want = run()
    return got, want


def per_rank_topk(x, params, cfg, cache, grad_y, rng, mode):
    """The top-k layer with every rank in its own one-hot [E, C, ·] buffers.

    Outputs and gradients are summed rank by rank; the expert weight
    gradients accumulate in the weights' dtype. Routing (plans and balance
    stats) is read from the layer's ``cache``. Every rank draws the
    layer's one expert-dropout mask and applies its own entries' rows.
    """
    plans = cache.plans
    ranks = [
        onehot_buffers_fwd(
            x, OneHotSlots.rank_of(plans, r, cfg.selective_precision), params.w_in,
            params.w_out, params.expert_dropout_rate, rng.substream("expert_dropout"), mode,
        )
        for r in range(len(plans))
    ]
    y = ranks[0][0]
    for y_r, _ in ranks[1:]:
        y = y + y_r
    y[cache.all_dropped] = x[cache.all_dropped]

    num_tokens, n = plans[0].router_probs.shape
    g = grad_y.copy()
    g[cache.all_dropped] = 0.0
    dx = np.zeros_like(grad_y)
    dw_in = np.zeros_like(params.w_in)
    dw_out = None if params.w_out is None else np.zeros_like(params.w_out)
    d_gates = np.zeros((num_tokens, len(plans)))
    for r, (_, c) in enumerate(ranks):
        dx_r, d_gate, dw_in_r, dw_out_r = onehot_buffers_bwd(g, c)
        dx += dx_r
        dw_in += dw_in_r
        if dw_out is not None:
            dw_out += dw_out_r
        d_gates[c.slots.token, r] = d_gate

    rows = np.arange(num_tokens)
    d_probs = np.zeros_like(plans[0].router_probs)
    for r, p in enumerate(plans):
        d_probs[rows, p.expert_index] += d_gates[:, r]
    dx[cache.all_dropped] += grad_y[cache.all_dropped]
    d_probs += cfg.alpha * n * cache.stats.f / num_tokens
    d_logits = softmax_backward(d_probs, plans[0].router_probs)
    dx_router = d_logits @ params.w_router.T
    if plans[0].policy_scale is not None:
        dx_router = dx_router * plans[0].policy_scale
    return {
        "y": y, "x": dx + dx_router, "w_router": plans[0].router_inputs.T @ d_logits,
        "w_in": dw_in, "w_out": dw_out,
    }


def shared_and_per_rank(x, params, k, cfg, seed, mode):
    """The top-k layer and its per-rank reference, from one forward pass."""
    out, cache = moe_topk_ffn_fwd(x, params, k, cfg, RngStream(seed), mode)
    grad_y = grad_of(out.y)
    got = {"y": out.y, **moe_topk_ffn_bwd(grad_y, cache)}
    return got, per_rank_topk(x, params, cfg, cache, grad_y, RngStream(seed), mode)


def assert_shared_buffer_matches(got, want):
    """Bitwise except the expert weight gradients, which sum every rank in
    one product where the reference rounds a float32 sum per rank."""
    assert_bitwise(
        {key: got[key] for key in ("y", "x", "w_router")},
        {key: want[key] for key in ("y", "x", "w_router")},
    )
    for key in ("w_in", "w_out"):
        if want[key] is None:
            assert got[key] is None, key
            continue
        err = np.abs(got[key] - want[key].astype(got[key].dtype)).max()
        assert err <= 1e-6 * np.abs(want[key]).max(), f"{key}: max diff {err}"


def assert_bitwise(got, want):
    assert got.keys() == want.keys()
    for key in want:
        if want[key] is None:
            assert got[key] is None, key
            continue
        g, w = np.asarray(got[key]), np.asarray(want[key])
        assert g.dtype == w.dtype, key
        assert np.array_equal(g, w), f"{key}: max diff {np.abs(g - w).max()}"


def make_case(
    num_tokens=96, experts=EXPERTS, expert_form="ffn", dropout=0.0, seed=0,
    d_model=D_MODEL, d_ff=D_FF,
):
    rng = RngStream(seed)
    x = rng.substream("x").normal((num_tokens, d_model)).astype(np.float32)
    params = init_switch_layer_params(
        d_model, d_ff, experts, rng.substream("params"), scale=1.0,
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
    def test_switch_ffn(self, mode, selective_precision, ntlb_stages):
        x, params = make_case(dropout=0.3)
        cfg = RouterConfig(
            EXPERTS, capacity_factor=1.0, policy="input_jitter",
            ntlb_stages=ntlb_stages, selective_precision=selective_precision,
        )

        def run():
            out, cache = switch_ffn_fwd(x, params, cfg, RngStream(5), mode)
            return {"y": out.y, **switch_ffn_bwd(grad_of(out.y), cache)}

        assert_bitwise(*index_and_onehot(run))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("linear", [False, True])
    @pytest.mark.parametrize("selective_precision", [False, True])
    def test_moe_topk_ffn(self, k, linear, selective_precision):
        x, params = make_case(dropout=0.3, expert_form="linear" if linear else "ffn")
        cfg = RouterConfig(
            EXPERTS, capacity_factor=1.0, policy="input_jitter",
            selective_precision=selective_precision,
        )
        got, want = shared_and_per_rank(x, params, k, cfg, 5, "train")
        assert_shared_buffer_matches(got, want)

    @pytest.mark.parametrize("selective_precision", [False, True])
    def test_linear_attention_experts(self, selective_precision):
        x, q_params = make_case(expert_form="linear")
        router = RouterConfig(EXPERTS, capacity_factor=1.0, selective_precision=selective_precision)
        acfg = AttentionConfig(num_heads=2, router=router)
        weights = init_attention_weights(D_MODEL, RngStream(1), dense_q=False)
        xb = x.reshape(6, 16, D_MODEL)

        def run():
            out, cache = attention_fwd(xb, weights, acfg, RngStream(2), "train", q_params=q_params)
            return {"y": out.y, **attention_bwd(grad_of(out.y), cache)}

        assert_bitwise(*index_and_onehot(run))

    @pytest.mark.parametrize(
        "strategy, n, m",
        [("data", 2, 1), ("model", 1, 2), ("data+model", 2, 2),
         ("expert+data", 4, 1), ("expert+model+data", 4, 2)],
    )
    @pytest.mark.parametrize("selective_precision", [False, True])
    def test_sharded_switch_layer(self, strategy, n, m, selective_precision):
        x, params = make_case(num_tokens=128)
        mesh = parallel_sim.make_mesh(n, m, strategy, EXPERTS)
        cfg = RouterConfig(EXPERTS, selective_precision=selective_precision)

        def run():
            out, _ = parallel_sim.run_sharded_switch_layer(x, params, mesh, cfg, RngStream(0))
            return {"y": out.y}

        assert_bitwise(*index_and_onehot(run))

    @pytest.mark.parametrize("selective_precision", [False, True])
    def test_zero_gate_leaves_its_slot_empty(self, selective_precision):
        # Two experts 200 logits apart: the second choice's probability
        # underflows to exactly 0, yet capacity keeps it.
        x = np.abs(make_case(num_tokens=32)[0])
        w_router = np.zeros((D_MODEL, 2), dtype=np.float32)
        w_router[:, 0] = 200.0 / np.abs(x).sum(axis=1).min()
        _, base = make_case(experts=2)
        params = SwitchLayerParams(w_router, base.w_in, base.w_out)
        cfg = RouterConfig(2, capacity_factor=2.0, selective_precision=selective_precision)

        _, cache = moe_topk_ffn_fwd(x, params, 2, cfg, RngStream(0), "eval")
        second = cache.plans[1]
        assert not second.dropped.any() and (second.gate == 0).all()
        slots = cache.experts.slots
        assert slots.token.size == 32 and not slots.rank.any()
        assert_shared_buffer_matches(*shared_and_per_rank(x, params, 2, cfg, 0, "eval"))

    @pytest.mark.parametrize("k", [1, 2])
    def test_capacity_one(self, k):
        x, params = make_case(dropout=0.3)
        cfg = RouterConfig(EXPERTS, capacity_factor=0.01)
        assert expert_capacity(x.shape[0], EXPERTS, 0.01) == 1
        assert_shared_buffer_matches(*shared_and_per_rank(x, params, k, cfg, 3, "train"))


# ---------------------------------------------------------------------------
# Docstring equivalences and structure
# ---------------------------------------------------------------------------


class TestEquivalences:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_top1_mixture_is_switch_ffn(self, mode):
        x, params = make_case(dropout=0.3)
        cfg = RouterConfig(EXPERTS, capacity_factor=1.0, policy="input_jitter", ntlb_stages=1)
        rng_moe, rng_switch = RngStream(8), RngStream(8)
        moe, moe_cache = moe_topk_ffn_fwd(x, params, 1, cfg, rng_moe, mode)
        switch, switch_cache = switch_ffn_fwd(x, params, cfg, rng_switch, mode)
        assert np.array_equal(moe.y, switch.y)
        assert moe.stats.aux_loss == switch.stats.aux_loss
        assert moe.dropped_fraction == switch.dropped_fraction
        assert rng_moe == rng_switch
        # A float64 upstream gradient on float32 weights: every gradient,
        # dtype included, is the switch layer's.
        grad_y = np.cos(moe.y).astype(np.float64)
        assert_bitwise(
            moe_topk_ffn_bwd(grad_y, moe_cache), switch_ffn_bwd(grad_y, switch_cache)
        )

    @pytest.mark.parametrize(
        "mode, dropout",
        [pytest.param("eval", 0.0, id="eval"), pytest.param("train", 0.0, id="train"),
         pytest.param("train", 0.3, id="train-dropout")],
    )
    def test_single_expert_switch_is_dense_ffn(self, mode, dropout):
        # One expert: every gate is exactly 1, every token keeps its slot,
        # and the expert runs the dense FFN's body on the same dropout draw.
        # softmax_backward zeroes the router's gradient, balance loss and all.
        x, params = make_case(experts=1, dropout=dropout)
        cfg = RouterConfig(1, capacity_factor=1.0)
        out, cache = switch_ffn_fwd(x, params, cfg, RngStream(0), mode)
        y, dense_cache = dense_ffn_fwd(
            x, params.w_in[0], params.w_out[0], dropout,
            RngStream(0).substream("expert_dropout"), mode,
        )
        assert out.dropped_fraction == 0.0
        assert np.array_equal(out.y, y)
        grad_y = grad_of(y)
        g = switch_ffn_bwd(grad_y, cache)
        dx, dw_in, dw_out = dense_ffn_bwd(grad_y, dense_cache)
        assert_bitwise(
            {"x": g["x"], "w_in": g["w_in"][0], "w_out": g["w_out"][0]},
            {"x": dx, "w_in": dw_in, "w_out": dw_out},
        )

    @pytest.mark.parametrize("strategy, n", [("data", 2), ("expert+data", 4)])
    def test_one_column_mesh_is_bitwise_per_row_switch_ffn(self, strategy, n):
        x, params = make_case(num_tokens=128)
        cfg = RouterConfig(EXPERTS)
        mesh = parallel_sim.make_mesh(n, 1, strategy, EXPERTS)
        out, _ = parallel_sim.run_sharded_switch_layer(x, params, mesh, cfg, RngStream(0))
        rows = [switch_ffn(xi, params, cfg, RngStream(0), "eval").y for xi in np.split(x, n)]
        assert np.array_equal(out.y, np.concatenate(rows))

    @pytest.mark.parametrize(
        "strategy, n, m",
        [("data", 2, 1), ("model", 1, 2), ("data+model", 2, 2),
         ("expert+data", 4, 1), ("expert+model+data", 4, 2)],
    )
    def test_mesh_routes_once_and_runs_one_kernel_per_column(
        self, monkeypatch, strategy, n, m
    ):
        x, params = make_case(num_tokens=128)
        calls = {"route": [], "kernel": 0}

        def counting_route(tokens, *args, **kwargs):
            calls["route"].append(tokens.shape)
            return route(tokens, *args, **kwargs)

        def counting_kernel(*args):
            calls["kernel"] += 1
            return sl._expert_slices_fwd(*args)

        monkeypatch.setattr(parallel_sim, "route", counting_route)
        monkeypatch.setattr(parallel_sim, "_expert_slices_fwd", counting_kernel)
        mesh = parallel_sim.make_mesh(n, m, strategy, EXPERTS)
        parallel_sim.run_sharded_switch_layer(x, params, mesh, RouterConfig(EXPERTS), RngStream(0))
        assert calls == {"route": [(n, 128 // n, D_MODEL)], "kernel": m}

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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_caches_hold_no_one_hot_tensor(self, k):
        x, params = make_case(num_tokens=64, dropout=0.3)
        cfg = RouterConfig(EXPERTS)
        capacity = expert_capacity(64, EXPERTS, cfg.capacity_factor)
        # A padded [E, C, .] buffer would show by its leading shape, which no
        # weight shares.
        assert capacity not in (D_MODEL, D_FF)
        one_hot_size = 64 * EXPERTS * capacity
        _, switch_cache = switch_ffn_fwd(x, params, cfg, RngStream(0), "train")
        _, moe_cache = moe_topk_ffn_fwd(x, params, k, cfg, RngStream(0), "train")
        for cache in (switch_cache, moe_cache):
            arrays = list(_arrays(cache))
            assert arrays and one_hot_size not in [a.size for a in arrays]
            assert not [a.shape for a in arrays if a.shape[:2] == (EXPERTS, capacity)]
            # Every rank's entries share one set of [K, .] expert rows.
            (experts,) = [c for c in _dataclasses(cache) if isinstance(c, sl._ExpertSliceCache)]
            kept, ffn = experts.slots.token.size, experts.ffn
            assert 0 < kept <= EXPERTS * capacity
            assert ffn.x.shape == experts.expert_out.shape == (kept, D_MODEL)
            assert ffn.activated.shape == ffn.drop_scale.shape == (kept, D_FF)
            # The relu mask comes from ``activated``: the relu input is not kept.
            assert not hasattr(ffn, "pre_relu")
            assert [a.shape for a in _arrays(ffn)].count((kept, D_FF)) == 2

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("ntlb_stages", [0, 2])
    @pytest.mark.parametrize("selective_precision", [False, True])
    def test_merged_slot_map_holds_each_slot_once(self, k, ntlb_stages, selective_precision):
        x, params = make_case(num_tokens=512)
        cfg = RouterConfig(
            EXPERTS, capacity_factor=1.0, ntlb_stages=ntlb_stages,
            selective_precision=selective_precision,
        )
        _, cache = moe_topk_ffn_fwd(x, params, k, cfg, RngStream(0), "train")
        slots = cache.experts.slots
        capacity = cache.plans[0].capacity
        assert slots.num_ranks == k and slots.rank.max() < k
        slot = np.empty_like(slots.token)
        for r, plan in enumerate(cache.plans):
            mine = slots.rank == r
            token = slots.token[mine]
            assert np.unique(token).size == token.size
            assert np.array_equal(slots.expert[mine], plan.expert_index[token])
            slot[mine] = plan.position_in_expert[token]
        assert ((slot >= 0) & (slot < capacity)).all()
        # Sorted by expert and then slot, each slot once: the keys ascend.
        assert (np.diff(slots.expert * capacity + slot) > 0).all()
        # Each expert's entries form its slice, and the ranks share slices.
        assert slots.bounds[0] == 0 and slots.bounds[-1] == slots.token.size
        for e, (lo, hi) in enumerate(zip(slots.bounds, slots.bounds[1:])):
            assert (slots.expert[lo:hi] == e).all()
        assert any(np.unique(slots.rank[lo:hi]).size > 1 for lo, hi in zip(slots.bounds, slots.bounds[1:]))


def _dataclasses(obj):
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _dataclasses(item)
    elif is_dataclass(obj):
        yield obj
        for f in fields(obj):
            yield from _dataclasses(getattr(obj, f.name))


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _arrays(getattr(obj, f.name))


# ---------------------------------------------------------------------------
# Expert slices at their edges
# ---------------------------------------------------------------------------


# At d_model 16 a one-row product happens to round like a row of a larger
# one; at 64 and 128 it does not, so the edge cases run there.
WIDE = dict(d_model=64, d_ff=128)


def steered_case(counts, num_tokens=32, seed=0):
    """Tokens whose first choice is fixed: ``counts[e]`` of them pick expert
    e and the rest pick the last expert, in shuffled order."""
    x, params = make_case(num_tokens=num_tokens, dropout=0.3, seed=seed, **WIDE)
    choice = np.full(num_tokens, EXPERTS - 1)
    choice[: sum(counts)] = np.repeat(np.arange(len(counts)), counts)
    choice = np.random.default_rng(seed).permutation(choice)
    x[np.arange(num_tokens), choice] += 10.0
    w_router = np.zeros((WIDE["d_model"], EXPERTS), dtype=np.float32)
    w_router[np.arange(EXPERTS), np.arange(EXPERTS)] = 1.0
    return x, replace(params, w_router=w_router), choice


class TestExpertSlices:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("selective_precision", [False, True])
    def test_slices_of_zero_one_and_two_rows(self, mode, selective_precision):
        # Experts 0, 1 and 2 keep 0, 1 and 2 tokens at C = 8; the last one
        # overflows.
        x, params, choice = steered_case((0, 1, 2))
        cfg = RouterConfig(EXPERTS, capacity_factor=1.0, selective_precision=selective_precision)

        def run():
            out, cache = switch_ffn_fwd(x, params, cfg, RngStream(5), mode)
            return {"y": out.y, **switch_ffn_bwd(grad_of(out.y), cache)}

        _, cache = switch_ffn_fwd(x, params, cfg, RngStream(5), mode)
        assert np.array_equal(cache.plans[0].expert_index, choice)
        assert cache.plans[0].capacity == 8
        assert np.diff(cache.experts.slots.bounds).tolist() == [0, 1, 2, 8]
        assert_bitwise(*index_and_onehot(run))

    def test_top2_ranks_share_the_short_slices(self):
        x, params, _ = steered_case((0, 1, 2))
        cfg = RouterConfig(EXPERTS, capacity_factor=1.0)
        _, cache = moe_topk_ffn_fwd(x, params, 2, cfg, RngStream(5), "train")
        slots = cache.experts.slots
        bounds = slots.bounds
        assert bounds[4] - bounds[3] == 8
        assert any(np.unique(slots.rank[lo:hi]).size == 2 for lo, hi in zip(bounds, bounds[1:]))
        assert_shared_buffer_matches(*shared_and_per_rank(x, params, 2, cfg, 5, "train"))

    def test_grouped_slices_sort_by_expert_then_group_then_slot(self):
        x, params = make_case(num_tokens=128)
        groups = 4
        plan, _ = route(x.reshape(groups, 32, D_MODEL), params.w_router, RouterConfig(EXPERTS),
                        RngStream(0), "eval")
        slots = sl._Slots.from_plans([plan], False)
        capacity = plan.capacity
        assert np.array_equal(np.sort(slots.token), np.flatnonzero(~plan.dropped))
        expert, group = slots.expert, slots.token // 32
        slot = plan.position_in_expert[slots.token]
        assert np.array_equal(expert, plan.expert_index[slots.token])
        assert ((slot >= 0) & (slot < capacity)).all()
        assert (np.diff((expert * groups + group) * capacity + slot) > 0).all()
        # Expert e's slice spans every group.
        assert np.array_equal(np.diff(slots.bounds), np.bincount(expert, minlength=EXPERTS))
        assert all(np.unique(group[lo:hi]).size == groups
                   for lo, hi in zip(slots.bounds, slots.bounds[1:]))

    def test_grouped_dropout_matches_the_oracle_mask(self):
        # No caller trains on grouped tokens, but the kernel takes them. Its
        # mask rows run expert-major across the groups.
        x, params = make_case(num_tokens=128, **WIDE)
        plan, _ = route(x.reshape(4, 32, WIDE["d_model"]), params.w_router, RouterConfig(EXPERTS),
                        RngStream(0), "eval")
        got, want = (
            kernel(x, slots_from_plans([plan], False), params.w_in, params.w_out, 0.3,
                   RngStream(1), "train")[0]
            for kernel, slots_from_plans in (
                (sl._expert_slices_fwd, sl._Slots.from_plans),
                (onehot_buffers_fwd, OneHotSlots.from_plans),
            )
        )
        assert_bitwise({"y": got}, {"y": want})

    @pytest.mark.parametrize("strategy, n", [("data", 2), ("expert+data", 4)])
    def test_capacity_one_mesh_is_bitwise_per_row_switch_ffn(self, strategy, n):
        # A per-row slice holds at most one entry, a mesh slice up to G: the
        # one-row slices run as two rows, so each row rounds alike in both.
        x, params = make_case(num_tokens=128, **WIDE)
        cfg = RouterConfig(EXPERTS, capacity_factor=0.01)
        mesh = parallel_sim.make_mesh(n, 1, strategy, EXPERTS)
        out, _ = parallel_sim.run_sharded_switch_layer(x, params, mesh, cfg, RngStream(0))
        rows = [switch_ffn(xi, params, cfg, RngStream(0), "eval").y for xi in np.split(x, n)]
        assert np.array_equal(out.y, np.concatenate(rows))

    def test_switch_lm_layer_shape(self):
        # T = 1024, d_model 64, d_ff 128, 8 experts, capacity factor 1.25.
        rng = RngStream(11)
        x = rng.substream("x").normal((1024, 64)).astype(np.float32)
        params = init_switch_layer_params(64, 128, 8, rng.substream("params"))
        cfg = RouterConfig(8, capacity_factor=1.25)

        def run():
            out, cache = switch_ffn_fwd(x, params, cfg, RngStream(5), "train")
            return {"y": out.y, **switch_ffn_bwd(grad_of(out.y), cache)}

        assert_bitwise(*index_and_onehot(run))


# ---------------------------------------------------------------------------
# Random layers against the one-hot reference
# ---------------------------------------------------------------------------


def assert_close(got, want, rtol=1e-6):
    """Every array within ``rtol`` of the largest magnitude in the reference.

    One scale serves the whole layer: a gate gradient is a d_model-long dot
    product that can cancel, so the router and input gradients may be far
    smaller than the terms whose rounding they carry. At one token, two
    experts and d_model 48, w_router differed by 1.4e-6 of its own largest
    magnitude and 4.7e-8 of the layer's.
    """
    assert got.keys() == want.keys()
    scale = max(np.abs(w).max() for w in want.values() if w is not None)
    for key in want:
        if want[key] is None:
            assert got[key] is None, key
            continue
        g, w = np.asarray(got[key]), np.asarray(want[key])
        assert g.dtype == w.dtype and g.shape == w.shape, key
        err = np.abs(g - w).max()
        assert err <= rtol * scale, f"{key}: max diff {err}"


def switch_example(t, e, cf, d_model, d_ff, mode, sp, form, dropout, seed):
    return example(
        num_tokens=t, experts=e, capacity_factor=cf, d_model=d_model, d_ff=d_ff, k=1,
        mode=mode, selective_precision=sp, expert_form=form, dropout=dropout, seed=seed,
    )


class TestRandomLayers:
    # The first five layers differed from the reference in the last place
    # (ROADMAP item 4); at capacity 1 every padded product has one row.
    @settings(max_examples=100, deadline=None)
    @given(
        num_tokens=st.integers(1, 128),
        experts=st.integers(1, 8),
        capacity_factor=st.floats(0.01, 2.0),
        d_model=st.sampled_from([8, 16, 24, 48, 64]),
        d_ff=st.sampled_from([8, 24, 64, 128, 256]),
        k=st.integers(1, 3),
        mode=st.sampled_from(["train", "eval"]),
        selective_precision=st.booleans(),
        expert_form=st.sampled_from(["ffn", "linear"]),
        dropout=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 1000),
    )
    @switch_example(196, 2, 2.0, 24, 256, "train", True, "ffn", 0.0, 877)
    @switch_example(383, 1, 1.25, 48, 64, "train", True, "ffn", 0.0, 788)
    @switch_example(644, 1, 1.25, 32, 64, "train", False, "ffn", 0.0, 970)
    @switch_example(650, 2, 2.0, 96, 24, "train", False, "linear", 0.0, 445)
    @switch_example(500, 2, 2.0, 48, 8, "eval", True, "linear", 0.3, 157)
    @switch_example(96, EXPERTS, 0.01, WIDE["d_model"], WIDE["d_ff"], "train", False, "ffn", 0.3, 3)
    @switch_example(96, EXPERTS, 0.01, WIDE["d_model"], WIDE["d_ff"], "eval", False, "ffn", 0.3, 3)
    def test_sliced_kernel_matches_the_reference(
        self, num_tokens, experts, capacity_factor, d_model, d_ff, k, mode,
        selective_precision, expert_form, dropout, seed,
    ):
        k = min(k, experts)
        x, params = make_case(num_tokens, experts, expert_form, dropout, seed, d_model, d_ff)
        cfg = RouterConfig(
            experts, capacity_factor=capacity_factor, selective_precision=selective_precision
        )
        if k > 1:
            assert_close(*shared_and_per_rank(x, params, k, cfg, seed, mode))
            return

        def run():
            out, cache = switch_ffn_fwd(x, params, cfg, RngStream(seed), mode)
            return {"y": out.y, **switch_ffn_bwd(grad_of(out.y), cache)}

        assert_close(*index_and_onehot(run))


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

    @settings(max_examples=30, deadline=None)
    @given(
        num_tokens=st.integers(1, 4096),
        budgets=st.integers(1, 1 << 15),
        seed=st.integers(0, 2**31),
    )
    def test_int16_key_sorts_like_int64(self, num_tokens, budgets, seed):
        key = np.random.default_rng(seed).integers(0, budgets, num_tokens)
        assert np.array_equal(
            np.argsort(key.astype(np.int16), kind="stable"), np.argsort(key, kind="stable")
        )

    def test_more_budgets_than_int16_keys(self):
        gen = np.random.default_rng(3)
        budgets = (1 << 15) + 5
        # Keys past the int16 range, mixed with small ones.
        choices = np.concatenate(
            [gen.integers(budgets - 8, budgets, 300), gen.integers(0, 4, 300)]
        )
        counts = gen.integers(0, 3, budgets)
        position, after = fill_slots(choices, counts, 3)
        want_position, want_after = loop_fill_slots(choices, counts, 3)
        assert position.tolist() == want_position
        assert after.tolist() == want_after

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

