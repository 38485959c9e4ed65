"""Sparse expert layers: switch FFN, dense and top-k baselines, switch attention.

The switch FFN routes every token to one expert feed-forward network and
scales that expert's output by the router gate; tokens that overflow an
expert's slot budget pass through unchanged. It is the top-k mixture layer
at k = 1, and both run one routed-FFN forward and one backward pass. An
expert is the dense FFN applied to the tokens routed to it: one FFN body,
``_ffn_fwd``/``_ffn_bwd``, serves the dense baseline and every expert, and
with no output weight it is the linear map of the attention variant whose
query projection is expert-routed.

Capacity decides which tokens each expert keeps, but the experts multiply
only the kept rows. The paper pads every expert to its capacity because
accelerator tensors must be statically sized; here the kept rows are sorted
by expert and each expert runs its own contiguous slice (``_Slots``). Where
the tests pin them, the results have the bits of the padded products, and
everywhere they agree with those products within float32 round-off.

Every layer is a ``*_fwd``/``*_bwd`` pair: ``*_fwd`` returns the output and a
cache, and ``*_bwd`` consumes the cache. ``switch_ffn`` is the switch FFN's
forward alone, for callers that need no gradient. Backward passes treat the
routing assignment as piecewise constant: gradients flow through gate values
and expert weights, never through the discrete expert choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .router import (
    DispatchPlan,
    LoadBalanceStats,
    RouterConfig,
    alternative_experts,
    fill_slots,
    route,
)
from .tensor_core import (
    InvalidArgumentError,
    RngStream,
    init_weight,
    inverted_dropout,
    quantize_bf16,
    relu,
    relu_backward,
    softmax,
    softmax_backward,
)

__all__ = [
    "SwitchLayerParams",
    "LayerOutput",
    "AttentionWeights",
    "AttentionConfig",
    "init_switch_layer_params",
    "init_attention_weights",
    "dense_ffn_fwd",
    "dense_ffn_bwd",
    "switch_ffn",
    "switch_ffn_fwd",
    "switch_ffn_bwd",
    "moe_topk_ffn_fwd",
    "moe_topk_ffn_bwd",
    "attention_fwd",
    "attention_bwd",
]

DEFAULT_INIT_SCALE = 0.1  # a tenth of the usual transformer init scale


@dataclass
class SwitchLayerParams:
    """Router weights plus one FFN (or projection) per expert.

    ``w_in`` is [experts, d_model, d_ff] and ``w_out`` [experts, d_ff,
    d_model]; all experts share one shape. For linear-form attention experts
    ``w_in`` is [experts, d_model, d_model] and ``w_out`` is None.
    ``expert_dropout_rate`` applies inside expert intermediates only and is
    conventionally raised (0.4) during fine-tuning while ordinary dropout
    stays low (0.1).
    """

    w_router: np.ndarray  # [d_model, experts]
    w_in: np.ndarray  # [experts, d_model, d_ff]
    w_out: np.ndarray | None  # [experts, d_ff, d_model]
    expert_dropout_rate: float = 0.0

    @property
    def num_experts(self) -> int:
        return int(self.w_in.shape[0])


@dataclass
class LayerOutput:
    """Layer result plus the routing byproducts the trainer aggregates."""

    y: np.ndarray
    stats: LoadBalanceStats
    dropped_fraction: float


@dataclass
class AttentionWeights:
    """Shared attention projections; ``w_q`` is None when queries are expert-routed."""

    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    w_q: np.ndarray | None = None


@dataclass
class AttentionConfig:
    num_heads: int = 1
    router: RouterConfig | None = None


def init_switch_layer_params(
    d_model: int,
    d_ff: int,
    num_experts: int,
    rng: RngStream | None,
    scale: float = DEFAULT_INIT_SCALE,
    expert_dropout_rate: float = 0.0,
    expert_form: str = "ffn",
) -> SwitchLayerParams:
    """Truncated-normal init for router and expert weights (sigma^2 = scale/fan_in).

    With ``rng`` None every weight is zero and nothing is drawn.
    """
    w_router = init_weight((d_model, num_experts), scale, d_model, rng, "w_router")
    d_hidden = d_model if expert_form == "linear" else d_ff
    w_in = np.stack([
        init_weight((d_model, d_hidden), scale, d_model, rng, f"expert{e}.w_in")
        for e in range(num_experts)
    ])
    w_out = None
    if expert_form != "linear":
        w_out = np.stack([
            init_weight((d_ff, d_model), scale, d_ff, rng, f"expert{e}.w_out")
            for e in range(num_experts)
        ])
    return SwitchLayerParams(w_router, w_in, w_out, expert_dropout_rate)


def init_attention_weights(
    d_model: int,
    rng: RngStream | None,
    scale: float = DEFAULT_INIT_SCALE,
    dense_q: bool = True,
) -> AttentionWeights:
    """Truncated-normal attention projections; zeros and no draw with ``rng`` None."""
    def weight(label: str) -> np.ndarray:
        return init_weight((d_model, d_model), scale, d_model, rng, label)

    return AttentionWeights(
        w_k=weight("w_k"), w_v=weight("w_v"), w_o=weight("w_o"),
        w_q=weight("w_q") if dense_q else None,
    )


# ---------------------------------------------------------------------------
# The FFN body, shared by the dense FFN and every expert
# ---------------------------------------------------------------------------


class _DenseRows:
    """Every row meets the one 2-D weight: the dense FFN's products.

    ``_Slots`` has the same two methods for expert-sorted rows.
    """

    @staticmethod
    def matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
        return a @ w

    @staticmethod
    def weight_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a.T @ b


@dataclass
class DenseFfnCache:
    """Backward state of one FFN body; ``w_out`` None marks a linear map.

    The relu input is not kept: ``activated`` is positive exactly where it
    was, so it carries the relu mask as well.
    """

    x: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray | None
    activated: np.ndarray | None  # post-relu, post-dropout; None for a linear map
    drop_scale: np.ndarray | None  # None when dropout is inert


def _ffn_fwd(
    x: np.ndarray,
    w_in: np.ndarray,
    w_out: np.ndarray | None,
    dropout: float,
    rng: RngStream | None,
    mode: str,
    rows=_DenseRows,
) -> tuple[np.ndarray, DenseFfnCache]:
    """relu(x @ w_in) @ w_out with dropout on the intermediate; x @ w_in when
    ``w_out`` is None.

    The weights are one 2-D matrix each, or [E, ., .] stacks applied to
    expert-sorted rows, each expert's slice with its own weights, when
    ``rows`` is their ``_Slots``. Either way dropout draws one mask over the
    rows that run, [T, d_ff] or [K, d_ff].
    """
    h = rows.matmul(x, w_in)
    if w_out is None:
        return h, DenseFfnCache(x, w_in, None, None, None)
    activated, drop_scale = inverted_dropout(relu(h), dropout, rng, mode)
    return rows.matmul(activated, w_out), DenseFfnCache(x, w_in, w_out, activated, drop_scale)


def _ffn_bwd(
    grad_y: np.ndarray, cache: DenseFfnCache, rows=_DenseRows
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Returns (dx, dw_in, dw_out), with dw_out None for a linear map; ``rows``
    as in ``_ffn_fwd``."""
    t = lambda w: w.swapaxes(-1, -2)
    if cache.w_out is None:
        dh, dw_out = grad_y, None
    else:
        dw_out = rows.weight_grad(cache.activated, grad_y)
        d_act = rows.matmul(grad_y, t(cache.w_out))
        if cache.drop_scale is not None:
            d_act = d_act * cache.drop_scale
        # The relu mask is ``activated > 0``: the relu output is positive
        # exactly where its input is, and dropout keeps it positive (the
        # scale is at least 1). Where dropout zeroed an entry, d_act is
        # already +-0, which either mask leaves with the same bits. dh
        # overwrites d_act, which nothing else holds.
        dh = relu_backward(d_act, cache.activated, out=d_act)
    return rows.matmul(dh, t(cache.w_in)), rows.weight_grad(cache.x, dh), dw_out


def dense_ffn_fwd(
    x: np.ndarray,
    w_in: np.ndarray,
    w_out: np.ndarray,
    dropout: float = 0.0,
    rng: RngStream | None = None,
    mode: str = "eval",
) -> tuple[np.ndarray, DenseFfnCache]:
    """y = relu(x @ w_in) @ w_out with train-time dropout on the intermediate,
    plus the cache ``dense_ffn_bwd`` consumes."""
    x, w_in, w_out = np.asarray(x), np.asarray(w_in), np.asarray(w_out)
    if x.shape[-1] != w_in.shape[0] or w_in.shape[1] != w_out.shape[0]:
        raise InvalidArgumentError(
            f"dense_ffn: shapes x{x.shape}, w_in{w_in.shape}, w_out{w_out.shape} do not chain"
        )
    return _ffn_fwd(x, w_in, w_out, dropout, rng, mode)


def dense_ffn_bwd(
    grad_y: np.ndarray, cache: DenseFfnCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dx, dw_in, dw_out)."""
    return _ffn_bwd(grad_y, cache)


# ---------------------------------------------------------------------------
# Expert slices: the shared gather -> FFN -> scatter kernel
# ---------------------------------------------------------------------------


@dataclass
class _Slots:
    """A routed layer's kept entries, sorted by expert, then group, then slot.

    Entry i sends input row ``token[i]`` to expert ``expert[i]``, and the
    expert's output for it is scaled by ``gate[i]``. Expert e's entries are
    the slice ``bounds[e]:bounds[e + 1]``; a grouped plan's slices span
    every group, since the groups share the expert weights.

    Only kept tokens with a nonzero gate hold a slot. With selective
    precision the gate is bfloat16-quantized first, so a kept token whose
    gate rounds to zero leaves its slot empty, exactly as in the one-hot
    form of ``build_dispatch_combine``. A top-k map holds every rank's
    entries, ``rank[i]`` naming the rank; the ranks fill one capacity
    budget, so no slot repeats, and each rank lists a token at most once.

    Each expert runs its 2-D products on its own slice, and expert dropout
    draws one [K, d_ff] mask over the entries in this order. The padded
    [E, C, d] products of the one-hot form differ from the slices only in
    rounding:
    - where the oracle tests pin them, the bits are equal: at the tests'
      toy shapes (C up to 40, d_model 16 and 64) and at C = 160,
      switch_lm's layer shape (OpenBLAS 0.3.31);
    - everywhere else every output and gradient agrees within 1e-6 of the
      largest magnitude among them, which a property test checks on random
      layers. At C = 1 with d_model 64, and in some layers with C in the
      hundreds, the bits differ.
    """

    token: np.ndarray  # [K] int
    expert: np.ndarray  # [K] int
    gate: np.ndarray  # [K] float
    rank: np.ndarray  # [K] int
    bounds: list[int]  # [E + 1]
    num_tokens: int
    num_ranks: int

    @classmethod
    def from_plans(cls, plans: list[DispatchPlan], selective_precision: bool) -> "_Slots":
        """One map for the ranks of a routed layer, whose plans share a capacity budget."""
        per_rank = []
        for r, p in enumerate(plans):
            token = np.flatnonzero(~p.dropped)
            gate = p.gate[token]
            if selective_precision:
                gate = quantize_bf16(gate)
            live = gate != 0
            token = token[live]
            per_rank.append((
                token, gate[live], p.expert_index[token], p.position_in_expert[token],
                np.full(token.size, r),
            ))
        token, gate, expert, slot, rank = [np.concatenate(c) for c in zip(*per_rank)]
        plan = plans[0]
        groups, experts, capacity = plan.num_groups, plan.num_experts, plan.capacity
        group = token // (plan.num_tokens // groups)
        # One counting pass over the expert-major slot grid, where every
        # slot holds at most one entry: slot c of expert e in group g has
        # key (e·G + g)·C + c, and the entries follow the ascending keys.
        entry = np.full(experts * groups * capacity, -1)
        entry[(expert * groups + group) * capacity + slot] = np.arange(token.size)
        key = np.flatnonzero(entry >= 0)
        order = entry[key]
        return cls(
            token[order], expert[order], gate[order], rank[order],
            np.searchsorted(key, np.arange(experts + 1) * groups * capacity).tolist(),
            plan.num_tokens, len(plans),
        )

    def matmul(self, a: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Each expert's slice of the [K, .] rows times its 2-D weight in ``w``."""
        # The backward pass's transposed stacks are copied once per call:
        # the products run faster against C-contiguous weights. At
        # switch_lm's backward shape, 8 slices of about 115 rows, they took
        # 172 us against 210 us on the transposed view (one BLAS thread,
        # 2-vCPU Xeon, OpenBLAS 0.3.31).
        if not w[0].flags.c_contiguous:
            w = np.ascontiguousarray(w)
        out = np.empty((a.shape[0], w.shape[-1]), dtype=np.result_type(a, w))
        for e, (lo, hi) in enumerate(zip(self.bounds, self.bounds[1:])):
            if hi - lo == 1:
                # A one-row product takes another BLAS path, which rounds
                # otherwise. Run as two rows, the second zero, a row gets the
                # bits it has in a larger slice, so a one-column mesh, whose
                # slices span its groups, matches the per-row layer bit for
                # bit. Without the pad, capacity-1 rows at d_model 64
                # differed by 4.8e-7.
                out[lo] = (np.concatenate((a[lo:hi], np.zeros_like(a[lo:hi]))) @ w[e])[0]
            elif hi > lo:
                np.matmul(a[lo:hi], w[e], out=out[lo:hi])
        return out

    def weight_grad(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The [E, ., .] stack of a[slice].T @ b[slice]; zero for an empty slice."""
        bounds = self.bounds
        out = np.empty((len(bounds) - 1, a.shape[1], b.shape[1]), dtype=np.result_type(a, b))
        for e, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            np.matmul(a[lo:hi].T, b[lo:hi], out=out[e])
        return out

    def scatter(self, rows: np.ndarray) -> np.ndarray:
        """The entries' [K, d] rows onto their tokens' [T, d] rows; zero elsewhere.

        Rank 0 assigns its rows and later ranks add theirs in rank order:
        since a rank lists each token at most once, this is the per-rank sum
        ``y_0 + y_1 + ...`` bit for bit.
        """
        out = np.zeros((self.num_tokens, rows.shape[1]), dtype=rows.dtype)
        if self.num_ranks == 1:
            out[self.token] = rows
            return out
        for r in range(self.num_ranks):
            mine = self.rank == r
            if r == 0:
                out[self.token[mine]] = rows[mine]
            else:
                out[self.token[mine]] += rows[mine]
        return out


@dataclass
class _ExpertSliceCache:
    slots: _Slots
    ffn: DenseFfnCache  # the experts' FFN body over the [K, d] sorted rows
    expert_out: np.ndarray  # [K, d], before the gate


def _expert_slices_fwd(
    x: np.ndarray,
    slots: _Slots,
    w_in: np.ndarray,
    w_out: np.ndarray | None,
    expert_dropout: float,
    rng: RngStream | None,
    mode: str,
) -> tuple[np.ndarray, _ExpertSliceCache]:
    """Gather the kept rows, run each expert on its slice, scatter gate-scaled outputs.

    The gather and scatter move rows by index, so the cost is linear in the
    token count, and the experts multiply the K kept rows only. The rows
    agree with the padded [E, C, d] products of the one-hot einsum form as
    ``_Slots`` states. Where the tests check it, a single-expert layer is
    bit-identical to the dense baseline, and each group of a grouped plan
    to that group run alone.
    """
    expert_out, ffn = _ffn_fwd(
        x.take(slots.token, axis=0), w_in, w_out, expert_dropout, rng, mode, slots
    )
    y = slots.scatter(expert_out * slots.gate[:, None])
    return y, _ExpertSliceCache(slots, ffn, expert_out)


def _expert_slices_bwd(
    grad_y: np.ndarray, cache: _ExpertSliceCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Returns (dx, d_gate [K], dw_in, dw_out); d_gate follows ``cache.slots``."""
    slots = cache.slots
    grad_rows = grad_y.take(slots.token, axis=0)
    # einsum reduces over d the way the one-hot d_combine einsum did, which
    # keeps the gate gradient bit-identical to that form.
    d_gate = np.einsum("kd,kd->k", grad_rows, cache.expert_out)
    grad_rows = grad_rows * slots.gate[:, None]  # the unscaled rows are freed here
    d_rows, dw_in, dw_out = _ffn_bwd(grad_rows, cache.ffn, slots)
    return slots.scatter(d_rows), d_gate, dw_in, dw_out


# ---------------------------------------------------------------------------
# Routed FFN: top-k mixture, with the switch FFN as k = 1
# ---------------------------------------------------------------------------


@dataclass
class MoeCache:
    """Routed-FFN backward state; every rank's entries sit in the one ``experts``."""

    plans: list[DispatchPlan]
    stats: LoadBalanceStats
    experts: _ExpertSliceCache
    all_dropped: np.ndarray
    w_router: np.ndarray
    alpha: float


def _routed_ffn_fwd(
    x: np.ndarray,
    params: SwitchLayerParams,
    k: int,
    router_config: RouterConfig,
    rng: RngStream,
    mode: str,
) -> tuple[LayerOutput, MoeCache]:
    """Route every token to its k best experts and gate-scale their outputs.

    The k ranks share each expert's capacity budget, rank-major, so one
    slot map holds all of them and the experts run once per layer.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise InvalidArgumentError(f"moe_topk_ffn: expected [tokens, d_model], got {x.shape}")
    n = router_config.num_experts
    if k > n:
        raise InvalidArgumentError(f"moe_topk_ffn: k={k} exceeds num_experts={n}")
    if k < 1:
        raise InvalidArgumentError(f"moe_topk_ffn: k must be >= 1, got {k}")

    # Rank 0 is the switch routing decision: top-1 with the exploration
    # policy, capacity budgeting and NTLB rescue all inside ``route``.
    plan0, stats = route(x, params.w_router, router_config, rng.substream("route"), mode)
    num_tokens = x.shape[0]
    capacity = plan0.capacity
    probs = plan0.router_probs
    rows = np.arange(num_tokens)

    plans = [plan0]
    if k > 1:
        # Remaining ranks take the token's other experts in probability
        # order: rank 0 is the one it holds, which NTLB or sampling may have
        # moved off the top-probability expert.
        rest = alternative_experts(probs, plan0.expert_index)
        # Fill capacity rank-major: all first choices (already budgeted
        # inside route), then second choices into leftover slots, and so on.
        counts = np.bincount(plan0.expert_index[~plan0.dropped], minlength=n)
    for r in range(1, k):
        choice = rest[:, r - 1].copy()
        position, counts = fill_slots(choice, counts, capacity)
        plans.append(replace(
            plan0, expert_index=choice, gate=probs[rows, choice],
            position_in_expert=position, dropped=position < 0,
        ))

    # Each slot holds one assignment, so one dropout mask covers every rank.
    y, experts = _expert_slices_fwd(
        x, _Slots.from_plans(plans, router_config.selective_precision),
        params.w_in, params.w_out,
        params.expert_dropout_rate, rng.substream("expert_dropout"), mode,
    )

    # Tokens whose every assignment overflowed bypass the layer through the
    # residual path.
    all_dropped = np.logical_and.reduce([p.dropped for p in plans])
    y[all_dropped] = x[all_dropped]

    out = LayerOutput(y, stats, float(all_dropped.mean()))
    cache = MoeCache(
        plans, stats, experts, all_dropped, np.asarray(params.w_router), router_config.alpha
    )
    return out, cache


def _routed_ffn_bwd(grad_y: np.ndarray, cache: MoeCache) -> dict[str, np.ndarray]:
    """Returns grads for x, w_router, w_in, w_out of the output plus the
    balance loss; the expert choices, drop flags and f are constants."""
    plans = cache.plans
    num_tokens, n = plans[0].router_probs.shape
    probs = plans[0].router_probs

    # Tokens that every rank dropped hold no slot, so the experts never read
    # their rows of grad_y; the passthrough sends those rows straight to x.
    dx, d_gate, dw_in, dw_out = _expert_slices_bwd(grad_y, cache.experts)
    dx[cache.all_dropped] += grad_y[cache.all_dropped]
    slots = cache.experts.slots

    # A slot's gate is probs[t, e] (straight-through the bf16 quantization
    # when selective precision is on). A token's k choices are distinct
    # experts, so the fancy-index += writes every (row, expert) cell at most
    # once.
    d_probs = np.zeros_like(probs)
    d_probs[slots.token, slots.expert] += d_gate

    if cache.alpha != 0.0:
        # aux = alpha * N * sum_i f_i * P_i, with f piecewise constant and
        # P_i the token mean of probs[:, i]: each token gets alpha * N * f / T.
        d_probs += cache.alpha * n * cache.stats.f / num_tokens

    d_logits = softmax_backward(d_probs, probs)
    dw_router = plans[0].router_inputs.T @ d_logits
    dx_router = d_logits @ cache.w_router.T
    if plans[0].policy_scale is not None:
        dx_router = dx_router * plans[0].policy_scale
    dx = dx + dx_router
    return {"x": dx, "w_router": dw_router, "w_in": dw_in, "w_out": dw_out}


def switch_ffn_fwd(
    x: np.ndarray,
    params: SwitchLayerParams,
    router_config: RouterConfig,
    rng: RngStream,
    mode: str = "train",
) -> tuple[LayerOutput, MoeCache]:
    """The switch FFN forward pass: the routed FFN at k = 1."""
    return _routed_ffn_fwd(x, params, 1, router_config, rng, mode)


def switch_ffn(
    x: np.ndarray,
    params: SwitchLayerParams,
    router_config: RouterConfig,
    rng: RngStream,
    mode: str = "train",
) -> LayerOutput:
    """Route, run one expert per token, and gate-scale the outputs."""
    out, _ = switch_ffn_fwd(x, params, router_config, rng, mode)
    return out


def switch_ffn_bwd(grad_y: np.ndarray, cache: MoeCache) -> dict[str, np.ndarray]:
    """Switch FFN gradients for x, w_router, w_in, w_out; see ``_routed_ffn_bwd``."""
    return _routed_ffn_bwd(grad_y, cache)


def moe_topk_ffn_fwd(
    x: np.ndarray,
    params: SwitchLayerParams,
    k: int,
    router_config: RouterConfig,
    rng: RngStream,
    mode: str = "train",
) -> tuple[LayerOutput, MoeCache]:
    """Top-k mixture, y = sum over surviving assignments of p_i(x) * E_i(x),
    plus its cache; see ``_routed_ffn_fwd``.

    Gates come from the full softmax over all experts, not renormalized over
    the selected set. The k ranks share one capacity buffer of C slots per
    expert: rank r takes only the slots that ranks before it left free. A
    token falls back to the residual passthrough only when every one of its
    k assignments overflows.
    """
    return _routed_ffn_fwd(x, params, k, router_config, rng, mode)


def moe_topk_ffn_bwd(grad_y: np.ndarray, cache: MoeCache) -> dict[str, np.ndarray]:
    """Top-k gradients for x, w_router, w_in, w_out; see ``_routed_ffn_bwd``."""
    return _routed_ffn_bwd(grad_y, cache)


# ---------------------------------------------------------------------------
# Attention (dense or switch-routed queries)
# ---------------------------------------------------------------------------


@dataclass
class AttentionCache:
    x: np.ndarray  # [B, L, d]
    weights: AttentionWeights
    config: AttentionConfig
    q_cache: MoeCache | None  # switch projection cache (None for dense q)
    q: np.ndarray  # [B, L, d]
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray  # [B, H, L, L] softmax weights
    context: np.ndarray  # [B, L, d], pre-output-projection


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, l, d = x.shape
    return x.reshape(b, l, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def attention_fwd(
    x: np.ndarray,
    weights: AttentionWeights,
    config: AttentionConfig,
    rng: RngStream,
    mode: str = "train",
    q_params: SwitchLayerParams | None = None,
) -> tuple[LayerOutput, AttentionCache]:
    """Multi-head attention forward pass plus its cache.

    With ``q_params`` a switch FFN computes the queries, so only they are
    expert-routed, and its balance loss is attached to the output. Its
    experts are linear maps when ``q_params.w_out`` is None.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise InvalidArgumentError(f"attention expects [batch, seq, d_model], got {x.shape}")
    b, l, d = x.shape
    if d % config.num_heads != 0:
        raise InvalidArgumentError(
            f"d_model {d} not divisible by num_heads {config.num_heads}"
        )

    q_cache = None
    if q_params is None:
        if weights.w_q is None:
            raise InvalidArgumentError("dense attention requires w_q")
        q = x @ weights.w_q
        stats = LoadBalanceStats(np.ones(1), np.ones(1), 0.0)
        dropped_fraction = 0.0
    else:
        if config.router is None:
            raise InvalidArgumentError("switch attention requires config.router")
        flat = x.reshape(b * l, d)
        q_out, q_cache = switch_ffn_fwd(
            flat, q_params, config.router, rng.substream("q_route"), mode
        )
        q = q_out.y.reshape(b, l, d)
        stats = q_out.stats
        dropped_fraction = q_out.dropped_fraction

    k = x @ weights.w_k
    v = x @ weights.w_v

    qh, kh, vh = (_split_heads(t, config.num_heads) for t in (q, k, v))
    # A Python float, so the scores keep the activations' dtype.
    scale = 1.0 / math.sqrt(d // config.num_heads)
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    attn = softmax(scores, axis=-1)
    ctx = _merge_heads(attn @ vh)
    y = ctx @ weights.w_o

    out = LayerOutput(y, stats, dropped_fraction)
    cache = AttentionCache(x, weights, config, q_cache, q, k, v, attn, ctx)
    return out, cache


def attention_bwd(grad_y: np.ndarray, cache: AttentionCache) -> dict[str, np.ndarray]:
    """Grads for x, w_k, w_v, w_o, and either w_q or the query switch params
    under a ``q.`` prefix (no ``q.w_out`` for linear experts)."""
    x, w = cache.x, cache.weights
    b, l, d = x.shape
    h = cache.config.num_heads
    scale = 1.0 / math.sqrt(d // h)

    # Products against a transposed weight run on the flat [B*L, .] rows,
    # where they measured about twice as fast as batched over B (OpenBLAS
    # 0.3.31, d=64); the forward pass's untransposed products measured
    # faster batched, so they stay [B, L, d]. The two forms gave the same
    # bits at every shape checked.
    flat = lambda t: t.reshape(b * l, t.shape[-1])
    x_flat, gy = flat(x), flat(grad_y)

    dw_o = flat(cache.context).T @ gy
    d_ctx_h = _split_heads((gy @ w.w_o.T).reshape(b, l, d), h)

    # Each temporary is dropped once its last reader has run, so the
    # working set holds a few [B*L, d] arrays; the products and sums are
    # those of the plain expressions, and so are the bits.
    dv = flat(_merge_heads(cache.attn.swapaxes(-1, -2) @ d_ctx_h))
    dw_v, dx_v = x_flat.T @ dv, dv @ w.w_v.T
    del dv
    d_attn = d_ctx_h @ _split_heads(cache.v, h).swapaxes(-1, -2)
    del d_ctx_h
    d_scores = softmax_backward(d_attn, cache.attn, axis=-1)
    del d_attn
    d_scores *= scale
    dq = flat(_merge_heads(d_scores @ _split_heads(cache.k, h)))
    dk = flat(_merge_heads(d_scores.swapaxes(-1, -2) @ _split_heads(cache.q, h)))
    del d_scores
    dw_k = x_flat.T @ dk
    dx = dk @ w.w_k.T + dx_v
    del dk, dx_v

    grads: dict[str, np.ndarray] = {"w_k": dw_k, "w_v": dw_v, "w_o": dw_o}
    if cache.q_cache is None:
        grads["w_q"] = x_flat.T @ dq
        dx = dx + dq @ w.w_q.T
    else:
        q_grads = switch_ffn_bwd(dq, cache.q_cache)
        dx = dx + q_grads.pop("x")
        grads.update((f"q.{k}", g) for k, g in q_grads.items() if g is not None)
    grads["x"] = dx.reshape(b, l, d)
    return grads
