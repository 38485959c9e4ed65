"""Sparse expert layers: switch FFN, dense and top-k baselines, switch attention.

The switch FFN routes every token to one expert feed-forward network and
scales that expert's output by the router gate; tokens that overflow an
expert's slot budget pass through unchanged. A dense FFN baseline, a top-k
mixture baseline, and an attention variant whose query projection is
expert-routed share the same building blocks.

Every layer comes in two flavors: a plain forward (``dense_ffn``,
``switch_ffn``, ...) matching the public contract, and a ``*_fwd``/``*_bwd``
pair used by the trainer, where ``*_fwd`` additionally returns a cache and
``*_bwd`` consumes it. Backward passes treat the routing assignment as
piecewise constant: gradients flow through gate values and expert weights,
never through the discrete expert choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .router import (
    DispatchPlan,
    LoadBalanceStats,
    RouterConfig,
    expert_capacity,
    fill_slots,
    load_balance_loss_backward,
    route,
)
from .tensor_core import (
    InvalidArgumentError,
    RngStream,
    quantize_bf16,
    relu,
    relu_backward,
    softmax,
    softmax_backward,
    trunc_normal_init,
)

__all__ = [
    "SwitchLayerParams",
    "LayerOutput",
    "AttentionWeights",
    "AttentionConfig",
    "init_switch_layer_params",
    "init_attention_weights",
    "dense_ffn",
    "dense_ffn_fwd",
    "dense_ffn_bwd",
    "switch_ffn",
    "switch_ffn_fwd",
    "switch_ffn_bwd",
    "moe_topk_ffn",
    "moe_topk_ffn_fwd",
    "moe_topk_ffn_bwd",
    "switch_attention",
    "attention_fwd",
    "attention_bwd",
    "expert_dropout_mask",
    "dense_ffn_macs_per_token",
    "switch_ffn_macs_per_token",
    "router_macs_per_token",
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
    dropout_rate: float = 0.0
    expert_dropout_rate: float = 0.0

    @property
    def num_experts(self) -> int:
        return int(self.w_in.shape[0])


@dataclass
class LayerOutput:
    """Layer result plus the routing byproducts the trainer aggregates."""

    y: np.ndarray
    aux_loss: float
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
    expert_form: str = "linear"  # "linear" | "ffn" query experts
    router: RouterConfig | None = None

    def __post_init__(self) -> None:
        if self.expert_form not in ("linear", "ffn"):
            raise InvalidArgumentError(
                f"expert_form must be 'linear' or 'ffn', got {self.expert_form!r}"
            )


def init_switch_layer_params(
    d_model: int,
    d_ff: int,
    num_experts: int,
    rng: RngStream,
    scale: float = DEFAULT_INIT_SCALE,
    dropout_rate: float = 0.0,
    expert_dropout_rate: float = 0.0,
    expert_form: str = "ffn",
) -> SwitchLayerParams:
    """Truncated-normal init for router and expert weights (sigma^2 = scale/fan_in)."""
    w_router = trunc_normal_init((d_model, num_experts), scale, d_model, rng.substream("w_router"))
    if expert_form == "linear":
        w_in = np.stack(
            [
                trunc_normal_init((d_model, d_model), scale, d_model, rng.substream(f"expert{e}.w_in"))
                for e in range(num_experts)
            ]
        )
        w_out = None
    else:
        w_in = np.stack(
            [
                trunc_normal_init((d_model, d_ff), scale, d_model, rng.substream(f"expert{e}.w_in"))
                for e in range(num_experts)
            ]
        )
        w_out = np.stack(
            [
                trunc_normal_init((d_ff, d_model), scale, d_ff, rng.substream(f"expert{e}.w_out"))
                for e in range(num_experts)
            ]
        )
    return SwitchLayerParams(w_router, w_in, w_out, dropout_rate, expert_dropout_rate)


def init_attention_weights(
    d_model: int,
    rng: RngStream,
    scale: float = DEFAULT_INIT_SCALE,
    dense_q: bool = True,
) -> AttentionWeights:
    w_q = (
        trunc_normal_init((d_model, d_model), scale, d_model, rng.substream("w_q"))
        if dense_q
        else None
    )
    return AttentionWeights(
        w_k=trunc_normal_init((d_model, d_model), scale, d_model, rng.substream("w_k")),
        w_v=trunc_normal_init((d_model, d_model), scale, d_model, rng.substream("w_v")),
        w_o=trunc_normal_init((d_model, d_model), scale, d_model, rng.substream("w_o")),
        w_q=w_q,
    )


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------


def _dropout(
    x: np.ndarray, rate: float, rng: RngStream | None, mode: str
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout; returns (output, keep-scale) with scale None when inert."""
    if mode != "train" or rate == 0.0:
        return x, None
    if not 0.0 <= rate < 1.0:
        raise InvalidArgumentError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise InvalidArgumentError("dropout in train mode requires an rng")
    keep = (rng.uniform(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * keep, keep


def expert_dropout_mask(intermediate: np.ndarray, rate: float, rng: RngStream) -> np.ndarray:
    """Apply inverted dropout to an expert intermediate (train-time helper)."""
    out, _ = _dropout(np.asarray(intermediate), rate, rng, "train")
    return out


# ---------------------------------------------------------------------------
# Dense FFN baseline
# ---------------------------------------------------------------------------


@dataclass
class DenseFfnCache:
    x: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray
    pre_relu: np.ndarray
    activated: np.ndarray  # post-relu, post-dropout
    drop_scale: np.ndarray | None


def dense_ffn_fwd(
    x: np.ndarray,
    w_in: np.ndarray,
    w_out: np.ndarray,
    dropout: float = 0.0,
    rng: RngStream | None = None,
    mode: str = "eval",
) -> tuple[np.ndarray, DenseFfnCache]:
    x, w_in, w_out = np.asarray(x), np.asarray(w_in), np.asarray(w_out)
    if x.shape[-1] != w_in.shape[0] or w_in.shape[1] != w_out.shape[0]:
        raise InvalidArgumentError(
            f"dense_ffn: shapes x{x.shape}, w_in{w_in.shape}, w_out{w_out.shape} do not chain"
        )
    h = x @ w_in
    r = relu(h)
    rd, drop_scale = _dropout(r, dropout, rng, mode)
    y = rd @ w_out
    return y, DenseFfnCache(x, w_in, w_out, h, rd, drop_scale)


def dense_ffn(
    x: np.ndarray,
    w_in: np.ndarray,
    w_out: np.ndarray,
    dropout: float = 0.0,
    rng: RngStream | None = None,
    mode: str = "eval",
) -> np.ndarray:
    """y = relu(x @ w_in) @ w_out with train-time dropout on the intermediate."""
    y, _ = dense_ffn_fwd(x, w_in, w_out, dropout, rng, mode)
    return y


def dense_ffn_bwd(
    grad_y: np.ndarray, cache: DenseFfnCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dx, dw_in, dw_out)."""
    dw_out = cache.activated.T @ grad_y
    d_act = grad_y @ cache.w_out.T
    if cache.drop_scale is not None:
        d_act = d_act * cache.drop_scale
    dh = relu_backward(d_act, cache.pre_relu)
    dw_in = cache.x.T @ dh
    dx = dh @ cache.w_in.T
    return dx, dw_in, dw_out


# ---------------------------------------------------------------------------
# Expert buffers: the shared gather -> FFN -> scatter kernel
# ---------------------------------------------------------------------------


@dataclass
class _Slots:
    """Where a plan puts each token: row ``token[i]`` of the input sits in
    slot ``slot[i]`` of expert ``expert[i]``, and its output is scaled by
    ``gate[i]``.

    Only kept tokens with a nonzero gate occupy a slot. With selective
    precision the gate is bfloat16-quantized first, so a kept token whose
    gate rounds to zero leaves its slot empty, exactly as in the one-hot
    form of ``build_dispatch_combine``.
    """

    token: np.ndarray  # [K] int
    expert: np.ndarray  # [K] int
    slot: np.ndarray  # [K] int
    gate: np.ndarray  # [K] float
    num_tokens: int
    num_experts: int
    capacity: int

    @classmethod
    def from_plan(cls, plan: DispatchPlan, selective_precision: bool) -> "_Slots":
        token = np.flatnonzero(~plan.dropped)
        gate = plan.gate[token]
        if selective_precision:
            gate = quantize_bf16(gate)
        live = gate != 0
        token, gate = token[live], gate[live]
        return cls(
            token, plan.expert_index[token], plan.position_in_expert[token], gate,
            plan.num_tokens, plan.num_experts, plan.capacity,
        )

    def gather(self, x: np.ndarray, gated: bool = False) -> np.ndarray:
        """[T, d] rows, optionally gate-scaled, into a zero-padded [E, C, d] buffer."""
        rows = x[self.token]
        if gated:
            rows = rows * self.gate[:, None]
        buf = np.zeros((self.num_experts, self.capacity, x.shape[1]), dtype=rows.dtype)
        buf[self.expert, self.slot] = rows
        return buf

    def scatter(self, buf: np.ndarray, gated: bool = False) -> np.ndarray:
        """[E, C, d] slots, optionally gate-scaled, back onto their [T, d] rows; zero elsewhere."""
        rows = buf[self.expert, self.slot]
        if gated:
            rows = rows * self.gate[:, None]
        out = np.zeros((self.num_tokens, buf.shape[2]), dtype=rows.dtype)
        out[self.token] = rows
        return out


@dataclass
class _ExpertBufferCache:
    slots: _Slots
    expert_in: np.ndarray  # [E, C, d]
    pre_relu: np.ndarray | None  # [E, C, f] (None for linear experts)
    activated: np.ndarray | None
    drop_scale: np.ndarray | None
    expert_out: np.ndarray  # [E, C, d]
    w_in: np.ndarray
    w_out: np.ndarray | None
    linear: bool


def _per_expert(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[e] @ b[e]`` for every expert e, each as its own 2-D product."""
    out = np.empty((a.shape[0], a.shape[1], b.shape[2]), dtype=np.result_type(a, b))
    for e in range(a.shape[0]):
        np.matmul(a[e], b[e], out=out[e])
    return out


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose every expert's matrix (a view)."""
    return a.transpose(0, 2, 1)


def _expert_buffers_fwd(
    x: np.ndarray,
    slots: _Slots,
    w_in: np.ndarray,
    w_out: np.ndarray | None,
    expert_dropout: float,
    rng: RngStream | None,
    mode: str,
) -> tuple[np.ndarray, _ExpertBufferCache]:
    """Gather tokens into expert slots, run the experts, scatter gate-scaled outputs.

    The gather and scatter move rows by index, so the cost is linear in the
    token count. Expert matmuls run per expert as plain 2-D products over the
    padded [C, d] buffers, which keeps the arithmetic identical to the
    one-hot einsum form and a single-expert layer bit-identical to the dense
    baseline.
    """
    expert_in = slots.gather(x)
    if w_out is None:  # linear experts (attention variant)
        expert_out = _per_expert(expert_in, w_in)
        pre_relu = activated = drop_scale = None
    else:
        pre_relu = _per_expert(expert_in, w_in)
        r = relu(pre_relu)
        activated, drop_scale = _dropout(r, expert_dropout, rng, mode)
        expert_out = _per_expert(activated, w_out)
    y = slots.scatter(expert_out, gated=True)
    cache = _ExpertBufferCache(
        slots, expert_in, pre_relu, activated, drop_scale,
        expert_out, w_in, w_out, w_out is None,
    )
    return y, cache


def _expert_buffers_bwd(
    grad_y: np.ndarray, cache: _ExpertBufferCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Returns (dx, d_gate [K], dw_in, dw_out); d_gate follows ``cache.slots``."""
    slots = cache.slots
    d_expert_out = slots.gather(grad_y, gated=True)
    # einsum reduces over d the way the one-hot d_combine einsum did, which
    # keeps the gate gradient bit-identical to that form.
    d_gate = np.einsum(
        "kd,kd->k", grad_y[slots.token], cache.expert_out[slots.expert, slots.slot]
    )
    if cache.linear:
        dw_in = _per_expert(_t(cache.expert_in), d_expert_out)
        d_expert_in = _per_expert(d_expert_out, _t(cache.w_in))
        dw_out = None
    else:
        dw_out = _per_expert(_t(cache.activated), d_expert_out)
        d_act = _per_expert(d_expert_out, _t(cache.w_out))
        if cache.drop_scale is not None:
            d_act = d_act * cache.drop_scale
        dh = relu_backward(d_act, cache.pre_relu)
        dw_in = _per_expert(_t(cache.expert_in), dh)
        d_expert_in = _per_expert(dh, _t(cache.w_in))
    dx = slots.scatter(d_expert_in)
    return dx, d_gate, dw_in, dw_out


# ---------------------------------------------------------------------------
# Switch FFN
# ---------------------------------------------------------------------------


@dataclass
class SwitchFfnCache:
    plan: DispatchPlan
    stats: LoadBalanceStats
    buffers: _ExpertBufferCache
    w_router: np.ndarray
    alpha: float


def switch_ffn_fwd(
    x: np.ndarray,
    params: SwitchLayerParams,
    router_config: RouterConfig,
    rng: RngStream,
    mode: str = "train",
    frozen_plan: DispatchPlan | None = None,
) -> tuple[LayerOutput, SwitchFfnCache]:
    x = np.asarray(x)
    plan, stats = route(
        x, params.w_router, router_config, rng.substream("route"), mode,
        frozen_assignment=frozen_plan,
    )
    y, buffers = _expert_buffers_fwd(
        x, _Slots.from_plan(plan, router_config.selective_precision),
        params.w_in, params.w_out,
        params.expert_dropout_rate, rng.substream("expert_dropout"), mode,
    )
    # Overflowed tokens bypass the layer through the residual path.
    if plan.dropped.any():
        y = y.copy()
        y[plan.dropped] = x[plan.dropped]
    out = LayerOutput(y, stats.aux_loss, stats, float(plan.dropped.mean()))
    return out, SwitchFfnCache(plan, stats, buffers, np.asarray(params.w_router), router_config.alpha)


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


def switch_ffn_bwd(
    grad_y: np.ndarray, cache: SwitchFfnCache, aux_weight: float = 1.0
) -> dict[str, np.ndarray]:
    """Returns grads for x, w_router, w_in, w_out.

    ``aux_weight`` scales the balance-loss contribution (the trainer adds the
    aux term to the total loss with weight 1). The expert assignment, drop
    flags and f-vector are constants of the backward pass.
    """
    plan, buffers = cache.plan, cache.buffers
    dx, d_gate, dw_in, dw_out = _expert_buffers_bwd(grad_y, buffers)

    if plan.dropped.any():
        # Expert-path contribution is zero for dropped rows (they hold no
        # slot); the passthrough writes grad_y straight onto x.
        dx[plan.dropped] += grad_y[plan.dropped]

    d_probs = np.zeros_like(plan.router_probs)
    slots = buffers.slots
    # Gate path: the slot's gate is probs[t, e_t] (straight-through the bf16
    # quantization when selective precision is on).
    d_probs[slots.token, slots.expert] = d_gate
    if aux_weight != 0.0 and cache.alpha != 0.0:
        num_tokens, n = plan.router_probs.shape
        d_probs += aux_weight * cache.alpha * n * cache.stats.f / num_tokens

    d_logits = softmax_backward(d_probs, plan.router_probs)
    dw_router = plan.router_inputs.T @ d_logits
    dx_router = d_logits @ cache.w_router.T
    if plan.policy_scale is not None:
        dx_router = dx_router * plan.policy_scale
    dx = dx + dx_router
    return {"x": dx, "w_router": dw_router, "w_in": dw_in, "w_out": dw_out}


# ---------------------------------------------------------------------------
# Top-k mixture baseline
# ---------------------------------------------------------------------------


@dataclass
class MoeCache:
    plans: list[DispatchPlan]
    stats: LoadBalanceStats
    buffers: list[_ExpertBufferCache]
    all_dropped: np.ndarray
    w_router: np.ndarray
    alpha: float
    renormalize: bool
    gate_norm: np.ndarray | None  # [T] sum of selected probs when renormalizing
    raw_gates: np.ndarray | None  # [T, k] pre-renormalization gates


def moe_topk_ffn_fwd(
    x: np.ndarray,
    params: SwitchLayerParams,
    k: int,
    router_config: RouterConfig,
    rng: RngStream,
    mode: str = "train",
    renormalize: bool = False,
    frozen_plans: list[DispatchPlan] | None = None,
) -> tuple[LayerOutput, MoeCache]:
    """Top-k forward pass plus its cache.

    ``frozen_plans`` (a previous cache's ``plans``) re-uses every rank's
    expert choice, drop flags and slot positions while gates are recomputed
    from the current inputs and weights, as ``switch_ffn_fwd``'s
    ``frozen_plan`` does for one rank.
    """
    x = np.asarray(x)
    n = router_config.num_experts
    if k > n:
        raise InvalidArgumentError(f"moe_topk_ffn: k={k} exceeds num_experts={n}")
    if k < 1:
        raise InvalidArgumentError(f"moe_topk_ffn: k must be >= 1, got {k}")
    if frozen_plans is not None and len(frozen_plans) != k:
        raise InvalidArgumentError(
            f"moe_topk_ffn: {len(frozen_plans)} frozen plans for k={k}"
        )

    # Rank-0 selection reuses the switch routing path verbatim so that k=1
    # reproduces switch_ffn bit-for-bit, including rng consumption.
    plan0, stats = route(
        x, params.w_router, router_config, rng.substream("route"), mode,
        frozen_assignment=None if frozen_plans is None else frozen_plans[0],
    )
    num_tokens = x.shape[0]
    capacity = plan0.capacity
    probs = plan0.router_probs
    rows = np.arange(num_tokens)

    plans = [plan0]
    if k > 1 and frozen_plans is None:
        # Remaining ranks take the next-best experts in stable probability
        # order, skipping the rank-0 choice (which NTLB or sampling may have
        # moved off the top-probability expert).
        order = np.argsort(-probs, axis=1, kind="stable")
        rest = order[order != plan0.expert_index[:, None]].reshape(num_tokens, n - 1)
        # Fill capacity rank-major: all first choices (already budgeted
        # inside route), then second choices into leftover slots, and so on.
        counts = np.bincount(plan0.expert_index[~plan0.dropped], minlength=n)
    for r in range(1, k):
        if frozen_plans is None:
            choice = rest[:, r - 1].copy()
            position, counts = fill_slots(choice, counts, capacity)
        else:
            choice = frozen_plans[r].expert_index
            position = frozen_plans[r].position_in_expert
        plans.append(
            DispatchPlan(
                expert_index=choice,
                gate=probs[rows, choice],
                position_in_expert=position,
                dropped=position < 0,
                capacity=capacity,
                router_probs=probs,
                router_inputs=plan0.router_inputs,
                policy_scale=plan0.policy_scale,
            )
        )

    gate_norm = None
    raw_gates = None
    if renormalize:
        raw_gates = np.stack([p.gate.copy() for p in plans], axis=1)
        gate_norm = raw_gates.sum(axis=1)
        for p in plans:
            p.gate = p.gate / gate_norm

    y = None
    buffers = []
    for r, p in enumerate(plans):
        label = "expert_dropout" if r == 0 else f"expert_dropout_rank{r}"
        y_r, buf = _expert_buffers_fwd(
            x, _Slots.from_plan(p, router_config.selective_precision),
            params.w_in, params.w_out,
            params.expert_dropout_rate, rng.substream(label), mode,
        )
        buffers.append(buf)
        y = y_r if y is None else y + y_r

    all_dropped = np.logical_and.reduce([p.dropped for p in plans])
    if all_dropped.any():
        y = y.copy()
        y[all_dropped] = x[all_dropped]

    out = LayerOutput(y, stats.aux_loss, stats, float(all_dropped.mean()))
    cache = MoeCache(
        plans, stats, buffers, all_dropped, np.asarray(params.w_router),
        router_config.alpha, renormalize, gate_norm, raw_gates,
    )
    return out, cache


def moe_topk_ffn(
    x: np.ndarray,
    params: SwitchLayerParams,
    k: int,
    router_config: RouterConfig,
    rng: RngStream,
    mode: str = "train",
    renormalize: bool = False,
) -> LayerOutput:
    """Top-k mixture: y = sum over surviving assignments of p_i(x) * E_i(x).

    Gates come from the full softmax and are not renormalized over the
    selected set unless ``renormalize`` is set. A token falls back to the
    residual passthrough only when every one of its k assignments overflows.
    """
    out, _ = moe_topk_ffn_fwd(x, params, k, router_config, rng, mode, renormalize)
    return out


def moe_topk_ffn_bwd(
    grad_y: np.ndarray, cache: MoeCache, aux_weight: float = 1.0
) -> dict[str, np.ndarray]:
    plans, buffers = cache.plans, cache.buffers
    num_tokens, n = plans[0].router_probs.shape
    probs = plans[0].router_probs

    dx = np.zeros_like(grad_y)
    dw_in = np.zeros_like(buffers[0].w_in)
    dw_out = None if buffers[0].linear else np.zeros_like(buffers[0].w_out)
    d_probs = np.zeros_like(probs)

    g = grad_y
    if cache.all_dropped.any():
        g = grad_y.copy()
        g[cache.all_dropped] = 0.0

    d_gates = np.zeros((num_tokens, len(plans)))
    for r, buf in enumerate(buffers):
        dx_r, d_gate, dw_in_r, dw_out_r = _expert_buffers_bwd(g, buf)
        dx += dx_r
        dw_in += dw_in_r
        if dw_out is not None:
            dw_out += dw_out_r
        d_gates[buf.slots.token, r] = d_gate

    if cache.renormalize:
        # gate_r = raw_r / sum(raw); raw_r = probs[t, choice_r].
        s = cache.gate_norm
        raw = cache.raw_gates
        weighted = (d_gates * raw).sum(axis=1)  # sum_r d_gate_r * raw_r
        for r, p in enumerate(plans):
            d_raw = d_gates[:, r] / s - weighted / (s * s)
            np.add.at(d_probs, (np.arange(num_tokens), p.expert_index), d_raw)
    else:
        for r, p in enumerate(plans):
            np.add.at(d_probs, (np.arange(num_tokens), p.expert_index), d_gates[:, r])

    if cache.all_dropped.any():
        dx[cache.all_dropped] += grad_y[cache.all_dropped]

    if aux_weight != 0.0 and cache.alpha != 0.0:
        d_probs += aux_weight * cache.alpha * n * cache.stats.f / num_tokens

    d_logits = softmax_backward(d_probs, probs)
    dw_router = plans[0].router_inputs.T @ d_logits
    dx_router = d_logits @ cache.w_router.T
    if plans[0].policy_scale is not None:
        dx_router = dx_router * plans[0].policy_scale
    dx = dx + dx_router
    return {"x": dx, "w_router": dw_router, "w_in": dw_in, "w_out": dw_out}


# ---------------------------------------------------------------------------
# Attention (dense or switch-routed queries)
# ---------------------------------------------------------------------------


@dataclass
class AttentionCache:
    x: np.ndarray  # [B, L, d]
    weights: AttentionWeights
    config: AttentionConfig
    q_cache: SwitchFfnCache | None  # switch projection cache (None for dense q)
    q_plan_dropped: np.ndarray | None
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
    x = np.asarray(x)
    if x.ndim != 3:
        raise InvalidArgumentError(f"attention expects [batch, seq, d_model], got {x.shape}")
    b, l, d = x.shape
    if d % config.num_heads != 0:
        raise InvalidArgumentError(
            f"d_model {d} not divisible by num_heads {config.num_heads}"
        )

    q_cache = None
    dropped = None
    if q_params is None:
        if weights.w_q is None:
            raise InvalidArgumentError("dense attention requires w_q")
        q = x @ weights.w_q
        aux = 0.0
        stats = LoadBalanceStats(np.ones(1), np.ones(1), 0.0)
        dropped_fraction = 0.0
    else:
        if config.router is None:
            raise InvalidArgumentError("switch attention requires config.router")
        flat = x.reshape(b * l, d)
        q_out, q_cache = switch_ffn_fwd(
            flat, q_params, config.router, rng.substream("q_route"), mode,
        )
        q = q_out.y.reshape(b, l, d)
        aux = q_out.aux_loss
        stats = q_out.stats
        dropped = q_cache.plan.dropped
        dropped_fraction = q_out.dropped_fraction

    k = x @ weights.w_k
    v = x @ weights.w_v

    qh, kh, vh = (_split_heads(t, config.num_heads) for t in (q, k, v))
    scale = 1.0 / np.sqrt(d // config.num_heads)
    scores = np.einsum("bhqd,bhkd->bhqk", qh, kh) * scale
    attn = softmax(scores, axis=-1)
    ctx = _merge_heads(np.einsum("bhqk,bhkd->bhqd", attn, vh))
    y = ctx @ weights.w_o

    out = LayerOutput(y, aux, stats, dropped_fraction)
    cache = AttentionCache(x, weights, config, q_cache, dropped, q, k, v, attn, ctx)
    return out, cache


def attention_bwd(
    grad_y: np.ndarray, cache: AttentionCache, aux_weight: float = 1.0
) -> dict[str, np.ndarray]:
    """Grads for x, w_k, w_v, w_o, and either w_q or the query switch params."""
    x, w = cache.x, cache.weights
    b, l, d = x.shape
    h = cache.config.num_heads
    scale = 1.0 / np.sqrt(d // h)

    flat = lambda t: t.reshape(b * l, t.shape[-1])

    dw_o = flat(cache.context).T @ flat(grad_y)
    d_ctx = (grad_y @ w.w_o.T).reshape(b, l, d)

    d_ctx_h = _split_heads(d_ctx, h)
    vh = _split_heads(cache.v, h)
    qh = _split_heads(cache.q, h)
    kh = _split_heads(cache.k, h)

    d_attn = np.einsum("bhqd,bhkd->bhqk", d_ctx_h, vh)
    dvh = np.einsum("bhqk,bhqd->bhkd", cache.attn, d_ctx_h)
    d_scores = softmax_backward(d_attn, cache.attn, axis=-1) * scale
    dqh = np.einsum("bhqk,bhkd->bhqd", d_scores, kh)
    dkh = np.einsum("bhqk,bhqd->bhkd", d_scores, qh)

    dq = _merge_heads(dqh)
    dk = _merge_heads(dkh)
    dv = _merge_heads(dvh)

    dw_k = flat(x).T @ flat(dk)
    dw_v = flat(x).T @ flat(dv)
    dx = dk @ w.w_k.T + dv @ w.w_v.T

    grads: dict[str, np.ndarray] = {"w_k": dw_k, "w_v": dw_v, "w_o": dw_o}
    if cache.q_cache is None:
        grads["w_q"] = flat(x).T @ flat(dq)
        dx = dx + dq @ w.w_q.T
    else:
        q_grads = switch_ffn_bwd(flat(dq), cache.q_cache, aux_weight)
        grads["q.w_router"] = q_grads["w_router"]
        grads["q.w_in"] = q_grads["w_in"]
        if q_grads["w_out"] is not None:
            grads["q.w_out"] = q_grads["w_out"]
        dx = dx + q_grads["x"].reshape(b, l, d)
    grads["x"] = dx
    return grads


def switch_attention(
    x: np.ndarray,
    q_params: SwitchLayerParams,
    kv_weights: AttentionWeights,
    attn_config: AttentionConfig,
    rng: RngStream,
    mode: str = "train",
) -> LayerOutput:
    """Attention whose per-token query projection is picked by a switch router.

    Keys and values come from shared dense weights; only the query side is
    expert-routed, and the balance loss of its router is attached to the
    output. Experts are linear maps by default (``attn_config.expert_form``
    switches to full FFN experts).
    """
    out, _ = attention_fwd(x, kv_weights, attn_config, rng, mode, q_params=q_params)
    return out


# ---------------------------------------------------------------------------
# Multiply-add accounting
# ---------------------------------------------------------------------------


def dense_ffn_macs_per_token(d_model: int, d_ff: int) -> int:
    """Multiply-adds per token through a dense FFN: two matmuls."""
    return 2 * d_model * d_ff


def switch_ffn_macs_per_token(d_model: int, d_ff: int, num_experts: int) -> int:
    """Per-token expert compute, router excluded: one expert's FFN, whatever N is."""
    del num_experts  # each token runs through exactly one expert
    return 2 * d_model * d_ff


def router_macs_per_token(d_model: int, num_experts: int) -> int:
    """The only per-token cost that grows with N: the routing matmul."""
    return d_model * num_experts
