"""Top-1 expert routing with capacity budgeting.

A learned linear map plus softmax scores each token against N experts; every
token goes to its single best expert, each expert has a fixed slot budget,
and tokens that arrive after an expert is full are dropped (the layer passes
them through unchanged). The module also provides the differentiable
load-balance penalty that keeps the router from collapsing onto a few
experts, four exploration policies for the routing decision, and an optional
iterative rescue pass that re-sends dropped tokens to their next-best
experts.

Conventions fixed here and relied on by tests:
  - argmax ties break to the lowest expert index,
  - capacity is ceil((tokens / experts) * capacity_factor), never below 1,
  - expert slots fill in token order (cumulative-count semantics),
  - the dispatch-fraction vector f counts pre-capacity intent, not
    post-drop placement, and is treated as a constant by the gradient.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .tensor_core import (
    InvalidArgumentError,
    NumericError,
    RngStream,
    one_hot,
    quantize_bf16,
    softmax,
)

__all__ = [
    "RouterConfig",
    "DispatchPlan",
    "LoadBalanceStats",
    "expert_capacity",
    "apply_policy",
    "route",
    "load_balance_loss",
    "load_balance_loss_backward",
    "ntlb_reroute",
    "fill_slots",
    "build_dispatch_combine",
]

POLICIES = ("argmax", "sample_softmax", "input_dropout", "input_jitter")


@dataclass
class RouterConfig:
    """Routing hyperparameters.

    ``alpha`` weights the load-balance loss (default 1e-2). ``policy`` picks
    the train-time exploration strategy; evaluation always reduces to plain
    argmax on unperturbed inputs. ``ntlb_stages`` enables no-token-left-behind
    rerouting (0 = plain top-1 routing). ``selective_precision`` emulates
    bfloat16 transport: router inputs are bf16-quantized on entry, the
    softmax runs at full float32, and the gates that weight the expert
    outputs are re-quantized to bfloat16 on the way out.
    ``jitter_on_logits`` switches the jitter policy to the additive-on-logits
    variant, kept for comparison.
    """

    num_experts: int
    capacity_factor: float = 1.25
    alpha: float = 0.01
    policy: str = "argmax"
    dropout_rate: float = 0.1
    jitter_eps: float = 0.01
    jitter_on_logits: bool = False
    ntlb_stages: int = 0
    selective_precision: bool = False

    def __post_init__(self) -> None:
        if self.num_experts < 1:
            raise InvalidArgumentError(f"num_experts must be >= 1, got {self.num_experts}")
        if self.capacity_factor < 0:
            raise InvalidArgumentError(
                f"capacity_factor must be >= 0, got {self.capacity_factor}"
            )
        if self.alpha < 0:
            raise InvalidArgumentError(f"alpha must be >= 0, got {self.alpha}")
        if self.policy not in POLICIES:
            raise InvalidArgumentError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidArgumentError(
                f"dropout_rate must be in [0, 1), got {self.dropout_rate}"
            )
        if not 0.0 <= self.jitter_eps < 1.0:
            raise InvalidArgumentError(
                f"jitter_eps must be in [0, 1), got {self.jitter_eps}"
            )
        if self.ntlb_stages < 0:
            raise InvalidArgumentError(
                f"ntlb_stages must be >= 0, got {self.ntlb_stages}"
            )


@dataclass
class DispatchPlan:
    """Per-token routing outcome.

    ``position_in_expert`` is the token's slot inside its expert's buffer,
    valid only where ``dropped`` is False (dropped entries hold -1). The full
    softmax output is retained in ``router_probs`` for the balance loss and
    for rerouting. The two trailing fields cache what the training backward
    pass needs (post-policy router input and the elementwise policy scale);
    they are not part of the routing contract.
    """

    expert_index: np.ndarray  # [T] int
    gate: np.ndarray  # [T] float, router prob of the landed expert
    position_in_expert: np.ndarray  # [T] int, -1 where dropped
    dropped: np.ndarray  # [T] bool
    capacity: int
    router_probs: np.ndarray  # [T, N] float
    router_inputs: np.ndarray | None = field(default=None, repr=False)
    policy_scale: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_tokens(self) -> int:
        return int(self.expert_index.shape[0])

    @property
    def num_experts(self) -> int:
        return int(self.router_probs.shape[1])

    def copy(self) -> "DispatchPlan":
        return DispatchPlan(
            self.expert_index.copy(),
            self.gate.copy(),
            self.position_in_expert.copy(),
            self.dropped.copy(),
            self.capacity,
            self.router_probs,
            self.router_inputs,
            self.policy_scale,
        )


@dataclass
class LoadBalanceStats:
    """Dispatch fractions f, mean router probabilities P, and their penalty."""

    f: np.ndarray  # [N] fraction of tokens whose argmax intent is expert i
    P: np.ndarray  # [N] mean router probability of expert i
    aux_loss: float


def expert_capacity(tokens_per_batch: int, num_experts: int, capacity_factor: float) -> int:
    """Slots per expert: ceil((tokens / experts) * capacity_factor), min 1."""
    if num_experts < 1:
        raise InvalidArgumentError(f"num_experts must be >= 1, got {num_experts}")
    if tokens_per_batch < 1:
        raise InvalidArgumentError(
            f"tokens_per_batch must be >= 1, got {tokens_per_batch}"
        )
    cap = math.ceil(tokens_per_batch / num_experts * capacity_factor)
    return max(cap, 1)


def apply_policy(
    token_inputs: np.ndarray, config: RouterConfig, rng: RngStream, mode: str = "train"
) -> np.ndarray:
    """Perturb the router's view of the tokens according to the policy.

    Returns the inputs untouched for argmax and sample_softmax (sampling
    happens at selection time), and for every policy at evaluation. The
    perturbed copy feeds the router only; expert computation always sees the
    original tokens.
    """
    out, _ = _apply_policy_with_scale(token_inputs, config, rng, mode)
    return out


def _apply_policy_with_scale(
    x: np.ndarray, config: RouterConfig, rng: RngStream, mode: str
) -> tuple[np.ndarray, np.ndarray | None]:
    if mode == "eval" or config.policy in ("argmax", "sample_softmax"):
        return x, None
    if config.policy == "input_jitter":
        if config.jitter_on_logits:
            return x, None  # noise added to logits later instead
        eps = config.jitter_eps
        if eps == 0.0:
            return x, None
        noise = rng.uniform(x.shape, 1.0 - eps, 1.0 + eps).astype(x.dtype)
        return x * noise, noise
    # input_dropout
    rate = config.dropout_rate
    if rate == 0.0:
        return x, None
    keep = (rng.uniform(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * keep, keep


def route(
    token_inputs: np.ndarray,
    w_router: np.ndarray,
    config: RouterConfig,
    rng: RngStream,
    mode: str = "train",
    frozen_assignment: DispatchPlan | None = None,
) -> tuple[DispatchPlan, LoadBalanceStats]:
    """Score, select, and capacity-budget a batch of tokens.

    Pipeline: apply the exploration policy to a copy of the inputs, form
    logits against ``w_router``, softmax at full precision, pick one expert
    per token, then fill each expert's slots in token order and flag the
    overflow as dropped. Statistics (f, P, and the balance penalty) come from
    the softmax output and the pre-capacity selection.

    ``frozen_assignment`` re-uses a previous plan's expert choice, drop flags
    and slot positions while recomputing probabilities and gates from the
    current inputs and weights. The training backward pass and the gradient
    checker rely on this: selection is piecewise constant, so its gradient
    path is the gate values alone.
    """
    x = np.asarray(token_inputs)
    w = np.asarray(w_router)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise InvalidArgumentError(
            f"route: inputs {x.shape} and router weights {w.shape} do not agree"
        )
    if mode not in ("train", "eval"):
        raise InvalidArgumentError(f"mode must be 'train' or 'eval', got {mode!r}")

    num_tokens = x.shape[0]
    num_experts = config.num_experts
    if w.shape[1] != num_experts:
        raise InvalidArgumentError(
            f"route: router weights {w.shape} disagree with num_experts={num_experts}"
        )

    router_in, scale = _apply_policy_with_scale(x, config, rng, mode)
    if config.selective_precision:
        # Emulate bfloat16 transport into the router; the math that follows
        # stays at full float32 precision.
        router_in = quantize_bf16(router_in)
    _check_finite_rows(router_in, "inputs")

    with np.errstate(over="ignore", invalid="ignore"):
        # Overflow, or non-finite weights, surface as a NumericError below.
        logits = router_in @ w
    if (
        mode == "train"
        and config.policy == "input_jitter"
        and config.jitter_on_logits
        and config.jitter_eps > 0.0
    ):
        logits = logits + rng.uniform(logits.shape, 1.0 - config.jitter_eps, 1.0 + config.jitter_eps)

    # Finite inputs can still overflow to non-finite logits.
    _check_finite_rows(logits, "logits")

    probs = softmax(logits, axis=-1)

    if frozen_assignment is not None:
        expert_index = frozen_assignment.expert_index
        dropped = frozen_assignment.dropped.copy()
        position = frozen_assignment.position_in_expert.copy()
        capacity = frozen_assignment.capacity
    else:
        if mode == "train" and config.policy == "sample_softmax":
            expert_index = rng.categorical(probs)
        else:
            expert_index = np.argmax(probs, axis=1)  # ties go to the lowest index
        capacity = expert_capacity(num_tokens, num_experts, config.capacity_factor)
        position, _ = fill_slots(
            expert_index, np.zeros(num_experts, dtype=np.int64), capacity
        )
        dropped = position < 0

    gate = probs[np.arange(num_tokens), expert_index]

    intent_mask = one_hot(expert_index, num_experts)
    aux, f_vec, p_vec = _balance_terms(probs, intent_mask, config.alpha)
    stats = LoadBalanceStats(f_vec, p_vec, aux)

    plan = DispatchPlan(
        expert_index=np.asarray(expert_index, dtype=np.int64),
        gate=gate,
        position_in_expert=position,
        dropped=dropped,
        capacity=capacity,
        router_probs=probs,
        router_inputs=router_in,
        policy_scale=scale,
    )

    if config.ntlb_stages > 0 and frozen_assignment is None:
        plan = ntlb_reroute(plan, config.ntlb_stages)

    return plan, stats


def _check_finite_rows(a: np.ndarray, what: str) -> None:
    finite_rows = np.isfinite(a).all(axis=1)
    if not finite_rows.all():
        bad = int(np.argmin(finite_rows))
        raise NumericError(f"route: non-finite {what} for token {bad}")


def fill_slots(
    choices: np.ndarray, counts: np.ndarray, capacity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Offer tokens, in token order, to the experts in ``choices``.

    Expert e already holds ``counts[e]`` tokens, so among the tokens choosing
    e the first ``capacity - counts[e]`` land, in slots ``counts[e]``,
    ``counts[e] + 1``, ...; the rest are turned away. Returns each token's
    slot (-1 where turned away) and the per-expert counts afterwards.
    """
    choices = np.asarray(choices, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.shape[0]
    # Rank of each token among the tokens choosing the same expert: a stable
    # sort groups them by expert in token order, and each group's rank is
    # the offset from where its run starts.
    order = np.argsort(choices, kind="stable")
    per_expert = np.bincount(choices, minlength=n)
    run_start = np.cumsum(per_expert) - per_expert
    rank = np.empty_like(choices)
    rank[order] = np.arange(choices.shape[0]) - run_start[choices[order]]
    position = counts[choices] + rank
    landed = position < capacity
    position[~landed] = -1
    return position, counts + np.bincount(choices[landed], minlength=n)


def _balance_terms(
    probs: np.ndarray, mask: np.ndarray, alpha: float
) -> tuple[float, np.ndarray, np.ndarray]:
    f_vec = mask.mean(axis=0, dtype=np.float64)
    p_vec = probs.mean(axis=0, dtype=np.float64)
    n = probs.shape[1]
    aux = float(alpha * n * np.sum(f_vec * p_vec))
    return aux, f_vec, p_vec


def load_balance_loss(
    router_probs: np.ndarray, expert_mask: np.ndarray, alpha: float = 0.01
) -> float:
    """alpha * N * sum_i f_i * P_i, computed in float64.

    ``expert_mask`` must be the pre-capacity one-hot of each token's chosen
    expert: f counts where tokens wanted to go, not where they fit.
    """
    probs = np.asarray(router_probs)
    mask = np.asarray(expert_mask)
    _check_one_hot(mask)
    if probs.shape != mask.shape:
        raise InvalidArgumentError(
            f"load_balance_loss: probs {probs.shape} and mask {mask.shape} differ"
        )
    aux, _, _ = _balance_terms(probs, mask, alpha)
    return aux


def load_balance_loss_backward(
    router_probs: np.ndarray, expert_mask: np.ndarray, alpha: float = 0.01
) -> np.ndarray:
    """d(loss)/d(router_probs); the f path carries no gradient.

    The dispatch fractions come from a hard argmax and are therefore
    piecewise constant: only the mean-probability vector P is differentiable,
    giving d/dP_i = alpha * N * f_i and hence a per-token gradient of
    alpha * N * f_i / T.
    """
    probs = np.asarray(router_probs)
    mask = np.asarray(expert_mask)
    _check_one_hot(mask)
    num_tokens, n = probs.shape
    f_vec = mask.mean(axis=0, dtype=np.float64)
    grad_row = alpha * n * f_vec / num_tokens
    return np.broadcast_to(grad_row, probs.shape).astype(probs.dtype).copy()


def _check_one_hot(mask: np.ndarray) -> None:
    if mask.ndim != 2:
        raise InvalidArgumentError(f"expert_mask must be 2-D, got shape {mask.shape}")
    values_ok = np.isin(mask, (0.0, 1.0)).all()
    rows_ok = (mask.sum(axis=1) == 1.0).all()
    if not (values_ok and rows_ok):
        raise InvalidArgumentError("expert_mask rows must be exactly one-hot")


def ntlb_reroute(plan: DispatchPlan, stages: int) -> DispatchPlan:
    """Iteratively re-send dropped tokens to their next-best experts.

    Reroute pass k offers each still-dropped token its (k+1)-th
    highest-probability expert; the token lands there if that expert has
    spare capacity, filling in token order. A rerouted token's gate becomes
    its router probability for the expert it actually lands on. The dropped
    count never increases, and the process stops after ``stages`` passes or
    as soon as nothing remains dropped. Plain routing is the stages=0 fixed
    point; passing more stages than there are alternative experts clamps
    with a warning.
    """
    if stages < 1:
        raise InvalidArgumentError(f"ntlb_reroute requires stages >= 1, got {stages}")
    n = plan.num_experts
    if stages > n - 1:
        warnings.warn(
            f"ntlb_reroute: {stages} stages clamped to {n - 1} (only {n} experts)",
            stacklevel=2,
        )
        stages = n - 1

    out = plan.copy()
    if not out.dropped.any():
        return out

    # Stable descending sort: preference rank r of token t is order[t, r].
    order = np.argsort(-out.router_probs, axis=1, kind="stable")
    counts = np.bincount(
        out.expert_index[~out.dropped], minlength=n
    )

    for k in range(1, stages + 1):
        waiting = np.flatnonzero(out.dropped)
        if waiting.size == 0:
            break
        candidate = order[waiting, k]
        position, counts = fill_slots(candidate, counts, out.capacity)
        landed = position >= 0
        t, e = waiting[landed], candidate[landed]
        out.expert_index[t] = e
        out.position_in_expert[t] = position[landed]
        out.gate[t] = out.router_probs[t, e]
        out.dropped[t] = False
    return out


def build_dispatch_combine(
    plan: DispatchPlan, selective_precision: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Expand a plan into one-hot routing tensors of shape [tokens, experts, capacity].

    Reference oracle, not on the hot path: the expert layers gather and
    scatter by index from the plan itself, and tests compare them against
    this dense (GShard-style) form. ``combine[t, e, c]`` holds the token's
    gate value exactly where token t occupies slot c of expert e and zero
    elsewhere; ``dispatch`` is its boolean support. With selective precision
    on, combine is bfloat16-quantized after construction, mirroring the cast
    the transport layer would apply.
    """
    num_tokens, n = plan.router_probs.shape
    combine = np.zeros((num_tokens, n, plan.capacity), dtype=plan.gate.dtype)
    kept = ~plan.dropped
    idx = np.flatnonzero(kept)
    combine[idx, plan.expert_index[idx], plan.position_in_expert[idx]] = plan.gate[idx]
    if selective_precision:
        combine = quantize_bf16(combine)
    dispatch = combine != 0
    return dispatch, combine
