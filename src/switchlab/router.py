"""Top-1 expert routing with capacity budgeting.

A learned linear map plus softmax scores each token against N experts; every
token goes to its single best expert, each expert has a fixed slot budget,
and tokens that arrive after an expert is full are dropped (the layer passes
them through unchanged). Tokens may come in G groups of S, ``[G, S, d]``,
as the cores of a mesh route them: each group then has its own slot budget
and statistics, as if routed alone. The module also provides the
differentiable load-balance penalty that keeps the router from collapsing
onto a few experts, four exploration policies for the routing decision, and
an optional iterative rescue pass that re-sends dropped tokens to their
next-best experts.

Conventions fixed here and relied on by tests:
  - argmax ties break to the lowest expert index,
  - capacity is ceil((tokens / experts) * capacity_factor), never below 1,
    counted per group,
  - expert slots fill in token order (cumulative-count semantics), and the
    slot budget of expert e in group g is keyed g·E + e,
  - the dispatch-fraction vector f counts pre-capacity intent, not
    post-drop placement, and is treated as a constant by the gradient,
  - a token's alternatives (``alternative_experts``) are its experts other
    than the one it holds, most probable first, ties to the lowest index;
    NTLB stage k offers a dropped token its k-th, so under sample_softmax the
    sampled expert is never re-offered and an unsampled top one comes first.
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
    inverted_dropout,
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
    "alternative_experts",
    "ntlb_reroute",
    "fill_slots",
    "build_dispatch_combine",
]

POLICIES = ("argmax", "sample_softmax", "input_dropout", "input_jitter")


@dataclass
class RouterConfig:
    """Routing hyperparameters.

    ``num_experts`` is the expert count N. ``capacity_factor`` scales each
    expert's slot budget (see ``expert_capacity``). ``alpha`` weights the
    load-balance loss (default 1e-2). ``policy`` picks the train-time
    exploration strategy; evaluation always reduces to plain argmax on
    unperturbed inputs. ``dropout_rate`` is the input_dropout policy's drop
    rate. ``jitter_eps`` is the input_jitter policy's noise half-width: the
    router's inputs are scaled by uniform draws in [1 - eps, 1 + eps].
    ``ntlb_stages`` enables no-token-left-behind rerouting (0 = plain top-1
    routing). ``selective_precision`` emulates bfloat16 transport: router
    inputs are bf16-quantized on entry, the softmax runs at full float32,
    and the gates that weight the expert outputs are re-quantized to
    bfloat16 on the way out.
    """

    num_experts: int = 4
    capacity_factor: float = 1.25
    alpha: float = 0.01
    policy: str = "argmax"
    dropout_rate: float = 0.1
    jitter_eps: float = 0.01
    ntlb_stages: int = 0
    selective_precision: bool = False

    def __post_init__(self) -> None:
        if self.num_experts < 1:
            raise InvalidArgumentError(f"num_experts must be >= 1, got {self.num_experts}")
        if not 0.0 <= self.capacity_factor < math.inf:  # also false for nan
            raise InvalidArgumentError(
                f"capacity_factor must be finite and >= 0, got {self.capacity_factor}"
            )
        if not 0.0 <= self.alpha < math.inf:
            raise InvalidArgumentError(f"alpha must be finite and >= 0, got {self.alpha}")
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

    Arrays are flat over all T = G·S tokens, group-major. ``capacity`` is the
    slot budget of one expert in one group, and ``position_in_expert`` is the
    token's slot inside its group's buffer for its expert, valid only where
    ``dropped`` is False (dropped entries hold -1). The full softmax output
    is retained in ``router_probs`` for the balance loss and for rerouting.
    ``router_inputs`` and ``policy_scale`` cache what the training backward
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
    num_groups: int = 1

    @property
    def num_tokens(self) -> int:
        return int(self.expert_index.shape[0])

    @property
    def num_experts(self) -> int:
        return int(self.router_probs.shape[1])

    def slot_key(self, tokens: np.ndarray, experts: np.ndarray) -> np.ndarray:
        """group·E + expert: the slot budget that ``tokens`` fill at ``experts``."""
        return _slot_key(tokens, experts, self.num_tokens // self.num_groups, self.num_experts)

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
            self.num_groups,
        )


@dataclass
class LoadBalanceStats:
    """Dispatch fractions f, mean router probabilities P, and their penalty.

    For grouped tokens each is the mean over the groups of the group's own.
    """

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
    x: np.ndarray, config: RouterConfig, rng: RngStream, mode: str = "train"
) -> tuple[np.ndarray, np.ndarray | None]:
    """Perturb the router's view of the tokens according to the policy.

    Returns the router's inputs and the elementwise scale applied to them,
    None where the inputs come back untouched: for argmax and sample_softmax
    (sampling happens at selection time), and for every policy at evaluation.
    The perturbed copy feeds the router only; expert computation always sees
    the original tokens.
    """
    if mode == "eval" or config.policy in ("argmax", "sample_softmax"):
        return x, None
    if config.policy == "input_jitter":
        eps = config.jitter_eps
        if eps == 0.0:
            return x, None
        noise = rng.uniform(x.shape, 1.0 - eps, 1.0 + eps, dtype=np.float32)
        return x * noise, noise
    # input_dropout
    return inverted_dropout(x, config.dropout_rate, rng, mode)


def route(
    token_inputs: np.ndarray,
    w_router: np.ndarray,
    config: RouterConfig,
    rng: RngStream,
    mode: str = "train",
) -> tuple[DispatchPlan, LoadBalanceStats]:
    """Score, select, and capacity-budget a batch of tokens.

    Pipeline: apply the exploration policy to a copy of the inputs, form
    logits against ``w_router``, softmax at full precision, pick one expert
    per token, then fill each expert's slots in token order and flag the
    overflow as dropped. Statistics (f, P, and the balance penalty) come from
    the softmax output and the pre-capacity selection.

    ``token_inputs`` is ``[T, d]``, or ``[G, S, d]`` for G groups of S
    tokens. A group gets ``expert_capacity(S, E, capacity_factor)`` slots per
    expert and its own statistics, and the returned ones are their means over
    the groups. Each group's logits come from the same 2-D product that a
    call on that group alone runs, so at argmax routing the plan and the
    statistics equal those of G separate calls bit for bit; the plan's arrays
    are flat over the G·S tokens.
    """
    x = np.asarray(token_inputs)
    w = np.asarray(w_router)
    if x.ndim not in (2, 3) or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise InvalidArgumentError(
            f"route: inputs {x.shape} and router weights {w.shape} do not agree"
        )
    if mode not in ("train", "eval"):
        raise InvalidArgumentError(f"mode must be 'train' or 'eval', got {mode!r}")

    num_groups = x.shape[0] if x.ndim == 3 else 1
    group_size = x.shape[-2]
    num_tokens = num_groups * group_size
    num_experts = config.num_experts
    if w.shape[1] != num_experts:
        raise InvalidArgumentError(
            f"route: router weights {w.shape} disagree with num_experts={num_experts}"
        )

    flat = x.reshape(num_tokens, x.shape[-1])
    router_in, scale = apply_policy(flat, config, rng, mode)
    if config.selective_precision:
        # Emulate bfloat16 transport into the router; the math that follows
        # stays at full float32 precision.
        router_in = quantize_bf16(router_in)
    _check_finite_rows(router_in, "inputs")

    with np.errstate(over="ignore", invalid="ignore"):
        # Overflow, or non-finite weights, surface as a NumericError below.
        # One 2-D product per group: BLAS may round a row differently in a
        # product with another row count.
        logits = (router_in.reshape(x.shape) @ w).reshape(num_tokens, num_experts)

    # Finite inputs can still overflow to non-finite logits.
    _check_finite_rows(logits, "logits")

    probs = softmax(logits, axis=-1)

    if mode == "train" and config.policy == "sample_softmax":
        expert_index = rng.categorical(probs)
    else:
        expert_index = np.argmax(probs, axis=1)  # ties go to the lowest index
    tokens = np.arange(num_tokens)
    key = _slot_key(tokens, expert_index, group_size, num_experts)
    capacity = expert_capacity(group_size, num_experts, config.capacity_factor)
    position, _ = fill_slots(key, np.zeros(num_groups * num_experts, dtype=np.int64), capacity)

    gate = probs[tokens, expert_index]
    stats = _balance_stats(probs, key, num_groups, config.alpha)

    plan = DispatchPlan(
        expert_index=np.asarray(expert_index, dtype=np.int64),
        gate=gate,
        position_in_expert=position,
        dropped=position < 0,
        capacity=capacity,
        router_probs=probs,
        router_inputs=router_in,
        policy_scale=scale,
        num_groups=num_groups,
    )

    if config.ntlb_stages > 0:
        plan = ntlb_reroute(plan, config.ntlb_stages)

    return plan, stats


def _slot_key(
    tokens: np.ndarray, experts: np.ndarray, group_size: int, num_experts: int
) -> np.ndarray:
    return tokens // group_size * num_experts + experts


def _check_finite_rows(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():  # one pass; the per-row search runs only on failure
        bad = int(np.argmin(np.isfinite(a).all(axis=1)))
        raise NumericError(f"route: non-finite {what} for token {bad}")


def fill_slots(
    choices: np.ndarray, counts: np.ndarray, capacity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Offer tokens, in token order, to the slot budgets in ``choices``.

    A choice is an expert, or a group·E + expert key for grouped tokens.
    Budget e already holds ``counts[e]`` tokens, so among the tokens choosing
    e the first ``capacity - counts[e]`` land, in slots ``counts[e]``,
    ``counts[e] + 1``, ...; the rest are turned away. Returns each token's
    slot (-1 where turned away) and the per-budget counts afterwards.
    """
    choices = np.asarray(choices, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.shape[0]
    # Rank of each token among the tokens choosing the same expert: a stable
    # sort groups them by expert in token order, and each group's rank is
    # the offset from where its run starts. A stable order is unique, and
    # NumPy sorts 16-bit keys by radix, several times faster.
    key = choices.astype(np.int16) if n <= 1 << 15 else choices
    order = np.argsort(key, kind="stable")
    per_expert = np.bincount(choices, minlength=n)
    run_start = np.cumsum(per_expert) - per_expert
    rank = np.empty_like(choices)
    rank[order] = np.arange(choices.shape[0]) - run_start[choices[order]]
    position = counts[choices] + rank
    landed = position < capacity
    position[~landed] = -1
    return position, counts + np.bincount(choices[landed], minlength=n)


def _balance_stats(
    probs: np.ndarray, key: np.ndarray, num_groups: int, alpha: float
) -> LoadBalanceStats:
    """Each group's f, P and penalty from its intent slot keys, averaged over
    the groups.

    f counts the intent with ``bincount``, which equals the column mean of
    the intent one-hot bit for bit: both are the exact count over S. Each
    mean is written as ``np.mean``'s own arithmetic, a sum over the count,
    without its per-call overhead.
    """
    num_tokens, n = probs.shape
    group_size = num_tokens // num_groups
    counts = np.bincount(key, minlength=num_groups * n)
    f = counts.reshape(num_groups, n) / group_size
    p = probs.reshape(num_groups, group_size, n).sum(axis=1, dtype=np.float64) / group_size
    aux = alpha * n * (f * p).sum(axis=1)
    return LoadBalanceStats(
        f.sum(axis=0) / num_groups, p.sum(axis=0) / num_groups, float(aux.sum() / num_groups)
    )


def alternative_experts(probs: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Each token's experts other than the one it holds, most probable first.

    Row t of the ``[T, E - 1]`` result ranks row t of the ``[T, E]`` ``probs``
    without expert ``held[t]``, ties to the lowest index (a stable sort).
    """
    order = np.argsort(-probs, axis=1, kind="stable")
    return order[order != held[:, None]].reshape(held.shape[0], probs.shape[1] - 1)


def ntlb_reroute(plan: DispatchPlan, stages: int) -> DispatchPlan:
    """Iteratively re-send dropped tokens to their next-best experts.

    Reroute pass k offers each still-dropped token its k-th alternative
    (``alternative_experts``): under argmax routing, its (k+1)-th
    highest-probability expert. The token lands there if that expert has
    spare capacity in the token's group, filling in token order. A rerouted
    token's gate becomes its router probability for the expert it actually
    lands on. The dropped count never increases, and the process stops after
    ``stages`` passes or as soon as nothing remains dropped. Plain routing is the stages=0 fixed
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

    # Only tokens dropped now can ever wait, so only their rows are sorted:
    # stage k offers token first[j] its expert rest[j, k - 1].
    first = np.flatnonzero(out.dropped)
    rest = alternative_experts(out.router_probs[first], out.expert_index[first])
    kept = np.flatnonzero(~out.dropped)
    counts = np.bincount(
        out.slot_key(kept, out.expert_index[kept]), minlength=out.num_groups * n
    )

    for k in range(1, stages + 1):
        still = np.flatnonzero(out.dropped[first])
        if still.size == 0:
            break
        waiting = first[still]
        candidate = rest[still, k - 1]
        position, counts = fill_slots(out.slot_key(waiting, candidate), counts, out.capacity)
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
