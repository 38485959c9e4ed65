"""Toy masked-LM training: synthetic corpus, objective, optimizer, distillation.

The model is a small encoder: token embeddings, a stack of residual blocks
(attention plus an FFN that is dense, switch-routed, or a top-2 mixture),
and an output projection. Training masks a fraction of each sequence,
replaces the masked tokens with a sentinel, and minimizes cross-entropy at
the masked positions plus the routers' balance penalties. The synthetic
corpus draws each sequence from one of K cluster-specific bigram processes
over disjoint token ranges, so there is genuine structure for experts to
specialize on.

One loop and one step: every run, fresh, resumed or distilled, trains
through ``train`` and ``train_step``; a distilled student's target mixes the
ground truth with the teacher's probabilities (``hard_weight``).

Backward caches: ``model_fwd`` keeps every block's cache only for a pass
that ``model_bwd`` will differentiate (``train_step``'s), and ``model_bwd``
frees each block's cache as soon as that block's gradients are out, so a
training step's peak is the forward's caches plus one layer's backward
working set. Forward-only passes, ``evaluate`` and the distillation teacher,
keep none, so their peak memory does not grow with depth.

Determinism contract: every random draw during a run derives from
(seed, purpose label, step), never from call order, so two runs with one
config produce bit-identical metric streams and a resumed run continues the
interrupted one exactly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from .router import RouterConfig
from .switch_layer import (
    AttentionConfig,
    AttentionWeights,
    SwitchLayerParams,
    attention_bwd,
    attention_fwd,
    dense_ffn_bwd,
    dense_ffn_fwd,
    init_attention_weights,
    init_switch_layer_params,
    moe_topk_ffn_bwd,
    moe_topk_ffn_fwd,
    switch_ffn_bwd,
    switch_ffn_fwd,
)
from .tensor_core import (
    InvalidArgumentError,
    NumericError,
    RngStream,
    init_weight,
    softmax,
)

__all__ = [
    "TrainConfig",
    "MetricRow",
    "SyntheticCorpus",
    "ToyModel",
    "AdamState",
    "gen_synthetic_corpus",
    "sample_sequences",
    "build_model",
    "named_parameters",
    "model_fwd",
    "model_bwd",
    "train_step",
    "train",
    "evaluate",
    "batch_for_step",
    "neg_log_perplexity",
    "init_student_from_teacher",
    "distill_train",
]

FFN_KINDS = ("dense", "switch", "moe2")
ATTENTION_KINDS = ("dense", "switch")
MODES = ("pretrain", "finetune")

# Fine-tuning regularization profile: low dropout outside the experts, much
# higher inside them.
FINETUNE_DROPOUT = 0.1
FINETUNE_EXPERT_DROPOUT = 0.4
CORPUS_SHARPNESS = 3.0  # scale of the corpus's bigram-table logits


@dataclass
class TrainConfig:
    """One seeded experiment: data, model shape, and optimization settings."""

    vocab: int = 64
    seq_len: int = 16
    batch_tokens: int = 128
    steps: int = 200
    learning_rate: float = 1e-3
    mask_rate: float = 0.15
    sentinel_id: int | None = None  # defaults to vocab - 1
    seed: int = 0
    mode: str = "pretrain"
    # model shape
    d_model: int = 32
    d_ff: int = 64
    num_layers: int = 2
    num_heads: int = 1
    ffn_kind: str = "dense"
    attention_kind: str = "dense"
    expert_every: int = 2  # expert FFN at every expert_every-th block
    init_scale: float = 0.1
    dropout_rate: float | None = None  # None = mode default
    expert_dropout_rate: float | None = None  # None = mode default
    # synthetic data
    num_clusters: int = 4
    corpus_size: int = 512
    # distillation
    hard_weight: float = 0.75

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InvalidArgumentError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.ffn_kind not in FFN_KINDS:
            raise InvalidArgumentError(
                f"ffn_kind must be one of {FFN_KINDS}, got {self.ffn_kind!r}"
            )
        if self.attention_kind not in ATTENTION_KINDS:
            raise InvalidArgumentError(
                f"attention_kind must be one of {ATTENTION_KINDS}, got {self.attention_kind!r}"
            )
        if not 0.0 < self.mask_rate < 1.0:
            raise InvalidArgumentError(
                f"mask_rate must be in (0, 1), got {self.mask_rate}"
            )
        if self.sentinel_id is None:
            self.sentinel_id = self.vocab - 1
        if not 0 <= self.sentinel_id < self.vocab:
            raise InvalidArgumentError(
                f"sentinel_id {self.sentinel_id} outside vocab of {self.vocab}"
            )
        if self.num_clusters < 1:
            raise InvalidArgumentError(f"num_clusters must be >= 1, got {self.num_clusters}")
        # gen_synthetic_corpus emits the ids below K equal ranges of (vocab - 1) // K.
        corpus_ids = self.num_clusters * ((self.vocab - 1) // self.num_clusters)
        if self.sentinel_id < corpus_ids:
            raise InvalidArgumentError(
                f"sentinel_id {self.sentinel_id} is a corpus token id (below {corpus_ids})"
            )
        for name in ("seq_len", "batch_tokens", "corpus_size", "num_heads"):
            if getattr(self, name) < 1:
                raise InvalidArgumentError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.learning_rate < float("inf"):  # also false for nan
            raise InvalidArgumentError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )
        if self.batch_tokens % self.seq_len != 0:
            raise InvalidArgumentError(
                f"batch_tokens {self.batch_tokens} not a multiple of seq_len {self.seq_len}"
            )
        if self.expert_every < 1:
            raise InvalidArgumentError(f"expert_every must be >= 1, got {self.expert_every}")
        for name in ("dropout_rate", "expert_dropout_rate"):
            rate = getattr(self, name)
            if rate is not None and not 0.0 <= rate < 1.0:  # also true for nan
                raise InvalidArgumentError(f"{name} must be in [0, 1), got {rate}")
        if not 0.0 <= self.hard_weight <= 1.0:
            raise InvalidArgumentError(
                f"hard_weight must be in [0, 1], got {self.hard_weight}"
            )

    @property
    def sequences_per_batch(self) -> int:
        return self.batch_tokens // self.seq_len

    def resolved_dropout(self) -> tuple[float, float]:
        """(non-expert, expert) dropout rates after applying mode defaults."""
        d = self.dropout_rate
        ed = self.expert_dropout_rate
        if self.mode == "finetune":
            d = FINETUNE_DROPOUT if d is None else d
            ed = FINETUNE_EXPERT_DROPOUT if ed is None else ed
        else:
            d = 0.0 if d is None else d
            ed = 0.0 if ed is None else ed
        return d, ed


@dataclass
class MetricRow:
    """One training step's record; total = cross_entropy + aux (1e-6)."""

    step: int
    total_loss: float
    cross_entropy: float
    aux_loss: float
    neg_log_perplexity: float
    dropped_fraction: float
    expert_fractions: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------


@dataclass
class SyntheticCorpus:
    sequences: np.ndarray  # [size, seq_len] int64
    transitions: list[np.ndarray]  # per-cluster bigram tables over its range
    token_ranges: list[tuple[int, int]]  # half-open [lo, hi) per cluster

    @property
    def size(self) -> int:
        return int(self.sequences.shape[0])


def gen_synthetic_corpus(
    vocab: int, num_clusters: int, seq_len: int, size: int, rng: RngStream
) -> SyntheticCorpus:
    """Sequences from K cluster-specific bigram chains over disjoint token ranges.

    The top token id is reserved for the mask sentinel; the rest splits
    evenly into per-cluster ranges, each with its own randomly drawn
    transition table (``CORPUS_SHARPNESS`` scales the table logits: larger
    means more peaked rows and more per-cluster structure to memorize). A
    sequence picks a cluster, a uniform start token in that cluster's range,
    and then walks the chain.
    """
    if num_clusters < 1:
        raise InvalidArgumentError(f"num_clusters must be >= 1, got {num_clusters}")
    if num_clusters > vocab // 4:
        raise InvalidArgumentError(
            f"num_clusters={num_clusters} too large for vocab={vocab} (need K <= V/4)"
        )
    usable = vocab - 1  # reserve the final id for the sentinel
    width = usable // num_clusters
    ranges = [(k * width, (k + 1) * width) for k in range(num_clusters)]

    transitions = []
    for k in range(num_clusters):
        logits = CORPUS_SHARPNESS * rng.substream(f"cluster{k}/table").normal((width, width))
        transitions.append(softmax(logits, axis=-1))

    sequences, _ = _walk_chains(transitions, ranges, seq_len, size, rng)
    return SyntheticCorpus(sequences, transitions, ranges)


def sample_sequences(corpus: SyntheticCorpus, size: int, rng: RngStream) -> SyntheticCorpus:
    """Fresh sequences from an existing corpus's cluster processes (held-out data)."""
    sequences, _ = _walk_chains(
        corpus.transitions, corpus.token_ranges, corpus.sequences.shape[1], size, rng
    )
    return SyntheticCorpus(sequences, corpus.transitions, corpus.token_ranges)


def _walk_chains(
    transitions: list[np.ndarray],
    ranges: list[tuple[int, int]],
    seq_len: int,
    size: int,
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray]:
    width = transitions[0].shape[0] if transitions else 0
    sequences = np.zeros((size, seq_len), dtype=np.int64)
    cluster_ids = np.zeros(size, dtype=np.int64)
    if size > 0 and seq_len > 0:
        cluster_ids = rng.substream("clusters").integers(0, len(transitions), size)
        starts = rng.substream("starts").uniform(size)
        chain = rng.substream("chain")
        current = (starts * width).astype(np.int64)  # offset within the range
        lo = np.array([r[0] for r in ranges])[cluster_ids]
        sequences[:, 0] = lo + current
        # Every row's CDF once, [K, width, width]; each step gathers one per sequence.
        cdfs = np.cumsum(np.stack(transitions), axis=2)
        cdfs[:, :, -1] = 1.0
        for pos in range(1, seq_len):
            u = chain.uniform(size)
            current = (u[:, None] > cdfs[cluster_ids, current]).sum(axis=1)
            sequences[:, pos] = lo + current
    return sequences, cluster_ids


@dataclass
class Batch:
    """One step's masked inputs and targets.

    Each (target_rows, target_cols) pair names a distinct position, because
    ``_masked_batch`` takes each row's positions from one permutation of its
    columns; ``model_bwd`` relies on this to write rather than accumulate
    per-target rows. Targets run row by row, columns ascending.
    """

    input_ids: np.ndarray  # [S, L] with sentinels in place
    target_rows: np.ndarray  # flat masked-position coordinates
    target_cols: np.ndarray
    target_ids: np.ndarray


def batch_for_step(
    corpus: SyntheticCorpus, step: int, config: TrainConfig
) -> Batch:
    """Deterministic batch: epoch-shuffled sequence picks plus per-step masking."""
    s_per_batch = config.sequences_per_batch
    if corpus.size % s_per_batch != 0:
        raise InvalidArgumentError(
            f"corpus size {corpus.size} must be a multiple of the "
            f"{s_per_batch} sequences per batch"
        )
    root = RngStream(config.seed)
    batches_per_epoch = corpus.size // s_per_batch
    epoch, offset = divmod(step, batches_per_epoch)
    order = root.substream(f"epoch{epoch}/order").permutation(corpus.size)
    rows = order[offset * s_per_batch : (offset + 1) * s_per_batch]
    return _masked_batch(corpus.sequences[rows], config, root.substream(f"step{step}/mask"))


def _masked_batch(seqs: np.ndarray, config: TrainConfig, mask_rng: RngStream) -> Batch:
    """Replace floor(mask_rate * L) positions (at least one) of each of the S
    rows of ``seqs`` with the sentinel, from one ``[S, L]`` draw of
    ``mask_rng``: each row masks the columns of its smallest uniforms."""
    num_seqs, seq_len = seqs.shape
    n_mask = max(1, int(config.mask_rate * seq_len))
    u = mask_rng.uniform((num_seqs, seq_len), dtype=np.float32)
    cols = np.sort(np.argsort(u, axis=1, kind="stable")[:, :n_mask], axis=1).reshape(-1)
    rows = np.repeat(np.arange(num_seqs), n_mask)
    inputs = seqs.copy()
    inputs[rows, cols] = config.sentinel_id
    return Batch(inputs, rows, cols, seqs[rows, cols])


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass
class BlockParams:
    attn_weights: AttentionWeights
    attn_q_switch: SwitchLayerParams | None
    ffn_kind: str  # dense | switch | moe2
    ffn_w_in: np.ndarray | None  # dense FFN weights
    ffn_w_out: np.ndarray | None
    ffn_switch: SwitchLayerParams | None


@dataclass
class ToyModel:
    config: TrainConfig
    router_config: RouterConfig
    embedding: np.ndarray  # [V, d]
    blocks: list[BlockParams]
    out_proj: np.ndarray  # [d, V]


def _is_expert_position(i: int, config: TrainConfig) -> bool:
    return config.ffn_kind != "dense" and (i % config.expert_every == config.expert_every - 1)


def build_model(
    config: TrainConfig, router_config: RouterConfig, rng: RngStream | None
) -> ToyModel:
    """Initialize a model; expert FFNs sit at every ``expert_every``-th block.

    With ``rng`` None every tensor is zero and nothing is drawn: the skeleton
    ``cli.restore_model`` fills from a checkpoint.
    """
    d, dff, v = config.d_model, config.d_ff, config.vocab
    scale = config.init_scale
    _, expert_dropout = config.resolved_dropout()

    routed_q = config.attention_kind == "switch"

    def block_rng(i: int, label: str) -> RngStream | None:
        # Labels nest with '/': this is the "block{i}" substream's ``label`` substream.
        return None if rng is None else rng.substream(f"block{i}/{label}")

    embedding = init_weight((v, d), scale, d, rng, "embedding")
    blocks = []
    for i in range(config.num_layers):
        attn_weights = init_attention_weights(d, block_rng(i, "attn"), scale, dense_q=not routed_q)
        q_switch = None
        if routed_q:
            q_switch = init_switch_layer_params(
                d, dff, router_config.num_experts, block_rng(i, "attn.q"),
                scale, expert_form="linear", expert_dropout_rate=expert_dropout,
            )

        if _is_expert_position(i, config):
            ffn_switch = init_switch_layer_params(
                d, dff, router_config.num_experts, block_rng(i, "ffn"),
                scale, expert_dropout_rate=expert_dropout,
            )
            kind = config.ffn_kind
            w_in = w_out = None
        else:
            ffn_switch = None
            kind = "dense"
            w_in = init_weight((d, dff), scale, d, rng, f"block{i}/ffn.w_in")
            w_out = init_weight((dff, d), scale, dff, rng, f"block{i}/ffn.w_out")
        blocks.append(BlockParams(attn_weights, q_switch, kind, w_in, w_out, ffn_switch))

    out_proj = init_weight((d, v), scale, d, rng, "out_proj")
    return ToyModel(config, router_config, embedding, blocks, out_proj)


def named_parameters(model: ToyModel) -> dict[str, np.ndarray]:
    """Stable name -> array view of every trainable tensor."""
    params: dict[str, np.ndarray] = {"embedding": model.embedding}
    for i, blk in enumerate(model.blocks):
        p = f"block{i}"
        w = blk.attn_weights
        if w.w_q is not None:
            params[f"{p}.attn.w_q"] = w.w_q
        params[f"{p}.attn.w_k"] = w.w_k
        params[f"{p}.attn.w_v"] = w.w_v
        params[f"{p}.attn.w_o"] = w.w_o
        if blk.attn_q_switch is not None:
            params[f"{p}.attn.q.w_router"] = blk.attn_q_switch.w_router
            params[f"{p}.attn.q.w_in"] = blk.attn_q_switch.w_in
            if blk.attn_q_switch.w_out is not None:
                params[f"{p}.attn.q.w_out"] = blk.attn_q_switch.w_out
        if blk.ffn_kind == "dense":
            params[f"{p}.ffn.w_in"] = blk.ffn_w_in
            params[f"{p}.ffn.w_out"] = blk.ffn_w_out
        else:
            params[f"{p}.ffn.w_router"] = blk.ffn_switch.w_router
            params[f"{p}.ffn.w_in"] = blk.ffn_switch.w_in
            params[f"{p}.ffn.w_out"] = blk.ffn_switch.w_out
    params["out_proj"] = model.out_proj
    return params


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


@dataclass
class ModelCache:
    """What ``model_bwd`` needs of one ``model_fwd`` pass: single use.

    ``model_bwd`` consumes it, popping each block's caches off the lists as
    it reaches that block, so they are freed as the pass goes; a second
    ``model_bwd`` on the same cache raises ``InvalidArgumentError``.
    """

    input_ids: np.ndarray
    attn_caches: list  # one per block, in block order
    ffn_caches: list
    targets: np.ndarray  # [n] flat S*L index of each target, in target order
    target_hidden: np.ndarray  # [n, d] final hidden state at the targets
    consumed: bool = False  # set by ``model_bwd``


@dataclass
class ForwardResult:
    """One ``model_fwd`` pass. ``cache`` is what ``model_bwd`` needs, or None
    for a forward-only pass (``keep_cache=False``)."""

    logits: np.ndarray  # [n_targets, V], row i scores the batch's i-th target
    aux_loss: float
    dropped_fraction: float
    expert_fractions: np.ndarray | None
    cache: ModelCache | None


def model_fwd(
    model: ToyModel, batch: Batch, rng: RngStream, training: bool = True,
    keep_cache: bool = True,
) -> ForwardResult:
    """Run every block over ``batch.input_ids`` and score the targets only.

    Only the batch's masked positions reach a loss, so the output projection
    runs on the final hidden rows at (target_rows, target_cols), in target
    order. With two or more targets each logits row equals, bit for bit,
    that position's row of the full [S*L, V] projection.

    ``keep_cache`` keeps each block's backward cache for ``model_bwd``;
    ``train_step`` needs it, and so does any eval-mode forward that is
    differentiated. Forward-only callers (``evaluate`` and the teacher in
    ``train``) pass False: each layer's cache is freed as soon as the
    layer returns, peak memory stays flat in depth, and ``cache`` is None.
    The outputs are bit-identical either way.
    """
    config = model.config
    mode = "train" if training else "eval"
    input_ids = batch.input_ids
    s, l = input_ids.shape
    d = config.d_model
    dropout, _ = config.resolved_dropout()

    h = model.embedding[input_ids]
    attn_caches, ffn_caches = [], []
    aux_total = 0.0
    dropped, fractions = [], []
    attn_config = AttentionConfig(config.num_heads, model.router_config)

    for i, blk in enumerate(model.blocks):
        attn_out, a_cache = attention_fwd(
            h, blk.attn_weights, attn_config, rng.substream(f"block{i}.attn"),
            mode, q_params=blk.attn_q_switch,
        )
        aux_total += attn_out.stats.aux_loss
        if blk.attn_q_switch is not None:
            dropped.append(attn_out.dropped_fraction)
            fractions.append(attn_out.stats.f)
        h = h + attn_out.y
        if keep_cache:
            attn_caches.append(a_cache)
        del a_cache  # unless kept, freed here rather than a layer later

        flat = h.reshape(s * l, d)
        if blk.ffn_kind == "dense":
            y, f_cache = dense_ffn_fwd(
                flat, blk.ffn_w_in, blk.ffn_w_out, dropout,
                rng.substream(f"block{i}.ffn.dropout"), mode,
            )
        else:
            ffn_rng = rng.substream(f"block{i}.ffn")
            if blk.ffn_kind == "switch":
                out, f_cache = switch_ffn_fwd(
                    flat, blk.ffn_switch, model.router_config, ffn_rng, mode
                )
            else:  # moe2
                out, f_cache = moe_topk_ffn_fwd(
                    flat, blk.ffn_switch, 2, model.router_config, ffn_rng, mode
                )
            y = out.y
            aux_total += out.stats.aux_loss
            dropped.append(out.dropped_fraction)
            fractions.append(out.stats.f)
        h = h + y.reshape(s, l, d)
        if keep_cache:
            ffn_caches.append(f_cache)
        del f_cache

    targets = batch.target_rows * l + batch.target_cols
    target_hidden = h.reshape(s * l, d)[targets]
    logits = target_hidden @ model.out_proj

    cache = None
    if keep_cache:
        cache = ModelCache(input_ids, attn_caches, ffn_caches, targets, target_hidden)
    return ForwardResult(
        logits,
        aux_total,
        float(np.mean(dropped)) if dropped else 0.0,
        np.mean(fractions, axis=0) if fractions else None,
        cache,
    )


def model_bwd(model: ToyModel, cache: ModelCache, d_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Backprop the [n_targets, V] gradient of ``model_fwd``'s logits.

    The head's weight gradient is formed from the target rows alone, and
    ``d_logits @ W.T`` is written into a zero [S*L, d] hidden-state gradient
    at the targets; a write is enough because ``Batch`` keeps the target
    positions distinct. Returns grads keyed like ``named_parameters``.

    The pass consumes ``cache``: each block's FFN and attention caches are
    dropped as soon as that layer's gradients are out, so the peak is the
    caches not yet reached plus one layer's working set, flat in depth
    above the forward's own. A cache serves one call; a second raises
    ``InvalidArgumentError`` before any gradient is formed.
    """
    if cache.consumed:
        raise InvalidArgumentError(
            "model_bwd: this ModelCache was consumed by an earlier model_bwd, "
            "which frees each block's cache as it goes; run model_fwd again"
        )
    cache.consumed = True
    config = model.config
    s, l = cache.input_ids.shape
    d = config.d_model
    grads = {"out_proj": cache.target_hidden.T @ d_logits}
    dh = np.zeros((s * l, d), dtype=d_logits.dtype)
    # BLAS rounds each row of a product alike for any row count >= 2 only when
    # the weight operand is C-contiguous; the transposed view could round a
    # short product differently.
    dh[cache.targets] = d_logits @ np.ascontiguousarray(model.out_proj.T)
    dh = dh.reshape(s, l, d)

    def add_layer(prefix: str, layer_grads: dict[str, np.ndarray]) -> np.ndarray:
        """File a layer's weight grads under ``prefix``; return its input grad."""
        dx = layer_grads.pop("x")
        grads.update((prefix + k, g) for k, g in layer_grads.items())
        return dx

    # Blocks run last to first, so block i's caches are the lists' last
    # entries; each is popped into the call that reads it and freed when
    # that call returns.
    for i in reversed(range(len(model.blocks))):
        blk = model.blocks[i]
        flat_dh = dh.reshape(s * l, d)
        if blk.ffn_kind == "dense":
            f_grads = dict(zip(
                ("x", "w_in", "w_out"), dense_ffn_bwd(flat_dh, cache.ffn_caches.pop())
            ))
        else:
            bwd = switch_ffn_bwd if blk.ffn_kind == "switch" else moe_topk_ffn_bwd
            f_grads = bwd(flat_dh, cache.ffn_caches.pop())
        # residual: gradient flows to both paths. The adds run in place on
        # dh, which no layer's gradient aliases and whose dtype (the logits
        # gradient's) they share, so the bits are those of dh + dx.
        dh += add_layer(f"block{i}.ffn.", f_grads).reshape(s, l, d)
        dh += add_layer(f"block{i}.attn.", attention_bwd(dh, cache.attn_caches.pop()))

    # Scatter-add each position's gradient onto its token's embedding row as
    # one flat float64 bincount over (token id, feature) cells, which sums
    # each cell's contributions in input order; the sum is cast to the
    # embedding's dtype once.
    v = model.embedding.shape[0]
    cells = (cache.input_ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
    d_emb = np.bincount(cells, weights=dh.reshape(-1), minlength=v * d).reshape(v, d)
    grads["embedding"] = d_emb.astype(model.embedding.dtype)
    return grads


def masked_cross_entropy(
    logits: np.ndarray, batch: Batch
) -> tuple[float, np.ndarray]:
    """Mean CE of [n_targets, V] logits against ``batch.target_ids``.

    Also returns d(loss)/d(logits), (softmax - one_hot(target)) / n, of the
    logits' shape.
    """
    ids = batch.target_ids
    d_logits = softmax(logits, axis=-1)
    d_logits[np.arange(ids.size), ids] -= 1.0
    d_logits /= ids.size
    return -neg_log_perplexity(logits, ids), d_logits


def neg_log_perplexity(logits: np.ndarray, target_ids: np.ndarray) -> float:
    """Mean log-probability of the targets; higher is better."""
    logits = np.asarray(logits)
    ids = np.asarray(target_ids).reshape(-1)
    if ids.size == 0:
        raise InvalidArgumentError("neg_log_perplexity requires at least one target")
    logp = _log_softmax(logits.reshape(ids.size, logits.shape[-1]))
    return float(logp[np.arange(ids.size), ids].mean())


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-probabilities of ``[n, V]`` logits, shifted by each row's max."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name].astype(np.float32, copy=False)
        if name not in state.m:
            state.m[name] = np.zeros_like(p, dtype=np.float32)
            state.v[name] = np.zeros_like(p, dtype=np.float32)
        m, v = state.m[name], state.v[name]
        # In place, in the operation order of
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        #   p -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)
        # through two float32 scratch buffers, which gives the same bits.
        a, b = np.empty_like(m), np.empty_like(m)
        m *= state.beta1
        m += np.multiply(g, 1 - state.beta1, out=a)
        v *= state.beta2
        np.multiply(g, 1 - state.beta2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, 1 - state.beta1**t, out=a)
        a *= lr
        np.divide(v, 1 - state.beta2**t, out=b)
        np.sqrt(b, out=b)
        b += state.eps
        p -= np.divide(a, b, out=a)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _seeded_corpus(config: TrainConfig, size: int) -> SyntheticCorpus:
    """The run's corpus, drawn from the seed's "corpus" substream; size 0
    builds only its cluster processes."""
    return gen_synthetic_corpus(
        config.vocab, config.num_clusters, config.seq_len, size,
        RngStream(config.seed).substream("corpus"),
    )


def _step_rng(config: TrainConfig, step: int) -> RngStream:
    return RngStream(config.seed).substream(f"step{step}/model")


def train_step(
    model: ToyModel, batch: Batch, opt_state: AdamState, config: TrainConfig,
    teacher_logits: np.ndarray | None = None,
) -> MetricRow:
    """One forward/backward/update at step ``opt_state.step``, in place: the
    only training step. Its loss is the masked cross-entropy or, given
    ``teacher_logits``, the distillation loss at ``config.hard_weight``; the
    row's ``neg_log_perplexity`` is the model's own either way."""
    step = opt_state.step
    fwd = model_fwd(model, batch, _step_rng(config, step), training=True)
    if teacher_logits is None:
        loss, d_logits = masked_cross_entropy(fwd.logits, batch)
        nlp = -loss
    else:
        loss, d_logits = _distill_loss_and_grad(
            fwd.logits, teacher_logits, batch.target_ids, config.hard_weight
        )
        nlp = neg_log_perplexity(fwd.logits, batch.target_ids)
    total = loss + fwd.aux_loss
    if not np.isfinite(total):
        raise NumericError(f"non-finite loss at step {step}: loss={loss}, aux={fwd.aux_loss}")
    grads = model_bwd(model, fwd.cache, d_logits)
    adam_update(named_parameters(model), grads, opt_state, config.learning_rate)
    return MetricRow(step, total, loss, fwd.aux_loss, nlp, fwd.dropped_fraction, fwd.expert_fractions)


def train(
    config: TrainConfig,
    router_config: RouterConfig,
    corpus: SyntheticCorpus | None = None,
    model: ToyModel | None = None,
    opt_state: AdamState | None = None,
    teacher: ToyModel | None = None,
) -> tuple[ToyModel, AdamState, list[MetricRow]]:
    """Train from step ``opt_state.step`` to ``config.steps``; returns the
    metric stream. The one loop of every run: fresh, resumed (from a restored
    model and optimizer) or distilled (given ``teacher``, whose eval-mode
    forward scores each batch as a constant target and keeps no cache)."""
    if corpus is None:
        corpus = _seeded_corpus(config, config.corpus_size)
    if model is None:
        model = build_model(config, router_config, RngStream(config.seed).substream("init"))
    if opt_state is None:
        opt_state = AdamState()
    rows = []
    for step in range(opt_state.step, config.steps):
        batch = batch_for_step(corpus, step, config)
        teacher_logits = None if teacher is None else model_fwd(
            teacher, batch, RngStream(config.seed).substream(f"step{step}/teacher"),
            training=False, keep_cache=False,
        ).logits
        rows.append(train_step(model, batch, opt_state, config, teacher_logits))
    return model, opt_state, rows


def evaluate(
    model: ToyModel,
    config: TrainConfig,
    corpus: SyntheticCorpus | None = None,
    num_sequences: int = 256,
) -> MetricRow:
    """Deterministic eval on held-out sequences from the training distribution.

    Rebuilds the seeded training corpus's cluster processes and samples fresh
    sequences from them, so the score measures generalization on the same
    task, not memorization of the training set. No noise, no updates.
    The forward keeps no backward cache and the cross-entropy forms no
    logits gradient: nothing here is differentiated.
    """
    root = RngStream(config.seed)
    if corpus is None:
        corpus = _seeded_corpus(config, 0)
    heldout = sample_sequences(corpus, num_sequences, root.substream("eval_sequences"))
    batch = _masked_batch(heldout.sequences, config, root.substream("eval_mask"))
    fwd = model_fwd(model, batch, root.substream("eval_model"), training=False, keep_cache=False)
    ce = -neg_log_perplexity(fwd.logits, batch.target_ids)
    return MetricRow(-1, ce + fwd.aux_loss, ce, fwd.aux_loss, -ce, fwd.dropped_fraction, fwd.expert_fractions)


# ---------------------------------------------------------------------------
# Distillation
# ---------------------------------------------------------------------------


def _distill_loss_and_grad(
    student_logits: np.ndarray,
    teacher_logits: np.ndarray,
    target_ids: np.ndarray,
    hard_weight: float,
) -> tuple[float, np.ndarray]:
    """hard_weight * CE(student, targets) + (1 - hard_weight) * CE(student, teacher),
    and its gradient with respect to the student logits.

    The teacher distribution is a constant target; equivalently this is the
    cross-entropy of the student against the mixture
    hard_weight * one_hot(target) + (1 - hard_weight) * softmax(teacher).
    """
    student_logits = np.asarray(student_logits)
    teacher_logits = np.asarray(teacher_logits)
    if student_logits.shape != teacher_logits.shape:
        raise InvalidArgumentError(
            f"logit shapes differ: student {student_logits.shape}, "
            f"teacher {teacher_logits.shape}"
        )
    ids = np.asarray(target_ids).reshape(-1)
    n = ids.size
    flat_s = student_logits.reshape(n, student_logits.shape[-1])
    flat_t = teacher_logits.reshape(n, teacher_logits.shape[-1])

    logp = _log_softmax(flat_s)
    q = softmax(flat_t, axis=-1)
    target = (1 - hard_weight) * q
    target[np.arange(n), ids] += hard_weight
    loss = float(-(target * logp).sum(axis=1).mean())
    grad = (np.exp(logp) - target) / n
    return loss, grad.reshape(student_logits.shape)


def init_student_from_teacher(teacher: ToyModel, student: ToyModel) -> ToyModel:
    """Copy every non-expert weight from teacher into a fresh student.

    Every tensor both models name in ``named_parameters`` transfers, except
    those of a routed layer: the routed-query tensors (``.attn.q.*``) and the
    FFN of any block that either model routes. Those keep the student's
    fresh initialization, so no expert weight is copied, in any form.
    """
    if len(teacher.blocks) != len(student.blocks):
        raise InvalidArgumentError(
            f"block counts differ: teacher {len(teacher.blocks)}, student {len(student.blocks)}"
        )
    out = copy.deepcopy(student)
    routed = tuple(
        f"block{i}.ffn." for i, (tb, sb) in enumerate(zip(teacher.blocks, out.blocks))
        if tb.ffn_kind != "dense" or sb.ffn_kind != "dense"
    )
    src = named_parameters(teacher)
    for name, dst in named_parameters(out).items():
        if name not in src or ".attn.q." in name or name.startswith(routed):
            continue
        if dst.shape != src[name].shape:
            raise InvalidArgumentError(
                f"{name}: teacher shape {src[name].shape} does not match student {dst.shape}"
            )
        dst[...] = src[name]
    return out


def distill_train(
    teacher: ToyModel,
    config: TrainConfig,
    router_config: RouterConfig,
    corpus: SyntheticCorpus | None = None,
) -> tuple[ToyModel, AdamState, list[MetricRow]]:
    """Train a dense student against teacher logits mixed with hard targets.

    The student is all-dense, its non-expert weights start from the teacher,
    and it trains through ``train`` with ``teacher`` in mode "pretrain": no
    dropout but the rates ``config`` sets.
    """
    student_config = replace(config, ffn_kind="dense", attention_kind="dense", mode="pretrain")
    student = build_model(
        student_config, router_config, RngStream(config.seed).substream("student_init")
    )
    student = init_student_from_teacher(teacher, student)
    return train(student_config, router_config, corpus, student, teacher=teacher)
