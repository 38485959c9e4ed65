"""Trainer: loss and embedding gradients, run determinism and resume.

The finite-difference test runs the whole model in float64 (``grad_check``
upcasts the probed tensors, and numpy promotes everything they touch), on
input ids that repeat, so several positions scatter into one embedding row.
"""

import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest

from switchlab import cli, switch_layer, trainer
from switchlab.router import RouterConfig
from switchlab.tensor_core import InvalidArgumentError, RngStream, grad_check, softmax
from switchlab.trainer import (
    AdamState,
    Batch,
    adam_update,
    TrainConfig,
    batch_for_step,
    build_model,
    gen_synthetic_corpus,
    masked_cross_entropy,
    model_bwd,
    model_fwd,
    named_parameters,
)

FD_STEP = 1e-4


def _tiny_batch(config: TrainConfig) -> Batch:
    # Two sequences of six tokens over seven ids: ids 1 and 3 recur.
    seqs = np.array([[1, 3, 1, 5, 3, 0], [2, 1, 6, 3, 4, 1]])
    rows = np.array([0, 0, 1, 1])
    cols = np.array([1, 4, 0, 5])
    inputs = seqs.copy()
    inputs[rows, cols] = config.sentinel_id
    return Batch(inputs, rows, cols, seqs[rows, cols])


# The model has one output head, the untied [d, V] ``out_proj``; the
# parametrization keeps these tests' ids.
UNTIED = pytest.mark.parametrize("head", ["untied"])


@UNTIED
def test_loss_gradient_matches_finite_differences(head, monkeypatch):
    config = TrainConfig(
        vocab=8, seq_len=6, batch_tokens=12, d_model=8, d_ff=8, num_layers=2, num_heads=2,
        init_scale=1.0,
    )
    model = build_model(config, RouterConfig(num_experts=2), RngStream(12).substream("init"))
    batch = _tiny_batch(config)
    assert np.bincount(batch.input_ids.ravel()).max() > 1

    def f(p):
        model.embedding, model.out_proj = p
        fwd = model_fwd(model, batch, RngStream(0), training=False)
        ce, d_logits = masked_cross_entropy(fwd.logits, batch)
        grads = model_bwd(model, fwd.cache, d_logits)
        return ce, [grads["embedding"], grads["out_proj"]]

    params = [model.embedding, model.out_proj]
    # Finite differences are only meaningful away from the relu kinks, so
    # record the relu inputs of the unprobed forward.
    relu_inputs = []
    relu = switch_layer.relu
    monkeypatch.setattr(switch_layer, "relu", lambda h: relu_inputs.append(h) or relu(h))
    model_fwd(model, batch, RngStream(0), training=False)
    monkeypatch.undo()
    assert len(relu_inputs) == config.num_layers
    margin = min(np.abs(h).min() for h in relu_inputs)
    assert margin >= 10 * FD_STEP, f"a relu pre-activation sits {margin:.2e} from its kink"

    report = grad_check(f, params, h=FD_STEP)
    assert report.passed, report.details


def test_masked_cross_entropy_gradient_is_softmax_minus_one_hot():
    config = TrainConfig(vocab=32, seq_len=16, batch_tokens=256, corpus_size=64, seed=5)
    corpus = gen_synthetic_corpus(
        config.vocab, config.num_clusters, config.seq_len, config.corpus_size,
        RngStream(config.seed).substream("corpus"),
    )
    rng = RngStream(9)
    for step in range(3):
        batch = batch_for_step(corpus, step, config)
        n = batch.target_ids.size
        assert len(set(zip(batch.target_rows, batch.target_cols))) == n  # model_bwd writes rows
        logits = rng.substream(f"logits{step}").normal((n, config.vocab)).astype(np.float32)
        ce, d_logits = masked_cross_entropy(logits, batch)

        probs = softmax(logits, axis=-1)
        expected = (probs - np.eye(config.vocab, dtype=np.float32)[batch.target_ids]) / n
        assert d_logits.dtype == expected.dtype and d_logits.shape == (n, config.vocab)
        assert np.array_equal(d_logits, expected)
        log_probs = np.log(probs.astype(np.float64))
        assert ce == pytest.approx(-log_probs[np.arange(n), batch.target_ids].mean(), rel=1e-6)


@pytest.mark.parametrize("seq_len, mask_rate", [(16, 0.15), (32, 0.15), (5, 0.5), (3, 0.1)])
def test_masked_batch_masks_n_distinct_positions_per_row(seq_len, mask_rate):
    config = TrainConfig(
        vocab=32, seq_len=seq_len, batch_tokens=8 * seq_len, corpus_size=64,
        mask_rate=mask_rate, seed=5,
    )
    corpus = gen_synthetic_corpus(
        config.vocab, config.num_clusters, config.seq_len, config.corpus_size,
        RngStream(config.seed).substream("corpus"),
    )
    n_mask = max(1, int(mask_rate * seq_len))
    seqs = corpus.sequences[:8]
    batch = trainer._masked_batch(seqs, config, RngStream(3).substream("mask"))
    assert np.array_equal(batch.target_rows, np.repeat(np.arange(8), n_mask))
    cols = batch.target_cols.reshape(8, n_mask)
    assert (np.diff(cols, axis=1) > 0).all() and cols.min() >= 0 and cols.max() < seq_len
    masked = np.zeros(seqs.shape, bool)
    masked[batch.target_rows, batch.target_cols] = True
    assert np.array_equal(batch.input_ids == config.sentinel_id, masked)
    assert np.array_equal(batch.input_ids[~masked], seqs[~masked])
    assert np.array_equal(batch.target_ids, seqs[batch.target_rows, batch.target_cols])
    assert seqs.min() >= 0 and config.sentinel_id not in seqs  # the sentinel marks masks only

    # (seed, step) alone fixes a batch: not call order, not other steps' draws.
    first = {step: batch_for_step(corpus, step, config) for step in (2, 0, 1)}
    for step in (0, 1, 2):
        again = batch_for_step(corpus, step, config)
        for field in dataclasses.fields(Batch):
            assert np.array_equal(getattr(again, field.name), getattr(first[step], field.name))
    reseeded = batch_for_step(corpus, 0, dataclasses.replace(config, seed=6))
    assert not np.array_equal(reseeded.input_ids, first[0].input_ids)


def _model_and_batches():
    """A model with a dense and a switch block, a batch, and the same inputs with
    every position a target: on it ``model_fwd`` projects the whole final hidden
    state and ``model_bwd`` runs the full-vocabulary head."""
    config = TrainConfig(
        vocab=32, seq_len=16, batch_tokens=128, corpus_size=64, d_model=16, d_ff=24,
        num_heads=2, ffn_kind="switch", seed=5,
    )
    corpus = gen_synthetic_corpus(
        config.vocab, config.num_clusters, config.seq_len, config.corpus_size,
        RngStream(config.seed).substream("corpus"),
    )
    model = build_model(config, RouterConfig(num_experts=4), RngStream(5).substream("init"))
    batch = batch_for_step(corpus, 0, config)
    s, l = batch.input_ids.shape
    rows, cols = np.divmod(np.arange(s * l), l)
    every = Batch(batch.input_ids, rows, cols, np.zeros(s * l, dtype=np.int64))
    return model, batch, every


@UNTIED
def test_model_fwd_logits_are_target_rows_of_full_projection(head):
    model, batch, every = _model_and_batches()
    hidden = model_fwd(model, every, RngStream(3)).cache.target_hidden  # [S*L, d]
    full = (hidden @ model.out_proj).reshape(batch.input_ids.shape + (-1,))
    logits = model_fwd(model, batch, RngStream(3)).logits
    assert logits.dtype == full.dtype
    assert np.array_equal(logits, full[batch.target_rows, batch.target_cols])


@UNTIED
def test_model_bwd_matches_full_logits_reference(head):
    model, batch, every = _model_and_batches()
    fwd = model_fwd(model, batch, RngStream(3))
    _, d_logits = masked_cross_entropy(fwd.logits, batch)
    grads = model_bwd(model, fwd.cache, d_logits)

    full = model_fwd(model, every, RngStream(3))
    d_full = np.zeros(batch.input_ids.shape + (d_logits.shape[1],), dtype=d_logits.dtype)
    d_full[batch.target_rows, batch.target_cols] = d_logits
    reference = model_bwd(model, full.cache, d_full.reshape(-1, d_logits.shape[1]))

    assert grads.keys() == reference.keys()
    for name, want in reference.items():
        got = grads[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        if name == "out_proj":
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max(), name
        else:
            assert np.array_equal(got, want), name


def test_model_bwd_consumes_its_cache():
    model, batch, _ = _model_and_batches()
    fwd = model_fwd(model, batch, RngStream(3))
    _, d_logits = masked_cross_entropy(fwd.logits, batch)
    grads = model_bwd(model, fwd.cache, d_logits)
    assert grads.keys() == named_parameters(model).keys()
    # Each block's caches left the ModelCache as the pass reached them.
    assert fwd.cache.consumed and fwd.cache.attn_caches == fwd.cache.ffn_caches == []
    # A second pass has no block caches to read: it raises before forming
    # any gradient, rather than returning the head's alone.
    with pytest.raises(InvalidArgumentError, match="consumed by an earlier model_bwd"):
        model_bwd(model, fwd.cache, d_logits)
    # A fresh forward gives a fresh cache, and the same gradients.
    again = model_bwd(model, model_fwd(model, batch, RngStream(3)).cache, d_logits)
    assert all(np.array_equal(again[k], g) for k, g in grads.items())


@pytest.mark.parametrize(
    "func, slow_form",
    [
        (switch_layer.attention_fwd, "np.einsum"),
        (switch_layer.attention_bwd, "np.einsum"),
        (switch_layer.moe_topk_ffn_bwd, "np.add.at"),
        (trainer.model_bwd, "np.add.at"),
        (trainer.masked_cross_entropy, "np.add.at"),
        (trainer.distill_train, "np.add.at"),
        (trainer._distill_loss_and_grad, "np.eye"),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_train_step_kernels_avoid_slow_forms(func, slow_form):
    """Un-optimized einsums and casting add-at scatters cost 5-20x here, and
    ``np.eye`` builds a [V, V] matrix to pick one entry per row."""
    assert slow_form not in inspect.getsource(func)


def _train(tmp_path, name, steps, *extra):
    argv = [
        "train", "--seed", "7", "--outdir", str(tmp_path),
        "--set", f"run.name={name}",
        "--set", f"train.steps={steps}",
        "--set", "train.ffn_kind=switch",
        "--set", "train.attention_kind=switch",
        "--set", "train.num_heads=2",
        "--set", "router.policy=input_jitter",
        *extra,
    ]
    assert cli.main(argv) == 0
    return tmp_path / name


def test_same_seed_writes_identical_metrics(tmp_path):
    first = _train(tmp_path, "a", 12)
    second = _train(tmp_path, "b", 12)
    assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()


def test_resumed_run_continues_exactly(tmp_path):
    straight = (_train(tmp_path, "straight", 20) / "metrics.csv").read_text().splitlines()
    head = _train(tmp_path, "head", 10)
    tail = _train(tmp_path, "tail", 20, "--resume", str(head / "final.ckpt"))
    head_lines = (head / "metrics.csv").read_text().splitlines()
    tail_lines = (tail / "metrics.csv").read_text().splitlines()
    assert tail_lines[:2] == head_lines[:2]  # schema line and column names
    assert head_lines + tail_lines[2:] == straight
    resumed = cli.load_checkpoint(str(tail / "final.ckpt"))
    reference = cli.load_checkpoint(str(tmp_path / "straight" / "final.ckpt"))
    assert resumed.step == reference.step == 20
    assert resumed.tensors.keys() == reference.tensors.keys()
    for name, t in reference.tensors.items():
        assert np.array_equal(resumed.tensors[name], t), name


def _walk_chains_per_cluster(transitions, ranges, seq_len, size, rng):
    """The walk as one CDF per cluster and step, kept as the reference."""
    num_clusters = len(transitions)
    width = transitions[0].shape[0] if transitions else 0
    sequences = np.zeros((size, seq_len), dtype=np.int64)
    cluster_ids = np.zeros(size, dtype=np.int64)
    if size > 0 and seq_len > 0:
        cluster_ids = rng.substream("clusters").integers(0, num_clusters, size)
        starts = rng.substream("starts").uniform(size)
        chain = rng.substream("chain")
        current = (starts * width).astype(np.int64)
        lo = np.array([ranges[c][0] for c in cluster_ids])
        sequences[:, 0] = lo + current
        for pos in range(1, seq_len):
            u = chain.uniform(size)
            nxt = np.zeros(size, dtype=np.int64)
            for k in range(num_clusters):
                rows = cluster_ids == k
                if not rows.any():
                    continue
                cdf = np.cumsum(transitions[k][current[rows]], axis=1)
                cdf[:, -1] = 1.0
                nxt[rows] = (u[rows, None] > cdf).sum(axis=1)
            current = nxt
            sequences[:, pos] = lo + current
    return sequences, cluster_ids


@pytest.mark.parametrize(
    "vocab, clusters, seq_len, size",
    [(64, 4, 16, 512), (256, 8, 32, 300), (33, 8, 5, 3), (9, 2, 1, 10), (64, 4, 16, 0)],
    ids=["default", "wide", "empty_cluster", "seq_len_1", "size_0"],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_walk_chains_equals_per_cluster_walk(vocab, clusters, seq_len, size, seed):
    corpus = gen_synthetic_corpus(vocab, clusters, seq_len, 0, RngStream(seed).substream("c"))
    args = (corpus.transitions, corpus.token_ranges, seq_len, size)
    sequences, cluster_ids = trainer._walk_chains(*args, RngStream(seed).substream("walk"))
    ref_sequences, ref_ids = _walk_chains_per_cluster(*args, RngStream(seed).substream("walk"))
    if size == 3:
        assert np.unique(cluster_ids).size < clusters
    for got, want in [(sequences, ref_sequences), (cluster_ids, ref_ids)]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_evaluate_repeats_exactly():
    config = TrainConfig(ffn_kind="switch", corpus_size=64, seed=4)
    model = build_model(config, RouterConfig(num_experts=4), RngStream(4).substream("init"))
    first = trainer.evaluate(model, config, num_sequences=32)
    second = trainer.evaluate(model, config, num_sequences=32)
    assert np.isfinite(first.cross_entropy)
    assert first.cross_entropy == second.cross_entropy
    assert first.neg_log_perplexity == second.neg_log_perplexity


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("attention_kind", trainer.ATTENTION_KINDS)
@pytest.mark.parametrize("ffn_kind", trainer.FFN_KINDS)
def test_cache_free_forward_equals_cached_forward(ffn_kind, attention_kind, training):
    config = TrainConfig(
        vocab=32, seq_len=8, batch_tokens=64, d_model=16, d_ff=24, num_layers=3,
        num_heads=2, expert_every=1, corpus_size=16, seed=2, ffn_kind=ffn_kind,
        attention_kind=attention_kind, dropout_rate=0.1, expert_dropout_rate=0.1,
    )
    router_config = RouterConfig(
        num_experts=4, capacity_factor=0.75, policy="input_jitter", ntlb_stages=1
    )
    corpus = gen_synthetic_corpus(
        config.vocab, config.num_clusters, config.seq_len, config.corpus_size,
        RngStream(config.seed).substream("corpus"),
    )
    model = build_model(config, router_config, RngStream(config.seed).substream("init"))
    batch = batch_for_step(corpus, 0, config)
    cached = model_fwd(model, batch, RngStream(4), training=training)
    bare = model_fwd(model, batch, RngStream(4), training=training, keep_cache=False)

    assert cached.cache is not None and bare.cache is None
    assert bare.logits.dtype == cached.logits.dtype
    assert bare.logits.tobytes() == cached.logits.tobytes()
    assert bare.aux_loss == cached.aux_loss
    assert bare.dropped_fraction == cached.dropped_fraction
    if ffn_kind == "dense" and attention_kind == "dense":
        assert bare.expert_fractions is None and cached.expert_fractions is None
    else:
        assert bare.expert_fractions.tobytes() == cached.expert_fractions.tobytes()


def _traced_peak(fn, *args, **kwargs):
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _evaluate_peak_bytes(num_layers):
    config = TrainConfig(
        seq_len=16, d_model=32, d_ff=64, num_layers=num_layers, ffn_kind="switch",
        expert_every=1, corpus_size=64, seed=8,
    )
    corpus = gen_synthetic_corpus(
        config.vocab, config.num_clusters, config.seq_len, config.corpus_size,
        RngStream(config.seed).substream("corpus"),
    )
    model = build_model(config, RouterConfig(num_experts=4), RngStream(8).substream("init"))
    return _traced_peak(trainer.evaluate, model, config, corpus, num_sequences=64)


def test_evaluate_peak_memory_stays_flat_in_depth():
    # A forward that kept every block's cache would hold twice as many at 4 layers.
    shallow, deep = _evaluate_peak_bytes(2), _evaluate_peak_bytes(4)
    assert deep <= 1.2 * shallow, f"evaluate peak {shallow} B at 2 layers, {deep} B at 4"


def _train_step_peaks(ffn_kind, num_layers):
    """Traced peaks of ``train_step`` and of the caching ``model_fwd`` it runs,
    on one batch, with Adam's moments already allocated."""
    config = TrainConfig(
        seq_len=16, batch_tokens=256, d_model=32, d_ff=64, num_layers=num_layers,
        ffn_kind=ffn_kind, expert_every=1, corpus_size=64, seed=8,
    )
    corpus = gen_synthetic_corpus(
        config.vocab, config.num_clusters, config.seq_len, config.corpus_size,
        RngStream(config.seed).substream("corpus"),
    )
    model = build_model(config, RouterConfig(num_experts=4), RngStream(8).substream("init"))
    opt_state = AdamState()
    trainer.train_step(model, batch_for_step(corpus, 0, config), opt_state, config)
    batch = batch_for_step(corpus, 1, config)
    fwd = _traced_peak(model_fwd, model, batch, trainer._step_rng(config, 1), keep_cache=True)
    return _traced_peak(trainer.train_step, model, batch, opt_state, config), fwd


@pytest.mark.parametrize("ffn_kind", ["dense", "switch"])
def test_train_step_peak_above_forward_stays_flat_in_depth(ffn_kind):
    # A backward that kept each block's cache until it returned would hold
    # them all beside the gradients it forms; popping them as it goes leaves
    # the caches not yet reached plus one layer's working set, so the peak
    # above the forward's own does not grow with depth.
    (step2, fwd2), (step8, fwd8) = _train_step_peaks(ffn_kind, 2), _train_step_peaks(ffn_kind, 8)
    block_cache = (fwd8 - fwd2) / 6  # what the forward keeps per block
    growth = (step8 - fwd8) - (step2 - fwd2)
    assert growth <= 0.25 * block_cache, (
        f"train_step peak above model_fwd's: {step2 - fwd2} B at 2 layers, "
        f"{step8 - fwd8} B at 8; a block's cache is {block_cache:.0f} B"
    )


@pytest.mark.parametrize(
    "teacher_settings",
    [
        dict(ffn_kind="switch"),
        dict(ffn_kind="moe2", attention_kind="switch"),
    ],
    ids=["switch", "moe2_switch_attention"],
)
def test_student_init_copies_every_non_expert_tensor(teacher_settings):
    config = TrainConfig(num_layers=4, expert_every=2, seed=3, **teacher_settings)
    router_config = RouterConfig(num_experts=4)
    teacher = build_model(config, router_config, RngStream(3).substream("teacher"))
    # The student distill_train builds: all-dense.
    student = build_model(
        dataclasses.replace(config, ffn_kind="dense", attention_kind="dense"), router_config,
        RngStream(3).substream("student"),
    )
    before = {k: v.copy() for k, v in named_parameters(student).items()}
    taught = named_parameters(teacher)
    assert not np.array_equal(before["embedding"], taught["embedding"])
    routed_q = config.attention_kind == "switch"
    assert any(".attn.q." in name for name in taught) == routed_q

    got = named_parameters(trainer.init_student_from_teacher(teacher, student))
    # The student keeps its own FFNs at the teacher's expert blocks, and its
    # dense queries where the teacher routes them.
    fresh = {f"block{i}.ffn.{w}" for i in (1, 3) for w in ("w_in", "w_out")}
    if routed_q:
        fresh |= {f"block{i}.attn.w_q" for i in range(4)}
    assert got.keys() == before.keys()
    for name, arr in got.items():
        want = before[name] if name in fresh else taught[name]
        assert arr.dtype == want.dtype and arr.tobytes() == want.tobytes(), name
    for name, arr in named_parameters(student).items():
        assert arr.tobytes() == before[name].tobytes(), f"{name} changed in the input student"


def test_config_rejects_a_sentinel_the_corpus_can_emit():
    config = TrainConfig()
    corpus = gen_synthetic_corpus(
        config.vocab, config.num_clusters, config.seq_len, config.corpus_size,
        RngStream(0).substream("corpus"),
    )
    first_unused = corpus.token_ranges[-1][1]  # 60 at the defaults
    assert 5 in corpus.sequences and not (corpus.sequences >= first_unused).any()
    for sentinel in (5, first_unused - 1):
        with pytest.raises(InvalidArgumentError, match=f"sentinel_id {sentinel} is a corpus token"):
            TrainConfig(sentinel_id=sentinel)
    assert TrainConfig(sentinel_id=first_unused).sentinel_id == first_unused


def test_distill_train_repeats_exactly():
    config = TrainConfig(ffn_kind="switch", steps=3, corpus_size=64, seed=6)
    router_config = RouterConfig(num_experts=4)
    teacher = build_model(config, router_config, RngStream(6).substream("init"))
    (first, _, first_rows), (second, _, second_rows) = (
        trainer.distill_train(teacher, config, router_config) for _ in range(2)
    )
    assert len(first_rows) == 3
    assert [dataclasses.astuple(r) for r in first_rows] == [
        dataclasses.astuple(r) for r in second_rows
    ]
    second_params = named_parameters(second)
    for name, arr in named_parameters(first).items():
        assert arr.tobytes() == second_params[name].tobytes(), name


def _one_hot_distill_loss_and_grad(student_logits, teacher_logits, target_ids, hard_weight):
    """``_distill_loss_and_grad`` on [n, V] logits, its target mixture built from
    a one-hot matrix."""
    n, v = student_logits.shape
    shifted = student_logits - student_logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    q = softmax(teacher_logits, axis=-1)
    one_hot = np.eye(v, dtype=student_logits.dtype)[target_ids]
    target = hard_weight * one_hot + (1 - hard_weight) * q
    return float(-(target * logp).sum(axis=1).mean()), (np.exp(logp) - target) / n


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_distill_loss_equals_one_hot_mixture_bit_for_bit(dtype):
    rng = RngStream(17)
    for i, (n, v) in enumerate([(1, 2), (5, 6), (37, 64), (128, 61)]):
        student = (3.0 * rng.substream(f"s{i}").normal((n, v))).astype(dtype)
        teacher = (3.0 * rng.substream(f"t{i}").normal((n, v))).astype(dtype)
        ids = rng.substream(f"ids{i}").integers(0, v, n)
        for hard_weight in (0.0, 0.123456789, 0.3, 0.75, 1.0):
            loss, grad = trainer._distill_loss_and_grad(student, teacher, ids, hard_weight)
            want_loss, want_grad = _one_hot_distill_loss_and_grad(
                student, teacher, ids, hard_weight
            )
            assert loss == want_loss
            assert grad.dtype == want_grad.dtype == dtype
            assert grad.tobytes() == want_grad.tobytes()


def _reference_adam(params, grads, state, lr):
    """The out-of-place update that ``adam_update`` runs in place."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name].astype(np.float32)
        if name not in state.m:
            state.m[name] = np.zeros_like(p, dtype=np.float32)
            state.v[name] = np.zeros_like(p, dtype=np.float32)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * g * g
        m_hat = m / (1 - state.beta1**t)
        v_hat = v / (1 - state.beta2**t)
        p -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.dtype)


def test_adam_update_in_place_matches_reference():
    config = TrainConfig(ffn_kind="switch")
    model = build_model(config, RouterConfig(4), RngStream(1))
    got, want = named_parameters(model), named_parameters(build_model(
        config, RouterConfig(4), RngStream(1)
    ))
    got_state, want_state = AdamState(), AdamState()
    rng = RngStream(2)
    for step in range(5):
        grads = {k: rng.normal(p.shape) * 10.0 ** -step for k, p in got.items()}
        adam_update(got, grads, got_state, 1e-2)
        _reference_adam(want, grads, want_state, 1e-2)
    for name in want:
        for a, b in ((got, want), (got_state.m, want_state.m), (got_state.v, want_state.v)):
            assert a[name].dtype == b[name].dtype and np.array_equal(a[name], b[name]), name


# Paper Figure 1 at a desk-scale shape: at equal steps, a switch model beats
# the dense model whose FFNs it replaces, on every seed. Measured at 200
# steps, the gap reads 0.031-0.098 nats per seed and 0.068 on the mean.
LEARNING_SEEDS = (1, 2, 3, 4)
LEARNING_SHAPE = dict(
    vocab=64, seq_len=16, d_model=32, d_ff=64, num_layers=2, expert_every=1,
    num_clusters=4, corpus_size=512, batch_tokens=256, steps=200,
)
MEAN_GAP_MARGIN = 0.03  # nats


@pytest.fixture(scope="module")
def eval_cross_entropy():
    """Held-out cross-entropy per (seed, FFN kind) after 200 training steps."""
    out = {}
    for seed in LEARNING_SEEDS:
        for kind in ("dense", "switch"):
            config = TrainConfig(seed=seed, ffn_kind=kind, **LEARNING_SHAPE)
            model, _, _ = trainer.train(config, RouterConfig(num_experts=4))
            out[seed, kind] = trainer.evaluate(model, config).cross_entropy
    return out


def _gap(eval_cross_entropy, seed):
    return eval_cross_entropy[seed, "dense"] - eval_cross_entropy[seed, "switch"]


@pytest.mark.parametrize("seed", LEARNING_SEEDS)
def test_switch_beats_dense_at_equal_steps(eval_cross_entropy, seed):
    assert _gap(eval_cross_entropy, seed) > 0


def test_switch_beats_dense_by_a_mean_margin(eval_cross_entropy):
    gaps = [_gap(eval_cross_entropy, seed) for seed in LEARNING_SEEDS]
    assert np.mean(gaps) > MEAN_GAP_MARGIN, gaps
