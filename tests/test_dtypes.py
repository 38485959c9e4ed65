"""Dtype contract: the model computes in float32, and float64 stays float64.

Training and evaluation keep every activation, cache array, gradient and
Adam moment in float32; the router's balance statistics f and P are the
deliberate float64 exception. The layer composites are dtype-preserving, so
``grad_check``'s float64 upcast carries through them and finite differences
stay float64.
"""

import dataclasses

import numpy as np
import pytest

from switchlab import trainer
from switchlab.router import RouterConfig, route
from switchlab.switch_layer import (
    AttentionConfig,
    AttentionWeights,
    attention_bwd,
    attention_fwd,
    dense_ffn_bwd,
    dense_ffn_fwd,
    init_switch_layer_params,
    switch_ffn_bwd,
    switch_ffn_fwd,
)
from switchlab.tensor_core import RngStream
from switchlab.trainer import (
    AdamState,
    TrainConfig,
    batch_for_step,
    build_model,
    evaluate,
    gen_synthetic_corpus,
    train_step,
)

# Reduced in float64 on purpose: the balance loss's dispatch fractions and
# mean router probabilities.
FLOAT64_FIELDS = (".stats.f", ".stats.P")


def _float_arrays(obj, path):
    """Every floating array or numpy scalar reachable from ``obj``, with its path."""
    if isinstance(obj, (np.ndarray, np.generic)):
        if obj.dtype.kind == "f":
            yield path, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _float_arrays(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _float_arrays(value, f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _float_arrays(value, f"{path}[{i}]")


def _non_float32(obj, path):
    return [
        f"{p}: {a.dtype}"
        for p, a in _float_arrays(obj, path)
        if a.dtype != (np.float64 if p.endswith(FLOAT64_FIELDS) else np.float32)
    ]


@pytest.mark.parametrize("selective_precision", [False, True], ids=["full", "selective"])
@pytest.mark.parametrize("attention_kind", trainer.ATTENTION_KINDS)
@pytest.mark.parametrize("ffn_kind", trainer.FFN_KINDS)
def test_train_step_and_evaluate_stay_float32(
    ffn_kind, attention_kind, selective_precision, monkeypatch
):
    config = TrainConfig(
        vocab=32, seq_len=8, batch_tokens=32, d_model=16, d_ff=24, num_layers=2,
        num_heads=2, expert_every=1, num_clusters=2, corpus_size=16, seed=3,
        ffn_kind=ffn_kind, attention_kind=attention_kind,
        dropout_rate=0.1, expert_dropout_rate=0.1,
    )
    router_config = RouterConfig(
        num_experts=4, policy="input_jitter", ntlb_stages=1,
        selective_precision=selective_precision,
    )
    recorded = {}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            recorded.setdefault(name, []).append(out)
            return out
        monkeypatch.setattr(trainer, name, wrapper)

    recording("model_fwd", trainer.model_fwd)
    model_bwd = trainer.model_bwd

    def checking_bwd(model, cache, d_logits):
        # model_bwd consumes the cache, so it is checked as model_bwd receives it.
        assert len(cache.attn_caches) == len(cache.ffn_caches) == config.num_layers
        bwd_cache_bad.extend(_non_float32(cache, "train.cache"))
        return model_bwd(model, cache, d_logits)

    bwd_cache_bad = []
    recording("model_bwd", checking_bwd)

    corpus = gen_synthetic_corpus(
        config.vocab, config.num_clusters, config.seq_len, config.corpus_size,
        RngStream(config.seed).substream("corpus"),
    )
    model = build_model(config, router_config, RngStream(config.seed).substream("init"))
    opt_state = AdamState()
    batch = batch_for_step(corpus, 0, config)
    train_step(model, batch, opt_state, config)
    evaluate(model, config, corpus, num_sequences=8)

    (train_fwd, eval_fwd), (grads,) = recorded["model_fwd"], recorded["model_bwd"]
    assert set(grads) == set(trainer.named_parameters(model))
    assert eval_fwd.cache is None  # evaluate keeps no backward cache
    # An eval-mode forward that keeps its cache, as a differentiated one does.
    cached_eval_fwd = trainer.model_fwd(model, batch, RngStream(config.seed), training=False)
    assert train_fwd.cache.consumed and not train_fwd.cache.ffn_caches
    bad = bwd_cache_bad + _non_float32(eval_fwd.logits, "eval.logits")
    bad += _non_float32(cached_eval_fwd.cache, "eval.cache")
    for tag, fwd in (("train", train_fwd), ("eval", cached_eval_fwd)):
        bad += _non_float32(fwd.logits, f"{tag}.logits")
    bad += _non_float32(grads, "grads")
    bad += _non_float32((opt_state.m, opt_state.v), "adam")
    bad += _non_float32(trainer.named_parameters(model), "params")
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("policy", ["argmax", "sample_softmax", "input_dropout", "input_jitter"])
def test_route_stays_float32_under_every_policy(policy):
    rng = RngStream(5)
    x = rng.substream("x").normal((12, 6)).astype(np.float32)
    w = rng.substream("w").normal((6, 3)).astype(np.float32)
    config = RouterConfig(num_experts=3, policy=policy)
    plan, stats = route(x, w, config, rng.substream("route"), "train")
    bad = _non_float32(plan, "route.plan") + _non_float32(stats, "route.stats")
    assert not bad, "\n".join(bad)


def _float64(rng, label, shape, scale=0.5):
    return rng.substream(label).normal(shape) * scale


def _assert_float64(tree, what):
    wrong = [f"{p}: {a.dtype}" for p, a in _float_arrays(tree, what) if a.dtype != np.float64]
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("routed_query", [False, True], ids=["dense_q", "routed_q"])
def test_attention_keeps_float64_inputs_float64(routed_query):
    rng = RngStream(8)
    d = 8
    x = _float64(rng, "x", (2, 5, d))
    weights = AttentionWeights(
        w_k=_float64(rng, "wk", (d, d)), w_v=_float64(rng, "wv", (d, d)),
        w_o=_float64(rng, "wo", (d, d)),
        w_q=None if routed_query else _float64(rng, "wq", (d, d)),
    )
    q_params = None
    if routed_query:
        q_params = init_switch_layer_params(d, d, 2, rng.substream("q"), expert_form="linear")
        q_params.w_router = q_params.w_router.astype(np.float64)
        q_params.w_in = q_params.w_in.astype(np.float64)
    config = AttentionConfig(num_heads=2, router=RouterConfig(num_experts=2))
    out, cache = attention_fwd(x, weights, config, rng.substream("attn"), "train", q_params)
    grads = attention_bwd(_float64(rng, "gy", x.shape), cache)
    _assert_float64(out.y, "y")
    _assert_float64(grads, "grads")


def test_dense_ffn_keeps_float64_inputs_float64():
    rng = RngStream(9)
    x = _float64(rng, "x", (6, 4))
    y, cache = dense_ffn_fwd(
        x, _float64(rng, "w_in", (4, 7)), _float64(rng, "w_out", (7, 4)),
        dropout=0.2, rng=rng.substream("drop"), mode="train",
    )
    _assert_float64(y, "y")
    _assert_float64(dense_ffn_bwd(_float64(rng, "gy", y.shape), cache), "grads")


def test_switch_ffn_keeps_float64_inputs_float64():
    rng = RngStream(10)
    params = init_switch_layer_params(4, 6, 3, rng.substream("params"), expert_dropout_rate=0.2)
    for name in ("w_router", "w_in", "w_out"):
        setattr(params, name, getattr(params, name).astype(np.float64))
    x = _float64(rng, "x", (9, 4))
    config = RouterConfig(num_experts=3, policy="input_jitter")
    out, cache = switch_ffn_fwd(x, params, config, rng.substream("switch"), "train")
    _assert_float64(out.y, "y")
    _assert_float64(switch_ffn_bwd(_float64(rng, "gy", x.shape), cache), "grads")
