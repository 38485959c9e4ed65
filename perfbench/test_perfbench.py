"""Tests of the benchmark itself: span arithmetic, metric names and the checks.

    python3 -m pytest perfbench
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from spans import STEP_SPAN, Span  # noqa: E402
from switchlab import cli, parallel_sim, router, switch_layer, trainer  # noqa: E402
from switchlab.tensor_core import RngStream  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span_tree() -> list[Span]:
    """Two steps, and a checkpoint save between them (times in ns)."""
    return [
        Span(0, STEP_SPAN, 0, 100, None, 0),
        Span(1, "a", 10, 60, 0, 0),
        Span(2, "b", 20, 30, 1, 0),
        Span(3, "c", 35, 50, 1, 0),
        Span(4, "d", 70, 90, 0, 0),
        Span(5, "save", 100, 110, None, 0),
        Span(6, STEP_SPAN, 200, 260, None, 1),
        Span(7, "a", 210, 240, 6, 1),
        Span(8, "b", 215, 225, 7, 1),
    ]


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    assert spans.self_times(span_tree()) == {
        0: 30, 1: 25, 2: 10, 3: 15, 4: 20, 5: 10, 6: 30, 7: 20, 8: 10,
    }


def test_self_times_of_each_step_sum_to_its_root():
    assert spans.step_tree_errors(span_tree()) == []


def test_layer_stats_take_the_median_over_calling_steps_and_mean_calls():
    stats = spans.layer_stats(span_tree())
    assert stats["a"].self_ms == pytest.approx(22.5e-6)  # 25 ns and 20 ns
    assert stats["a"].calls == 1.0
    assert stats["d"].self_ms == pytest.approx(20e-6)  # only step 0 calls d
    assert stats["d"].calls == 0.5
    assert stats["save"].calls == 0.5  # between steps, counted with step 0
    assert stats[STEP_SPAN].self_ms == pytest.approx(30e-6)


@pytest.mark.parametrize(
    "broken",
    [
        Span(2, "b", 5, 30, 1, 0),  # starts before its parent
        Span(3, "c", 35, 65, 1, 0),  # ends after its parent
        Span(4, "d", 70, 90, 0, 1),  # carries another step's id
    ],
)
def test_broken_span_tree_trips_the_check(broken):
    tree = span_tree()
    tree[broken.id] = broken
    ops = wl.Ops()
    ops.check(not spans.step_tree_errors(tree), "span tree")
    assert (ops.attempted, ops.failed) == (1, 1)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(33)]
    assert wl.tail(values) == (22.0, pytest.approx(100 * 23 / 33))
    assert wl.tail(values[:11]) == (0.0, pytest.approx(100 / 11))


# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------


def test_declared_names_match_benchmark_json_and_use_allowed_characters():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    assert declared == list(wl.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == wl.per_layer_specs()
    names = [name for name, _, _ in [*wl.END_TO_END, *wl.per_layer_specs()]]
    names += list(wl.WORKLOADS)
    assert len(names) == len(set(names))
    for name, unit, _ in [*wl.END_TO_END, *wl.per_layer_specs()]:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def test_every_declared_metric_is_emitted():
    loop = wl.Loop([0.1, 0.3, 0.2], tokens=3072, seconds=0.6)
    assert list(wl.end_to_end(loop, [0.01], 5.5)) == [n for n, _, _ in wl.END_TO_END]
    emitted = wl.per_layer(spans.Tracer(), loop, loop, {}, 0)
    assert list(emitted) == [n for n, _, _ in wl.per_layer_specs()]


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def test_loss_check_trips_on_a_non_finite_loss():
    ops = wl.Ops()
    ops.check(wl.loss_finite(trainer.MetricRow(0, 5.5, 5.4, 0.1, -5.4, 0.0)), "finite")
    ops.check(wl.loss_finite(trainer.MetricRow(1, float("nan"), 5.4, 0.1, -5.4, 0.0)), "nan")
    ops.check(wl.loss_finite(trainer.MetricRow(2, 5.5, float("inf"), 0.1, -5.4, 0.0)), "inf")
    assert (ops.attempted, ops.failed) == (3, 2)


def test_round_trip_check_trips_on_any_bit_difference():
    expected = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
    assert wl.bitwise_equal(expected, {"w": expected["w"].copy()})
    flipped = expected["w"].copy()
    flipped.view(np.uint32)[1, 2] ^= 1
    negative_zero = expected["w"].copy()
    negative_zero[0, 0] = -0.0
    perturbed = [
        {"w": flipped},
        {"w": negative_zero},  # equal as numbers, not as bits
        {"w": expected["w"].astype(np.float64)},
        {"w": expected["w"].reshape(3, 2)},
        {},
        {"w": expected["w"], "extra": expected["w"]},
    ]
    ops = wl.Ops()
    for actual in perturbed:
        ops.check(wl.bitwise_equal(expected, actual), "round trip")
    assert ops.failed == ops.attempted == len(perturbed)


def test_checkpoint_round_trip_restores_a_trained_model(tmp_path):
    tc, rc = wl.WORKLOADS["switch_lm"].configs(seed=3)
    model = trainer.build_model(tc, rc, RngStream(3).substream("init"))
    opt = trainer.AdamState()
    corpus = trainer.gen_synthetic_corpus(
        tc.vocab, tc.num_clusters, tc.seq_len, tc.corpus_size, RngStream(3).substream("corpus"),
    )
    trainer.train_step(model, trainer.batch_for_step(corpus, 0, tc), opt, tc)
    experiment = cli.ExperimentConfig("t", 3, str(tmp_path), tc, rc)
    assert wl.checkpoint_round_trip(model, opt, experiment, str(tmp_path / "t.ckpt"))


def _sharded_case(strategy: str, m: int):
    """A small switch layer on an n=8 mesh, its output and per-row reference."""
    rc = router.RouterConfig(8)
    params = switch_layer.init_switch_layer_params(8, 16, 8, RngStream(1).substream("p"))
    x = RngStream(1).substream("x").normal((64, 8)).astype(np.float32)
    mesh = parallel_sim.make_mesh(8, m, strategy, 8)
    out, records = parallel_sim.run_sharded_switch_layer(x, params, mesh, rc, RngStream(1))
    reference = np.concatenate([
        switch_layer.switch_ffn(xi, params, rc, RngStream(1), "eval").y for xi in np.split(x, 8)
    ])
    report = parallel_sim.comm_cost_report(
        mesh, 64, 8, 16, 8, router.expert_capacity(64 // 8, 8, wl.CAPACITY_FACTOR),
    )
    return out.y, reference, records, report


def test_sharded_check_is_bitwise_for_one_column():
    y, reference, _, _ = _sharded_case("expert+data", 1)
    ops = wl.Ops()
    ops.check(wl.sharded_matches(y, reference, 1), "unperturbed")
    y = y.copy()
    y[3, 4] = np.nextafter(y[3, 4], np.float32(np.inf))
    ops.check(wl.sharded_matches(y, reference, 1), "one ulp")
    assert (ops.attempted, ops.failed) == (2, 1)


def test_sharded_check_allows_rounding_only_for_several_columns():
    y, reference, _, _ = _sharded_case("expert+model+data", 2)
    ops = wl.Ops()
    ops.check(wl.sharded_matches(y, reference, 2), "unperturbed")
    ops.check(wl.sharded_matches(y + np.float32(5e-7), reference, 2), "within tolerance")
    ops.check(wl.sharded_matches(y + np.float32(2e-6), reference, 2), "beyond tolerance")
    ops.check(wl.sharded_matches(y[:-1], reference[:-1].astype(np.float64), 2), "dtype")
    assert (ops.attempted, ops.failed) == (4, 2)


def test_ledger_check_trips_on_a_changed_or_missing_collective():
    _, _, records, report = _sharded_case("expert+model+data", 2)
    assert len(records) == 3
    grown = parallel_sim.CommRecord(records[0].op, records[0].elements + 1, records[0].width_bytes)
    ops = wl.Ops()
    ops.check(wl.ledger_matches(records, report), "unperturbed")
    ops.check(wl.ledger_matches(records[1:], report), "missing")
    ops.check(wl.ledger_matches([grown, *records[1:]], report), "grown")
    ops.check(wl.ledger_matches([*records, records[0]], report), "extra")
    assert (ops.attempted, ops.failed) == (4, 3)


def test_a_raising_operation_counts_as_failed():
    ops = wl.Ops()
    assert ops.call("ok", lambda: 7) == 7
    assert ops.call("raises", lambda: 1 / 0) is None
    assert (ops.attempted, ops.failed) == (2, 1)
    assert "ZeroDivisionError" in ops.failures[0]


# ---------------------------------------------------------------------------
# Tracing the real program
# ---------------------------------------------------------------------------


def test_traced_wraps_every_import_site_and_restores_it():
    tc = trainer.TrainConfig(
        vocab=64, seq_len=8, batch_tokens=32, d_model=8, d_ff=16, num_layers=1,
        ffn_kind="switch", expert_every=1, num_clusters=2, corpus_size=16,
    )
    rc = router.RouterConfig(4)
    corpus = trainer.gen_synthetic_corpus(64, 2, 8, 16, RngStream(0).substream("corpus"))
    model = trainer.build_model(tc, rc, RngStream(0).substream("init"))
    original = switch_layer.switch_ffn_fwd
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert trainer.switch_ffn_fwd is switch_layer.switch_ffn_fwd is not original
        with tracer.step_span(0):
            trainer.train_step(model, trainer.batch_for_step(corpus, 0, tc), trainer.AdamState(), tc)
    assert trainer.switch_ffn_fwd is switch_layer.switch_ffn_fwd is original

    by_id = {s.id: s for s in tracer.spans}
    parent = {s.name: by_id[s.parent].name for s in tracer.spans if s.parent is not None}
    assert parent["switch_layer.switch_ffn_fwd"] == "trainer.model_fwd"
    assert parent["router.route"] == "switch_layer.switch_ffn_fwd"
    assert parent["trainer.model_fwd"] == "trainer.train_step"
    assert spans.step_tree_errors(tracer.spans) == []
    assert tracer.counters["router.routed_tokens"] == 32
    assert tracer.counters["switch_layer.slots"] == 4 * router.expert_capacity(32, 4, 1.25)


def test_sharded_spans_are_broken_down_per_strategy():
    tracer = spans.Tracer()
    with spans.traced(tracer), tracer.step_span(0):
        _, _, records, _ = _sharded_case("expert+model+data", 2)
    loop = wl.Loop([0.1], tokens=64, seconds=0.1)
    values = wl.per_layer(tracer, loop, loop, {"expert+model+data": records}, 0)
    assert values["parallel_sim.run_sharded_switch_layer.expert-model-data.self_ms"] > 0
    assert values["parallel_sim.run_sharded_switch_layer.data.self_ms"] == 0
    assert values["parallel_sim.run_sharded_switch_layer.calls"] == 1
    assert values["parallel_sim.collectives.expert-model-data"] == 3
