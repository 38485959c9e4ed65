"""The switchlab workloads, their correctness checks and their metrics.

All four workloads share one model shape, so the training workloads differ
only in their FFN and attention kind. Every loop is closed: one process, one
step at a time. A training step is ``batch_for_step`` plus ``train_step``;
an eval iteration is a checkpoint load and restore, one ``evaluate`` and the
sharded switch layer on five meshes, each with its checks.
"""

from __future__ import annotations

import contextlib
import copy
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from switchlab import cli, parallel_sim, router, switch_layer, trainer
from switchlab.tensor_core import RngStream

import spans

SHAPE = dict(
    vocab=256, seq_len=32, d_model=64, d_ff=128, num_layers=2, num_heads=2,
    expert_every=1, num_clusters=8, corpus_size=2048, mode="pretrain",
)
NUM_EXPERTS = 8
CAPACITY_FACTOR = 1.25

# Training restarts from the initial model every EPISODE_STEPS steps and saves
# a checkpoint at the end of each episode. Restarting keeps the step cost
# stationary and makes the loss at the episode's last step (the reported ce)
# independent of how many steps fit in the run.
EPISODE_STEPS = 10
# Two episodes: a complete one for ce, and at least ten steps beyond the
# reported tail percentile.
MIN_TRAIN_STEPS = 2 * EPISODE_STEPS
MIN_EVAL_ITERATIONS = 11
SETUP_REPEATS = 7
TAIL_BEYOND = 10

EVAL_SEQUENCES = 64  # one forward pass at 64 x 32 = 2048 tokens
SHARD_TOKENS = 1024
MESHES = (
    (2, 1, "data"),
    (1, 2, "model"),
    (2, 2, "data+model"),
    (8, 1, "expert+data"),
    (8, 2, "expert+model+data"),
)
# The simulator budgets capacity per data-parallel row, so the reference is
# the per-row switch layer; m > 1 sums partial outputs in another order.
SHARD_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    ffn_kind: str = "switch"
    attention_kind: str = "dense"
    batch_tokens: int = 1024
    policy: str = "argmax"
    ntlb_stages: int = 0
    eval_only: bool = False

    def configs(self, seed: int) -> tuple[trainer.TrainConfig, router.RouterConfig]:
        tc = trainer.TrainConfig(
            seed=seed, batch_tokens=self.batch_tokens, ffn_kind=self.ffn_kind,
            attention_kind=self.attention_kind, **SHAPE,
        )
        rc = router.RouterConfig(
            NUM_EXPERTS, capacity_factor=CAPACITY_FACTOR, policy=self.policy,
            ntlb_stages=self.ntlb_stages,
        )
        return tc, rc


WORKLOADS = {
    w.name: w
    for w in (
        # No router runs: the bypass case for every routing change, and the
        # dense baseline that the switch step time is compared against.
        Workload("dense_lm", ffn_kind="dense"),
        # Top-1 routing at T=1024: one-hot dispatch, expert FFNs and router.
        Workload("switch_lm"),
        # Top-2 FFN plus routed queries with linear experts, exploration noise
        # and rescue rerouting, at half the tokens.
        Workload(
            "moe2_lm", ffn_kind="moe2", attention_kind="switch", batch_tokens=512,
            policy="input_jitter", ntlb_stages=1,
        ),
        # The read path: checkpoint load, forward-only eval at T=2048, and the
        # mesh simulator. Nothing else runs parallel_sim or load_checkpoint.
        Workload("switch_eval", eval_only=True),
    )
}


# ---------------------------------------------------------------------------
# Operations and correctness checks
# ---------------------------------------------------------------------------


@dataclass
class Ops:
    """Operations attempted and failed; a failure is a raise or a failed check."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self._fail(what)
        return ok

    def call(self, what: str, fn, *args):
        """Run one operation; one that raises counts as failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the run goes on and reports the failure
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def loss_finite(row: trainer.MetricRow) -> bool:
    return bool(np.isfinite(row.total_loss) and np.isfinite(row.cross_entropy))


def bitwise_equal(expected: dict[str, np.ndarray], actual: dict[str, np.ndarray]) -> bool:
    """Same names, dtypes, shapes and bytes."""
    return expected.keys() == actual.keys() and all(
        e.dtype == actual[k].dtype and e.shape == actual[k].shape
        and e.tobytes() == actual[k].tobytes()
        for k, e in expected.items()
    )


def sharded_matches(y: np.ndarray, reference: np.ndarray, m: int) -> bool:
    """Bitwise for one model-parallel column, within SHARD_TOLERANCE otherwise."""
    if y.shape != reference.shape or y.dtype != reference.dtype:
        return False
    if m == 1:
        return y.tobytes() == reference.tobytes()
    return bool(np.all(np.abs(y - reference) <= SHARD_TOLERANCE))


def ledger_matches(records, report) -> bool:
    """The simulated collectives equal the forward rows of the analytical report."""
    simulated = sorted((r.op, r.bytes) for r in records)
    predicted = sorted((r.op, r.bytes_per_core) for r in report if r.comm_pass == "forward")
    return simulated == predicted


def _saved_state(model: trainer.ToyModel, opt: trainer.AdamState) -> dict[str, np.ndarray]:
    state = dict(trainer.named_parameters(model))
    state.update({f"adam.m.{k}": v for k, v in opt.m.items()})
    state.update({f"adam.v.{k}": v for k, v in opt.v.items()})
    return state


def checkpoint_round_trip(model, opt, experiment, path) -> bool:
    """Save, load and restore; every parameter and Adam moment comes back bitwise."""
    cli.save_checkpoint(model, opt, experiment, path)
    restored, restored_opt, _ = cli.restore_model(cli.load_checkpoint(path))
    return bitwise_equal(_saved_state(model, opt), _saved_state(restored, restored_opt))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass
class Loop:
    """One timed loop: per-step seconds, tokens processed and wall time."""

    step_s: list[float] = field(default_factory=list)
    tokens: int = 0
    seconds: float = 0.0


def _step_context(tracer: spans.Tracer | None, n: int):
    return tracer.step_span(n) if tracer is not None else contextlib.nullcontext()


class _Run:
    def __init__(self, workload: Workload, seed: int, scratch: str):
        self.tc, self.rc = workload.configs(seed)
        self.experiment = cli.ExperimentConfig(workload.name, seed, scratch, self.tc, self.rc)
        self.ckpt_path = os.path.join(scratch, f"{workload.name}.ckpt")
        self.ce: float | None = None
        self.ledgers: dict[str, list] = {}  # mesh strategy -> simulated collectives

    def setup(self) -> list[float]:
        """Build the corpus and model SETUP_REPEATS times; returns each time."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self._setup()
            times.append(time.perf_counter() - t0)
        return times

    def _setup(self) -> None:
        root = RngStream(self.tc.seed)
        self.corpus = trainer.gen_synthetic_corpus(
            self.tc.vocab, self.tc.num_clusters, self.tc.seq_len, self.tc.corpus_size,
            root.substream("corpus"),
        )
        self.model0 = trainer.build_model(self.tc, self.rc, root.substream("init"))

    def ckpt_bytes(self) -> int:
        return os.path.getsize(self.ckpt_path) if os.path.exists(self.ckpt_path) else 0

    def final_checks(self, ops: Ops) -> None:
        """Checks made once after the timed loops."""


class TrainingRun(_Run):
    """Closed-loop masked-LM training in episodes of EPISODE_STEPS steps."""

    def __init__(self, workload: Workload, seed: int, scratch: str):
        super().__init__(workload, seed, scratch)
        self.episode_ce: list[float] | None = None

    def warm_up(self, ops: Ops) -> None:
        model = copy.deepcopy(self.model0)
        ops.call("warm-up step", self._step, model, trainer.AdamState(), 0)

    def _step(self, model, opt, step: int) -> trainer.MetricRow:
        batch = trainer.batch_for_step(self.corpus, step, self.tc)
        return trainer.train_step(model, batch, opt, self.tc)

    def run(self, seconds: float, ops: Ops, tracer: spans.Tracer | None = None) -> Loop:
        loop = Loop()
        n = step = 0
        start = time.perf_counter()
        while n < MIN_TRAIN_STEPS or time.perf_counter() - start < seconds:
            if step == 0:
                model, opt, ces = copy.deepcopy(self.model0), trainer.AdamState(), []
            t0 = time.perf_counter()
            with _step_context(tracer, n):
                row = ops.call(f"step {n}", self._step, model, opt, step)
            loop.step_s.append(time.perf_counter() - t0)
            n += 1
            if row is None:  # the model is in an unknown state: start over
                step = 0
                continue
            loop.tokens += self.tc.batch_tokens
            ops.check(loss_finite(row), f"step {n - 1}: non-finite loss")
            ces.append(row.cross_entropy)
            step = (step + 1) % EPISODE_STEPS
            if step == 0:
                ops.call("save_checkpoint", cli.save_checkpoint, model, opt, self.experiment,
                         self.ckpt_path)
                if self.episode_ce is None:
                    self.episode_ce = ces
                    self.ce = ces[-1]
                ops.check(ces == self.episode_ce, f"step {n - 1}: episode losses differ")
        loop.seconds = time.perf_counter() - start
        self.last = (model, opt)
        return loop

    def final_checks(self, ops: Ops) -> None:
        """Round-trip the last model state through a checkpoint (not timed)."""
        model, opt = self.last
        ops.check(
            bool(ops.call("checkpoint round trip", checkpoint_round_trip, model, opt,
                          self.experiment, self.ckpt_path)),
            "checkpoint round trip is not bitwise",
        )


class EvalRun(_Run):
    """Checkpoint load, forward-only eval and the mesh simulator, each checked."""

    def _setup(self) -> None:
        super()._setup()
        cli.save_checkpoint(self.model0, trainer.AdamState(), self.experiment, self.ckpt_path)

    def warm_up(self, ops: Ops) -> None:
        """Compute the references (not timed), then run one iteration."""
        self.expected = {k: v.copy() for k, v in trainer.named_parameters(self.model0).items()}
        self.x = (
            RngStream(self.tc.seed).substream("bench/shard_input")
            .normal((SHARD_TOKENS, self.tc.d_model)).astype(np.float32)
        )
        params = self.model0.blocks[0].ffn_switch
        self.meshes = [parallel_sim.make_mesh(n, m, s, NUM_EXPERTS) for n, m, s in MESHES]
        self.references, self.reports = {}, {}
        for mesh in self.meshes:
            self.references[mesh.strategy] = np.concatenate([
                switch_layer.switch_ffn(xi, params, self.rc, RngStream(self.tc.seed), "eval").y
                for xi in np.split(self.x, mesh.n)
            ])
            capacity = router.expert_capacity(SHARD_TOKENS // mesh.n, NUM_EXPERTS, CAPACITY_FACTOR)
            self.reports[mesh.strategy] = parallel_sim.comm_cost_report(
                mesh, SHARD_TOKENS, self.tc.d_model, self.tc.d_ff, NUM_EXPERTS, capacity,
            )
        ops.call("warm-up iteration", self._iteration, ops)

    def _iteration(self, ops: Ops) -> int:
        """One iteration with its checks; returns the tokens it processed."""
        model, _, _ = cli.restore_model(cli.load_checkpoint(self.ckpt_path))
        ops.check(bitwise_equal(self.expected, trainer.named_parameters(model)),
                  "restored parameters are not bitwise equal")
        ev = trainer.evaluate(model, self.tc, self.corpus, EVAL_SEQUENCES)
        if self.ce is None:
            self.ce = ev.cross_entropy
        ops.check(ev.cross_entropy == self.ce and np.isfinite(ev.cross_entropy),
                  "eval cross-entropy differs between iterations")
        params = model.blocks[0].ffn_switch
        for mesh in self.meshes:
            out, records = parallel_sim.run_sharded_switch_layer(
                self.x, params, mesh, self.rc, RngStream(self.tc.seed),
            )
            self.ledgers[mesh.strategy] = records
            ops.check(sharded_matches(out.y, self.references[mesh.strategy], mesh.m),
                      f"{mesh.strategy}: sharded output differs from the per-row reference")
            ops.check(ledger_matches(records, self.reports[mesh.strategy]),
                      f"{mesh.strategy}: ledger differs from comm_cost_report")
        return EVAL_SEQUENCES * self.tc.seq_len + len(self.meshes) * SHARD_TOKENS

    def run(self, seconds: float, ops: Ops, tracer: spans.Tracer | None = None) -> Loop:
        loop = Loop()
        n = 0
        start = time.perf_counter()
        while n < MIN_EVAL_ITERATIONS or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            with _step_context(tracer, n):
                tokens = ops.call(f"iteration {n}", self._iteration, ops)
            loop.step_s.append(time.perf_counter() - t0)
            loop.tokens += tokens or 0
            n += 1
        loop.seconds = time.perf_counter() - start
        return loop


def make_run(workload: Workload, seed: int, scratch: str) -> _Run:
    cls = EvalRun if workload.eval_only else TrainingRun
    return cls(workload, seed, scratch)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# (name, unit, better) of the end-to-end metrics in the result line.
END_TO_END = (
    ("tokens_per_s", "tokens/s", "higher"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ce", "nats", "lower"),
)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(loop: Loop, setup_s: list[float], ce: float | None) -> dict[str, float]:
    return {
        "tokens_per_s": loop.tokens / loop.seconds,
        "step_ms_p50": statistics.median(loop.step_s) * 1e3,
        "step_ms_tail": tail(loop.step_s)[0] * 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "ce": float("nan") if ce is None else ce,
    }


STRATEGY_LABELS = tuple(spans.strategy_label(s) for _, _, s in MESHES)
SHARDED = "parallel_sim.run_sharded_switch_layer"


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric of a traced run."""
    specs = []
    for name in spans.TRACED_NAMES:
        specs.append((f"{name}.self_ms", "ms", "lower"))
        specs.append((f"{name}.calls", "count", "lower"))
    specs += [(f"{SHARDED}.{label}.self_ms", "ms", "lower") for label in STRATEGY_LABELS]
    specs.append((f"{spans.STEP_SPAN}.self_ms", "ms", "lower"))
    specs.append(("router.kept_fraction", "ratio", "higher"))
    specs.append(("switch_layer.slot_fill", "ratio", "higher"))
    for label in STRATEGY_LABELS:
        specs.append((f"parallel_sim.a2a_bytes.{label}", "bytes", "lower"))
        specs.append((f"parallel_sim.all_reduce_bytes.{label}", "bytes", "lower"))
        specs.append((f"parallel_sim.collectives.{label}", "count", "lower"))
    specs.append(("cli.ckpt_bytes", "bytes", "lower"))
    specs.append(("trace.step_ms_p50", "ms", "lower"))
    specs.append(("trace.untraced_step_ms_p50", "ms", "lower"))
    specs.append(("trace.overhead", "ratio", "lower"))
    return specs


def per_layer(
    tracer: spans.Tracer, untraced: Loop, traced: Loop, ledgers: dict[str, list], ckpt_bytes: int,
) -> dict[str, float]:
    """Every per-layer metric; a function never called reads 0."""
    values = dict.fromkeys((name for name, _, _ in per_layer_specs()), 0.0)
    stats = spans.layer_stats(tracer.spans)
    stats.update(spans.layer_stats(
        tracer.spans, key=lambda s: f"{s.name}.{s.tag}" if s.tag else None,
    ))
    for name, st in stats.items():
        if f"{name}.self_ms" in values:
            values[f"{name}.self_ms"] = st.self_ms
        if f"{name}.calls" in values:
            values[f"{name}.calls"] = st.calls
    c = tracer.counters
    if c["router.routed_tokens"]:
        values["router.kept_fraction"] = c["router.kept_tokens"] / c["router.routed_tokens"]
    if c["switch_layer.slots"]:
        values["switch_layer.slot_fill"] = c["switch_layer.kept_slots"] / c["switch_layer.slots"]
    for strategy, records in ledgers.items():
        label = spans.strategy_label(strategy)
        values[f"parallel_sim.a2a_bytes.{label}"] = sum(
            r.bytes for r in records if r.op == "all_to_all")
        values[f"parallel_sim.all_reduce_bytes.{label}"] = sum(
            r.bytes for r in records if r.op == "all_reduce")
        values[f"parallel_sim.collectives.{label}"] = len(records)
    values["cli.ckpt_bytes"] = ckpt_bytes
    values["trace.step_ms_p50"] = statistics.median(traced.step_s) * 1e3
    values["trace.untraced_step_ms_p50"] = statistics.median(untraced.step_s) * 1e3
    values["trace.overhead"] = values["trace.step_ms_p50"] / values["trace.untraced_step_ms_p50"]
    return values
