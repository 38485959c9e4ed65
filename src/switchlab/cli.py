"""Experiment driver: flat-text configs, seeded runs, checkpoints, reports.

Configs are diff-friendly ``section.key=value`` lines (``router.alpha=0.01``);
every run artifact (metrics CSV, checkpoint, comm report) is reproducible
byte-for-byte from the config and seed. Checkpoints are a little-endian
binary format with a JSON header, format version 1.

Subcommands: ``train``, ``sweep``, ``parallel-check``, ``distill``,
``comm-report``, ``grad-check``. Flags mirror config keys: each subcommand
but ``grad-check`` reads its settings from a ``--config`` file, then from
repeated ``--set section.key=value`` overrides, then from the shorthands
``--seed`` (``run.seed``) and ``--outdir`` (``run.outdir``), which
``comm-report`` lacks. No other flag holds a setting. ``train --resume``
takes no setting from its checkpoint: the run's config builds the model, and
the checkpoint's tensors, Adam moments and step fill it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import parallel_sim, trainer
from .parallel_sim import MeshLayout, comm_cost_report, comm_report_to_csv, make_mesh
from .router import RouterConfig, expert_capacity
from .switch_layer import (
    AttentionConfig,
    AttentionWeights,
    SwitchLayerParams,
    attention_bwd,
    attention_fwd,
    dense_ffn_bwd,
    dense_ffn_fwd,
    init_switch_layer_params,
    moe_topk_ffn_bwd,
    moe_topk_ffn_fwd,
    switch_ffn_bwd,
    switch_ffn_fwd,
)
from .tensor_core import InvalidArgumentError, RngStream, grad_check, softmax_backward
from .trainer import (
    AdamState,
    MetricRow,
    ToyModel,
    TrainConfig,
    _distill_loss_and_grad,
    build_model,
    named_parameters,
    train,
)

__all__ = [
    "ExperimentConfig",
    "Checkpoint",
    "UnsupportedVersionError",
    "CorruptCheckpointError",
    "parse_config",
    "serialize_config",
    "run_experiment",
    "save_checkpoint",
    "load_checkpoint",
    "restore_model",
    "write_metrics_csv",
    "main",
]

METRICS_SCHEMA_VERSION = 1
CHECKPOINT_MAGIC = b"SWCHKPT"
CHECKPOINT_VERSION = 1
_HEADER_KEYS = {"step", "config", "tensors"}
_RECORD_KEYS = {"name", "shape", "dtype", "offset", "nbytes"}
# Retired keys at the one value that leaves behaviour unchanged; older
# builds wrote these lines into every run's config.txt and checkpoint.
_RETIRED_CONFIG_LINES = {"router.jitter_on_logits=False", "train.tie_embeddings=False"}


def _is_retired(line: str) -> bool:
    """Whether ``line`` is one of ``_RETIRED_CONFIG_LINES``, which config
    files and checkpoints skip; a ``--set`` of it still fails."""
    return line.strip() in _RETIRED_CONFIG_LINES


class UnsupportedVersionError(RuntimeError):
    """Checkpoint format version is not one this build can read."""


class CorruptCheckpointError(RuntimeError):
    """Checkpoint bytes are inconsistent with their header."""


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """One run's name, seed and output root, with each section's settings."""

    name: str = "run"
    seed: int = 0
    outdir: str = "out"
    train: TrainConfig = None
    router: RouterConfig = None
    mesh: MeshLayout | None = None

    def __post_init__(self) -> None:
        if self.train is None:
            self.train = TrainConfig(seed=self.seed)
        if self.router is None:
            self.router = RouterConfig()
        if self.train.seed != self.seed:
            raise InvalidArgumentError(
                f"train.seed={self.train.seed} does not restate run.seed={self.seed}"
            )


# Each section's keys are the scalar fields of its dataclass, less the
# restated keys: these hold no value of their own, and a line of one is read
# only to check it against the key it restates.
_SECTIONS = {
    "run": ExperimentConfig, "router": RouterConfig, "train": TrainConfig, "mesh": MeshLayout,
}
_RESTATED = {"train.seed": "run.seed", "mesh.num_experts": "router.num_experts"}
_TYPES = {"int": int, "float": float, "str": str, "bool": bool, "int | None": int,
          "float | None": float}


def _section_fields(section: str) -> list[dataclasses.Field]:
    return [
        f for f in fields(_SECTIONS[section])
        if f.type in _TYPES and f"{section}.{f.name}" not in _RESTATED
    ]


def _valid_keys() -> dict[str, type]:
    return {f"{s}.{f.name}": _TYPES[f.type] for s in _SECTIONS for f in _section_fields(s)}


def _parse_value(raw: str, typ: type):
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise InvalidArgumentError(f"expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse {raw!r} as {typ.__name__}") from exc


def _reason(exc: Exception) -> str:
    """Why a file could not be read, without the path the message adds."""
    return getattr(exc, "strerror", None) or str(exc)


def parse_config(
    path: str | None = None, overrides: list[str] | None = None
) -> ExperimentConfig:
    """Read ``section.key=value`` lines: the file's, then ``overrides``; the
    last line of a key wins.

    Each value has one key, a scalar field of the section's dataclass (see
    ``_SECTIONS``), and keeps its default (``make_mesh``'s for the mesh) when
    no line sets it; any ``mesh`` key configures a mesh. A restated key
    (``train.seed``, ``mesh.num_experts``) is accepted only at the value that
    the key it restates holds once the line's source (the file, or the
    overrides) is read, and is then dropped: an older run's config.txt, which
    wrote both, still reads. So do its retired lines, which a file may hold
    and which are skipped (``_RETIRED_CONFIG_LINES``). Unknown keys fail with
    the full list of valid ones, and so does a retired key at any other value
    or in ``overrides``; field invariants are enforced by the config
    dataclasses themselves.
    """
    sources = []
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidArgumentError(f"cannot read config {path}: {_reason(exc)}") from exc
        sources.append([(f"{path}:{i}", ln) for i, ln in enumerate(lines, 1)
                        if not _is_retired(ln)])
    sources.append([("--set", item) for item in overrides or []])

    valid = _valid_keys()
    entries: dict[str, str] = {}
    for source in sources:
        restated: dict[str, str] = {}
        for where, line in source:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidArgumentError(f"{where}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            (restated if key in _RESTATED else entries)[key] = value
        for key, value in restated.items():
            owner = _RESTATED[key]
            section, name = owner.split(".")
            holds = getattr(_SECTIONS[section], name)  # the dataclass default
            if owner in entries:
                holds = _parse_value(entries[owner], valid[owner])
            said = _parse_value(value, valid[owner])
            if said != holds:
                raise InvalidArgumentError(
                    f"{key}={said} does not restate {owner}={holds}; set {owner} alone"
                )

    unknown = sorted(set(entries) - set(valid))
    if unknown:
        raise InvalidArgumentError(
            f"unknown config keys {unknown}; valid keys: {sorted(valid)}"
        )
    given: dict[str, dict] = {section: {} for section in _SECTIONS}
    for key, value in entries.items():
        section, name = key.split(".", 1)
        given[section][name] = _parse_value(value, valid[key])

    router = RouterConfig(**given["router"])
    mesh = make_mesh(**given["mesh"], num_experts=router.num_experts) if given["mesh"] else None
    train_cfg = TrainConfig(seed=given["run"].get("seed", ExperimentConfig.seed), **given["train"])
    return ExperimentConfig(**given["run"], train=train_cfg, router=router, mesh=mesh)


def serialize_config(config: ExperimentConfig) -> str:
    """Emit every key that holds a value as one flat key=value line;
    parse_config round-trips it."""
    lines = []
    for section in _SECTIONS:
        part = config if section == "run" else getattr(config, section)
        if part is None:
            continue
        for f in _section_fields(section):
            value = getattr(part, f.name)
            if value is not None:
                lines.append(f"{section}.{f.name}={value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    version: int
    step: int
    config_text: str
    tensors: dict[str, np.ndarray]  # float32


def _collect_tensors(model: ToyModel, opt_state: AdamState) -> dict[str, np.ndarray]:
    tensors = dict(named_parameters(model))
    for name, arr in opt_state.m.items():
        tensors[f"adam.m.{name}"] = arr
    for name, arr in opt_state.v.items():
        tensors[f"adam.v.{name}"] = arr
    return tensors


def save_checkpoint(
    model: ToyModel,
    opt_state: AdamState,
    config: ExperimentConfig,
    path: str,
) -> None:
    """Write magic, version byte, length-prefixed JSON header, then raw payloads.

    The bytes go to a temporary file beside ``path`` that is then renamed
    over it, so a reader sees either the previous checkpoint or the
    complete new one, and a writer that dies mid-write leaves the previous
    one in place. The file is not fsynced, so a power loss may still lose
    the latest save.
    """
    tensors = _collect_tensors(model, opt_state)
    records = []
    offset = 0
    payloads = []
    for name in sorted(tensors):
        # Little-endian float32, C order: the file takes the buffer as it is.
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        records.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": "<f4",
                "offset": offset,
                "nbytes": arr.nbytes,
            }
        )
        payloads.append(arr)
        offset += arr.nbytes
    header = {
        "format_version": CHECKPOINT_VERSION,
        "step": opt_state.step,
        "config": serialize_config(config),
        "tensors": records,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(bytes([CHECKPOINT_VERSION]))
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for arr in payloads:
                fh.write(arr.data)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_checkpoint(path: str) -> Checkpoint:
    """Read and validate a checkpoint; truncation errors carry the byte offset.

    Files written by older builds also carry a header ``"rng"`` field and a
    per-record ``"precision_tag"``; both are ignored. Their config text also
    holds the retired lines ``router.jitter_on_logits=False`` and
    ``train.tie_embeddings=False``, which ``restore_model`` drops; any other
    value of either key is an unknown key.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read checkpoint {path}: {_reason(exc)}") from exc
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError("missing checkpoint magic at byte offset 0")
    pos = len(CHECKPOINT_MAGIC)
    if len(blob) <= pos:
        raise CorruptCheckpointError(f"truncated version byte at byte offset {pos}")
    version = blob[pos]
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersionError(
            f"checkpoint format version {version} not supported (expected {CHECKPOINT_VERSION})"
        )
    pos += 1
    if len(blob) < pos + 8:
        raise CorruptCheckpointError(f"truncated header length at byte offset {pos}")
    (header_len,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    if len(blob) < pos + header_len:
        raise CorruptCheckpointError(f"truncated header at byte offset {len(blob)}")
    try:
        header = json.loads(blob[pos : pos + header_len].decode())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CorruptCheckpointError(f"undecodable header at byte offset {pos}: {exc}") from exc
    if not isinstance(header, dict) or not _HEADER_KEYS <= header.keys():
        raise CorruptCheckpointError(
            f"header at byte offset {pos} lacks one of {sorted(_HEADER_KEYS)}"
        )
    if not isinstance(header["tensors"], list):
        raise CorruptCheckpointError(f"header at byte offset {pos} has no tensor list")
    pos += header_len

    tensors: dict[str, np.ndarray] = {}
    for i, rec in enumerate(header["tensors"]):
        _check_record(rec, i)
        if rec["name"] in tensors:
            raise CorruptCheckpointError(f"tensor record {i} repeats the name {rec['name']!r}")
        start = pos + rec["offset"]
        end = start + rec["nbytes"]
        if end > len(blob):
            raise CorruptCheckpointError(
                f"tensor {rec['name']!r} truncated at byte offset {len(blob)}"
            )
        arr = np.frombuffer(memoryview(blob)[start:end], dtype="<f4").reshape(rec["shape"])
        tensors[rec["name"]] = arr.astype(np.float32)
    # Sorted by start, nonempty payloads overlap iff some neighbouring pair does.
    records = [r for r in header["tensors"] if r["nbytes"]]
    spans = sorted((r["offset"], r["offset"] + r["nbytes"], r["name"]) for r in records)
    for (_, end, name), (start, _, other) in zip(spans, spans[1:]):
        if start < end:
            raise CorruptCheckpointError(f"tensors {name!r} and {other!r} share payload bytes")
    return Checkpoint(version, header["step"], header["config"], tensors)


def _check_record(rec, index: int) -> None:
    """Raise CorruptCheckpointError unless ``rec`` describes one float32 tensor."""
    def is_count(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    if not isinstance(rec, dict) or not _RECORD_KEYS <= rec.keys():
        raise CorruptCheckpointError(f"tensor record {index} lacks one of {sorted(_RECORD_KEYS)}")
    shape, nbytes = rec["shape"], rec["nbytes"]
    if not (isinstance(rec["name"], str) and is_count(rec["offset"]) and is_count(nbytes)
            and rec["dtype"] == "<f4" and isinstance(shape, list)
            and all(map(is_count, shape)) and 4 * math.prod(shape) == nbytes):
        raise CorruptCheckpointError(
            f"tensor record {index} is not '<f4' data of its shape at an offset: {rec}"
        )


def restore_model(
    ckpt: Checkpoint, config: ExperimentConfig | None = None
) -> tuple[ToyModel, AdamState, ExperimentConfig]:
    """Fill a model and optimizer from a checkpoint; unknown tensors are fatal.

    ``config`` builds the model, by default the checkpoint's own, whose text
    is parsed either way. The model starts as an all-zero skeleton, with no
    random draw, and every parameter must come from the checkpoint.
    """
    saved = parse_config(overrides=[
        ln for ln in ckpt.config_text.splitlines() if not _is_retired(ln)
    ])
    config = saved if config is None else config
    model = build_model(config.train, config.router, None)
    params = named_parameters(model)
    opt = AdamState(step=ckpt.step)

    expected = set(params)
    seen_params = set()
    for name, t in ckpt.tensors.items():
        if name.startswith("adam.m.") or name.startswith("adam.v."):
            base = name.split(".", 2)[2]
            if base not in expected:
                raise InvalidArgumentError(
                    f"checkpoint optimizer state {name!r} matches no model parameter"
                )
            target = opt.m if name.startswith("adam.m.") else opt.v
            target[base] = t.copy()
        elif name in expected:
            if params[name].shape != t.shape:
                raise InvalidArgumentError(
                    f"checkpoint tensor {name!r} shape {t.shape} does not "
                    f"match model shape {params[name].shape}"
                )
            params[name][...] = t
            seen_params.add(name)
        else:
            raise InvalidArgumentError(f"checkpoint holds unknown tensor {name!r}")
    missing = expected - seen_params
    if missing:
        raise InvalidArgumentError(f"checkpoint is missing model tensors {sorted(missing)}")
    return model, opt, config


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def write_metrics_csv(rows: list[MetricRow], path: str) -> None:
    """Frozen schema, version-stamped in the first line."""
    with open(path, "w") as fh:
        fh.write(f"# metrics-schema={METRICS_SCHEMA_VERSION}\n")
        fh.write(
            "step,total_loss,cross_entropy,aux_loss,neg_log_perplexity,"
            "dropped_fraction,expert_fractions\n"
        )
        for r in rows:
            fractions = (
                ";".join(repr(float(v)) for v in r.expert_fractions)
                if r.expert_fractions is not None
                else ""
            )
            fh.write(
                f"{r.step},{r.total_loss!r},{r.cross_entropy!r},{r.aux_loss!r},"
                f"{r.neg_log_perplexity!r},{r.dropped_fraction!r},{fractions}\n"
            )


def run_experiment(config: ExperimentConfig, resume: str | None = None) -> int:
    """Train per config, then write metrics.csv, final.ckpt, and (with a mesh
    configured) comm_report.csv into the run's output directory. ``resume``
    names a checkpoint whose tensors, Adam moments and step fill the model
    that ``config`` builds. The mesh and the checkpoint are checked before
    anything is written."""
    report = None if config.mesh is None else _comm_report(config)
    model = opt = None
    if resume is not None:
        model, opt, _ = restore_model(load_checkpoint(resume), config)
    outdir = os.path.join(config.outdir, config.name)
    os.makedirs(outdir, exist_ok=True)
    model, opt, rows = train(config.train, config.router, model=model, opt_state=opt)
    write_metrics_csv(rows, os.path.join(outdir, "metrics.csv"))
    save_checkpoint(model, opt, config, os.path.join(outdir, "final.ckpt"))
    with open(os.path.join(outdir, "config.txt"), "w") as fh:
        fh.write(serialize_config(config))

    if report is not None:
        comm_report_to_csv(report, os.path.join(outdir, "comm_report.csv"))
    return 0


def _comm_report(config: ExperimentConfig) -> list[parallel_sim.CommCostRow]:
    """The analytical comm report of ``config.mesh``, which must be able to
    shard the configured switch layer, with capacity budgeted per
    data-parallel row as each row routes its own tokens."""
    tc, rc = config.train, config.router
    parallel_sim.check_layout(config.mesh, tc.batch_tokens, tc.d_ff, rc.num_experts)
    capacity = expert_capacity(tc.batch_tokens // config.mesh.n, rc.num_experts, rc.capacity_factor)
    return comm_cost_report(
        config.mesh, tc.batch_tokens, tc.d_model, tc.d_ff, rc.num_experts, capacity,
        "bfloat16" if rc.selective_precision else "float32",
    )


# ---------------------------------------------------------------------------
# Gradient-check suite (used by the grad-check subcommand)
# ---------------------------------------------------------------------------


def _gradient_checks():
    """Small seeded finite-difference checks over every differentiable surface.

    Each case routes afresh at every probe, so its seeded inputs keep a margin
    from routing ties as well as from the relu kink: no probe may change an
    expert choice, and so none moves a token to another slot.
    """
    # Bound here, so a patched ``router.route`` is the one the suite calls.
    from .router import route

    rng = RngStream(2024)

    def dense_check():
        # Drawn so that every pre-activation is at least 10 h from the relu
        # kink.
        x = rng.substream("dense.x3").normal((4, 5)) * 0.5 + 0.1
        w_in = rng.substream("dense.w_in").normal((5, 7)) * 0.3
        w_out = rng.substream("dense.w_out").normal((7, 5)) * 0.3

        def f(params):
            y, cache = dense_ffn_fwd(params[0], params[1], params[2])
            loss = float((y**2).sum())
            dx, dw_in, dw_out = dense_ffn_bwd(2.0 * y, cache)
            return loss, [dx, dw_in, dw_out]

        return grad_check(f, [x, w_in, w_out])

    def router_check():
        cfg = RouterConfig(num_experts=3, capacity_factor=2.0, alpha=0.01)
        x = rng.substream("router.x").normal((5, 4))
        w = rng.substream("router.w").normal((4, 3))

        def f(params):
            plan, stats = route(params[0], params[1], cfg, RngStream(0), "eval")
            probs = plan.router_probs
            gates = plan.gate
            loss = float((gates**2).sum() + stats.aux_loss)
            d_probs = np.zeros_like(probs)
            kept = np.flatnonzero(~plan.dropped)
            d_probs[kept, plan.expert_index[kept]] = 2.0 * gates[kept]
            num_tokens, n = probs.shape
            d_probs += cfg.alpha * n * stats.f / num_tokens
            d_logits = softmax_backward(d_probs, probs)
            return loss, [d_logits @ params[1].T, params[0].T @ d_logits]

        return grad_check(f, [x, w])

    def switch_check():
        cfg = RouterConfig(num_experts=2, capacity_factor=2.0, alpha=0.01)
        # Drawn so that every occupied slot's pre-activation is at least
        # 10 h from the relu kink.
        x = rng.substream("switch.x18").normal((6, 4)) * 0.5
        params = init_switch_layer_params(4, 8, 2, rng.substream("switch.params"), scale=0.5)

        def f(p):
            sp = SwitchLayerParams(p[1], p[2], p[3])
            out, cache = switch_ffn_fwd(p[0], sp, cfg, RngStream(0), "eval")
            loss = float((out.y**2).sum() + out.stats.aux_loss)
            g = switch_ffn_bwd(2.0 * out.y, cache)
            return loss, [g["x"], g["w_router"], g["w_in"], g["w_out"]]

        return grad_check(f, [x, params.w_router, params.w_in, params.w_out])

    def topk_check():
        # Four slots per expert for 8 tokens: half the second choices overflow.
        # Drawn, as for switch_check, away from the relu kink.
        cfg = RouterConfig(num_experts=3, capacity_factor=1.5, alpha=0.01)
        x = rng.substream("top2.x13").normal((8, 4)) * 0.5
        params = init_switch_layer_params(4, 6, 3, rng.substream("top2.params"), scale=0.5)

        def f(p):
            sp = SwitchLayerParams(p[1], p[2], p[3])
            out, cache = moe_topk_ffn_fwd(p[0], sp, 2, cfg, RngStream(0), "eval")
            loss = float((out.y**2).sum() + out.stats.aux_loss)
            g = moe_topk_ffn_bwd(2.0 * out.y, cache)
            return loss, [g["x"], g["w_router"], g["w_in"], g["w_out"]]

        return grad_check(f, [x, params.w_router, params.w_in, params.w_out])

    def attention_check(routed_q: bool):
        cfg = RouterConfig(num_experts=2, capacity_factor=2.0, alpha=0.01)
        if routed_q:
            acfg = AttentionConfig(num_heads=1, router=cfg)
            x = rng.substream("attn.x").normal((1, 4, 4)) * 0.5
            q_params = init_switch_layer_params(
                4, 4, 2, rng.substream("attn.q"), scale=0.5, expert_form="linear"
            )
            w_q = None
            q_weights = [q_params.w_router, q_params.w_in]
            q_names = ["q.w_router", "q.w_in"]
        else:
            # Two heads of width 2 exercise the head split and merge.
            acfg = AttentionConfig(num_heads=2)
            x = rng.substream("attn2.x").normal((2, 3, 4)) * 0.5
            q_params = None
            w_q = rng.substream("attn2.wq").normal((4, 4)) * 0.4
            q_weights = [w_q]
            q_names = ["w_q"]
        w = AttentionWeights(
            w_k=rng.substream("attn.wk").normal((4, 4)) * 0.4,
            w_v=rng.substream("attn.wv").normal((4, 4)) * 0.4,
            w_o=rng.substream("attn.wo").normal((4, 4)) * 0.4,
            w_q=w_q,
        )

        def f(p):
            weights = AttentionWeights(p[1], p[2], p[3], None if routed_q else p[4])
            qp = SwitchLayerParams(p[4], p[5], None) if routed_q else None
            out, cache = attention_fwd(p[0], weights, acfg, RngStream(0), "eval", q_params=qp)
            loss = float((out.y**2).sum() + out.stats.aux_loss)
            g = attention_bwd(2.0 * out.y, cache)
            return loss, [g[name] for name in ["x", "w_k", "w_v", "w_o", *q_names]]

        return grad_check(f, [x, w.w_k, w.w_v, w.w_o, *q_weights])

    def distill_check():
        s = rng.substream("distill.s").normal((5, 6))
        t = rng.substream("distill.t").normal((5, 6))
        ids = rng.substream("distill.ids").integers(0, 6, 5)

        def f(p):
            loss, grad = _distill_loss_and_grad(p[0], t, ids, 0.75)
            return loss, [grad]

        return grad_check(f, [s])

    return [
        ("dense_ffn", dense_check),
        ("router_p_path", router_check),
        ("switch_ffn", switch_check),
        ("moe_top2_ffn", topk_check),
        ("switch_attention", lambda: attention_check(True)),
        ("dense_attention_2heads", lambda: attention_check(False)),
        ("distill_loss", distill_check),
    ]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _load_config(args, *last: str) -> ExperimentConfig:
    """The settings of ``args``: its config file, then each ``--set``, then
    the ``--seed``/``--outdir`` shorthands, then the lines ``last``."""
    shorthands = [
        f"run.{key}={value}" for key in ("seed", "outdir")
        if (value := getattr(args, key, None)) is not None
    ]
    return parse_config(args.config, args.set + shorthands + list(last))


def _mesh_config(args) -> ExperimentConfig:
    """``_load_config(args)``; with no mesh configured, the mesh of expert
    parallelism, one expert per data-parallel row."""
    cfg = _load_config(args)
    if cfg.mesh is None:
        cfg.mesh = make_mesh(cfg.router.num_experts, 1, "expert+data", cfg.router.num_experts)
    return cfg


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    return run_experiment(cfg, resume=args.resume)


def _cmd_sweep(args) -> int:
    key, values = args.param.split(".")[-1], args.values.split(",")
    # Every variant is read before the first one runs.
    configs = [_load_config(args, f"{args.param}={v}") for v in values]
    for value, cfg in zip(values, configs):
        cfg.name = f"{cfg.name}_{key}_{value}"
        status = run_experiment(cfg)
        if status != 0:
            return status
        print(f"sweep variant {value}: wrote {os.path.join(cfg.outdir, cfg.name)}")
    return 0


def _cmd_parallel_check(args) -> int:
    from .switch_layer import switch_ffn
    from .parallel_sim import run_sharded_switch_layer

    cfg = _mesh_config(args)
    report = _comm_report(cfg)
    rng = RngStream(cfg.seed)
    tc = cfg.train
    x = rng.substream("x").normal((tc.batch_tokens, tc.d_model)).astype(np.float32)
    params = init_switch_layer_params(
        tc.d_model, tc.d_ff, cfg.router.num_experts, rng.substream("params")
    )
    sharded, records = run_sharded_switch_layer(x, params, cfg.mesh, cfg.router, RngStream(0))
    # The simulator budgets capacity per data-parallel row, so the reference
    # runs the single-core layer on each row's tokens separately.
    reference = np.concatenate([
        switch_ffn(xi, params, cfg.router, RngStream(0), "eval").y
        for xi in np.split(x, cfg.mesh.n)
    ])
    diff = float(np.abs(sharded.y - reference).max())

    simulated = sorted((r.op, r.bytes) for r in records)
    predicted = sorted((r.op, r.bytes_per_core) for r in report if r.comm_pass == "forward")
    ledger_ok = simulated == predicted
    print(f"max |sharded - reference| = {diff:.3e}")
    print(f"comm ledger matches analytical report: {ledger_ok}")
    if diff > 1e-6 or not ledger_ok:
        return 1
    return 0


def _cmd_distill(args) -> int:
    cfg = _load_config(args)
    tc = cfg.train
    if tc.ffn_kind == "dense":  # the teacher is routed; a dense config gets switch FFNs
        tc = dataclasses.replace(tc, ffn_kind="switch")
    outdir = os.path.join(cfg.outdir, cfg.name)
    os.makedirs(outdir, exist_ok=True)

    teacher, _, teacher_rows = train(tc, cfg.router)
    write_metrics_csv(teacher_rows, os.path.join(outdir, "teacher_metrics.csv"))

    student, _, student_rows = trainer.distill_train(teacher, tc, cfg.router)
    write_metrics_csv(student_rows, os.path.join(outdir, "student_metrics.csv"))

    teacher_eval = trainer.evaluate(teacher, tc)
    student_eval = trainer.evaluate(student, student.config)
    print(f"teacher eval cross-entropy: {teacher_eval.cross_entropy:.4f}")
    print(f"distilled student eval cross-entropy: {student_eval.cross_entropy:.4f}")
    return 0


def _cmd_comm_report(args) -> int:
    text = comm_report_to_csv(_comm_report(_mesh_config(args)), args.out)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def _cmd_grad_check(args) -> int:
    del args
    ok = True
    for name, check in _gradient_checks():
        rep = check()
        ok = ok and rep.passed
        print(f"[{'PASS' if rep.passed else 'FAIL'}] {name}: max rel err {rep.max_rel_err:.3e}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="switchlab", description="sparse expert routing experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, require_seed=False, shorthands=True):
        p.add_argument("--config", default=None, help="path to key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        if shorthands:
            p.add_argument("--seed", type=int, required=require_seed, default=None)
            p.add_argument("--outdir", default=None)

    p_train = sub.add_parser("train", help="run one seeded training experiment")
    add_common(p_train, require_seed=True)
    p_train.add_argument("--resume", default=None, help="checkpoint to fill this run's model")
    p_train.set_defaults(func=_cmd_train)

    p_sweep = sub.add_parser("sweep", help="run one experiment per value of a config key")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="config key to vary (e.g. router.policy)")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_par = sub.add_parser(
        "parallel-check", help="compare the mesh simulator against the single-core layer"
    )
    add_common(p_par)
    p_par.set_defaults(func=_cmd_parallel_check)

    p_dis = sub.add_parser("distill", help="teacher training plus student distillation")
    add_common(p_dis)
    p_dis.set_defaults(func=_cmd_distill)

    p_comm = sub.add_parser("comm-report", help="analytical communication volumes")
    add_common(p_comm, shorthands=False)
    p_comm.add_argument("--out", default=None, help="CSV path; stdout without it")
    p_comm.set_defaults(func=_cmd_comm_report)

    p_grad = sub.add_parser("grad-check", help="finite-difference checks of every backward pass")
    p_grad.set_defaults(func=_cmd_grad_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidArgumentError, UnsupportedVersionError, CorruptCheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
