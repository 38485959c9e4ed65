"""Experiment driver: flat-text configs, seeded runs, checkpoints, reports.

Configs are diff-friendly ``section.key=value`` lines (``router.alpha=0.01``);
every run artifact (metrics CSV, checkpoint, comm report) is reproducible
byte-for-byte from the config and seed. Checkpoints are a little-endian
binary format with a JSON header, format version 1.

Subcommands: ``train``, ``sweep``, ``parallel-check``, ``distill``,
``comm-report``, ``grad-check``. Flags mirror config keys via repeated
``--set section.key=value`` overrides.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import struct
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import parallel_sim, trainer
from .parallel_sim import MeshLayout, comm_cost_report, comm_report_to_csv, make_mesh
from .router import RouterConfig, expert_capacity
from .switch_layer import dense_ffn_fwd, dense_ffn_bwd, init_switch_layer_params
from .tensor_core import (
    InvalidArgumentError,
    RngStream,
    Tensor,
    grad_check,
)
from .trainer import (
    AdamState,
    MetricRow,
    ToyModel,
    TrainConfig,
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


class UnsupportedVersionError(RuntimeError):
    """Checkpoint format version is not one this build can read."""


class CorruptCheckpointError(RuntimeError):
    """Checkpoint bytes are inconsistent with their header."""


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
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
            self.router = RouterConfig(num_experts=4)


_RUN_KEYS = {"run.name": str, "run.seed": int, "run.outdir": str}
_MESH_KEYS = {"mesh.n": int, "mesh.m": int, "mesh.strategy": str, "mesh.num_experts": int}


def _section_keys(prefix: str, cls) -> dict[str, type]:
    out = {}
    for f in fields(cls):
        t = f.type
        if t in ("int", "float", "str", "bool"):
            out[f"{prefix}.{f.name}"] = {"int": int, "float": float, "str": str, "bool": bool}[t]
        elif t in ("int | None", "float | None"):
            out[f"{prefix}.{f.name}"] = int if t.startswith("int") else float
    return out


def _valid_keys() -> dict[str, type]:
    keys = dict(_RUN_KEYS)
    keys.update(_section_keys("router", RouterConfig))
    keys.update(_section_keys("train", TrainConfig))
    keys.update(_MESH_KEYS)
    return keys


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


def parse_config(
    path: str | None = None, overrides: list[str] | None = None
) -> ExperimentConfig:
    """Read ``section.key=value`` lines (file first, then overrides).

    Unknown keys fail with the full list of valid ones; field invariants are
    enforced by the config dataclasses themselves. An empty config yields all
    defaults (alpha 0.01, capacity factor 1.25, jitter eps 0.01, init scale
    0.1, mask rate 0.15, fine-tune expert dropout 0.4).
    """
    entries: dict[str, str] = {}

    def consume(line: str, where: str) -> None:
        line = line.strip()
        if not line or line.startswith("#"):
            return
        if "=" not in line:
            raise InvalidArgumentError(f"{where}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value

    if path is not None:
        with open(path) as fh:
            for i, line in enumerate(fh, 1):
                consume(line, f"{path}:{i}")
    for item in overrides or []:
        consume(item, "--set")

    valid = _valid_keys()
    unknown = sorted(set(entries) - set(valid))
    if unknown:
        raise InvalidArgumentError(
            f"unknown config keys {unknown}; valid keys: {sorted(valid)}"
        )

    parsed = {k: _parse_value(v, valid[k]) for k, v in entries.items()}

    name = parsed.get("run.name", "run")
    seed = parsed.get("run.seed", 0)
    outdir = parsed.get("run.outdir", "out")

    router_kwargs = {
        k.split(".", 1)[1]: v for k, v in parsed.items() if k.startswith("router.")
    }
    router_kwargs.setdefault("num_experts", 4)
    router = RouterConfig(**router_kwargs)

    train_kwargs = {
        k.split(".", 1)[1]: v for k, v in parsed.items() if k.startswith("train.")
    }
    train_kwargs.setdefault("seed", seed)
    train_cfg = TrainConfig(**train_kwargs)

    mesh = None
    mesh_kwargs = {k.split(".", 1)[1]: v for k, v in parsed.items() if k.startswith("mesh.")}
    if mesh_kwargs:
        mesh = make_mesh(
            mesh_kwargs.get("n", 1),
            mesh_kwargs.get("m", 1),
            mesh_kwargs.get("strategy", "data"),
            mesh_kwargs.get("num_experts"),
        )
    return ExperimentConfig(name, seed, outdir, train_cfg, router, mesh)


def serialize_config(config: ExperimentConfig) -> str:
    """Emit the flat key=value form; parse_config round-trips it."""
    lines = [
        f"run.name={config.name}",
        f"run.seed={config.seed}",
        f"run.outdir={config.outdir}",
    ]
    for f in fields(RouterConfig):
        lines.append(f"router.{f.name}={getattr(config.router, f.name)}")
    for f in fields(TrainConfig):
        value = getattr(config.train, f.name)
        if value is None:
            continue
        lines.append(f"train.{f.name}={value}")
    if config.mesh is not None:
        lines.append(f"mesh.n={config.mesh.n}")
        lines.append(f"mesh.m={config.mesh.m}")
        lines.append(f"mesh.strategy={config.mesh.strategy}")
        if config.mesh.num_experts is not None:
            lines.append(f"mesh.num_experts={config.mesh.num_experts}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    version: int
    step: int
    config_text: str
    rng_state: dict
    tensors: dict[str, Tensor]


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
    """Write magic, version byte, length-prefixed JSON header, then raw payloads."""
    tensors = _collect_tensors(model, opt_state)
    records = []
    offset = 0
    payloads = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype=np.float32)
        raw = arr.astype("<f4").tobytes()
        records.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": "<f4",
                "precision_tag": "full",
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        payloads.append(raw)
        offset += len(raw)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "step": opt_state.step,
        "config": serialize_config(config),
        "rng": RngStream(config.seed).state(),
        "tensors": records,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(bytes([CHECKPOINT_VERSION]))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for raw in payloads:
            fh.write(raw)


def load_checkpoint(path: str) -> Checkpoint:
    """Read and validate a checkpoint; truncation errors carry the byte offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError("missing checkpoint magic at byte offset 0")
    pos = len(CHECKPOINT_MAGIC)
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
    header = json.loads(blob[pos : pos + header_len].decode())
    pos += header_len

    tensors: dict[str, Tensor] = {}
    for rec in header["tensors"]:
        start = pos + rec["offset"]
        end = start + rec["nbytes"]
        if end > len(blob):
            raise CorruptCheckpointError(
                f"tensor {rec['name']!r} truncated at byte offset {len(blob)}"
            )
        arr = np.frombuffer(blob[start:end], dtype=rec["dtype"]).reshape(rec["shape"])
        tensors[rec["name"]] = Tensor(
            arr.astype(np.float32).copy(), rec.get("precision_tag", "full")
        )
    return Checkpoint(version, header["step"], header["config"], header["rng"], tensors)


def restore_model(ckpt: Checkpoint) -> tuple[ToyModel, AdamState, ExperimentConfig]:
    """Rebuild model and optimizer from a checkpoint; unknown tensors are fatal."""
    config = parse_config(overrides=[ln for ln in ckpt.config_text.splitlines() if ln.strip()])
    model = build_model(config.train, config.router, RngStream(config.seed).substream("init"))
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
            target[base] = t.data.astype(np.float32)
        elif name in expected:
            if params[name].shape != t.data.shape:
                raise InvalidArgumentError(
                    f"checkpoint tensor {name!r} shape {t.data.shape} does not "
                    f"match model shape {params[name].shape}"
                )
            params[name][...] = t.data
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
    configured) comm_report.csv into the run's output directory."""
    outdir = os.path.join(config.outdir, config.name)
    os.makedirs(outdir, exist_ok=True)

    model = opt = None
    start_step = 0
    if resume is not None:
        model, opt, _ = restore_model(load_checkpoint(resume))
        start_step = opt.step
    model, opt, rows = train(
        config.train, config.router, model=model, opt_state=opt, start_step=start_step
    )
    write_metrics_csv(rows, os.path.join(outdir, "metrics.csv"))
    save_checkpoint(model, opt, config, os.path.join(outdir, "final.ckpt"))
    with open(os.path.join(outdir, "config.txt"), "w") as fh:
        fh.write(serialize_config(config))

    if config.mesh is not None:
        capacity = expert_capacity(
            config.train.batch_tokens // config.mesh.n,
            config.router.num_experts,
            config.router.capacity_factor,
        )
        report = comm_cost_report(
            config.mesh,
            config.train.batch_tokens,
            config.train.d_model,
            config.train.d_ff,
            config.router.num_experts,
            capacity,
            "bfloat16" if config.router.selective_precision else "float32",
        )
        comm_report_to_csv(report, os.path.join(outdir, "comm_report.csv"))
    return 0


# ---------------------------------------------------------------------------
# Gradient-check suite (used by the grad-check subcommand)
# ---------------------------------------------------------------------------


def gradient_suite(verbose: bool = True) -> bool:
    """Small seeded finite-difference checks over every differentiable surface."""
    ok = True

    def report(name: str, passed: bool, err: float) -> None:
        nonlocal ok
        ok = ok and passed
        if verbose:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}: max rel err {err:.3e}")

    for name, check in _gradient_checks():
        rep = check()
        report(name, rep.passed, rep.max_rel_err)
    return ok


def _gradient_checks():
    from .router import route
    from .switch_layer import (
        AttentionConfig,
        AttentionWeights,
        attention_bwd,
        attention_fwd,
        moe_topk_ffn_bwd,
        moe_topk_ffn_fwd,
        switch_ffn_bwd,
        switch_ffn_fwd,
    )
    from .trainer import _distill_loss_and_grad

    rng = RngStream(2024)

    def dense_check():
        x = rng.substream("dense.x").normal((4, 5)) * 0.5 + 0.1
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
        plan0, _ = route(x, w, cfg, RngStream(0), "eval")

        def f(params):
            plan, stats = route(params[0], params[1], cfg, RngStream(0), "eval",
                                frozen_assignment=plan0)
            probs = plan.router_probs
            gates = plan.gate
            loss = float((gates**2).sum() + stats.aux_loss)
            d_probs = np.zeros_like(probs)
            kept = np.flatnonzero(~plan.dropped)
            d_probs[kept, plan.expert_index[kept]] = 2.0 * gates[kept]
            num_tokens, n = probs.shape
            d_probs += cfg.alpha * n * stats.f / num_tokens
            from .tensor_core import softmax_backward

            d_logits = softmax_backward(d_probs, probs)
            return loss, [d_logits @ params[1].T, params[0].T @ d_logits]

        return grad_check(f, [x, w])

    def switch_check():
        from .switch_layer import SwitchLayerParams

        cfg = RouterConfig(num_experts=2, capacity_factor=2.0, alpha=0.01)
        x = rng.substream("switch.x").normal((6, 4)) * 0.5
        params = init_switch_layer_params(4, 8, 2, rng.substream("switch.params"), scale=0.5)
        out0, cache0 = switch_ffn_fwd(x, params, cfg, RngStream(0), "eval")
        plan0 = cache0.plan

        def f(p):
            sp = SwitchLayerParams(p[1], p[2], p[3])
            out, cache = switch_ffn_fwd(p[0], sp, cfg, RngStream(0), "eval", frozen_plan=plan0)
            loss = float((out.y**2).sum() + out.aux_loss)
            g = switch_ffn_bwd(2.0 * out.y, cache)
            return loss, [g["x"], g["w_router"], g["w_in"], g["w_out"]]

        return grad_check(f, [x, params.w_router, params.w_in, params.w_out])

    def topk_check(renormalize: bool):
        from .switch_layer import SwitchLayerParams

        # Four slots per expert for 8 tokens: half the second choices overflow.
        cfg = RouterConfig(num_experts=3, capacity_factor=1.5, alpha=0.01)
        x = rng.substream("top2.x").normal((8, 4)) * 0.5
        params = init_switch_layer_params(4, 6, 3, rng.substream("top2.params"), scale=0.5)
        _, cache0 = moe_topk_ffn_fwd(x, params, 2, cfg, RngStream(0), "eval", renormalize)
        plans0 = cache0.plans

        def f(p):
            sp = SwitchLayerParams(p[1], p[2], p[3])
            out, cache = moe_topk_ffn_fwd(
                p[0], sp, 2, cfg, RngStream(0), "eval", renormalize, frozen_plans=plans0
            )
            loss = float((out.y**2).sum() + out.aux_loss)
            g = moe_topk_ffn_bwd(2.0 * out.y, cache)
            return loss, [g["x"], g["w_router"], g["w_in"], g["w_out"]]

        return grad_check(f, [x, params.w_router, params.w_in, params.w_out])

    def attention_check():
        cfg = RouterConfig(num_experts=2, capacity_factor=2.0, alpha=0.01)
        acfg = AttentionConfig(num_heads=1, expert_form="linear", router=cfg)
        x = rng.substream("attn.x").normal((1, 4, 4)) * 0.5
        q_params = init_switch_layer_params(
            4, 4, 2, rng.substream("attn.q"), scale=0.5, expert_form="linear"
        )
        w = AttentionWeights(
            w_k=rng.substream("attn.wk").normal((4, 4)) * 0.4,
            w_v=rng.substream("attn.wv").normal((4, 4)) * 0.4,
            w_o=rng.substream("attn.wo").normal((4, 4)) * 0.4,
        )
        out0, cache0 = attention_fwd(x, w, acfg, RngStream(0), "eval", q_params=q_params)
        plan0 = cache0.q_cache.plan

        def f(p):
            from .switch_layer import SwitchLayerParams

            weights = AttentionWeights(w_k=p[1], w_v=p[2], w_o=p[3])
            qp = SwitchLayerParams(p[4], p[5], None)
            flatx = p[0].reshape(-1, 4)
            q_out, q_cache = switch_ffn_fwd(flatx, qp, cfg, RngStream(0), "eval", frozen_plan=plan0)
            # rebuild attention on top of the frozen-plan query projection
            import numpy as _np

            q = q_out.y.reshape(p[0].shape)
            k = p[0] @ p[1]
            v = p[0] @ p[2]
            from .tensor_core import softmax as _softmax, softmax_backward as _softmax_backward

            scale = 1.0 / _np.sqrt(4)
            scores = _np.einsum("bqd,bkd->bqk", q, k) * scale
            attn = _softmax(scores, axis=-1)
            ctx = _np.einsum("bqk,bkd->bqd", attn, v)
            y = ctx @ p[3]
            loss = float((y**2).sum() + q_out.aux_loss)

            gy = 2.0 * y
            dw_o = ctx.reshape(-1, 4).T @ gy.reshape(-1, 4)
            d_ctx = gy @ p[3].T
            d_attn = _np.einsum("bqd,bkd->bqk", d_ctx, v)
            dv = _np.einsum("bqk,bqd->bkd", attn, d_ctx)
            d_scores = _softmax_backward(d_attn, attn, axis=-1) * scale
            dq = _np.einsum("bqk,bkd->bqd", d_scores, k)
            dk = _np.einsum("bqk,bqd->bkd", d_scores, q)
            dw_k = p[0].reshape(-1, 4).T @ dk.reshape(-1, 4)
            dw_v = p[0].reshape(-1, 4).T @ dv.reshape(-1, 4)
            dx = dk @ p[1].T + dv @ p[2].T
            qg = switch_ffn_bwd(dq.reshape(-1, 4), q_cache)
            dx = dx + qg["x"].reshape(p[0].shape)
            return loss, [dx, dw_k, dw_v, dw_o, qg["w_router"], qg["w_in"]]

        return grad_check(f, [x, w.w_k, w.w_v, w.w_o, q_params.w_router, q_params.w_in])

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
        ("moe_top2_ffn", lambda: topk_check(False)),
        ("moe_top2_ffn_renormalized", lambda: topk_check(True)),
        ("switch_attention", attention_check),
        ("distill_loss", distill_check),
    ]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config, args.set)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
        cfg.train = dataclasses.replace(cfg.train, seed=args.seed)
    if getattr(args, "outdir", None):
        cfg.outdir = args.outdir
    return cfg


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    return run_experiment(cfg, resume=args.resume)


def _cmd_sweep(args) -> int:
    base = _load_config(args)
    values = args.values.split(",")
    for value in values:
        cfg = parse_config(args.config, (args.set or []) + [f"{args.param}={value}"])
        cfg.seed = base.seed
        cfg.train = dataclasses.replace(cfg.train, seed=base.seed)
        cfg.outdir = base.outdir
        cfg.name = f"{base.name}_{args.param.split('.')[-1]}_{value}"
        status = run_experiment(cfg)
        if status != 0:
            return status
        print(f"sweep variant {value}: wrote {os.path.join(cfg.outdir, cfg.name)}")
    return 0


def _cmd_parallel_check(args) -> int:
    from .switch_layer import switch_ffn
    from .parallel_sim import run_sharded_switch_layer

    cfg = _load_config(args)
    if cfg.mesh is None:
        n = cfg.router.num_experts
        cfg.mesh = make_mesh(n, 1, "expert+data", n)
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

    capacity = expert_capacity(tc.batch_tokens // cfg.mesh.n, cfg.router.num_experts,
                               cfg.router.capacity_factor)
    report = comm_cost_report(
        cfg.mesh, tc.batch_tokens, tc.d_model, tc.d_ff, cfg.router.num_experts, capacity,
        "bfloat16" if cfg.router.selective_precision else "float32",
    )
    simulated = sorted((r.op, r.bytes) for r in records)
    predicted = sorted(
        (r.op, r.bytes_per_core) for r in report if r.comm_pass == "forward"
    )
    ledger_ok = simulated == predicted
    print(f"max |sharded - reference| = {diff:.3e}")
    print(f"comm ledger matches analytical report: {ledger_ok}")
    if diff > 1e-6 or not ledger_ok:
        return 1
    return 0


def _cmd_distill(args) -> int:
    cfg = _load_config(args)
    tc = dataclasses.replace(cfg.train, ffn_kind="switch")
    outdir = os.path.join(cfg.outdir, cfg.name)
    os.makedirs(outdir, exist_ok=True)

    teacher, _, teacher_rows = train(tc, cfg.router)
    write_metrics_csv(teacher_rows, os.path.join(outdir, "teacher_metrics.csv"))

    student, _, student_rows = trainer.distill_train(teacher, tc, cfg.router)
    write_metrics_csv(student_rows, os.path.join(outdir, "student_metrics.csv"))

    teacher_eval = trainer.evaluate(teacher, tc)
    student_eval = trainer.evaluate(student, dataclasses.replace(tc, ffn_kind="dense"))
    print(f"teacher eval cross-entropy: {teacher_eval.cross_entropy:.4f}")
    print(f"distilled student eval cross-entropy: {student_eval.cross_entropy:.4f}")
    return 0


def _cmd_comm_report(args) -> int:
    mesh = make_mesh(args.n, args.m, args.strategy, args.experts if "expert" in args.strategy else None)
    capacity = args.capacity
    if capacity is None:
        capacity = expert_capacity(args.batch_tokens // args.n, args.experts, args.capacity_factor)
    rows = comm_cost_report(
        mesh, args.batch_tokens, args.d_model, args.d_ff, args.experts, capacity, args.precision
    )
    text = comm_report_to_csv(rows, args.out)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def _cmd_grad_check(args) -> int:
    del args
    return 0 if gradient_suite(verbose=True) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="switchlab", description="sparse expert routing experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, require_seed=False):
        p.add_argument("--config", default=None, help="path to key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--seed", type=int, required=require_seed, default=None)
        p.add_argument("--outdir", default=None)

    p_train = sub.add_parser("train", help="run one seeded training experiment")
    add_common(p_train, require_seed=True)
    p_train.add_argument("--resume", default=None, help="checkpoint to continue from")
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
    p_comm.add_argument("--strategy", required=True, choices=parallel_sim.STRATEGIES)
    p_comm.add_argument("--n", type=int, default=1)
    p_comm.add_argument("--m", type=int, default=1)
    p_comm.add_argument("--experts", type=int, default=4)
    p_comm.add_argument("--capacity", type=int, default=None)
    p_comm.add_argument("--capacity-factor", type=float, default=1.25)
    p_comm.add_argument("--batch-tokens", type=int, default=128)
    p_comm.add_argument("--d-model", type=int, default=32)
    p_comm.add_argument("--d-ff", type=int, default=64)
    p_comm.add_argument("--precision", choices=("float32", "bfloat16"), default="float32")
    p_comm.add_argument("--out", default=None)
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
