"""Fixed-seed runs whose outputs ``test_golden.py`` compares with ``golden.json``.

Rewrite the file only when a change alters the metric stream on purpose:

    PYTHONPATH=src python tests/regen_golden.py

Before it rewrites the file, the script prints one line per entry: whether
the digest changed, and the largest relative change among its values.

Four configs run at the benchmark's model shape: ``train`` for six steps,
``evaluate`` on the trained model, and ``distill_train`` for two steps from
it. The trained switch model's first switch FFN then runs through
``run_sharded_switch_layer`` on five meshes. Each output becomes one entry:
the SHA-256 of its exact bytes, and a few float values (losses, or L2 norms
of tensors) that another platform can compare within a tolerance.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform as host
from dataclasses import replace
from pathlib import Path

import numpy as np

from switchlab import parallel_sim, trainer
from switchlab.router import RouterConfig
from switchlab.tensor_core import RngStream

GOLDEN_PATH = Path(__file__).with_name("golden.json")

SEED = 7
TRAIN_STEPS = 6
DISTILL_STEPS = 2
EVAL_SEQUENCES = 64
SHARD_TOKENS = 1024
SHAPE = dict(
    vocab=256, seq_len=32, d_model=64, d_ff=128, num_layers=2, num_heads=2,
    expert_every=1, num_clusters=8, corpus_size=2048,
)
# name -> (TrainConfig fields beyond SHAPE, RouterConfig fields beyond the
# expert count and capacity factor)
CONFIGS = {
    "dense": (dict(ffn_kind="dense", batch_tokens=1024), {}),
    "switch": (dict(ffn_kind="switch", batch_tokens=1024), {}),
    "moe2": (
        dict(ffn_kind="moe2", attention_kind="switch", batch_tokens=512),
        dict(policy="input_jitter", ntlb_stages=1),
    ),
    "finetune": (
        dict(ffn_kind="switch", batch_tokens=1024, mode="finetune", expert_dropout_rate=0.4),
        {},
    ),
}
NUM_EXPERTS = 8
CAPACITY_FACTOR = 1.25
MESHES = (
    (2, 1, "data"),
    (1, 2, "model"),
    (2, 2, "data+model"),
    (8, 1, "expert+data"),
    (8, 2, "expert+model+data"),
)


def platform() -> dict:
    """What decides the bits: NumPy and its SIMD paths, the BLAS build and kernel."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "machine": host.machine(),
        "numpy": np.__version__,
        "numpy_simd": config["SIMD Extensions"]["found"],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": _blas_core(),
    }


def _blas_core() -> str | None:
    """The kernel family OpenBLAS chose for this CPU at load time, when found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def _entry(chunks: list[bytes], values: list[float]) -> dict:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return {"sha256": digest.hexdigest(), "values": [float(v) for v in values]}


def _rows(rows: list[trainer.MetricRow]) -> dict:
    values = []
    for r in rows:
        values += [r.total_loss, r.cross_entropy, r.aux_loss, r.neg_log_perplexity,
                   r.dropped_fraction]
        if r.expert_fractions is not None:
            values += list(r.expert_fractions)
    return _entry([np.asarray(values, dtype=np.float64).tobytes()], values)


def _norm(a: np.ndarray) -> float:
    return float(np.sqrt(np.square(a, dtype=np.float64).sum()))


def _params(model: trainer.ToyModel) -> dict:
    named = sorted(trainer.named_parameters(model).items())
    chunks = [name.encode() + np.ascontiguousarray(a).tobytes() for name, a in named]
    return _entry(chunks, [_norm(a) for _, a in named])


def compute() -> dict[str, dict]:
    """Every entry, keyed ``<config>/<output>`` or ``mesh/<strategy>``."""
    entries = {}
    for name, (train_fields, router_fields) in CONFIGS.items():
        tc = trainer.TrainConfig(seed=SEED, steps=TRAIN_STEPS, **SHAPE, **train_fields)
        rc = RouterConfig(NUM_EXPERTS, capacity_factor=CAPACITY_FACTOR, **router_fields)
        model, _, rows = trainer.train(tc, rc)
        entries[f"{name}/train"] = _rows(rows)
        entries[f"{name}/params"] = _params(model)
        entries[f"{name}/evaluate"] = _rows(
            [trainer.evaluate(model, tc, num_sequences=EVAL_SEQUENCES)]
        )
        student, _, rows = trainer.distill_train(model, replace(tc, steps=DISTILL_STEPS), rc)
        entries[f"{name}/distill"] = _rows(rows)
        entries[f"{name}/student"] = _params(student)
        if name == "switch":
            params, switch_router = model.blocks[0].ffn_switch, rc

    x = RngStream(SEED).substream("golden/shard_input").normal((SHARD_TOKENS, SHAPE["d_model"]))
    x = x.astype(np.float32)
    for n, m, strategy in MESHES:
        mesh = parallel_sim.make_mesh(n, m, strategy, NUM_EXPERTS)
        out, _ = parallel_sim.run_sharded_switch_layer(
            x, params, mesh, switch_router, RngStream(SEED)
        )
        entries[f"mesh/{strategy}"] = _entry(
            [out.y.tobytes()], [_norm(out.y), out.stats.aux_loss, out.dropped_fraction]
        )
    return entries


# Metric rows per entry kind; each row's second value is its cross-entropy.
ROWS_PER_ENTRY = {"train": TRAIN_STEPS, "evaluate": 1, "distill": DISTILL_STEPS}


def _final_ce(kind: str, values: list[float]) -> float:
    row_len = len(values) // ROWS_PER_ENTRY[kind]
    return values[-row_len + 1]


def shift_report(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """One line per entry: whether its digest changed, and the largest
    relative change among its values (|new - old| / max(|old|, 1e-12)).
    Metric-row entries add their last row's cross-entropy shift in nats."""
    lines = []
    for name, entry in new.items():
        before = old.get(name)
        if before is None:
            lines.append(f"{name}: new entry")
            continue
        status = "same" if before["sha256"] == entry["sha256"] else "changed"
        a, b = np.asarray(before["values"]), np.asarray(entry["values"])
        if a.shape != b.shape:
            lines.append(f"{name}: digest {status}, {a.size} -> {b.size} values")
            continue
        rel = np.abs(b - a) / np.maximum(np.abs(a), 1e-12)
        line = f"{name}: digest {status}, max rel change {rel.max(initial=0.0):.3e}"
        kind = name.rsplit("/", 1)[-1]
        if kind in ROWS_PER_ENTRY:
            ce_old, ce_new = _final_ce(kind, before["values"]), _final_ce(kind, entry["values"])
            line += f", final ce {ce_old:.6f} -> {ce_new:.6f} ({ce_new - ce_old:+.6f} nats)"
        lines.append(line)
    lines += [f"{name}: entry removed" for name in old.keys() - new.keys()]
    return lines


def main() -> None:
    golden = {"platform": platform(), "entries": compute()}
    if GOLDEN_PATH.exists():
        old = json.loads(GOLDEN_PATH.read_text())
        if old["platform"] != golden["platform"]:
            print(f"platform changed: {old['platform']} -> {golden['platform']}")
        print("\n".join(shift_report(old["entries"], golden["entries"])))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden['entries'])} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
