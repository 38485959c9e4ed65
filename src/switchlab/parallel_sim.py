"""Logical-mesh execution of the switch layer with explicit collectives.

Cores form an n x m grid: token batches split across the n data-parallel
rows, feed-forward hidden dimensions split across the m model-parallel
columns, and under the expert strategies row e additionally owns expert e's
weights. The simulator runs the layer one core at a time in a fixed order,
moves data only through explicit all-to-all and all-reduce steps, and
accounts every movement in bytes, so the result can be compared bit-for-bit
(m = 1) or to 1e-6 (m > 1, different reduction order) against the plain
single-core layer.

All byte counts are per core: an all-to-all of an [E, C, d_model] buffer
costs E*C*d_model elements on each participating core, an all-reduce costs
the per-core block size. The analytical ``comm_cost_report`` uses the same
convention so simulated ledgers and predicted tables can be compared
exactly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .router import LoadBalanceStats, RouterConfig, route
from .switch_layer import LayerOutput, SwitchLayerParams, _expert_buffers_fwd, _Slots
from .tensor_core import InvalidArgumentError, RngStream, relu

__all__ = [
    "STRATEGIES",
    "MeshLayout",
    "ShardedTensor",
    "CommRecord",
    "make_mesh",
    "shard",
    "unshard",
    "all_reduce",
    "all_to_all",
    "run_sharded_switch_layer",
    "comm_cost_report",
    "comm_report_to_csv",
    "switch_layer_param_count",
]

STRATEGIES = ("data", "model", "data+model", "expert+data", "expert+model+data")

FLOAT32_BYTES = 4
BF16_BYTES = 2


@dataclass(frozen=True)
class MeshLayout:
    """n data-parallel ways x m model-parallel ways; N = n * m cores total."""

    n: int
    m: int
    strategy: str
    num_experts: int | None = None

    @property
    def total_cores(self) -> int:
        return self.n * self.m

    @property
    def expert_sharded(self) -> bool:
        return "expert" in self.strategy


def make_mesh(
    n: int,
    m: int,
    strategy: str,
    num_experts: int | None = None,
    allow_expert_mismatch: bool = False,
) -> MeshLayout:
    """Validate and build a mesh layout.

    Expert strategies place one expert per data-parallel row, so they require
    ``num_experts == n`` unless explicitly overridden.
    """
    if n < 1 or m < 1:
        raise InvalidArgumentError(f"mesh dimensions must be >= 1, got n={n}, m={m}")
    if strategy not in STRATEGIES:
        raise InvalidArgumentError(
            f"strategy must be one of {STRATEGIES}, got {strategy!r}"
        )
    if strategy == "data" and m != 1:
        raise InvalidArgumentError("pure data parallelism requires m == 1")
    if strategy == "model" and n != 1:
        raise InvalidArgumentError("pure model parallelism requires n == 1")
    if "expert" in strategy:
        if num_experts is None:
            raise InvalidArgumentError("expert strategies require num_experts")
        if num_experts != n and not allow_expert_mismatch:
            raise InvalidArgumentError(
                f"expert strategies place one expert per data-parallel way; "
                f"got num_experts={num_experts} with n={n}"
            )
    return MeshLayout(n, m, strategy, num_experts)


# ---------------------------------------------------------------------------
# Sharded tensors and collectives
# ---------------------------------------------------------------------------


@dataclass
class ShardedTensor:
    """Per-core blocks of one logical tensor.

    ``split_axis`` names the axis the logical tensor was cut along (None for
    replicated or partial-sum blocks); ``partial`` marks blocks that must be
    summed elementwise to recover the logical value.
    """

    blocks: list[np.ndarray]
    split_axis: int | None
    logical_shape: tuple[int, ...]
    partial: bool = False


@dataclass(frozen=True)
class CommRecord:
    """One collective step: per-core element count, element width, and pass."""

    op: str  # "all_to_all" | "all_reduce"
    elements: int
    width_bytes: int
    comm_pass: str = "forward"

    @property
    def bytes(self) -> int:
        return self.elements * self.width_bytes


def shard(x: np.ndarray, axis: int, ways: int) -> ShardedTensor:
    x = np.asarray(x)
    if x.shape[axis] % ways != 0:
        raise InvalidArgumentError(
            f"axis {axis} extent {x.shape[axis]} not divisible by {ways} ways"
        )
    blocks = [b.copy() for b in np.split(x, ways, axis=axis)]
    return ShardedTensor(blocks, axis, x.shape)


def unshard(st: ShardedTensor) -> np.ndarray:
    if st.partial:
        return _tree_sum(st.blocks)
    if st.split_axis is None:
        out = st.blocks[0]
        for b in st.blocks[1:]:
            if not np.array_equal(b, out):
                raise InvalidArgumentError("replicated blocks disagree")
        return out.copy()
    return np.concatenate(st.blocks, axis=st.split_axis)


def _tree_sum(blocks: list[np.ndarray]) -> np.ndarray:
    """Deterministic pairwise reduction in fixed core order."""
    work = [b.copy() for b in blocks]
    while len(work) > 1:
        nxt = []
        for i in range(0, len(work) - 1, 2):
            nxt.append(work[i] + work[i + 1])
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def all_reduce(
    shards, width_bytes: int = FLOAT32_BYTES, comm_pass: str = "forward"
) -> tuple[ShardedTensor, CommRecord]:
    """Sum same-shaped partial blocks; afterwards every core holds the total.

    The blocks are the per-core partial results of a contraction whose summed
    dimension was partitioned across cores. Communication volume is the
    per-core block size (zero when only one core participates).
    """
    blocks = shards.blocks if isinstance(shards, ShardedTensor) else list(shards)
    if not blocks:
        raise InvalidArgumentError("all_reduce requires at least one block")
    shape = blocks[0].shape
    for b in blocks[1:]:
        if b.shape != shape:
            raise InvalidArgumentError(
                f"all_reduce blocks must share a shape; got {shape} and {b.shape} "
                "(the summed dimension is not sharded consistently)"
            )
    total = _tree_sum(blocks)
    elements = 0 if len(blocks) == 1 else int(total.size)
    record = CommRecord("all_reduce", elements, width_bytes, comm_pass)
    result = ShardedTensor([total.copy() for _ in blocks], None, shape, partial=False)
    return result, record


def all_to_all(
    shards, width_bytes: int = FLOAT32_BYTES, comm_pass: str = "forward"
) -> tuple[ShardedTensor, CommRecord]:
    """Regroup expert-grouped blocks from an n-split to an E-split.

    Core i enters holding a block whose leading axis enumerates experts
    ([E, C, d]-style); core e leaves holding expert e's slots from every
    source core ([n, C, d]). Requires E == number of cores; applying the op
    twice returns the original grouping.
    """
    blocks = shards.blocks if isinstance(shards, ShardedTensor) else list(shards)
    n = len(blocks)
    shape = blocks[0].shape
    for b in blocks:
        if b.shape != shape:
            raise InvalidArgumentError("all_to_all blocks must share a shape")
    if shape[0] != n:
        raise InvalidArgumentError(
            f"all_to_all: leading axis {shape[0]} must match core count {n}"
        )
    out_blocks = [np.stack([blocks[i][e] for i in range(n)]) for e in range(n)]
    elements = 0 if n == 1 else int(np.prod(shape))
    record = CommRecord("all_to_all", elements, width_bytes, comm_pass)
    return ShardedTensor(out_blocks, 0, shape, partial=False), record


# ---------------------------------------------------------------------------
# Sharded switch layer
# ---------------------------------------------------------------------------


def run_sharded_switch_layer(
    x: np.ndarray,
    params: SwitchLayerParams,
    mesh: MeshLayout,
    router_config: RouterConfig,
    rng: RngStream,
) -> tuple[LayerOutput, list[CommRecord]]:
    """Run the switch FFN over the mesh and return output plus comm ledger.

    Pipeline per data-parallel row: local routing of the row's tokens, an
    index gather of each routed token into its slot of the row's [E, C, d]
    buffer, all-to-all to the expert owners (expert strategies), per-expert
    FFN over the column's d_ff slice, all-to-all back, a gate-weighted index
    scatter of the slots onto their tokens, and an all-reduce of the
    per-column partial outputs (m > 1). Gather and scatter use the same slot
    map as the single-core layer. Evaluation semantics: no dropout, no
    exploration noise. Capacity is budgeted per row, as each core routes
    blind to the others; the aux loss is the mean of the per-row losses.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise InvalidArgumentError(f"expected [tokens, d_model] input, got {x.shape}")
    num_tokens, d_model = x.shape
    n, m = mesh.n, mesh.m
    if num_tokens % n != 0:
        raise InvalidArgumentError(
            f"token count {num_tokens} not divisible by n={n} data-parallel ways"
        )
    num_experts = router_config.num_experts
    if mesh.expert_sharded and mesh.num_experts != num_experts:
        raise InvalidArgumentError(
            f"mesh carries {mesh.num_experts} experts but router has {num_experts}"
        )
    if params.w_out is None:
        raise InvalidArgumentError("sharded execution requires FFN experts")
    d_ff = params.w_in.shape[2]
    if d_ff % m != 0:
        raise InvalidArgumentError(f"d_ff {d_ff} not divisible by m={m} model-parallel ways")

    records: list[CommRecord] = []
    a2a_width = BF16_BYTES if router_config.selective_precision else FLOAT32_BYTES

    row_inputs = np.split(x, n)
    plans = []
    stats_rows = []
    row_slots = []
    for i, xi in enumerate(row_inputs):
        plan, stats = route(
            xi, params.w_router, router_config, rng.substream(f"core{i}/route"), "eval"
        )
        plans.append(plan)
        stats_rows.append(stats)
        row_slots.append(_Slots.from_plan(plan, router_config.selective_precision))
    capacity = plans[0].capacity

    if m == 1 and not mesh.expert_sharded:
        # Experts are fully local to each row; reuse the single-core kernel
        # verbatim so the data-parallel path is bit-identical to the
        # reference, then stitch the rows back together. No communication.
        row_outputs = []
        for i, xi in enumerate(row_inputs):
            y_i, _ = _expert_buffers_fwd(
                xi, row_slots[i], params.w_in, params.w_out, 0.0, None, "eval",
            )
            if plans[i].dropped.any():
                y_i[plans[i].dropped] = xi[plans[i].dropped]
            row_outputs.append(y_i)
        y = np.concatenate(row_outputs)
        return _assemble_output(y, plans, stats_rows), records

    # Dispatch gather on every row: [E, C, d] buffers.
    row_bufs = [slots.gather(xi) for xi, slots in zip(row_inputs, row_slots)]

    if mesh.expert_sharded and n > 1:
        # Send slot buffers to the expert owners: row e now holds [n, C, d].
        expert_bufs = [np.stack([row_bufs[i][e] for i in range(n)]) for e in range(num_experts)]
        records.append(
            CommRecord("all_to_all", num_experts * capacity * d_model, a2a_width, "forward")
        )
    else:
        expert_bufs = None

    # Expert FFN over each model-parallel column's d_ff slice. Partial
    # outputs stay split over m until after the combine.
    ff = d_ff // m

    def expert_partial(buf_e: np.ndarray, e: int, j: int) -> np.ndarray:
        cols = slice(j * ff, (j + 1) * ff)
        h = buf_e @ params.w_in[e][:, cols]
        return relu(h) @ params.w_out[e][cols, :]

    if mesh.expert_sharded and n > 1:
        # partial_out[e][j]: [n, C, d] partial output on core (e, j).
        partial_out = [
            [expert_partial(expert_bufs[e], e, j) for j in range(m)]
            for e in range(num_experts)
        ]
        # Return trip: row i collects its slots back from every expert owner.
        row_partials = [
            [
                np.stack([partial_out[e][j][i] for e in range(num_experts)])
                for j in range(m)
            ]
            for i in range(n)
        ]
        records.append(
            CommRecord("all_to_all", num_experts * capacity * d_model, a2a_width, "forward")
        )
    else:
        # Experts replicated across rows: each row computes all experts on
        # its own buffer, still split over the m weight columns.
        row_partials = [
            [
                np.stack([expert_partial(row_bufs[i][e], e, j) for e in range(num_experts)])
                for j in range(m)
            ]
            for i in range(n)
        ]

    row_outputs = []
    for i, xi in enumerate(row_inputs):
        y_parts = [row_slots[i].scatter(row_partials[i][j], gated=True) for j in range(m)]
        y_i = _tree_sum(y_parts)
        if plans[i].dropped.any():
            y_i[plans[i].dropped] = xi[plans[i].dropped]
        row_outputs.append(y_i)
    if m > 1:
        records.append(
            CommRecord("all_reduce", (num_tokens // n) * d_model, FLOAT32_BYTES, "forward")
        )

    y = np.concatenate(row_outputs)
    return _assemble_output(y, plans, stats_rows), records


def _assemble_output(
    y: np.ndarray, plans, stats_rows
) -> LayerOutput:
    f = np.mean([s.f for s in stats_rows], axis=0)
    p = np.mean([s.P for s in stats_rows], axis=0)
    aux = float(np.mean([s.aux_loss for s in stats_rows]))
    dropped = float(np.mean([plan.dropped.mean() for plan in plans]))
    return LayerOutput(y, aux, LoadBalanceStats(f, p, aux), dropped)


# ---------------------------------------------------------------------------
# Analytical communication costs
# ---------------------------------------------------------------------------


def switch_layer_param_count(d_model: int, d_ff: int, num_experts: int) -> int:
    """Parameters of one switch layer: router plus per-expert FFN weights."""
    return d_model * num_experts + num_experts * 2 * d_model * d_ff


@dataclass(frozen=True)
class CommCostRow:
    strategy: str
    n: int
    m: int
    num_experts: int
    capacity: int
    op: str
    comm_pass: str
    bytes_per_core: int


def comm_cost_report(
    mesh: MeshLayout,
    batch_tokens: int,
    d_model: int,
    d_ff: int,
    num_experts: int,
    capacity: int,
    precision: str = "float32",
) -> list[CommCostRow]:
    """Analytical per-core byte volumes for one layer, forward and backward.

    Data parallelism moves nothing until the end-of-step gradient all-reduce;
    model parallelism all-reduces a [B, d_model] activation each pass, a
    [B/n, d_model] activation when combined with data parallelism; expert
    strategies pay two all-to-alls of E*C*d_model per pass, at bfloat16 width
    when the transport is selective-precision. Backward volumes mirror
    forward ones.
    """
    if precision not in ("float32", "bfloat16"):
        raise InvalidArgumentError(
            f"precision must be 'float32' or 'bfloat16', got {precision!r}"
        )
    a2a_width = BF16_BYTES if precision == "bfloat16" else FLOAT32_BYTES
    rows: list[CommCostRow] = []

    def add(op: str, comm_pass: str, volume: int) -> None:
        rows.append(
            CommCostRow(
                mesh.strategy, mesh.n, mesh.m, num_experts, capacity, op, comm_pass, volume
            )
        )

    if mesh.strategy == "data":
        grad_bytes = switch_layer_param_count(d_model, d_ff, num_experts) * FLOAT32_BYTES
        add("all_reduce", "backward", grad_bytes)
        return rows

    a2a_bytes = num_experts * capacity * d_model * a2a_width
    reduce_bytes = (batch_tokens // mesh.n) * d_model * FLOAT32_BYTES

    for comm_pass in ("forward", "backward"):
        if mesh.expert_sharded:
            add("all_to_all", comm_pass, a2a_bytes)
            add("all_to_all", comm_pass, a2a_bytes)
        if mesh.m > 1:
            add("all_reduce", comm_pass, reduce_bytes)
    return rows


def comm_report_to_csv(rows: list[CommCostRow], path=None) -> str:
    """Serialize a report as CSV (strategy,n,m,E,C,op,pass,bytes)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["strategy", "n", "m", "E", "C", "op", "pass", "bytes"])
    for r in rows:
        writer.writerow(
            [r.strategy, r.n, r.m, r.num_experts, r.capacity, r.op, r.comm_pass, r.bytes_per_core]
        )
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
