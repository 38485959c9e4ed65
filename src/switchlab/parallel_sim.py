"""Logical-mesh execution of the switch layer with a ledger of its collectives.

Cores form an n x m grid: token batches split across the n data-parallel
rows, feed-forward hidden dimensions split across the m model-parallel
columns, and under the expert strategies row e additionally owns expert e's
weights. The simulator routes every row's tokens in one grouped ``route``
call, one group per row, as each core would route its own; then each
column j runs the switch layer's own expert kernel once, for all rows, with
column j's slice of every expert. A tree sum over the columns stands in for
the all-reduce. The all-to-all trips to and from the expert owners would
only move slots between cores and back, so they are not run; a ledger
records each collective the mesh would run, with its bytes. The result can
be compared bit-for-bit (m = 1) or to 1e-6 (m > 1, different reduction
order) against the plain single-core layer.

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

from .router import RouterConfig, route
from .switch_layer import LayerOutput, SwitchLayerParams, _expert_slices_fwd, _Slots
from .tensor_core import InvalidArgumentError, RngStream

__all__ = [
    "STRATEGIES",
    "MeshLayout",
    "CommRecord",
    "make_mesh",
    "check_layout",
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
    def expert_sharded(self) -> bool:
        return "expert" in self.strategy


def make_mesh(
    n: int = 1,
    m: int = 1,
    strategy: str = "data",
    num_experts: int | None = None,
) -> MeshLayout:
    """Validate and build a mesh layout.

    Expert strategies place one expert per data-parallel row, so they require
    ``num_experts == n``.
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
        if num_experts != n:
            raise InvalidArgumentError(
                f"expert strategies place one expert per data-parallel way; "
                f"got num_experts={num_experts} with n={n}"
            )
    return MeshLayout(n, m, strategy, num_experts)


def check_layout(mesh: MeshLayout, num_tokens: int, d_ff: int, num_experts: int) -> None:
    """Raise InvalidArgumentError unless ``mesh`` can shard a switch layer of
    ``num_experts`` experts of width ``d_ff`` over ``num_tokens`` tokens."""
    if num_tokens % mesh.n != 0:
        raise InvalidArgumentError(
            f"token count {num_tokens} not divisible by n={mesh.n} data-parallel ways"
        )
    if mesh.expert_sharded and mesh.num_experts != num_experts:
        raise InvalidArgumentError(
            f"mesh carries {mesh.num_experts} experts but router has {num_experts}"
        )
    if d_ff % mesh.m != 0:
        raise InvalidArgumentError(f"d_ff {d_ff} not divisible by m={mesh.m} model-parallel ways")


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------


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


def _tree_sum(blocks: list[np.ndarray]) -> np.ndarray:
    """Deterministic pairwise reduction in fixed core order; one block comes back as is."""
    work = list(blocks)
    while len(work) > 1:
        nxt = []
        for i in range(0, len(work) - 1, 2):
            nxt.append(work[i] + work[i + 1])
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


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

    Every strategy takes one path. One ``route`` call on the tokens as
    [n, T/n, d] routes each row's tokens as a group of its own; then column
    j runs the single-core expert kernel (index gather of the kept rows,
    each expert's FFN on its slice across all rows, gate-weighted index
    scatter) with its d_ff slice of every expert; the kernel copies a slice
    once where an expert's block of it is not C-contiguous. The column
    outputs are tree-summed and the dropped tokens pass through. The ledger lists what the mesh would move:
    the all-to-all to the expert owners and back (expert strategies, n > 1)
    and the all-reduce of the column partials (m > 1). Evaluation
    semantics: no dropout, no exploration noise, and no draw from ``rng``'s
    ``route`` substream. Capacity is budgeted per row, as each core routes
    blind to the others; f, P, the aux loss and the dropped fraction are the
    means of the per-row ones.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise InvalidArgumentError(f"expected [tokens, d_model] input, got {x.shape}")
    num_tokens, d_model = x.shape
    n, m = mesh.n, mesh.m
    if params.w_out is None:
        raise InvalidArgumentError("sharded execution requires FFN experts")
    num_experts, d_ff = router_config.num_experts, params.w_in.shape[2]
    check_layout(mesh, num_tokens, d_ff, num_experts)

    ff = d_ff // m
    plan, stats = route(
        x.reshape(n, num_tokens // n, d_model), params.w_router, router_config,
        rng.substream("route"), "eval",
    )
    # One slot map, and so one sort order, serves every column.
    slots = _Slots.from_plans([plan], router_config.selective_precision)
    y = _tree_sum([
        _expert_slices_fwd(
            x, slots, params.w_in[:, :, cols], params.w_out[:, cols, :], 0.0, None, "eval",
        )[0]
        for cols in (slice(j * ff, (j + 1) * ff) for j in range(m))
    ])
    y[plan.dropped] = x[plan.dropped]

    records: list[CommRecord] = []
    if mesh.expert_sharded and n > 1:
        # Slots travel to their expert's owner row and back.
        a2a_width = BF16_BYTES if router_config.selective_precision else FLOAT32_BYTES
        a2a_elements = num_experts * plan.capacity * d_model
        records += [CommRecord("all_to_all", a2a_elements, a2a_width) for _ in range(2)]
    if m > 1:
        records.append(CommRecord("all_reduce", (num_tokens // n) * d_model, FLOAT32_BYTES))

    dropped = float(plan.dropped.reshape(n, -1).mean(axis=1).mean())
    return LayerOutput(y, stats, dropped), records


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
