"""Command-line self-checks (gradient suite, mesh simulator check) and checkpoint files."""

import inspect
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from switchlab import cli, parallel_sim, router, switch_layer, tensor_core
from switchlab.router import RouterConfig
from switchlab.tensor_core import InvalidArgumentError, RngStream
from switchlab.trainer import AdamState, TrainConfig, build_model, named_parameters, train


# Cases that apply a relu: finite differences are only valid away from its
# kink. The suite records every input the layers pass to ``relu``; the
# experts apply it to the kept entries' rows only, one per occupied slot.
RELU_CASES = {"dense_ffn", "switch_ffn", "moe_top2_ffn"}
# Cases that route: every probe re-routes, so finite differences are only
# valid where no probe changes an expert choice or a slot.
ROUTED_CASES = {
    "router_p_path", "switch_ffn", "moe_top2_ffn", "switch_attention",
}
PROBE_STEP = inspect.signature(tensor_core.grad_check).parameters["h"].default


@pytest.mark.parametrize("name", [name for name, _ in cli._gradient_checks()])
def test_gradient_suite(name, monkeypatch):
    evaluations = []  # per evaluation of the case's loss: what its forwards built

    def record(module, attr, keep):
        fwd = getattr(module, attr)

        def recording_fwd(*args):
            out = fwd(*args)
            evaluations[-1].append(keep(args, out))
            return out

        monkeypatch.setattr(module, attr, recording_fwd)

    if name in RELU_CASES:
        record(switch_layer, "relu", lambda args, out: ("relu", args[0]))
    if name in ROUTED_CASES:
        # The suite imports route when it is built; the layers hold their own.
        for module in (router, switch_layer):
            record(module, "route", lambda args, out: (
                "plan", out[0].expert_index.tobytes(), out[0].position_in_expert.tobytes()
            ))
        # The slot map covers every top-k rank, not only the routed rank 0.
        # Its entries run in slot order, so a moved slot reorders them.
        record(switch_layer, "_expert_slices_fwd", lambda args, out: (
            "slots", args[1].token.tobytes(), args[1].expert.tobytes(), args[1].rank.tobytes()
        ))

    def guarded_grad_check(f, params, h=PROBE_STEP, **kwargs):
        def recorded_f(p):
            evaluations.append([])
            return f(p)

        report = tensor_core.grad_check(recorded_f, params, h=h, **kwargs)
        unprobed, *probes = evaluations  # grad_check evaluates the unprobed point first
        kinds = {r[0] for r in unprobed}
        assert ("relu" in kinds, "plan" in kinds) == (name in RELU_CASES, name in ROUTED_CASES)
        routing = lambda records: [r for r in records if r[0] != "relu"]
        for probe in probes:
            assert routing(probe) == routing(unprobed), (
                f"{name}: a probe changed an expert choice or a slot"
            )
        for r in unprobed:
            if r[0] == "relu":
                assert np.abs(r[1]).min() >= 10 * h, (
                    f"{name}: a relu pre-activation is within 10 h of the kink"
                )
        return report

    monkeypatch.setattr(cli, "grad_check", guarded_grad_check)
    report = dict(cli._gradient_checks())[name]()
    assert report.passed, report.details


def test_grad_check_command_passes_every_case(capsys):
    assert cli.main(["grad-check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("[PASS]") for line in lines) == len(cli._gradient_checks()) == 7
    assert not any("[FAIL]" in line for line in lines)


MESHES = pytest.mark.parametrize(
    "mesh",
    [
        [],  # default mesh
        ["mesh.strategy=data", "mesh.n=2", "mesh.m=1"],
        ["mesh.strategy=model", "mesh.n=1", "mesh.m=2"],
        ["mesh.strategy=data+model", "mesh.n=2", "mesh.m=2"],
        ["mesh.strategy=expert+data", "mesh.n=4", "mesh.m=1", "mesh.num_experts=4"],
        ["mesh.strategy=expert+model+data", "mesh.n=4", "mesh.m=2", "mesh.num_experts=4"],
    ],
    ids=["default", "data", "model", "data+model", "expert+data", "expert+model+data"],
)


@MESHES
def test_parallel_check_passes(mesh, capsys):
    argv = ["parallel-check"]
    for item in mesh:
        argv += ["--set", item]
    assert cli.main(argv) == 0, capsys.readouterr().out


def _settings(items):
    return [arg for item in items for arg in ("--set", item)]


@MESHES
def test_comm_report_prints_the_file_and_the_simulated_forward_ledger(mesh, tmp_path, capsys):
    assert cli.main(["comm-report", *_settings(mesh)]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.csv"
    assert cli.main(["comm-report", *_settings(mesh), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed

    cfg = cli.parse_config(overrides=mesh)
    tc, rc = cfg.train, cfg.router
    layout = cfg.mesh or parallel_sim.make_mesh(rc.num_experts, 1, "expert+data", rc.num_experts)
    x = RngStream(5).substream("x").normal((tc.batch_tokens, tc.d_model)).astype(np.float32)
    params = switch_layer.init_switch_layer_params(
        tc.d_model, tc.d_ff, rc.num_experts, RngStream(5).substream("params")
    )
    _, records = parallel_sim.run_sharded_switch_layer(x, params, layout, rc, RngStream(0))
    header, *rows = [line.split(",") for line in printed.splitlines()]
    assert header == ["strategy", "n", "m", "E", "C", "op", "pass", "bytes"]
    assert {row[0] for row in rows} == {layout.strategy}
    forward = sorted((row[5], int(row[7])) for row in rows if row[6] == "forward")
    assert forward == sorted((r.op, r.bytes) for r in records)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--strategy", "data"), ("--n", "2"), ("--m", "2"), ("--experts", "4"),
        ("--capacity", "10"), ("--capacity-factor", "1.25"), ("--batch-tokens", "128"),
        ("--d-model", "32"), ("--d-ff", "64"), ("--precision", "float32"),
    ],
)
def test_comm_report_has_no_setting_flag_of_its_own(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["comm-report", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_python_dash_m_runs_the_command():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "switchlab", "parallel-check"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _header_blob(header: bytes) -> bytes:
    return (
        cli.CHECKPOINT_MAGIC + bytes([cli.CHECKPOINT_VERSION])
        + struct.pack("<Q", len(header)) + header
    )


@pytest.mark.parametrize(
    "blob",
    [
        b"",
        cli.CHECKPOINT_MAGIC[:3],
        cli.CHECKPOINT_MAGIC,  # 7 bytes: the version byte is missing
        _header_blob(b'{"step": 0, "tensors": '),  # header JSON cut short
        _header_blob(b"\xff\xfe{}"),  # not UTF-8
        _header_blob(b"[]"),
        _header_blob(b'{"stel": 0, "config": "", "rng": {}, "tensors": []}'),
        _header_blob(b'{"step": 0, "config": "", "rng": {}, "tensors": {}}'),
        _header_blob(b'{"step": 0, "config": "", "rng": {}, "tensors": [7]}'),
    ],
    ids=[
        "empty", "3_bytes", "magic_only", "bad_json", "bad_utf8", "not_an_object", "missing_key",
        "tensors_not_a_list", "record_not_an_object",
    ],
)
def test_load_checkpoint_rejects_corrupt_file(tmp_path, blob, capsys):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    with pytest.raises(cli.CorruptCheckpointError):
        cli.load_checkpoint(str(path))
    argv = ["train", "--seed", "0", "--outdir", str(tmp_path), "--resume", str(path)]
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err


def _model_and_config(seed):
    config = cli.ExperimentConfig(seed=seed)
    model = build_model(config.train, config.router, RngStream(seed).substream("init"))
    return model, config


def test_save_checkpoint_replaces_target_atomically(tmp_path, monkeypatch):
    path = tmp_path / "final.ckpt"
    model, config = _model_and_config(0)
    cli.save_checkpoint(model, AdamState(step=3), config, str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["final.ckpt"]
    before = path.read_bytes()
    assert cli.load_checkpoint(str(path)).step == 3

    def failing_replace(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    other, _ = _model_and_config(1)
    with pytest.raises(OSError, match="simulated crash"):
        cli.save_checkpoint(other, AdamState(step=4), config, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["final.ckpt"]


def _edit_header(path, edit) -> None:
    """Rewrite a checkpoint's JSON header through ``edit``, keeping its payloads."""
    blob = path.read_bytes()
    pos = len(cli.CHECKPOINT_MAGIC) + 1
    (length,) = struct.unpack_from("<Q", blob, pos)
    header = json.loads(blob[pos + 8 : pos + 8 + length])
    edit(header)
    path.write_bytes(_header_blob(json.dumps(header).encode()) + blob[pos + 8 + length :])


def _saved_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    model, config = _model_and_config(0)
    cli.save_checkpoint(model, AdamState(), config, str(path))
    return path


def _resume_exits_2(tmp_path, path, capsys) -> None:
    argv = ["train", "--seed", "0", "--outdir", str(tmp_path), "--resume", str(path)]
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err


def _set_field(key, value):
    def edit(header):
        header["tensors"][0][key] = value
    return edit


def _drop_field(key):
    def edit(header):
        del header["tensors"][0][key]
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _drop_field("nbytes"),
        _drop_field("offset"),
        _drop_field("shape"),
        _drop_field("dtype"),
        _set_field("offset", -4),
        _set_field("nbytes", 2.5),
        _set_field("dtype", "<f8"),
        _set_field("shape", [3, 5]),
    ],
    ids=[
        "no_nbytes", "no_offset", "no_shape", "no_dtype",
        "negative_offset", "fractional_nbytes", "float64_dtype", "shape_not_nbytes",
    ],
)
def test_load_checkpoint_rejects_bad_tensor_record(tmp_path, edit, capsys):
    path = _saved_checkpoint(tmp_path)
    _edit_header(path, edit)
    with pytest.raises(cli.CorruptCheckpointError):
        cli.load_checkpoint(str(path))
    _resume_exits_2(tmp_path, path, capsys)


def _record(header, name):
    (rec,) = [r for r in header["tensors"] if r["name"] == name]
    return rec


def _repeat_name(header):
    # w_k and w_o have one shape; the renamed record keeps w_o's own bytes.
    _record(header, "block0.attn.w_o")["name"] = "block0.attn.w_k"


def _share_bytes(header):
    w_k, w_o = _record(header, "block0.attn.w_k"), _record(header, "block0.attn.w_o")
    w_k["offset"] = w_o["offset"]


@pytest.mark.parametrize(
    "edit, message",
    [(_repeat_name, "repeats the name 'block0.attn.w_k'"), (_share_bytes, "share payload bytes")],
    ids=["repeated_name", "overlapping_payloads"],
)
def test_load_checkpoint_rejects_aliased_tensor_records(tmp_path, edit, message, capsys):
    path = _saved_checkpoint(tmp_path)
    _edit_header(path, edit)
    with pytest.raises(cli.CorruptCheckpointError, match=message):
        cli.load_checkpoint(str(path))
    _resume_exits_2(tmp_path, path, capsys)


def _trained_state(overrides):
    """A model and optimizer after two training steps, so the Adam moments are set."""
    tc = TrainConfig(seed=3, steps=2, corpus_size=64, **overrides)
    rc = RouterConfig(num_experts=4)
    model, opt, _ = train(tc, rc)
    return model, opt, cli.ExperimentConfig(seed=3, train=tc, router=rc)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"ffn_kind": "switch"},
        {"ffn_kind": "moe2", "attention_kind": "switch", "num_heads": 2},
    ],
    ids=["dense", "switch", "moe2_switch_attention"],
)
def test_restore_model_returns_saved_state_bitwise(tmp_path, overrides, monkeypatch):
    model, opt, config = _trained_state(overrides)
    path = str(tmp_path / "model.ckpt")
    cli.save_checkpoint(model, opt, config, path)
    ckpt = cli.load_checkpoint(path)

    def no_draws(self):
        raise AssertionError("restore_model drew from an RngStream")

    monkeypatch.setattr(RngStream, "_generator", no_draws)
    restored, restored_opt, restored_config = cli.restore_model(ckpt)

    assert cli.serialize_config(restored_config) == cli.serialize_config(config)
    _assert_same_state(model, opt, restored, restored_opt)


def _reference_checkpoint_blob(model, opt, config) -> bytes:
    """The bytes ``save_checkpoint`` wrote when it copied each tensor through
    ``astype("<f4").tobytes()`` before writing it."""
    tensors = cli._collect_tensors(model, opt)
    records, payloads, offset = [], [], 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype=np.float32)
        raw = arr.astype("<f4").tobytes()
        records.append({
            "name": name, "shape": list(arr.shape), "dtype": "<f4",
            "offset": offset, "nbytes": len(raw),
        })
        payloads.append(raw)
        offset += len(raw)
    header = {
        "format_version": cli.CHECKPOINT_VERSION,
        "step": opt.step,
        "config": cli.serialize_config(config),
        "tensors": records,
    }
    return _header_blob(json.dumps(header, sort_keys=True).encode()) + b"".join(payloads)


@pytest.mark.parametrize(
    "overrides, layout",
    [
        ({}, "native"),
        ({"ffn_kind": "switch"}, "native"),
        ({"ffn_kind": "moe2", "attention_kind": "switch", "num_heads": 2}, "native"),
        ({"ffn_kind": "switch"}, "strided_float64"),
    ],
    ids=["dense", "switch", "moe2_switch_attention", "switch_strided_float64"],
)
def test_save_checkpoint_writes_reference_bytes(tmp_path, overrides, layout):
    model, opt, config = _trained_state(overrides)
    if layout == "strided_float64":
        # Tensors that the writer must convert before their bytes are written.
        model.embedding = np.asfortranarray(model.embedding)
        model.blocks[0].attn_weights.w_k = model.blocks[0].attn_weights.w_k.T.copy().T
        name = next(iter(opt.m))
        opt.m[name] = opt.m[name].astype(np.float64)
    path = tmp_path / "model.ckpt"
    cli.save_checkpoint(model, opt, config, str(path))
    assert path.read_bytes() == _reference_checkpoint_blob(model, opt, config)


def _assert_same_state(model, opt, restored, restored_opt):
    assert restored_opt.step == opt.step == 2
    for saved, loaded in [
        (named_parameters(model), named_parameters(restored)),
        (opt.m, restored_opt.m),
        (opt.v, restored_opt.v),
    ]:
        assert saved.keys() == loaded.keys()
        for name, arr in saved.items():
            assert loaded[name].dtype == arr.dtype, name
            assert loaded[name].tobytes() == arr.tobytes(), name


def _legacy_v1_blob(model, opt, config) -> bytes:
    """Format version 1 as older builds wrote it, with the header's ``"rng"``
    field and each record's ``"precision_tag"``, which nothing reads."""
    tensors = dict(named_parameters(model))
    tensors.update({f"adam.m.{k}": v for k, v in opt.m.items()})
    tensors.update({f"adam.v.{k}": v for k, v in opt.v.items()})
    records, payloads, offset = [], [], 0
    for name in sorted(tensors):
        raw = np.ascontiguousarray(tensors[name], dtype=np.float32).astype("<f4").tobytes()
        records.append({
            "name": name, "shape": list(tensors[name].shape), "dtype": "<f4",
            "precision_tag": "full", "offset": offset, "nbytes": len(raw),
        })
        payloads.append(raw)
        offset += len(raw)
    header = {
        "format_version": cli.CHECKPOINT_VERSION,
        "step": opt.step,
        "config": cli.serialize_config(config),
        "rng": {"seed": config.seed, "label": "", "counter": 0},
        "tensors": records,
    }
    return _header_blob(json.dumps(header, sort_keys=True).encode()) + b"".join(payloads)


def test_restore_model_reads_legacy_v1_layout(tmp_path):
    model, opt, config = _trained_state({"ffn_kind": "switch"})
    path = tmp_path / "legacy.ckpt"
    path.write_bytes(_legacy_v1_blob(model, opt, config))
    restored, restored_opt, _ = cli.restore_model(cli.load_checkpoint(str(path)))
    _assert_same_state(model, opt, restored, restored_opt)


def _rename_first(header):
    header["tensors"][0]["name"] = "bogus"


def _transpose_ffn_w_in(header):
    (rec,) = [r for r in header["tensors"] if r["name"] == "block0.ffn.w_in"]
    assert rec["shape"][0] != rec["shape"][1]
    rec["shape"] = rec["shape"][::-1]


def _drop_embedding(header):
    header["tensors"] = [r for r in header["tensors"] if r["name"] != "embedding"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_rename_first, "unknown tensor"),
        (_transpose_ffn_w_in, "does not match model shape"),
        (_drop_embedding, "missing model tensors"),
    ],
    ids=["unknown_tensor", "shape_mismatch", "missing_tensor"],
)
def test_restore_model_rejects_mismatched_checkpoint(tmp_path, edit, message, capsys):
    path = _saved_checkpoint(tmp_path)
    _edit_header(path, edit)
    ckpt = cli.load_checkpoint(str(path))
    with pytest.raises(InvalidArgumentError, match=message):
        cli.restore_model(ckpt)
    _resume_exits_2(tmp_path, path, capsys)


DISTILL_TINY = [
    "train.steps=3", "train.vocab=32", "train.seq_len=8", "train.batch_tokens=32",
    "train.corpus_size=32", "train.d_model=16", "train.d_ff=24", "train.num_clusters=2",
]


def _distill(tmp_path, settings):
    argv = ["distill", "--seed", "4", "--outdir", str(tmp_path)]
    for item in settings:
        argv += ["--set", item]
    return cli.main(argv)


def test_distill_command_reports_finite_student_metric(tmp_path, capsys):
    assert _distill(tmp_path, DISTILL_TINY) == 0
    out = capsys.readouterr().out
    (line,) = [s for s in out.splitlines() if s.startswith("distilled student eval cross-entropy:")]
    assert np.isfinite(float(line.split(":")[1]))
    for name in ("teacher_metrics.csv", "student_metrics.csv"):
        assert (tmp_path / "run" / name).is_file()


def test_distill_command_keeps_a_routed_teacher_kind(tmp_path):
    teachers = {}
    for kind in ("switch", "moe2"):
        assert _distill(tmp_path / kind, DISTILL_TINY + [f"train.ffn_kind={kind}"]) == 0
        teachers[kind] = (tmp_path / kind / "run" / "teacher_metrics.csv").read_bytes()
    assert teachers["moe2"] != teachers["switch"]


def test_distill_command_rejects_invalid_config(tmp_path, capsys):
    assert _distill(tmp_path, DISTILL_TINY + ["train.hard_weight=1.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "hard_weight" in err
    assert "Traceback" not in err


def test_train_command_rejects_a_sentinel_the_corpus_can_emit(tmp_path, capsys):
    argv = ["train", "--seed", "0", "--outdir", str(tmp_path), "--set", "train.sentinel_id=5"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sentinel_id 5" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "setting",
    [
        "train.seq_len=0", "train.batch_tokens=0", "train.corpus_size=0", "train.num_heads=0",
        "train.learning_rate=nan", "router.jitter_on_logits=true",
        "train.dropout_rate=1.5", "train.expert_dropout_rate=-0.5",
        "train.tie_embeddings=true",
        # A config file may hold these retired lines; --set may not.
        "router.jitter_on_logits=False", "train.tie_embeddings=False",
    ],
)
def test_train_command_rejects_bad_setting(tmp_path, setting, capsys):
    argv = ["train", "--seed", "0", "--outdir", str(tmp_path), "--set", setting]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and setting.split("=")[0].split(".")[1] in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "setting",
    [
        "router.capacity_factor=nan", "router.capacity_factor=inf",
        "router.alpha=nan", "router.alpha=inf",
    ],
)
def test_train_command_rejects_non_finite_router_setting(tmp_path, setting, capsys):
    argv = [
        "train", "--seed", "0", "--outdir", str(tmp_path),
        "--set", "train.ffn_kind=switch", "--set", setting,
    ]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and setting.split("=")[0].split(".")[1] in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "key, before, value, status",
    [
        pytest.param("router.jitter_on_logits", "router.ntlb_stages", "False", 0, id="False-0"),
        pytest.param("router.jitter_on_logits", "router.ntlb_stages", "True", 2, id="True-2"),
        pytest.param(
            "train.tie_embeddings", "train.num_clusters", "False", 0,
            id="tie_embeddings-False-0",
        ),
        pytest.param(
            "train.tie_embeddings", "train.num_clusters", "True", 2,
            id="tie_embeddings-True-2",
        ),
    ],
)
def test_resume_drops_only_the_retired_jitter_on_logits_false_line(
    tmp_path, key, before, value, status, capsys
):
    # Older builds wrote each retired key, which no longer exists, into every
    # checkpoint's config text, just before the key ``before``.
    path = _saved_checkpoint(tmp_path)

    def edit(header):
        header["config"] = header["config"].replace(
            f"{before}=", f"{key}={value}\n{before}="
        )

    _edit_header(path, edit)
    assert f"\n{key}={value}\n{before}=" in cli.load_checkpoint(str(path)).config_text
    out = tmp_path / "out"
    argv = ["train", "--seed", "0", "--outdir", str(out), "--set", "train.steps=1",
            "--resume", str(path)]
    assert cli.main(argv) == status
    if status == 0:
        assert (out / "run" / "final.ckpt").is_file()
    else:
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err


@pytest.mark.parametrize(
    "lines, status",
    [
        pytest.param(["train.tie_embeddings=False", "router.jitter_on_logits=False"], 0,
                     id="retired-False-lines"),
        pytest.param(["train.tie_embeddings=True"], 2, id="tie_embeddings-True"),
        pytest.param(["router.jitter_on_logits=True"], 2, id="jitter_on_logits-True"),
    ],
)
def test_train_reads_an_older_runs_config_file(tmp_path, lines, status, capsys):
    # A run's config.txt, as older builds wrote it: every key, the retired
    # ones among them.
    first = tmp_path / "first"
    argv = ["train", "--seed", "0", "--outdir", str(first)]
    for item in DISTILL_TINY:
        argv += ["--set", item]
    assert cli.main(argv) == 0
    text = (first / "run" / "config.txt").read_text()
    old = tmp_path / "config.txt"
    old.write_text(text.replace("train.num_clusters=", "\n".join(lines) + "\ntrain.num_clusters="))
    capsys.readouterr()

    argv = ["train", "--seed", "0", "--config", str(old), "--outdir", str(tmp_path / "again")]
    assert cli.main(argv) == status
    if status == 0:
        # The same run, which writes its config without the retired lines.
        again = tmp_path / "again"
        assert (again / "run" / "config.txt").read_text() == text.replace(str(first), str(again))
        metrics = [d / "run" / "metrics.csv" for d in (first, again)]
        assert metrics[0].read_bytes() == metrics[1].read_bytes()
    else:
        err = capsys.readouterr().err
        assert err.startswith("error:") and lines[0].split("=")[0] in err


def test_sweep_writes_one_run_per_value(tmp_path, capsys):
    argv = ["sweep", "--seed", "2", "--outdir", str(tmp_path), "--param", "router.policy",
            "--values", "argmax,input_jitter"]
    for item in DISTILL_TINY + ["train.ffn_kind=switch", "train.expert_every=1"]:
        argv += ["--set", item]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.count("sweep variant") == 2
    configs = {}
    for value in ("argmax", "input_jitter"):
        run = tmp_path / f"run_policy_{value}"
        assert {"metrics.csv", "final.ckpt", "config.txt"} <= {p.name for p in run.iterdir()}
        configs[value] = set((run / "config.txt").read_text().splitlines())
    # The variants differ in the swept key and in the run name made from it.
    assert configs["argmax"] ^ configs["input_jitter"] == {
        "router.policy=argmax", "router.policy=input_jitter",
        "run.name=run_policy_argmax", "run.name=run_policy_input_jitter",
    }


def _unreadable(tmp_path, kind):
    """A path that names no readable input: missing, a directory, or not UTF-8."""
    if kind == "missing":
        return tmp_path / "absent"
    if kind == "directory":
        (tmp_path / "adir").mkdir()
        return tmp_path / "adir"
    path = tmp_path / "latin1.cfg"
    path.write_bytes("run.name=caf\xe9\n".encode("latin-1"))
    return path


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
@pytest.mark.parametrize(
    "command",
    [["train", "--seed", "0"], ["sweep", "--param", "router.alpha", "--values", "0.1"],
     ["distill"], ["parallel-check"]],
    ids=["train", "sweep", "distill", "parallel-check"],
)
def test_unreadable_config_exits_2_naming_the_path(tmp_path, command, kind, capsys):
    path = _unreadable(tmp_path, kind)
    with pytest.raises(InvalidArgumentError):
        cli.parse_config(str(path))
    out = tmp_path / "out"
    assert cli.main(command + ["--outdir", str(out), "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_resume_exits_2_naming_the_path(tmp_path, kind, capsys):
    path = _unreadable(tmp_path, kind)
    with pytest.raises(InvalidArgumentError):
        cli.load_checkpoint(str(path))
    out = tmp_path / "out"
    argv = ["train", "--seed", "0", "--outdir", str(out), "--resume", str(path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and err.count("\n") == 1
    assert not out.exists()


def _resume(tmp_path, settings):
    """Train a tiny switch run, then resume from its checkpoint into
    ``tmp_path / "out"`` with ``settings``; returns the resume's status."""
    head = tmp_path / "head"
    base = DISTILL_TINY + ["train.ffn_kind=switch"]
    assert cli.main(["train", "--seed", "0", "--outdir", str(head), *_settings(base)]) == 0
    argv = ["train", "--seed", "0", "--outdir", str(tmp_path / "out"),
            *_settings(base + settings), "--resume", str(head / "run" / "final.ckpt")]
    return cli.main(argv)


def test_resume_exits_2_when_the_checkpoint_does_not_fit_the_config(tmp_path, capsys):
    assert _resume(tmp_path, ["train.d_model=32"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "does not match model shape" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_resume_routes_at_the_runs_capacity_factor(tmp_path):
    # The checkpoint's run routed at capacity factor 1.25; the resumed steps
    # take this run's 0.1: one slot per expert for the batch's 32 tokens.
    assert _resume(tmp_path, ["train.steps=6", "router.capacity_factor=0.1"]) == 0
    run = tmp_path / "out" / "run"
    assert "router.capacity_factor=0.1\n" in (run / "config.txt").read_text()
    rows = (run / "metrics.csv").read_text().splitlines()[2:]
    assert [int(r.split(",")[0]) for r in rows] == [3, 4, 5]
    kept_at_most = 4 * router.expert_capacity(32, 4, 0.1)
    for row in rows:
        assert float(row.split(",")[5]) >= 1 - kept_at_most / 32, row


@pytest.mark.parametrize(
    "mesh, message",
    [
        (["mesh.strategy=model", "mesh.m=3"], "d_ff 64 not divisible by m=3"),
        (["mesh.strategy=data", "mesh.n=3"], "token count 128 not divisible by n=3"),
        (
            ["mesh.strategy=expert+data", "mesh.n=4", "mesh.num_experts=4",
             "router.num_experts=8"],
            "mesh.num_experts=4 does not restate router.num_experts=8",
        ),
        (
            ["mesh.strategy=expert+data", "mesh.n=4", "router.num_experts=8"],
            "got num_experts=8 with n=4",
        ),
    ],
    ids=["m=3", "n=3", "E=8_restated_4", "E=8"],
)
def test_a_mesh_that_cannot_shard_the_layer_exits_2_before_anything_is_written(
    tmp_path, mesh, message, capsys
):
    out = tmp_path / "out"
    for command in (["train", "--seed", "0", "--outdir", str(out)], ["parallel-check"],
                    ["comm-report"]):
        assert cli.main(command + _settings(mesh)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and err.count("\n") == 1
        assert not out.exists()


def test_restore_model_does_not_check_the_mesh(tmp_path):
    # A checkpoint whose config carries a mesh the layer cannot be sharded on.
    path = tmp_path / "model.ckpt"
    model, config = _model_and_config(0)
    config.mesh = parallel_sim.make_mesh(1, 3, "model")
    cli.save_checkpoint(model, AdamState(), config, str(path))
    _, _, restored = cli.restore_model(cli.load_checkpoint(str(path)))
    assert (restored.mesh.m, restored.mesh.strategy) == (3, "model")


def test_sweep_over_run_seed_writes_one_run_per_seed(tmp_path):
    argv = ["sweep", "--outdir", str(tmp_path), "--param", "run.seed", "--values", "1,2"]
    assert cli.main(argv + _settings(DISTILL_TINY)) == 0
    metrics = [(tmp_path / f"run_seed_{v}" / "metrics.csv").read_bytes() for v in (1, 2)]
    assert metrics[0] != metrics[1]
    for seed in (1, 2):
        text = (tmp_path / f"run_seed_{seed}" / "config.txt").read_text()
        assert f"run.seed={seed}\n" in text and "train.seed" not in text


def test_sweep_reads_only_its_variants(tmp_path):
    # Without the swept line the settings put four experts on two rows,
    # which no run reads; the one variant puts two there.
    settings = DISTILL_TINY + ["mesh.strategy=expert+data", "mesh.n=2"]
    argv = ["sweep", "--outdir", str(tmp_path), *_settings(settings),
            "--param", "router.num_experts", "--values", "2"]
    assert cli.main(argv) == 0
    assert (tmp_path / "run_num_experts_2" / "comm_report.csv").is_file()


@pytest.mark.parametrize(
    "key, owner, base",
    [
        pytest.param("train.seed", "run.seed", ["--seed", "2"], id="train.seed"),
        pytest.param(
            "mesh.num_experts", "router.num_experts",
            ["--seed", "0", *_settings(["router.num_experts=2", "mesh.strategy=expert+data",
                                        "mesh.n=2"])],
            id="mesh.num_experts",
        ),
    ],
)
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_restated_key_is_accepted_only_at_the_value_it_restates(
    tmp_path, command, key, owner, base, capsys
):
    # ``base`` gives ``owner`` the value 2.
    def run(out, value):
        argv = [command, "--outdir", str(out), *_settings(DISTILL_TINY), *base]
        if command == "sweep":
            return cli.main(argv + ["--param", key, "--values", value])
        return cli.main(argv + ["--set", f"{key}={value}"])

    assert run(tmp_path / "no", "3") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key}=3 does not restate {owner}=2" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "no").exists()
    assert run(tmp_path / "yes", "2") == 0
    (config_txt,) = (tmp_path / "yes").glob("*/config.txt")
    text = config_txt.read_text()
    assert f"\n{owner}=2\n" in text and key not in text


def test_restated_keys_are_not_valid_keys():
    with pytest.raises(InvalidArgumentError) as exc:
        cli.parse_config(overrides=["train.bogus=1"])
    listed = str(exc.value).split("valid keys:")[1]
    assert "run.seed" in listed and "router.num_experts" in listed
    assert "train.seed" not in listed and "mesh.num_experts" not in listed


def test_a_config_file_restates_its_own_seed(tmp_path):
    # An older run's config.txt wrote both seeds; a later seed overrides both.
    path = tmp_path / "config.txt"
    path.write_text("run.seed=3\ntrain.seed=3\nrouter.num_experts=2\nmesh.num_experts=2\n"
                    "mesh.strategy=expert+data\nmesh.n=2\n")
    cfg = cli.parse_config(str(path), ["run.seed=5", "router.num_experts=4", "mesh.n=4"])
    assert (cfg.seed, cfg.train.seed, cfg.router.num_experts, cfg.mesh.num_experts) == (5, 5, 4, 4)
    path.write_text("train.seed=3\n")
    with pytest.raises(InvalidArgumentError, match="train.seed=3 does not restate run.seed=0"):
        cli.parse_config(str(path), ["run.seed=3"])


def test_experiment_config_rejects_a_second_seed():
    with pytest.raises(InvalidArgumentError, match="run.seed"):
        cli.ExperimentConfig(seed=1, train=TrainConfig(seed=2))


# Every valid key at a value other than its default, all at once and jointly valid.
NON_DEFAULT = {
    "run.name": "other", "run.seed": "5", "run.outdir": "elsewhere",
    "router.num_experts": "2", "router.capacity_factor": "2.0", "router.alpha": "0.5",
    "router.policy": "sample_softmax", "router.dropout_rate": "0.2", "router.jitter_eps": "0.05",
    "router.ntlb_stages": "1", "router.selective_precision": "True",
    "train.vocab": "41", "train.seq_len": "8", "train.batch_tokens": "64", "train.steps": "3",
    "train.learning_rate": "0.01", "train.mask_rate": "0.2", "train.sentinel_id": "39",
    "train.mode": "finetune", "train.d_model": "16", "train.d_ff": "24", "train.num_layers": "1",
    "train.num_heads": "2", "train.ffn_kind": "switch", "train.attention_kind": "switch",
    "train.expert_every": "1", "train.init_scale": "0.2", "train.dropout_rate": "0.05",
    "train.expert_dropout_rate": "0.3", "train.num_clusters": "3", "train.corpus_size": "32",
    "train.hard_weight": "0.5",
    "mesh.n": "2", "mesh.m": "2", "mesh.strategy": "expert+model+data",
}


def test_serialize_then_parse_round_trips_every_key():
    assert set(NON_DEFAULT) == set(cli._valid_keys())
    lines = [f"{key}={value}" for key, value in NON_DEFAULT.items()]
    defaults = set(cli.serialize_config(cli.parse_config()).splitlines())
    assert not defaults & set(lines)
    text = cli.serialize_config(cli.parse_config(overrides=lines))
    assert sorted(text.splitlines()) == sorted(lines)
    assert cli.serialize_config(cli.parse_config(overrides=text.splitlines())) == text
