"""Command-line self-checks (gradient suite, mesh simulator check) and checkpoint files."""

import struct

import pytest

from switchlab import cli
from switchlab.tensor_core import RngStream
from switchlab.trainer import AdamState, build_model


@pytest.mark.parametrize(
    "check", [pytest.param(check, id=name) for name, check in cli._gradient_checks()]
)
def test_gradient_suite(check):
    report = check()
    assert report.passed, report.details


@pytest.mark.parametrize(
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
def test_parallel_check_passes(mesh, capsys):
    argv = ["parallel-check"]
    for item in mesh:
        argv += ["--set", item]
    assert cli.main(argv) == 0, capsys.readouterr().out


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
    ],
    ids=["empty", "3_bytes", "magic_only", "bad_json", "bad_utf8", "not_an_object", "missing_key"],
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
