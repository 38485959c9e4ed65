"""Command-line self-checks: the gradient suite and the mesh simulator check."""

import pytest

from switchlab import cli


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
