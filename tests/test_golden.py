"""Fixed-seed training, eval, distillation and mesh runs against ``golden.json``.

On the platform that wrote the file every digest must match, bit for bit.
Elsewhere the bits may differ in the last place, so the float values behind
the digests are compared within VALUE_RTOL / VALUE_ATOL instead.
"""

import json

import numpy as np

import regen_golden

# Reordering one product in every Adam update, a last-place change, moved
# no value by more than 1e-7 relative (NumPy 2.4, OpenBLAS 0.3.31). Another
# BLAS rounds every product its own way, so the bound leaves wide room.
VALUE_RTOL = 1e-3
VALUE_ATOL = 1e-6


def test_fixed_seed_runs_match_golden_file():
    golden = json.loads(regen_golden.GOLDEN_PATH.read_text())
    want = golden["entries"]
    got = regen_golden.compute()
    assert got.keys() == want.keys()
    if golden["platform"] == regen_golden.platform():
        changed = [name for name in want if got[name]["sha256"] != want[name]["sha256"]]
        assert not changed, f"digests differ from the golden file: {changed}"
    for name in want:
        np.testing.assert_allclose(
            got[name]["values"], want[name]["values"], rtol=VALUE_RTOL, atol=VALUE_ATOL,
            err_msg=name,
        )
