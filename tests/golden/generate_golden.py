"""Regenerate the frozen fixed-point run used by the regression test.

Run from the repository root after an intentional numerical change:

    PYTHONPATH=src:tests python3 tests/golden/generate_golden.py

The strong-form residual bound is computed by the test-side oracle in
tests/conftest.py, hence tests on the path.

The file pins the cosine profile run at K = 16 so that refactors of the
iteration bookkeeping cannot silently change the computed remainder.
"""

import json
import pathlib

from conftest import strong_form_residual
from mkdvlab import GridSpec, PicardConfig, cosine_field, picard_solve

OUT = pathlib.Path(__file__).parent / "picard_cosine_K16.json"


def main() -> None:
    T, M = 0.01, 64
    f = cosine_field(16)
    z, phase, report = picard_solve(f, PicardConfig(grid=GridSpec(16, M, T)))
    payload = {
        "T": T,
        "M": M,
        "converged": report.converged,
        "first_iterate_norm": report.first_iterate_norm,
        "iters": [
            {"norm_x": row.norm_x, "diff_norm": row.diff_norm}
            for row in report.iters
        ],
        "final_modes": {
            str(k): [z.coeffs[-1, k + 16].real, z.coeffs[-1, k + 16].imag]
            for k in (1, 3, 5)
        },
        "strong_residual_bound": 10.0 * strong_form_residual(z, f, phase),
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
