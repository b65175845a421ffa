"""Import guard: band-weight runs must not load scipy.

Only the full-matrix innovation solve imports ``scipy.linalg``, on first
use; ``scipy.sparse`` is not used at all.  Together they are about 30 MB
of a reference run's peak memory, so a stray top-level import would give
that back without any test failing on the numbers.
"""

import os
import subprocess
import sys
from pathlib import Path

import shockda

_SCRIPT = """
import sys
from pathlib import Path
from shockda.harness import ExperimentConfig, run_experiment

def run(case, variant):
    out = Path(sys.argv[1]) / f"{case}_{variant}"
    run_experiment(ExperimentConfig.for_case(case, variant=variant, n=41, ensemble_size=8, t_end=0.04, output_dir=out))
    print(" ".join(m for m in ("scipy.sparse", "scipy.linalg") if m in sys.modules))

run("sparse", "gsm_clustered")
run("dense", "gsm")
run("dense", "etkf_baseline")  # its K x K solve takes the full-matrix path
"""


def test_band_weight_runs_never_import_scipy(tmp_path):
    src = str(Path(shockda.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["", "", "scipy.linalg"]
