"""Import guard: no run loads scipy.

numpy does every solve a run needs; ``scipy.linalg`` alone would add about
30 MB to a reference run's peak memory, so a stray import would give that
back without any test failing on the numbers.
"""

import os
import subprocess
import sys
from pathlib import Path

import shockda

_SCRIPT = """
import itertools
import sys
from pathlib import Path
from shockda.assimilation.weights import VARIANTS
from shockda.harness import ExperimentConfig, run_experiment, run_free_moments, run_truth_only

runs = itertools.count()

def run(case, entry, **overrides):
    out = Path(sys.argv[1]) / str(next(runs))
    entry(ExperimentConfig.for_case(case, n=41, ensemble_size=8, t_end=0.04, output_dir=out, **overrides))
    print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))

# each weight's preset band, a coupled band (the m x m solve) and no mask (the K x K solve)
for case in ("dense", "sparse"):
    for variant in VARIANTS:
        run(case, run_experiment, variant=variant)
        run(case, run_experiment, variant=variant, localization_bandwidth=2)
        run(case, run_experiment, variant=variant, localization_bandwidth=None)
run("dense", run_truth_only)
run("dense", run_free_moments, snapshot_times=(0.02,))
"""


def test_no_run_imports_scipy(tmp_path):
    src = str(Path(shockda.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [""] * 20
