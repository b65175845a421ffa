"""Property test of the CLI: every input ends in exit 0, 2, 3 or 4 with one line on stderr.

Flags and config-file lines are drawn for ``truth``, ``moments`` and
``assimilate`` over every ExperimentConfig field: valid, boundary,
out-of-range, non-finite, huge, wrong-type and empty values, and a line
that is not UTF-8.  The runs stay
tiny: n <= 61, K <= 8, fine_refine <= 4 and a t_end of a few observation
strides.  The output and truth-cache directories are fixed, not drawn.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from shockda.harness import read_manifest
from shockda.harness.cli import main

# (plausible values, out-of-range or malformed ones) per field.  A plausible value is huge only where it
# sizes no array; a huge n or t_end, or a tiny cfl, must be rejected before anything is allocated.
_JUNK = ("abc", "", "nan", "-inf")
_VALUES = {
    "case": (("dense", "sparse", "oscillatory"), ("bogus", "", "Dense")),
    "variant": (("etkf_baseline", "gsm", "gsm_clustered"), ("enkf", "")),
    "n": (("21", "41", "61", "11", "32"), ("10", "-1", "100000000000", "1e3", "2.5", *_JUNK)),
    "ensemble_size": (("2", "5", "8"), ("1", "0", "2.5", *_JUNK)),
    "cfl": (("0.1", "0.05", "0.2", "0.5"), ("0", "1", "-0.1", "1e-300", "5e-324", *_JUNK)),
    "fine_refine": (("1", "2", "4"), ("0", "-1", "2.5", *_JUNK)),
    "t_end": (("0.05", "0.1", "0.15", "0.3"), ("0", "-0.05", "0.0123", "1e300", "inf", *_JUNK)),
    "obs_stride_steps": (("1", "3", "5"), ("0", "-1", "1000", "2.5", *_JUNK)),
    "ic_perturb_std": (("0", "0.05", "0.1", "1", "1e300"), ("-0.1", *_JUNK)),
    "gamma": (("0.01", "0.1", "1e-150", "1e150"), ("0", "-0.01", "1e-200", "1e300", *_JUNK)),
    "alpha": (("1.5", "1.01", "1e10", "1e200", "1e300"), ("1.0", "0.5", "-1", *_JUNK)),
    "beta_max_target": (("0.003", "0.5", "1e-300", "1e300"), ("0", "-1", *_JUNK)),
    "dist": (("0", "1", "3", "100"), ("-1", "1e3", "2.5", *_JUNK)),
    "localization_bandwidth": (("none", "None", "0", "1", "2", "60"), ("-1", "2.5", *_JUNK)),
    "seed": (("0", "7", str(2**64), "99999999999999999999999999999"), ("-1", "1e3", "2.5", *_JUNK)),
    "h0": (("1.0", "2", "0.8", "1e-300", "1e300"), ("0", "-1", *_JUNK)),
    "h1": (("0.8", "1.0", "0.1", "1e-300", "1e300"), ("0", "-1", *_JUNK)),
    "g": (("9.81", "1", "100"), ("0", "-9.81", *_JUNK)),
    "x_dam": (("0", "0.5", "-0.5", "0.99", "2", "-1e300", "1e300"), _JUNK),
    "snapshot_times": (("0.05", "0.05,0.1", "0.1, 0.05", "0.05,0.05", "0.05,,0.1"),
                       ("", "0.0123", "-0.05", "1e300", *_JUNK)),
}
# always set, so that no run falls back to a reference-scale default
_SIZED = ("n", "ensemble_size", "cfl", "fine_refine")
_FLAGS = {"case": "--case", "variant": "--variant", "n": "--n", "cfl": "--cfl", "ensemble_size": "--ensemble-size",
          "alpha": "--alpha", "beta_max_target": "--beta-max", "dist": "--dist",
          "localization_bandwidth": "--bandwidth", "gamma": "--gamma", "seed": "--seed", "t_end": "--t-end"}
# "\udcff\udcfe" stands for the bytes 0xff 0xfe, which are not UTF-8: the file is written with surrogateescape
_EXTRA_LINES = ("", "# a comment", "bogus_key = 1", "no equals sign", "output_dir = elsewhere", "\udcff\udcfe = 3")


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(["truth", "moments", "assimilate"]))
    keys = [*_SIZED, *draw(st.lists(st.sampled_from(sorted(set(_VALUES) - set(_SIZED))), max_size=8, unique=True))]
    bad = set(draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)))
    values = {key: draw(st.sampled_from(_VALUES[key][key in bad])) for key in keys}
    flags = dict(_FLAGS, **({"ic_perturb_std": "--ic-std"} if command == "moments" else {}))
    if command != "assimilate":
        flags.pop("variant")
    argv, lines = [command], [draw(st.sampled_from(_EXTRA_LINES[:1] * 8 + _EXTRA_LINES[1:]))]
    for key, value in values.items():
        where = draw(st.sampled_from(["flag", "file", "both"])) if key in flags else "file"
        if where != "flag":
            lines.append(f"{key} = {value}")
        if where != "file":
            argv.append(f"{flags[key]}={value}")  # the = form, so that a value starting with '-' stays a value
    return argv, "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocation=_invocations())
# identical members: the weight scale target / max diagonal overflows, a numerical failure (exit 3)
@example(invocation=(["assimilate", "--n=21", "--ensemble-size=5", "--case=sparse", "--dist=0", "--beta-max=1e300"],
                     "ic_perturb_std = 0\n"))
# a config file that is not UTF-8, a config error (exit 2)
@example(invocation=(["truth", "--n=41"], "n = 41\n\udcff\udcfe = 3\n"))
def test_every_cli_input_ends_in_a_mapped_exit_code_with_one_line(tmp_path, capsys, invocation):
    argv, text = invocation
    root = Path(tempfile.mkdtemp(dir=tmp_path))  # one directory per example, the truth cache included
    (root / "run.cfg").write_bytes(text.encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--config", str(root / "run.cfg"), "--out", str(root / "run")])
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []  # a warning would be a second stderr line
    assert code in (0, 2, 3, 4), err
    if code == 0:
        assert err == ""
        manifest = read_manifest(root / "run" / "manifest.txt")
        snapshots = [float(t) for t in manifest["snapshot_times"].split(",") if t]
        written = sorted((root / "run").glob("*.csv"))
        assert written
        for path in written:
            rows = len(path.read_text().splitlines()) - 1
            if path.name == "moments.csv" and min(snapshots, default=np.inf) > float(manifest["t_end"]):
                # assimilate ignores snapshot times after t_end, so this file is header-only; the
                # benchmark's shrunken self-test runs (t_end 0.04, default snapshots) write it so
                assert rows == 0, path
            else:
                assert rows >= 1, path
    else:
        assert err.count("\n") == 1, err
