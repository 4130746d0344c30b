#!/usr/bin/env python3
"""SHA-256 of every artifact a fixed set of CLI runs writes.

    python3 tools/artifact_digests.py [--out tests/artifact_digests.json]

Runs each command of `RUNS` in process through `optocool.cli.run_command`
inside a fresh temporary directory, with relative ``--out``, ``--config``
and ``--input`` paths, and writes one JSON file: the platform the digests
were made on (machine, NumPy version, ``np.longdouble`` precision) and the
SHA-256 of each file, keyed by its relative path. It prints the name of
each digest that differs from the file it overwrites, one a line.
`tests/test_artifact_digests.py` reruns the same set and compares, so a
change that moves any covered byte shows up as a digest change in its diff.
Regenerate the file only in a change that means to move an artifact, and
say in CHANGES.md by how much.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "artifact_digests.json"

# config file name -> the (text of DEFAULT_CONFIG, what replaces it) edits
CONFIGS = {
    "derivative.ini": [("controller = off\ngain = 0\n",
                        "controller = derivative\ngain = 15\n")],
    "chain.ini": [("controller = off\n", "controller = chain\n")],
    "noisy.ini": [("readout_noise_asd = 0 Hz/rtHz",
                   "readout_noise_asd = 1e3 Hz/rtHz")],
    # the cascade goes on after handover on the Fabry-Perot readout's floor
    "handover.ini": [("readout_noise_asd = 0 Hz/rtHz",
                      "readout_noise_asd = 1e3 Hz/rtHz"),
                     ("termination = gain", "termination = handover")],
}

RUNS = [
    ["--out", "default", "susceptibility"],
    ["--out", "default", "noise-budget"],
    ["--out", "default", "cool", "sweep"],
    ["--out", "default", "cool", "optimum"],
    ["--out", "default", "cascade", "run"],
    ["--out", "default", "simulate"],
    ["--out", "default", "chain", "report"],
    ["--out", "default", "paper-report"],
    ["--out", "default", "psd", "--input", "default/trace.csv"],
    ["--out", "seed7", "--seed", "7", "simulate"],
    ["--out", "seed7", "psd", "--input", "seed7/trace.csv"],
    ["--out", "derivative", "--config", "derivative.ini", "simulate"],
    ["--out", "chain", "--config", "chain.ini", "simulate"],
    ["--out", "noisy", "--config", "noisy.ini", "noise-budget"],
    ["--out", "handover", "--config", "handover.ini", "cascade", "run"],
    ["--out", "ringdown", "ringdown-fit", "--input", "decay.csv"],
]


def platform_info() -> dict:
    """What the bytes depend on beyond the source: CPU, NumPy, longdouble."""
    import numpy as np

    return {"machine": platform.machine(), "numpy": np.__version__,
            "longdouble_precision": int(np.finfo(np.longdouble).precision)}


def _write_inputs():
    import numpy as np

    from optocool.config import DEFAULT_CONFIG

    for name, edits in CONFIGS.items():
        text = DEFAULT_CONFIG
        for old, new in edits:
            assert old in text, old
            text = text.replace(old, new, 1)
        Path(name).write_text(text)
    # a 4.72 Hz decay with Q = 50, sampled at 200 Hz for 20 s
    t = np.arange(4000) / 200.0
    x = np.exp(-np.pi * 4.72 / 50.0 * t) * np.cos(2.0 * np.pi * 4.72 * t)
    rows = zip(t.tolist(), x.tolist())
    Path("decay.csv").write_text(
        "t_s,value\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))


def artifact_digests() -> dict:
    """Run `RUNS` in the current directory; SHA-256 of each file written."""
    from optocool.cli import run_command

    _write_inputs()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in RUNS:
            run_command(argv)
    outs = dict.fromkeys(argv[1] for argv in RUNS)
    return {str(path): hashlib.sha256(path.read_bytes()).hexdigest()
            for out in outs for path in sorted(Path(out).iterdir())}


def differing(recorded: dict, got: dict) -> list:
    """Names of the digests that one of the two maps lacks or holds apart."""
    return sorted(name for name in recorded.keys() | got.keys()
                  if recorded.get(name) != got.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DIGESTS)
    args = parser.parse_args(argv)
    out = args.out.resolve()
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            digests = artifact_digests()
        finally:
            os.chdir(here)
    record = {"platform": platform_info(), "digests": digests}
    if out.exists():
        for name in differing(json.loads(out.read_text())["digests"], digests):
            print(f"moved: {name}")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {out}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
