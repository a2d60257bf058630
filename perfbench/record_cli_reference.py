"""Record the reference outputs of the ``cli`` workload's commands.

Runs every command below once in a fresh ``python -m omegalie`` process
and writes its exit code and the SHA-256 of its standard output to
perfbench/cli_reference.json.  The committed file was recorded at the
commit that introduced the benchmark; re-record only when a change to the
command-line output is intended, and say so in the change.

    python3 perfbench/record_cli_reference.py
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

from workloads import Cli, package_env  # noqa: E402

FIX = "tests/fixtures/"
CHECK = [["check", f"{FIX}{name}.json"] for name in (
    "ax2", "b2", "bad_t", "dual_pair_classical", "good_t", "lsa_nc2", "solve_b2", "wedge", "wedge_ctx",
)]
CONSTRUCT = [["construct", recipe, "--in", f"{FIX}{name}.json"] for recipe, name in (
    ("adjoint-pair", "b2"),
    ("adjoint-pair", "ax2"),
    ("double", "dual_pair_classical"),
    ("cobracket", "b2"),
    ("cobracket", "ax2"),
    ("dual-from-r", "wedge_ctx"),
    ("lsa-from-o", "good_t"),
    ("lsa-from-o", "bad_t"),
    ("lift-o", "good_t"),
    ("lift-o", "bad_t"),
    ("omega-lie-from-lsa", "lsa_nc2"),
)]
YB = [
    ["yb", op, "--algebra", f"{FIX}b2.json", "--r-tensor", f"{FIX}wedge.json"]
    for op in ("residual", "admissible", "lemma42", "bialgebra")
]
VERIFY = [["verify", thm, "--in", f"{FIX}{name}.json"] for thm, name in (
    ("thm-3.8", "dual_pair_classical"),
    ("thm-4.4", "wedge_ctx"),
    ("thm-5.18", "good_t"),
    ("thm-5.18", "bad_t"),
)]
SOLVE = [["--deterministic", "solve", "--in", f"{FIX}solve_b2.json"]]
COMMANDS = CHECK + CONSTRUCT + YB + VERIFY + SOLVE


def main() -> int:
    cases = []
    for argv in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "omegalie", *argv], cwd=ROOT, env=package_env(), capture_output=True
        )
        if proc.returncode not in (0, 1) or proc.stderr:
            print(f"unusable command {argv}: exit {proc.returncode}\n{proc.stderr.decode()}", file=sys.stderr)
            return 1
        cases.append(
            {"argv": argv, "exit": proc.returncode, "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}
        )
    with open(Cli.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"commands": cases}, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(cases)} commands in {Cli.REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
