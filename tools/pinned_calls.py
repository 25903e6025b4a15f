"""Run a fixed list of CLI calls and print a digest line for each.

Usage: python3 tools/pinned_calls.py [PYTHON]

Each call runs in a fresh ``PYTHON -m schubsing`` (default: the interpreter
running this tool) against the ``src/`` beside this tool.  One line per call
gives ``md5(stdout) md5(stderr) exit argv``, so two trees, or two
interpreters, are compared by running the tool on each and diffing the output.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_N20_BLOCK = ",".join(map(str, [*range(11, 21), *range(1, 11)]))
_N21 = ",".join(map(str, range(1, 22)))

CALLS: tuple[tuple[str, ...], ...] = (
    *(
        ("verify-all", "--n", "6", "--seed", seed, *jobs)
        for seed in ("101", "2718")
        for jobs in ((), ("--jobs", "2"))
    ),
    ("verify-all", "--n", "7"),
    # README's queries.
    ("kl", "3,4,8,1,6,5,2,7", "3,6,8,1,7,4,2,5"),
    ("slice", "3,4,8,1,6,5,2,7", "3,6,8,1,7,4,2,5"),
    ("report", "3,6,8,1,7,4,2,5"),
    ("slice", "3,6,4,1,9,2,8,7,5", "3,6,8,1,9,4,7,2,5"),
    ("singular-locus", "45312"),
    ("singular-locus", "35142"),
    ("singular-locus", _N20_BLOCK),
    ("kl", "1,3,2,5,4,7,6,9,8", "3,6,8,1,9,4,7,2,5"),
    ("report", "3,6,8,1,9,4,7,2,5"),
    # Input errors, in the order main checks them.
    ("slice", "+2,1", "3412", "--trials", "10001"),
    ("slice", _N21, _N21, "--trials", "10001"),
    ("tangent", "+1", _N21),
    ("verify-all", "--n", "9", "--trials", "10001"),
    # Slices: v = w at n = 20, a component pair, an incomparable pair.
    ("slice", _N20_BLOCK, _N20_BLOCK),
    ("slice", "1234", "4231"),
    ("slice", "2143", "1324"),
)


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def run_call(python: str, argv: tuple[str, ...]) -> str:
    """The digest line of one call: ``md5(stdout) md5(stderr) exit argv``."""
    proc = subprocess.run(
        [python, "-m", "schubsing", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=False,
    )
    return f"{_md5(proc.stdout)} {_md5(proc.stderr)} {proc.returncode} {' '.join(argv)}"


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    python = argv[0] if argv else sys.executable
    for call in CALLS:
        print(run_call(python, call), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
