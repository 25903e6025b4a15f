"""Compare two benchmark results written by ``run.py --out``.

Usage:  python3 perfbench/compare.py BASE.json NEW.json

Prints every metric of both runs and the relative change, with the bound
BENCHMARK.json fixes for end-to-end metrics.  Refuses (exit 2) to compare
runs of different workloads or run lengths, and runs whose kernel backend or
Python version differ: those change the timings without any code change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

STAMP_KEYS = ("backend", "python")
RUN_KEYS = ("workload", "seconds", "trace")


def refusal(base: dict, new: dict) -> str | None:
    for key in RUN_KEYS:
        if base[key] != new[key]:
            return f"{key} differs: {base[key]!r} vs {new[key]!r}"
    for key in STAMP_KEYS:
        if base["stamp"][key] != new["stamp"][key]:
            return f"{key} differs: {base['stamp'][key]!r} vs {new['stamp'][key]!r}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    reason = refusal(base, new)
    if reason:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{base['workload']}: seed {base['seed']} vs {new['seed']}, "
          f"commit {base['stamp']['commit']} vs {new['stamp']['commit']}")
    for name, (value, unit) in base["metrics"].items():
        other = new["metrics"].get(name, (None, unit))[0]
        change = "" if other is None or not value else f"{100 * (other - value) / value:+.1f}%"
        bound = f"(bound {100 * bounds[name]:.0f}%)" if name in bounds else ""
        shown = "-" if other is None else f"{other:.6g}"
        print(f"{name:<40} {value:>12.6g} {shown:>12} {unit:<6} {change:>8} {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
