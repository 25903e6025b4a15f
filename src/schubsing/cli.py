"""Command-line interface: JSON answers about Schubert variety singularities.

Permutations are written in one-line notation, either comma-separated
(``4,2,3,1``) or as a digit string when every value is below ten (``4231``).
All output is JSON with sorted keys, so repeated runs with the same
arguments produce byte-identical bytes.  Exit codes: 0 on success, 1 when a
verification reports failures, a component or its slice does not fit its
family, or a ``verify-all`` worker process dies, 2 on usage errors.

``main`` is the one input gate: it parses the permutations a command takes
(v first), refuses n past the query cap and then ``--trials`` past its cap,
and only then runs the command on the parsed permutations.  Commands raise
on bad input; ``main`` alone writes the one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .components import (
    ClassificationError,
    SliceStructureError,
    components_from_patterns,
    enumerate_components,
)
from .kl import kl_recursion
from .patterns import find_patterns
from .perms import Permutation, bruhat_leq, format_permutation, parse_permutation
from .slices import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    SliceModel,
    SliceVerdict,
    build_slice,
    equation_strings,
    pair_slice,
    verify_slice,
)
from .sweep import WorkerCrashError, verify_all, verify_permutation
from .tangent import tangent_dimension

__all__ = ["main"]

# n = 8 waits on one recorded S_8 run (ROADMAP item 1).  The KL memo should
# fit: the serial S_7 sweep peaks at about 22 MB, and the S_8 memo holds
# 9,551,060 left-coset tops at 8 bytes each (an int index and an int id),
# about 80 MB; all S_8 tables built in one process peak at 108 MB RSS.
_VERIFY_MAX_N = 7
# Bounds the time and the output of one query, checked before any work.  The
# worst w found in S_20 for singular-locus, 11..20,1..10, has 2,025
# components and about 1 MB of JSON (0.55 s on a quiet 2-core VM); smooth
# lists every 4231 and 3412 occurrence, which grows as n^4.  kl, report and
# slice (unless v = w) still build the whole group, which stops at n = 9.
# slice keeps it on purpose: past n = 9 a pair that is not a component can
# need thousands of minors (v = identity, w = 7..12,1..6: over 20 s).
_QUERY_MAX_N = 20
# Bounds the sample points of one slice check, which are all held in memory
# at once; checked before any work, as _QUERY_MAX_N is.
_TRIALS_MAX = 10_000


def _print(data: object, pretty: bool = True) -> None:
    if pretty:
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))


def _poly_str(coefficients: list[int]) -> str:
    terms = []
    for power, coeff in enumerate(coefficients):
        if coeff == 0:
            continue
        if power == 0:
            terms.append(str(coeff))
        else:
            q = "q" if power == 1 else f"q^{power}"
            terms.append(q if coeff == 1 else f"{coeff}*{q}")
    return " + ".join(terms) if terms else "0"


def _slice_fields(model: SliceModel) -> dict:
    """A slice's free coordinates and closed equations, as JSON."""
    return {
        "free": [list(cell) for cell in model.free],
        "equations": equation_strings(model, model.closed_equations),
    }


def cmd_smooth(args: argparse.Namespace, w: Permutation) -> int:
    occurrences = find_patterns(w)
    _print(
        {
            "w": format_permutation(w),
            "smooth": not occurrences,
            "witnesses": [
                {"kind": occ.kind, "positions": list(occ.positions)}
                for occ in occurrences
            ],
        }
    )
    return 0


def cmd_tangent(args: argparse.Namespace, v: Permutation, w: Permutation) -> int:
    m, lw = tangent_dimension(v, w), w.length
    _print(
        {
            "v": format_permutation(v),
            "w": format_permutation(w),
            "m": m,
            "length": lw,
            "excess": m - lw,
        }
    )
    return 0


def cmd_singular_locus(args: argparse.Namespace, w: Permutation) -> int:
    entries = []
    for c in components_from_patterns(w):
        entry = c.json_fields()
        entry["kl"] = list(c.kl_closed_form())
        entry["slice"] = _slice_fields(build_slice(c, w))
        entries.append(entry)
    _print(entries)
    return 0


def cmd_kl(args: argparse.Namespace, v: Permutation, w: Permutation) -> int:
    recursion = kl_recursion(v, w)  # also checks v <= w, and n <= 9
    closed = next(
        (c.kl_closed_form() for c in components_from_patterns(w) if c.v == v), None
    )
    _print(
        {
            "v": format_permutation(v),
            "w": format_permutation(w),
            "closed_form": None if closed is None else list(closed),
            "recursion": list(recursion),
            "agree": closed is None or closed == recursion,
            "polynomial": _poly_str(list(recursion)),
        }
    )
    return 0


def cmd_slice(args: argparse.Namespace, v: Permutation, w: Permutation) -> int:
    """The slice of a pair v <= w, verified when it is a component's.

    A component pair gets its family's closed model and the verdict of the
    slice checks; v = w gets the trivial slice with a vacuous verdict; any
    other pair gets its free coordinates and the determinantal model only.
    """
    c = None
    # v <= w is checked before the component search, which needs n <= 9.
    if v != w and bruhat_leq(v, w):
        c = next((c for c in enumerate_components(w) if c.v == v), None)
    if c is None:
        model = pair_slice(v, w)
        verdict = SliceVerdict(True, True, True, True, True, samples=0) if v == w else None
    else:
        model = build_slice(c, w)
        verdict = verify_slice(model, trials=args.trials, seed=args.seed)
    _print(
        {
            "v": format_permutation(v),
            "w": format_permutation(w),
            "type": None if c is None else c.ctype,
            **_slice_fields(model),
            "determinantal_equations": equation_strings(
                model, model.determinantal_equations
            ),
            "verdict": None if verdict is None else asdict(verdict),
        }
    )
    return 0 if verdict is None or verdict.ok else 1


def cmd_report(args: argparse.Namespace, w: Permutation) -> int:
    record = verify_permutation(w, trials=args.trials, seed=args.seed)
    _print(record)
    return 0 if record["ok"] else 1


def cmd_verify_all(args: argparse.Namespace) -> int:
    if not 2 <= args.n <= _VERIFY_MAX_N:
        raise ValueError(
            f"--n must be between 2 and {_VERIFY_MAX_N} (n = 8 waits on one recorded S_8 run)"
        )
    report = verify_all(args.n, trials=args.trials, seed=args.seed, jobs=args.jobs)
    _print(report, pretty=False)
    return 0 if report["ok"] else 1


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1 (exit 2 otherwise)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _job_count(text: str) -> int:
    """argparse type for --jobs: 1 up to the CPU count (exit 2 otherwise)."""
    value = _positive_int(text)
    cpus = os.cpu_count() or 1
    if value > cpus:
        raise argparse.ArgumentTypeError(
            f"must be at least 1 and at most the CPU count {cpus}, got {value}"
        )
    return value


def _add_trials_seed(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--trials",
        type=_positive_int,
        default=DEFAULT_TRIALS,
        help=f"number of sample points per slice check (default {DEFAULT_TRIALS})",
    )
    sub.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"base seed for deterministic sampling (default {DEFAULT_SEED})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubsing",
        description="Singularities of Schubert varieties in type A flag varieties.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("smooth", help="pattern-based smoothness test")
    p.add_argument("w", help="permutation, e.g. 4231 or 4,2,3,1")
    p.set_defaults(func=cmd_smooth)

    p = subs.add_parser("tangent", help="tangent space dimension at a point")
    p.add_argument("v", help="Bruhat-smaller permutation (the point)")
    p.add_argument("w", help="permutation defining the variety")
    p.set_defaults(func=cmd_tangent)

    p = subs.add_parser(
        "singular-locus", help="singular points and maximal components"
    )
    p.add_argument("w", help="permutation defining the variety")
    p.set_defaults(func=cmd_singular_locus)

    p = subs.add_parser("kl", help="Kazhdan-Lusztig polynomial by recursion")
    p.add_argument("v", help="Bruhat-smaller permutation")
    p.add_argument("w", help="Bruhat-larger permutation")
    p.set_defaults(func=cmd_kl)

    p = subs.add_parser("slice", help="slice equations and verification")
    p.add_argument("v", help="point of the variety, in particular v <= w")
    p.add_argument("w", help="permutation defining the variety")
    _add_trials_seed(p)
    p.set_defaults(func=cmd_slice)

    p = subs.add_parser("report", help="all cross-checks for one permutation")
    p.add_argument("w", help="permutation defining the variety")
    _add_trials_seed(p)
    p.set_defaults(func=cmd_report)

    p = subs.add_parser(
        "verify-all", help="cross-check every permutation of S_n"
    )
    p.add_argument(
        "--n",
        type=int,
        default=6,
        help="symmetric group size (default 6); from 7 on, progress goes to stderr",
    )
    _add_trials_seed(p)
    p.add_argument(
        "--jobs", type=_job_count, default=1, help="worker processes (default 1)"
    )
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # The one input gate: the permutations the command declares, v
        # first, then the n cap, then the --trials cap, all before any work.
        perms = [parse_permutation(vars(args)[name]) for name in ("v", "w") if name in vars(args)]
        n = max((p.n for p in perms), default=0)
        if n > _QUERY_MAX_N:
            raise ValueError(f"{args.command} takes n <= {_QUERY_MAX_N}, got n = {n}")
        if getattr(args, "trials", 0) > _TRIALS_MAX:
            raise ValueError(f"--trials takes at most {_TRIALS_MAX}, got {args.trials}")
        return args.func(args, *perms)
    except (ValueError, ClassificationError, SliceStructureError, WorkerCrashError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
