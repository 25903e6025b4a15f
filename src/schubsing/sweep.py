"""Exhaustive verification sweeps over whole symmetric groups.

For every w the sweep cross-checks each independent characterization against
the others: pattern smoothness against the tangent-space oracle, component
type formulas against counted dimensions, closed-form Kazhdan-Lusztig
polynomials against the recursion, and slice equation models against exact
membership sampling.  A report is a plain dict ready for JSON output.
"""

from __future__ import annotations

import sys
from itertools import islice, permutations
from math import factorial
from typing import Iterator

from .components import Component, enumerate_components, verify_formulas
from .kl import kl_recursion
from .patterns import is_smooth
from .perms import Permutation, format_permutation, length
from .slices import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    SliceStructureError,
    build_slice,
    verify_slice,
)

__all__ = [
    "WorkerCrashError",
    "component_pairs",
    "verify_all",
    "verify_permutation",
]


def component_pairs(n: int) -> Iterator[tuple[Permutation, Component]]:
    """All pairs (w, component of w) over the whole symmetric group."""
    for values in permutations(range(1, n + 1)):
        w = Permutation(values)
        for c in enumerate_components(w):
            yield w, c


def verify_permutation(
    w: Permutation,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Every cross-check for a single w, as a JSON-ready record."""
    smooth_pattern = is_smooth(w)
    classified = enumerate_components(w)
    # A finite singular set is empty iff it has no maximal elements.
    smooth_tangent = not classified
    components = []
    for c in classified:
        entry = c.json_fields()
        entry["formulas_ok"] = verify_formulas(c, w)
        closed = c.kl_closed_form()
        recursion = kl_recursion(c.v, w)
        entry["kl_closed"] = list(closed)
        entry["kl_recursion"] = list(recursion)
        entry["kl_ok"] = closed == recursion
        try:
            verdict = verify_slice(build_slice(c, w), trials=trials, seed=seed)
            entry["slice_ok"] = verdict.ok
            entry["slice_failures"] = list(verdict.failures)
            entry["slice_error"] = None
        except SliceStructureError as exc:
            entry["slice_ok"] = False
            entry["slice_failures"] = []
            entry["slice_error"] = str(exc)
        components.append(entry)
    record = {
        "w": format_permutation(w),
        "length": length(w),
        "smooth_pattern": smooth_pattern,
        "smooth_tangent": smooth_tangent,
        "components": components,
    }
    record["ok"] = not _record_failures(record)
    return record


class WorkerCrashError(RuntimeError):
    """A ``verify_all`` worker process died before returning its chunk."""


def _record_failures(record: dict) -> list[dict]:
    """Failure witnesses (w, v, check, detail) extracted from one record."""
    pattern, tangent = record["smooth_pattern"], record["smooth_tangent"]
    rows = [(None, "smoothness", pattern == tangent, f"pattern {pattern}, tangent {tangent}")]
    for e in record["components"]:
        error = e["slice_error"]
        rows += [
            (e["v"], "formulas", e["formulas_ok"], f"type {e['type']} double equalities fail"),
            (e["v"], "kl", e["kl_ok"],
             f"closed form {e['kl_closed']} != recursion {e['kl_recursion']}"),
            (e["v"], "slice-structure", error is None, error),
            (e["v"], "slice", error is not None or e["slice_ok"], "; ".join(e["slice_failures"])),
        ]
    return [
        {"w": record["w"], "v": v, "check": check, "detail": detail}
        for v, check, ok, detail in rows
        if not ok
    ]


def _verify_chunk(args: tuple[int, int, int, int, int]) -> list[dict]:
    n, lo, hi, trials, seed = args
    perms = islice(permutations(range(1, n + 1)), lo, hi)
    return [verify_permutation(Permutation(p), trials=trials, seed=seed) for p in perms]


def _pool_map(jobs: int, tasks: list) -> Iterator[list[dict]]:
    """``map(_verify_chunk, tasks)`` in order, over ``jobs`` worker processes."""
    # Imported here so that importing the package loads no process machinery.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(jobs) as pool:
        try:
            yield from pool.map(_verify_chunk, tasks)
        except BrokenProcessPool as exc:
            raise WorkerCrashError("a worker process died; the sweep is incomplete") from exc


def verify_all(
    n: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    progress: bool = False,
) -> dict:
    """Sweep all of S_n and aggregate counters plus failure witnesses.

    S_n is cut into the same chunks whatever ``jobs`` is, so the report and
    the progress lines (one per chunk) do not depend on it.  With ``jobs > 1``
    a dead worker raises :class:`WorkerCrashError`.  ``trials < 1`` would
    check no slice and raises ``ValueError`` before any work.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    total = factorial(n)
    step = max(1, total // 40)
    tasks = [(n, lo, min(lo + step, total), trials, seed) for lo in range(0, total, step)]
    parts = map(_verify_chunk, tasks) if jobs == 1 else _pool_map(jobs, tasks)

    by_type: dict[str, int] = {}
    witnesses: list[dict] = []
    smooth_count = 0
    done = 0
    for part in parts:
        for record in part:
            smooth_count += record["smooth_pattern"] and record["smooth_tangent"]
            for entry in record["components"]:
                by_type[entry["type"]] = by_type.get(entry["type"], 0) + 1
            witnesses.extend(_record_failures(record))
        done += len(part)
        if progress:
            print(f"  {done}/{total} permutations", file=sys.stderr, flush=True)

    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "summary": {
            "permutations_checked": total,
            "smooth_count": smooth_count,
            "singular_count": total - smooth_count,
            "component_pairs": sum(by_type.values()),
            "components_by_type": dict(sorted(by_type.items())),
        },
        "failures": len(witnesses),
        "failure_witnesses": witnesses,
        "ok": not witnesses,
    }
