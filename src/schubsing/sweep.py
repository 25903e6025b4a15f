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
from typing import Iterator

from .components import Component, enumerate_components, verify_formulas
from .kl import kl_recursion
from .patterns import is_smooth
from .perms import Permutation, format_permutation
from .slices import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    SliceStructureError,
    build_slice,
    check_trials,
    verify_slice,
)
from .symgroup import symmetric_group

__all__ = [
    "WorkerCrashError",
    "component_pairs",
    "verify_all",
    "verify_permutation",
]

# From this n on, a sweep takes long enough (S_7: about 17 s of CPU) that
# verify_all prints one progress line per chunk on stderr.
_PROGRESS_MIN_N = 7


def component_pairs(n: int) -> Iterator[tuple[Permutation, Component]]:
    """All pairs (w, component of w) over the whole symmetric group."""
    for values in permutations(range(1, n + 1)):
        w = Permutation(values)
        for c in enumerate_components(w):
            yield w, c


def _formulas(c: Component, w: Permutation, trials: int, seed: int) -> tuple[dict, list]:
    ok = verify_formulas(c, w)
    failed = [] if ok else [("formulas", f"type {c.ctype} double equalities fail")]
    return {"formulas_ok": ok}, failed


def _kl(c: Component, w: Permutation, trials: int, seed: int) -> tuple[dict, list]:
    closed, recursion = list(c.kl_closed_form()), list(kl_recursion(c.v, w))
    ok = closed == recursion
    fields = {"kl_closed": closed, "kl_recursion": recursion, "kl_ok": ok}
    return fields, [] if ok else [("kl", f"closed form {closed} != recursion {recursion}")]


def _slice(c: Component, w: Permutation, trials: int, seed: int) -> tuple[dict, list]:
    try:
        verdict = verify_slice(build_slice(c, w), trials=trials, seed=seed)
    except SliceStructureError as exc:
        fields = {"slice_ok": False, "slice_failures": [], "slice_error": str(exc)}
        return fields, [("slice-structure", str(exc))]
    failures = list(verdict.failures)
    fields = {"slice_ok": verdict.ok, "slice_failures": failures, "slice_error": None}
    return fields, [] if verdict.ok else [("slice", "; ".join(failures))]


# The checks run on each component, in witness order.  Each returns the
# fields it adds to the component's record entry and its (check, detail)
# failure witnesses.
_COMPONENT_CHECKS = (_formulas, _kl, _slice)


def _verify(w: Permutation, trials: int, seed: int) -> tuple[dict, list[dict]]:
    """The record of w and its failure witnesses (w, v, check, detail)."""
    name = format_permutation(w)
    smooth_pattern = is_smooth(w)
    classified = enumerate_components(w)
    # A finite singular set is empty iff it has no maximal elements.
    smooth_tangent = not classified
    rows = []
    if smooth_pattern != smooth_tangent:
        rows.append((None, "smoothness", f"pattern {smooth_pattern}, tangent {smooth_tangent}"))
    components = []
    for c in classified:
        entry = c.json_fields()
        for check in _COMPONENT_CHECKS:
            fields, failed = check(c, w, trials, seed)
            entry.update(fields)
            rows += [(entry["v"], *row) for row in failed]
        components.append(entry)
    witnesses = [{"w": name, "v": v, "check": check, "detail": d} for v, check, d in rows]
    record = {
        "w": name,
        "length": w.length,
        "smooth_pattern": smooth_pattern,
        "smooth_tangent": smooth_tangent,
        "components": components,
        "ok": not witnesses,
    }
    return record, witnesses


def verify_permutation(
    w: Permutation,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Every cross-check for a single w, as a JSON-ready record.

    ``trials < 1`` would check no slice and raises ``ValueError`` before any
    work.
    """
    check_trials(trials)
    return _verify(w, trials, seed)[0]


class WorkerCrashError(RuntimeError):
    """A ``verify_all`` worker process died before returning its chunk."""


def _verify_chunk(args: tuple[int, int, int, int, int]) -> list[tuple[dict, list[dict]]]:
    n, lo, hi, trials, seed = args
    perms = islice(permutations(range(1, n + 1)), lo, hi)
    return [_verify(Permutation(p), trials, seed) for p in perms]


def _pool_map(jobs: int, tasks: list) -> Iterator[list[tuple[dict, list[dict]]]]:
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
) -> dict:
    """Sweep all of S_n and aggregate counters plus failure witnesses.

    S_n is cut into the same chunks whatever ``jobs`` is, so the report and,
    for n >= 7, the progress lines on stderr (one per chunk) do not depend
    on it.  With ``jobs > 1`` a dead worker raises :class:`WorkerCrashError`.
    ``trials < 1`` would check no slice, and ``symmetric_group`` refuses an n
    out of its range: both raise ``ValueError`` before any work.
    """
    check_trials(trials)
    # Built first, so that an n out of range is refused before any task or worker exists.
    total = symmetric_group(n).order
    step = max(1, total // 40)
    tasks = [(n, lo, min(lo + step, total), trials, seed) for lo in range(0, total, step)]
    parts = map(_verify_chunk, tasks) if jobs == 1 else _pool_map(jobs, tasks)

    by_type: dict[str, int] = {}
    witnesses: list[dict] = []
    smooth_count = 0
    done = 0
    for part in parts:
        for record, found in part:
            smooth_count += record["smooth_pattern"] and record["smooth_tangent"]
            for entry in record["components"]:
                by_type[entry["type"]] = by_type.get(entry["type"], 0) + 1
            witnesses += found
        done += len(part)
        if n >= _PROGRESS_MIN_N:
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
