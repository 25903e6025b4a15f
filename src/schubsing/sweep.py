"""Exhaustive verification sweeps over whole symmetric groups.

For every w the sweep cross-checks each independent characterization against
the others: pattern smoothness against the tangent-space oracle, component
type formulas against counted dimensions, closed-form Kazhdan-Lusztig
polynomials against the recursion, and slice equation models against exact
membership sampling.  A report is a plain dict ready for JSON output.
"""

from __future__ import annotations

import sys
from multiprocessing import Pool
from typing import Iterable, Iterator

from .components import Component, enumerate_components, verify_formulas
from .kl import kl_closed_form, kl_recursion
from .patterns import is_smooth
from .perms import Permutation, format_permutation, length
from .slices import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    SliceStructureError,
    build_slice,
    verify_slice,
)
from .symgroup import symmetric_group
from .tangent import singular_points

__all__ = [
    "component_pairs",
    "is_smooth_tangent",
    "verify_all",
    "verify_permutation",
]


def is_smooth_tangent(w: Permutation) -> bool:
    """Smoothness decided by tangent dimensions alone: no singular points."""
    return not singular_points(w)


def component_pairs(n: int) -> Iterator[tuple[Permutation, Component]]:
    """All pairs (w, component of w) over the whole symmetric group."""
    group = symmetric_group(n)
    for values in group.perms:
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
    ok = smooth_pattern == smooth_tangent
    for c in classified:
        entry = c.json_fields()
        entry["formulas_ok"] = verify_formulas(c, w)
        closed = kl_closed_form(c)
        recursion = kl_recursion(c.v, w)
        entry["kl_closed"] = list(closed)
        entry["kl_recursion"] = list(recursion)
        entry["kl_ok"] = closed == recursion
        try:
            model = build_slice(c, w)
            verdict = verify_slice(c, w, trials=trials, seed=seed, model=model)
            entry["slice_ok"] = verdict.ok
            entry["slice_failures"] = list(verdict.failures)
            entry["slice_error"] = None
        except SliceStructureError as exc:
            entry["slice_ok"] = False
            entry["slice_failures"] = []
            entry["slice_error"] = str(exc)
        ok = ok and entry["formulas_ok"] and entry["kl_ok"] and entry["slice_ok"]
        components.append(entry)
    return {
        "w": format_permutation(w),
        "length": length(w),
        "smooth": smooth_pattern,
        "smooth_pattern": smooth_pattern,
        "smooth_tangent": smooth_tangent,
        "components": components,
        "ok": ok,
    }


def _record_failures(record: dict) -> list[dict]:
    """Failure witnesses (w, v, check, detail) extracted from one record."""
    failures = []
    if record["smooth_pattern"] != record["smooth_tangent"]:
        failures.append(
            {
                "w": record["w"],
                "v": None,
                "check": "smoothness",
                "detail": f"pattern {record['smooth_pattern']}, "
                f"tangent {record['smooth_tangent']}",
            }
        )
    for entry in record["components"]:
        if not entry["formulas_ok"]:
            failures.append(
                {
                    "w": record["w"],
                    "v": entry["v"],
                    "check": "formulas",
                    "detail": f"type {entry['type']} double equalities fail",
                }
            )
        if not entry["kl_ok"]:
            failures.append(
                {
                    "w": record["w"],
                    "v": entry["v"],
                    "check": "kl",
                    "detail": f"closed form {entry['kl_closed']} "
                    f"!= recursion {entry['kl_recursion']}",
                }
            )
        if entry["slice_error"] is not None:
            failures.append(
                {
                    "w": record["w"],
                    "v": entry["v"],
                    "check": "slice-structure",
                    "detail": entry["slice_error"],
                }
            )
        elif not entry["slice_ok"]:
            failures.append(
                {
                    "w": record["w"],
                    "v": entry["v"],
                    "check": "slice",
                    "detail": "; ".join(entry["slice_failures"]),
                }
            )
    return failures


def _verify_chunk(args: tuple[int, int, int, int, int]) -> list[dict]:
    n, lo, hi, trials, seed = args
    group = symmetric_group(n)
    return [
        verify_permutation(Permutation(group.perms[i]), trials=trials, seed=seed)
        for i in range(lo, hi)
    ]


def verify_all(
    n: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    progress: bool = False,
    keep_records: bool = False,
) -> dict:
    """Sweep all of S_n and aggregate counters plus failure witnesses."""
    group = symmetric_group(n)
    total = len(group.perms)
    records: list[dict] = []
    if jobs <= 1:
        step = max(1, total // 40)
        for i in range(total):
            records.append(
                verify_permutation(
                    Permutation(group.perms[i]), trials=trials, seed=seed
                )
            )
            if progress and ((i + 1) % step == 0 or i + 1 == total):
                print(f"  {i + 1}/{total} permutations", file=sys.stderr, flush=True)
    else:
        chunk = max(1, total // (jobs * 8))
        tasks = [
            (n, lo, min(lo + chunk, total), trials, seed)
            for lo in range(0, total, chunk)
        ]
        done = 0
        with Pool(jobs) as pool:
            for part in pool.imap(_verify_chunk, tasks):
                records.extend(part)
                done += len(part)
                if progress:
                    print(
                        f"  {done}/{total} permutations", file=sys.stderr, flush=True
                    )

    by_type: dict[str, int] = {}
    witnesses: list[dict] = []
    smooth_count = 0
    component_count = 0
    for record in records:
        if record["smooth_pattern"] and record["smooth_tangent"]:
            smooth_count += 1
        component_count += len(record["components"])
        for entry in record["components"]:
            by_type[entry["type"]] = by_type.get(entry["type"], 0) + 1
        witnesses.extend(_record_failures(record))

    report = {
        "n": n,
        "trials": trials,
        "seed": seed,
        "summary": {
            "permutations_checked": total,
            "smooth_count": smooth_count,
            "singular_count": total - smooth_count,
            "component_pairs": component_count,
            "components_by_type": dict(sorted(by_type.items())),
        },
        "failures": len(witnesses),
        "failure_witnesses": witnesses,
        "ok": not witnesses,
    }
    if keep_records:
        report["records"] = records
    return report
