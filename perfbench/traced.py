"""Run one schubsing command with every public layer function wrapped in a span.

Usage:  python3 perfbench/traced.py STATS_JSON -- <schubsing arguments>

The wrappers are installed from outside the package: every module attribute
(and the one class attribute) bound to a traced function is replaced, because
the modules import each other's functions by name.  Each wrapper counts calls
and accumulates inclusive and self time (its own duration minus the time of
the traced calls it made).  At exit the process writes its totals to
STATS_JSON.  Only this process is traced, not ``--jobs`` pool workers.  The
exit code is the command's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute) pairs; "Class.method" names a method.
TRACED = (
    ("patterns", "is_smooth"),
    ("symgroup", "symmetric_group"),
    ("symgroup", "SymmetricGroup.lower_mask"),
    ("symgroup", "SymmetricGroup.interval"),
    ("symgroup", "SymmetricGroup.tangent_counts"),
    ("tangent", "singular_points"),
    ("tangent", "singular_components"),
    ("tangent", "tangent_dimension"),
    ("components", "enumerate_components"),
    ("components", "classify_component"),
    ("components", "verify_formulas"),
    ("kl", "kl_recursion"),
    ("slices", "build_slice"),
    ("slices", "determinantal_model"),
    ("slices", "verify_slice"),
    ("slices", "sample_cone"),
    ("slices", "embed_point"),
    ("slices", "in_schubert"),
    ("linalg", "poly_eval"),
    ("linalg", "matrix_rank"),
    ("linalg", "sym_det"),
    ("perms", "rank_table"),
    ("perms", "bruhat_leq"),
    ("sweep", "verify_permutation"),
    ("sweep", "verify_all"),
    ("cli", "main"),
)


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a traced function: ``<module>.<function>``."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Per-process call counts and inclusive/self nanoseconds per span."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.incl_ns: dict[str, int] = {}
        self.active: dict[str, int] = {}
        self.child_ns: list[int] = []  # traced time spent under each open span
        self.masks: set[tuple[int, int]] = set()

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            depth = tracer.active.get(name, 0)
            tracer.active[name] = depth + 1
            tracer.child_ns.append(0)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                under = tracer.child_ns.pop()
                tracer.self_ns[name] = tracer.self_ns.get(name, 0) + dt - under
                if tracer.child_ns:
                    tracer.child_ns[-1] += dt
                tracer.active[name] = depth
                if depth == 0:  # recursion: count the outermost call only
                    tracer.incl_ns[name] = tracer.incl_ns.get(name, 0) + dt

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def snapshot(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "incl_s": {k: v / 1e9 for k, v in self.incl_ns.items()},
            "mask_distinct": len(self.masks),
        }


def install(tracer: Tracer) -> None:
    """Replace every binding of each traced function inside the package."""
    for module_name, _ in TRACED:
        importlib.import_module(f"schubsing.{module_name}")
    modules = [
        mod for key, mod in sys.modules.items()
        if key == "schubsing" or key.startswith("schubsing.")
    ]
    for module_name, attr in TRACED:
        module = importlib.import_module(f"schubsing.{module_name}")
        name = span_name(module_name, attr)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            wrapped = tracer.wrap(name, original)
            if meth == "lower_mask":
                wrapped = _count_masks(tracer, wrapped)
            setattr(cls, meth, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _count_masks(tracer: Tracer, wrapped):
    def lower_mask(self, wi):
        tracer.masks.add((self.n, wi))
        return wrapped(self, wi)

    return lower_mask


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py STATS_JSON -- <schubsing arguments>", file=sys.stderr)
        return 2
    stats_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from schubsing import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
