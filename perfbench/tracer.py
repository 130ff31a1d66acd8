"""Spans around calls into bergspace's public functions, from outside src/.

``Tracer.install`` replaces each target with a timing wrapper in every
bergspace namespace that binds it (``decomposition`` imports
``rough_numbers`` by name, ``cli`` imports ``norm_sq``, ...), so calls are
caught whichever module makes them. A span is [name, start, end, parent,
job]; spans stay in memory until ``dump`` writes them out. A target that no
longer exists raises ``TracerError`` instead of silently dropping a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# Public functions and methods timed per module, as "<module>.<qualname>".
TARGETS = (
    "cli.dispatch",
    "cli.emit",
    "primes.bertrand_witness",
    "primes.prime_norm_partial",
    "primes.twin_prime_norm_partial",
    "primes.euler_product_smooth",
    "primes.rough_numbers",
    "primes.smooth_numbers",
    "primes.make_partition",
    "rational.sum_fractions",
    "series.norm_sq",
    "series.inner_product",
    "series.add",
    "series.compose_power",
    "series.truncate",
    "series.SparseSeries.from_exponents",
    "decomposition.geometric_partition",
    "decomposition.rough_dedup",
    "decomposition.step_one_norm_bound",
    "decomposition.step_two_norm_bound",
    "decomposition.rough_tail_geometric_bound",
    "decomposition.PartitionReport.block_sum",
    "decomposition.DedupReport.block_sum",
    "fta.root_disc_certificate",
    "fta.inner_disc_l2",
    "fta.reciprocal_taylor",
    "fta.bergman_projection_constant",
    "fta.ReciprocalExpansion.convolution_holds",
)


TRACER_EXIT = 70  # exit code of a traced child whose targets could not be wrapped


class TracerError(RuntimeError):
    """A traced name is gone, or a layer a workload claims recorded nothing."""


def _grid_nodes(args, kwargs, result):
    from bergspace.fta import QuadratureGrid

    grid = (args[2] if len(args) > 2 else kwargs.get("grid")) or QuadratureGrid()
    return {"fta.grid_nodes": grid.n_r * grid.n_theta}


# Exact work counts recorded at the same boundaries: target -> (args, kwargs,
# result) -> {count name: increment}.
COUNTERS = {
    "primes.rough_numbers": lambda a, k, r: {"primes.rough_numbers.items": len(r)},
    "rational.sum_fractions": lambda a, k, r: {"rational.sum_fractions.terms": len(a[0])},
    "series.norm_sq": lambda a, k, r: {"series.norm_sq.terms": len(a[0])},
    "decomposition.geometric_partition": lambda a, k, r: {"decomposition.blocks": len(r.blocks)},
    "decomposition.rough_dedup": lambda a, k, r: {"decomposition.blocks": 1 + len(r.g_blocks)},
    "fta.inner_disc_l2": _grid_nodes,
}
# Largest value seen rather than a sum.
MAXIMA = {
    "rational.sum_fractions": lambda a, k, r: {
        "rational.result_den_bits_max": r.denominator.bit_length()
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = 0

    def _wrap(self, name: str, fn):
        count, peak = COUNTERS.get(name), MAXIMA.get(name)
        # sum_fractions accepts any iterable; a list lets the counter see it.
        listify = name == "rational.sum_fractions"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if listify:
                args = (list(args[0]),) + args[1:]
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count:
                self.counts.update(count(args, kwargs, result))
            if peak:
                for key, value in peak(args, kwargs, result).items():
                    self.counts[key] = max(self.counts[key], value)
            return result

        return wrapper

    def install(self, targets: tuple[str, ...] = TARGETS) -> Tracer:
        for target in targets:
            module_name, *path = target.split(".")
            owner = importlib.import_module(f"bergspace.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(path[-1]) if owner is not None else None
            if raw is None:
                raise TracerError(
                    f"bergspace.{target} no longer exists; update perfbench/tracer.py"
                )
            if isinstance(owner, type):
                if isinstance(raw, staticmethod):
                    setattr(owner, path[-1], staticmethod(self._wrap(target, raw.__func__)))
                else:
                    setattr(owner, path[-1], self._wrap(target, raw))
                continue
            wrapped = self._wrap(target, raw)
            for name, module in list(sys.modules.items()):
                if name == "bergspace" or name.startswith("bergspace."):
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)
        return self

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, fh)


def span_totals(spans: list[list]) -> dict[str, list[float]]:
    """name -> [total_s, self_s, calls] over one process's spans.

    total_s skips spans nested inside a span of the same name, so recursion
    is not counted twice; self_s is a span's duration minus its children's.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list[float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, [0.0, 0.0, 0])
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row[0] += end - start
        row[1] += end - start - child_time[i]
        row[2] += 1
    return out
