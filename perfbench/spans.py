"""Outside-in per-layer spans: wrappers around each layer's public names.

Nothing inside ``src/`` records these spans.  :class:`Tracer` replaces
each target function or method with a wrapper at every name a caller
imports it under (``repro.joins.phj.match_positions`` as well as
``repro.joins.matching.match_positions``), records one span per call
with a link to its parent span, and restores the originals on
:meth:`Tracer.uninstall`.  A layer's self time is the time of its
spans minus the time of their child spans, so self times never sum to
more than the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: (span label, defining module, attribute path).  Every span label maps
#: to one per-layer time metric in ``TIME_METRICS``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("joins.match", "repro.joins.matching", "match_positions"),
    ("joins.plan", "repro.joins.planner", "recommend_join_algorithm"),
    ("joins.fused", "repro.joins.fused", "FusedJoinAggregate.run"),
    ("primitives.radix_partition", "repro.primitives.radix_partition", "radix_partition"),
    ("primitives.gather", "repro.primitives.gather", "gather"),
    ("primitives.sector_analysis", "repro.primitives.sector_analysis", "analyze_indices"),
    ("primitives.sort_pairs", "repro.primitives.sort_pairs", "sort_pairs"),
    ("primitives.group_identify", "repro.primitives.grouping", "group_identify"),
    ("primitives.hash_table", "repro.primitives.hash_table", "build_table"),
    ("primitives.hash_table", "repro.primitives.hash_table", "probe_table"),
    ("gpusim.submit", "repro.gpusim.context", "GPUContext.submit"),
    ("gpusim.submit_many", "repro.gpusim.context", "GPUContext.submit_many"),
    ("aggregation.group_by", "repro.aggregation.base", "GroupByAlgorithm.group_by"),
    ("aggregation.plan", "repro.aggregation.planner", "estimate_group_cardinality"),
    ("aggregation.plan", "repro.aggregation.planner", "recommend_groupby_algorithm"),
    ("cluster.shuffle", "repro.cluster.shuffle", "shuffle_columns"),
    ("cluster.sharded", "repro.cluster.sharded", "sharded_join"),
    ("faults.resilient", "repro.faults.recovery", "resilient_join"),
    ("faults.resilient", "repro.faults.recovery", "resilient_group_by"),
    ("query.execute", "repro.query.executor", "QueryExecutor.execute"),
    ("serve.loop", "repro.serve.server", "QueryServer.run"),
    ("serve.fingerprint", "repro.serve.cache", "relation_fingerprint"),
    ("serve.cache.get", "repro.serve.cache", "DependentLRU.get"),
    ("serve.cache.put", "repro.serve.cache", "DependentLRU.put"),
    ("serve.cache.invalidate", "repro.serve.cache", "DependentLRU.invalidate"),
    ("tier.run_join", "repro.tier.executor", "TieredRuntime.run_join"),
    ("tier.run_group_by", "repro.tier.executor", "TieredRuntime.run_group_by"),
    ("tier.place", "repro.tier.policy", "PlacementPolicy.choose_victims"),
    ("tier.place", "repro.tier.cache", "SegmentCache.admit"),
    ("tier.place", "repro.tier.cache", "SegmentCache.evict"),
)

#: Import sites that must still bind the wrapped function: the wrapper
#: only sees calls made through the names callers actually use.
REQUIRED_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.joins.phj", "match_positions", "repro.joins.matching"),
    ("repro.joins.narrow", "match_positions", "repro.joins.matching"),
    ("repro.joins.phj_bucket", "match_positions", "repro.joins.matching"),
)

#: Per-layer time metric -> span labels whose self time it sums.
TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "joins.match.ms": ("joins.match",),
    "joins.plan.ms": ("joins.plan",),
    "joins.fused.self_ms": ("joins.fused",),
    "primitives.radix_partition.ms": ("primitives.radix_partition",),
    "primitives.gather.self_ms": ("primitives.gather",),
    "primitives.sector_analysis.ms": ("primitives.sector_analysis",),
    "primitives.sort_pairs.ms": ("primitives.sort_pairs",),
    "primitives.group_identify.ms": ("primitives.group_identify",),
    "primitives.hash_table.ms": ("primitives.hash_table",),
    "gpusim.submit.ms": ("gpusim.submit", "gpusim.submit_many"),
    "aggregation.group_by.self_ms": ("aggregation.group_by",),
    "aggregation.plan.ms": ("aggregation.plan",),
    "cluster.shuffle.ms": ("cluster.shuffle",),
    "cluster.sharded.self_ms": ("cluster.sharded",),
    "faults.resilient.self_ms": ("faults.resilient",),
    "query.execute.self_ms": ("query.execute",),
    "serve.loop.self_ms": ("serve.loop",),
    "serve.fingerprint.ms": ("serve.fingerprint",),
    "serve.cache.get_ms": ("serve.cache.get",),
    "serve.cache.put_ms": ("serve.cache.put",),
    "serve.cache.invalidate_ms": ("serve.cache.invalidate",),
    "tier.run_join.self_ms": ("tier.run_join",),
    "tier.run_group_by.self_ms": ("tier.run_group_by",),
    "tier.place.ms": ("tier.place",),
}


class WrapError(RuntimeError):
    """A wrapped name no longer exists where the benchmark expects it."""


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, original) for ``module:path``."""
    # Modules are reached through sys.modules: the package attribute
    # ``repro.primitives.gather`` is the function, not the module.
    try:
        importlib.import_module(module_name)
        owner = sys.modules[module_name]
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        return owner, attr, owner.__dict__[attr]
    except (ImportError, AttributeError, KeyError) as err:
        raise WrapError(f"cannot wrap {module_name}.{path}: {err!r}") from err


class Tracer:
    """Spans (label, start, end, parent index) kept in memory."""

    def __init__(self):
        self.enabled = False
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.kernels = 0
        self.retries = 0
        self.pool_hits = 0
        self.pool_misses = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        for site, attr, home in REQUIRED_SITES:
            _, _, original = _resolve(home, attr)
            if sys.modules.get(site) is None:
                importlib.import_module(site)
            if getattr(sys.modules[site], attr, None) is not original:
                raise WrapError(f"{site}.{attr} no longer binds {home}.{attr}")
        for label, module_name, path in TARGETS:
            owner, attr, original = _resolve(module_name, path)
            wrapper = self._span_wrapper(label, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # A module-level function: patch every repro module that
            # bound it by name at import time, plus its home.
            for name, module in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and (
                    module is not None and module.__dict__.get(attr) is original
                ):
                    self._patch(module, attr, wrapper)
        self._count_wrapper("repro.gpusim.memory", "BufferPool.take", self._on_take)
        self._count_wrapper("repro.faults.plan", "FaultInjector.kernel_faults",
                            self._on_kernel_faults)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, label: str, fn: Callable) -> Callable:
        tracer = self
        spans, stack = self.spans, self._stack
        submit = label == "gpusim.submit"
        batch = label == "gpusim.submit_many"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if batch:
                # Materialize so the kernel count does not consume it.
                stats = list(args[1] if len(args) > 1 else kwargs.pop("stats_list"))
                args = (args[0], stats) + tuple(args[2:])
                tracer.kernels += len(stats)
            elif submit and not (parent >= 0 and spans[parent][0] == "gpusim.submit_many"):
                # submit_many falls back to per-kernel submit under a
                # fault plan; those kernels were counted by the batch.
                tracer.kernels += 1
            index = len(spans)
            spans.append([label, perf_counter(), 0.0, parent])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        return wrapper

    def _count_wrapper(self, module_name: str, path: str, on_result) -> None:
        owner, attr, original = _resolve(module_name, path)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if tracer.enabled:
                on_result(result)
            return result

        self._patch(owner, attr, wrapper)

    # The program's own counters: BufferPool.take bumps ``hits`` exactly
    # when it returns a buffer; kernel_faults returns the retries charged.
    def _on_take(self, result) -> None:
        if result is None:
            self.pool_misses += 1
        else:
            self.pool_hits += 1

    def _on_kernel_faults(self, result) -> None:
        self.retries += int(result)

    # -- reading --------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span label."""
        totals: Dict[str, float] = defaultdict(float)
        for label, start, end, parent in self.spans:
            duration = end - start
            totals[label] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[0]] += 1
        return dict(counts)

    def write(self, path) -> None:
        """All spans as JSON: [label, start_s, end_s, parent index]."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            json.dump(
                [[label, start - origin, end - origin, parent]
                 for label, start, end, parent in self.spans],
                out,
            )
