"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload join_mix --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` and the metric names and units come from ``BENCHMARK.json``.
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
measures the per-layer metrics from a traced run.  Human-readable lines
come first; the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Two clocks are reported.  ``host_*`` and ``setup_s`` are host
wall-clock: what the Python/numpy program costs to run.  A shared host
changes speed from minute to minute, so after every block of steps (a
direct workload's rotation, ``block`` arrivals when served) the run
also times a fixed ``Reference`` computation.  The reported
``host_p50_ref``, ``host_p90_ref`` and ``host_mrows_per_ref`` are the
host figures in units of its median time; ``host_ms_p50``,
``host_ms_p90``, ``host_mrows_per_s`` and ``reference_ms`` are printed
beside them.  ``sim_*`` and ``slo_frac`` are simulated seconds, the
reproduction's output, which must repeat exactly for a seed: the run
fails (exit code 1) if they do not, if a wrapped layer name is gone, or
if a layer shows no calls on a workload that should exercise it.  A
wrong query output is counted in ``failed`` and makes ``correct``
false, but does not stop the run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class BenchmarkError(RuntimeError):
    """The benchmark cannot vouch for its numbers."""


def _percentiles(values: List[float], *qs: float) -> List[float]:
    return [float(np.percentile(np.asarray(values, dtype=float), q)) for q in qs]


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Reference:
    """A fixed computation that stands for the machine's speed.

    Its inputs never change, so its host time moves only with the
    machine: a shared host runs the same work up to half again slower
    in some minutes than in others.  Host costs divided by it stay
    comparable across runs made at different times.  It mixes what the
    program spends its time on: a stable radix argsort, gathers, a
    bincount, a searchsorted and an interpreted loop."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.keys = rng.integers(0, 1 << 30, size=1 << 17, dtype=np.int32)
        self.values = rng.integers(0, 1000, size=1 << 17, dtype=np.int32)

    def seconds(self) -> float:
        start = perf_counter()
        order = np.argsort(self.keys, kind="stable")
        ordered = self.keys[order]
        np.bincount(self.keys & 0xFFFF, weights=self.values[order])
        np.searchsorted(ordered, self.keys[::4])
        total = 0
        for x in range(5000):
            total += x
        return perf_counter() - start


class Run:
    """One workload at one seed: data and oracles, set-up, measurement."""

    def __init__(self, workload: str, seed: int, scale: float = 1.0):
        import workloads

        self.workloads = workloads
        self.name = workload
        self.params = workloads.PARAMS["workloads"][workload]
        self.served = "rate_qps" in self.params
        # Data generation and oracle digests: before set-up, untimed.
        self.build = workloads.WORKLOADS[workload](seed, scale)
        self.errors: List[str] = []

    def _warmup_steps(self, instance) -> int:
        return self.params["warmup_arrivals"] if self.served else instance.rotation

    def setup(self, keep: int):
        """Set up ``setup_repeats`` times: construction, ``register()``
        and one warm-up pass, host-timed.  Returns (median seconds, the
        last *keep* instances).  Every warm-up pass of one seed must make
        the same program outcomes: the same-seed determinism check."""
        times, records, kept = [], [], []
        for _ in range(self.workloads.PARAMS["setup_repeats"]):
            # Drop earlier instances first, so at most `keep` coexist.
            kept = kept[-(keep - 1):] if keep > 1 else []
            instance = steps = None
            gc.collect()
            start = perf_counter()
            instance = self.build()
            construct = perf_counter() - start
            steps = [instance.step(i) for i in range(self._warmup_steps(instance))]
            times.append(construct + sum(s.host_s for s in steps))
            counters = instance.counters() if self.served else {}
            records.append(_digest(*[s.record for s in steps], counters))
            self.errors += [e for s in steps for e in s.errors]
            if not self.served:
                self.rotation_sim = [s.sim_s for s in steps]
            kept.append(instance)
        if len(set(records)) != 1:
            raise BenchmarkError(f"warm-up passes of one seed differ: {records}")
        self.warmup_record = records[0]
        return statistics.median(times), kept

    # -- end-to-end -----------------------------------------------------------

    def measure(self, seconds: float, corrupt_step: int = -1) -> dict:
        setup_s, (instance,) = self.setup(keep=1)
        first = self._warmup_steps(instance)
        sim_end = first + self.params.get("sim_arrivals", 0)
        size = self.params["block"] if self.served else instance.rotation
        reference = Reference()
        timed, reference_s = [], []
        i = first
        start = perf_counter()
        while True:
            timed.append(instance.step(i, corrupt=(i == corrupt_step)))
            i += 1
            # Whole blocks only: every call of a rotation weighs the same.
            if (i - first) % size:
                continue
            reference_s.append(reference.seconds())
            if perf_counter() - start < seconds:
                continue
            # The simulated window must be complete: its outcomes are
            # then the same in every run of the seed.
            if not self.served or all(
                q in instance.finished for q in range(first, sim_end)
            ):
                break
        steps = timed + ([instance.drain()] if self.served else [])
        if not self.served:
            for k, step in enumerate(timed):
                expected = self.rotation_sim[k % instance.rotation]
                if step.sim_s is not None and step.sim_s != expected:
                    raise BenchmarkError(
                        f"step {first + k} simulated {step.sim_s!r} s, "
                        f"the same call in the warm-up {expected!r} s"
                    )

        metrics: Dict[str, float] = {}
        host_ms = [s.host_s * 1e3 for s in timed]
        metrics["host_ms_p50"], metrics["host_ms_p90"] = _percentiles(host_ms, 50, 90)
        metrics["host_mrows_per_s"] = (
            sum(s.rows for s in timed) / sum(s.host_s for s in timed) / 1e6
        )
        # The same figures in units of the reference computation.
        ref_s = statistics.median(reference_s)
        metrics["reference_ms"] = ref_s * 1e3
        metrics["host_p50_ref"] = metrics["host_ms_p50"] / metrics["reference_ms"]
        metrics["host_p90_ref"] = metrics["host_ms_p90"] / metrics["reference_ms"]
        metrics["host_mrows_per_ref"] = metrics["host_mrows_per_s"] * ref_s
        limit_s = self.params["sim_latency_limit_ms"] / 1e3
        if self.served:
            window = [instance.finished[q] for q in range(first, sim_end)]
            done = [f for f in window if f.status == "completed"]
            latencies = [f.finish_s - f.arrival_s for f in done]
            # The window opens with its first arrival block, not with
            # the first arrival drawn in it.
            opens = first / self.params["rate_qps"]
            metrics["sim_qps"] = len(done) / (max(f.finish_s for f in done) - opens)
            samples = len(window)
        else:
            latencies = list(self.rotation_sim)
            metrics["sim_qps"] = len(latencies) / sum(latencies)
            samples = len(latencies)
        # Rejected, cancelled and failed queries count as misses.
        metrics["slo_frac"] = sum(1 for v in latencies if v <= limit_s) / samples
        p50, p90 = _percentiles(latencies, 50, 90)
        metrics["sim_ms_p50"], metrics["sim_ms_p90"] = p50 * 1e3, p90 * 1e3
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )

        updates = [s.update_host_s for s in timed if s.update_host_s is not None]
        failures = [e for s in steps for e in s.errors]
        attempted = len(timed) + len(updates)
        checked = sum(s.checked for s in steps)
        self.errors += failures
        info = {
            "queries": len(timed),
            "blocks": f"{len(reference_s)} of {size} steps",
            "updates": len(updates),
            "error_frac": len(failures) / attempted,
            "oracle.checked": checked,
            "oracle.ordered_frac": _ratio(sum(s.ordered for s in steps), checked),
            "host_update_ms_p50": (
                statistics.median(updates) * 1e3 if updates else None
            ),
            "sim_samples": samples,
            "determinism": _digest(
                self.warmup_record,
                [metrics[k] for k in ("sim_ms_p50", "sim_ms_p90", "sim_qps", "slo_frac")],
            ),
        }
        return self._result(metrics, attempted, len(failures), info, "end_to_end")

    # -- per layer ------------------------------------------------------------

    def trace(self, seconds: float, spans_path: Path) -> dict:
        """Blocks of the same steps in lockstep: instance A untraced,
        instance B traced.  Their outcomes must match; their host times
        give the tracing overhead."""
        from spans import TIME_METRICS, Tracer

        _, (a, b) = self.setup(keep=2)
        first = self._warmup_steps(a)
        length = self.params["trace_block"] if self.served else a.rotation
        tracer = Tracer()
        b.tracer = tracer
        before = b.counters() if self.served else {}
        finished_before = set(b.finished) if self.served else set()
        a_steps, b_steps = [], []
        counts = None
        i = first
        start = perf_counter()
        while counts is None or perf_counter() - start < seconds:
            block_a = [a.step(j) for j in range(i, i + length)]
            try:
                tracer.install()
                block_b = [b.step(j) for j in range(i, i + length)]
            finally:
                tracer.uninstall()
            if [s.record for s in block_a] != [s.record for s in block_b]:
                raise BenchmarkError(f"block at step {i}: traced and untraced differ")
            a_steps += block_a
            b_steps += block_b
            if counts is None:
                counts = self._first_block_counts(tracer, b, before, finished_before)
            i += length
        untraced = sum(s.host_s + (s.update_host_s or 0.0) for s in a_steps)
        traced = sum(s.host_s + (s.update_host_s or 0.0) for s in b_steps)
        self.errors += [e for s in a_steps + b_steps for e in s.errors]

        self_s = tracer.self_seconds()
        if sum(self_s.values()) > traced:
            raise BenchmarkError(
                f"span self times sum to {sum(self_s.values())} s, more than "
                f"the traced wall time {traced} s"
            )
        self._check_layers(tracer.calls())
        metrics = {
            name: 1e3 * sum(self_s.get(label, 0.0) for label in labels) / len(b_steps)
            for name, labels in TIME_METRICS.items()
        }
        metrics.update(counts)
        updates = [s.update_host_s for s in a_steps if s.update_host_s is not None]
        metrics["serve.update_ms_p50"] = (
            statistics.median(updates) * 1e3 if updates else 0.0
        )
        metrics["obs.trace_overhead_frac"] = traced / untraced - 1.0
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        info = {
            "traced_steps": len(b_steps),
            "traced_s": traced,
            "untraced_s": untraced,
            "self_s_sum": sum(self_s.values()),
            "spans": len(tracer.spans),
            "spans_file": str(spans_path),
            "counts_digest": _digest(sorted(counts.items())),
        }
        failed = sum(len(s.errors) for s in b_steps)
        return self._result(metrics, len(b_steps), failed, info, "per_layer")

    def _first_block_counts(self, tracer, b, before, finished_before) -> Dict[str, float]:
        """Program-made counts over the first traced block: the same work
        in every run of a seed, so these repeat exactly."""
        counts = {
            "joins.match.calls": tracer.calls().get("joins.match", 0),
            "gpusim.kernels": tracer.kernels,
            "gpusim.pool.hit_ratio": _ratio(
                tracer.pool_hits, tracer.pool_hits + tracer.pool_misses
            ),
            "faults.retries": tracer.retries,
        }
        after = b.counters() if self.served else {}

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        counts["serve.result_cache.hit_ratio"] = _ratio(
            delta("serve.result_cache_hits"),
            delta("serve.result_cache_hits") + delta("serve.result_cache_misses"),
        )
        counts["serve.plan_cache.hit_ratio"] = _ratio(
            delta("serve.plan_cache_hits"),
            delta("serve.plan_cache_hits") + delta("serve.plan_cache_misses"),
        )
        counts["serve.invalidated_entries"] = delta("serve.invalidated_entries")
        waits = [
            f.admitted_s - f.arrival_s
            for q, f in getattr(b, "finished", {}).items()
            if q not in finished_before and f.status == "completed"
        ]
        counts["serve.queue_wait_ms_mean"] = (
            1e3 * statistics.fmean(waits) if waits else 0.0
        )
        counts["tier.hit_ratio"] = _ratio(
            delta("tier.hit_bytes"), delta("tier.hit_bytes") + delta("tier.miss_bytes")
        )
        counts["tier.admitted_mb"] = delta("tier.admitted_bytes") / 1e6
        counts["tier.evictions"] = delta("tier.evictions")
        return counts

    def _check_layers(self, calls: Dict[str, int]) -> None:
        from spans import TIME_METRICS

        labels = dict(TIME_METRICS, **{"joins.match.calls": ("joins.match",),
                                        "gpusim.kernels": ("gpusim.submit",)})
        layers = self.workloads.PARAMS["per_layer"]["metrics"]
        for metric, spans in labels.items():
            seen = sum(calls.get(label, 0) for label in spans)
            if self.name in layers[metric]["exercised_by"] and seen == 0:
                raise BenchmarkError(f"{metric}: no calls on {self.name}")
            if self.name in layers[metric].get("zero_on", ()) and seen:
                raise BenchmarkError(f"{metric}: {seen} calls on {self.name}")

    def _result(self, metrics, attempted, failed, info, kind) -> dict:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
        names = {m["name"] for m in declared}
        # Metrics BENCHMARK.json does not declare are printed, not reported.
        info = dict(info, **{k: v for k, v in metrics.items() if k not in names})
        return {
            "correct": not self.errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in declared
            },
            "info": info,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply the workload's row counts (the self-test runs tiny)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        run = Run(args.workload, args.seed, args.scale)
        if args.trace:
            out = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}.spans.json"
            result = run.trace(args.seconds, out)
        else:
            result = run.measure(args.seconds)
    except BenchmarkError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for error in run.errors[:20]:
        print(f"error: {error}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in result.pop("info").items():
        print(f"{name}: {value}")
    print(f"oracle: {'all outputs correct' if result['correct'] else 'MISMATCH'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
