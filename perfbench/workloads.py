"""The four benchmark workloads, driven through public entry points only.

Each workload is an infinite, seeded sequence of steps.  A direct
workload (``join_mix``, ``groupby_sweep``) repeats a fixed rotation of
calls, one call per step.  A served workload (``serve_tiered``,
``serve_writes``) serves one open-loop arrival per step: ``submit`` then
``run(until_s=arrival)``, which processes every event up to that
arrival.  Step ``i`` is the same work in every run with the same seed,
so two instances built from one seed stay in lockstep.

Only the program call is host-timed.  Output checks run after the clock
stops, against digests of the oracles computed before set-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.aggregation.base import AggSpec
from repro.bench.harness import PAPER_ROWS, make_setup
from repro.errors import ReproError
from repro.query.executor import QueryExecutor, execute
from repro.query.plan import Aggregate, Join, Scan
from repro.relational.validation import reference_groupby, reference_join
from repro.serve.server import QueryServer
from repro.tier import PlacementPolicy, TieredRuntime
from repro.workloads.generators import JoinWorkloadSpec, generate_join_workload
from repro.workloads.zipf import sample_zipf, zipf_cdf

from oracle import Digest, compare, digest

PARAMS = json.loads(Path(__file__).with_name("workloads.json").read_text())


@dataclass
class Step:
    """What one step did, for metrics and checks."""

    host_s: float = 0.0
    #: Input rows of the queries that completed during the step.
    rows: int = 0
    #: Simulated latency of direct calls (served queries report
    #: theirs through ``ServeInstance.finished``).
    sim_s: Optional[float] = None
    update_host_s: Optional[float] = None
    checked: int = 0
    ordered: int = 0
    errors: List[str] = field(default_factory=list)
    #: Program-made outcome of the step, folded into the lockstep record.
    record: tuple = ()


def _check(step: Step, label: str, expected: Digest, output, corrupt: bool) -> None:
    if corrupt:
        output = _corrupted(output)
    same, ordered = compare(expected, digest(output))
    step.checked += 1
    step.ordered += int(ordered)
    if not same:
        step.errors.append(f"{label}: output differs from the oracle")


def _corrupted(output):
    """A copy of *output* with one value changed (for the self-test)."""
    columns = dict(output.columns()) if hasattr(output, "columns") else dict(output)
    name = next(iter(columns))
    changed = np.array(columns[name], copy=True)
    changed[0] += 1
    columns[name] = changed
    return columns


def _timed(tracer, fn):
    """(fn(), host seconds); *tracer* records spans only inside."""
    if tracer is not None:
        tracer.enabled = True
    try:
        start = perf_counter()
        result = fn()
        return result, perf_counter() - start
    finally:
        if tracer is not None:
            tracer.enabled = False


class _Draws:
    """Seeded draws made one block at a time: element ``i`` is fixed by
    (seed, stream, i) and never depends on how far a run got."""

    def __init__(self, seed: int, stream: int, block: int, draw: Callable):
        self.seed, self.stream, self.block, self.draw = seed, stream, block, draw
        self._blocks: Dict[int, np.ndarray] = {}

    def __getitem__(self, i: int):
        b = i // self.block
        if b not in self._blocks:
            rng = np.random.default_rng([self.seed, self.stream, b])
            self._blocks[b] = self.draw(rng, b)
        return self._blocks[b][i % self.block]


# -- direct workloads ---------------------------------------------------------


@dataclass
class Call:
    label: str
    run: Callable[[], object]
    rows: int
    expected: Digest


class DirectInstance:
    """A closed-loop client repeating one rotation of calls."""

    def __init__(self, calls: List[Call]):
        self.calls = calls
        #: A spans.Tracer recording inside the timed call, or None.
        self.tracer = None

    @property
    def rotation(self) -> int:
        return len(self.calls)

    def step(self, i: int, corrupt: bool = False) -> Step:
        call = self.calls[i % len(self.calls)]
        step = Step(rows=call.rows)
        try:
            result, step.host_s = _timed(self.tracer, call.run)
        except ReproError as err:
            step.errors.append(f"{call.label}: {type(err).__name__}: {err}")
            step.record = (i, "error", type(err).__name__)
            return step
        step.sim_s = result.total_seconds
        step.record = (i, step.sim_s)
        _check(step, call.label, call.expected, result.output, corrupt)
        return step


def _join_data(params: dict, seed: int, scale: float):
    r_rows = max(256, int(params["r_rows"] * scale))
    s_rows = max(512, int(params["s_rows"] * scale))
    data = {}
    for k, (name, shape) in enumerate(sorted(params["datasets"].items())):
        data[name] = generate_join_workload(
            JoinWorkloadSpec(
                r_rows=r_rows,
                s_rows=s_rows,
                r_payload_columns=params["payload_columns"],
                s_payload_columns=params["payload_columns"],
                match_ratio=shape["match_ratio"],
                zipf_factor=shape["zipf_factor"],
                seed=seed * 1009 + k,
            )
        )
    return data


_FUSED_AGGS = (AggSpec("s1", "sum"), AggSpec("r1", "max"))


def join_mix(seed: int, scale: float = 1.0):
    """Make the workload's data and oracle digests from *seed* (untimed)
    and return the set-up function that builds one instance.  The other
    workload functions follow the same shape."""
    params = PARAMS["workloads"]["join_mix"]
    data = _join_data(params, seed, scale)
    setup = make_setup(max(64, int(params["s_rows"] * scale)) / PAPER_ROWS)
    group = params["fused_group_column"]
    joined = {name: reference_join(r, s) for name, (r, s) in data.items()}
    expected = {("join", name): digest(out) for name, out in joined.items()}
    for name, out in joined.items():
        aggs = {spec.column: spec.op for spec in _FUSED_AGGS}
        values = {column: out.column(column) for column in aggs}
        expected[("fused", name)] = digest(
            reference_groupby(out.column(group), values, aggs)
        )
    del joined
    # Where faults strike is part of the workload, like the rotation.
    fault_plan = repro.FaultPlan(
        seed=PARAMS["trace_seed"], kernel_fault_rate=params["kernel_fault_rate"]
    )

    def build() -> DirectInstance:
        executors = {
            "plain": QueryExecutor(device=setup.device, config=setup.config, seed=0),
            "shards": QueryExecutor(
                device=setup.device, config=setup.config, seed=0,
                shards=params["shards"],
            ),
            "faults": QueryExecutor(
                device=setup.device, config=setup.config, seed=0,
                fault_plan=fault_plan,
            ),
        }
        calls = []
        for mode, algorithm, dataset, kind in params["rotation"]:
            r, s = data[dataset]
            plan = Join(Scan(r), Scan(s), algorithm=algorithm)
            if kind == "fused":
                plan = Aggregate(plan, group_column=group, aggregates=_FUSED_AGGS)
            calls.append(
                Call(
                    label=f"{mode}:{kind}:{algorithm}:{dataset}",
                    run=lambda e=executors[mode], p=plan: e.execute(p),
                    rows=r.num_rows + s.num_rows,
                    expected=expected[(kind, dataset)],
                )
            )
        return DirectInstance(calls)

    return build


def groupby_sweep(seed: int, scale: float = 1.0):
    params = PARAMS["workloads"]["groupby_sweep"]
    rows = max(1024, int(params["rows"] * scale))
    setup = make_setup(rows / PAPER_ROWS)
    rng = np.random.default_rng([seed, 1])
    values = {
        f"v{i}": rng.integers(-(1 << 20), 1 << 20, size=rows, dtype=np.int32)
        for i in range(max(n for _, n in params["shapes"]))
    }
    keys = {}
    for card in params["group_cardinalities"]:
        for zipf in sorted({z for z, _ in params["shapes"]}):
            keys[card, zipf] = sample_zipf(card, rows, zipf, rng).astype(np.int32)
    ops = params["aggregates"]
    calls_spec = []
    expected: Dict[tuple, Digest] = {}
    for c, card in enumerate(params["group_cardinalities"]):
        for a, algorithm in enumerate(params["algorithms"]):
            zipf, width = params["shapes"][(c + a) % len(params["shapes"])]
            aggs = {f"v{i}": ops[i % len(ops)] for i in range(width)}
            if (card, zipf, width) not in expected:
                expected[card, zipf, width] = digest(
                    reference_groupby(
                        keys[card, zipf], {n: values[n] for n in aggs}, aggs
                    )
                )
            calls_spec.append((card, zipf, width, algorithm, aggs))

    def build() -> DirectInstance:
        calls = []
        for card, zipf, width, algorithm, aggs in calls_spec:
            key_column = keys[card, zipf]
            used = {n: values[n] for n in aggs if aggs[n] != "count"}
            calls.append(
                Call(
                    label=f"{algorithm}:g{card}:z{zipf:g}:v{width}",
                    run=lambda k=key_column, v=used, g=aggs, al=algorithm: repro.group_by(
                        k, v, g, algorithm=al, device=setup.device, seed=0
                    ),
                    rows=rows,
                    expected=expected[card, zipf, width],
                )
            )
        return DirectInstance(calls)

    return build


# -- served workloads ---------------------------------------------------------


@dataclass
class Template:
    name: str
    #: Builds the plan over the current relation versions.
    plan: Callable[[Dict[str, object]], object]
    relations: Tuple[str, ...]


@dataclass
class Finished:
    """One served query's outcome on the simulated clock."""

    status: str
    arrival_s: float
    admitted_s: float
    finish_s: float


class ServeInstance:
    """One QueryServer fed one open-loop arrival per step."""

    def __init__(self, params, server, templates, catalog, oracle):
        self.params = params
        self.server = server
        self.tracer = None
        self.templates = templates
        self.catalog = catalog  # name -> list of relation versions
        self.version = {name: 0 for name in catalog}
        for name, relations in catalog.items():
            server.register(name, relations[0])
        self.oracle = oracle
        self.rows_of = {
            t.name: sum(catalog[name][0].num_rows for name in t.relations)
            for t in templates
        }
        self.finished: Dict[int, Finished] = {}
        self._pending: Dict[int, tuple] = {}
        #: Corrupt the next completed output before checking it.
        self._corrupt = False
        self._seen = 0
        self.update_host_s: List[float] = []
        # The trace is part of the workload, the same for every --seed:
        # with seeded traces the tier placement and queueing diverge so
        # far between seeds that simulated quantiles say more about the
        # seed than about the program.
        seed = PARAMS["trace_seed"]
        block = params["block"]
        window = block / params["rate_qps"]
        # Per block of arrivals: Poisson arrival times conditioned on the
        # block's count (sorted uniforms in the block's window), and the
        # Zipf template mix by systematic sampling of its CDF (each
        # template floor or ceil of block * p times) in seeded order.
        self.arrival = _Draws(
            seed, 11, block,
            lambda rng, b: (b + np.sort(rng.random(block))) * window,
        )
        cdf = zipf_cdf(len(templates), params["template_zipf"])
        self.template = _Draws(
            seed, 12, block,
            lambda rng, b: rng.permutation(
                np.searchsorted(cdf, (np.arange(block) + rng.random()) / block)
            ),
        )
        self.tenants = params.get("tenants", ["default"])
        self.tenant = _Draws(
            seed, 13, block,
            lambda rng, b: rng.integers(0, len(self.tenants), block),
        )
        # Every ``update_every`` arrivals one relation is replaced, going
        # through all relations in a seeded order before repeating.
        self.update_every = params.get("update_every", 0)
        self.names = sorted(catalog)
        self.victim = _Draws(
            seed, 14, len(self.names),
            lambda rng, b: rng.permutation(len(self.names)),
        )

    def _plan(self, template: Template):
        current = {
            name: self.catalog[name][self.version[name]] for name in template.relations
        }
        return template.plan(current)

    def step(self, i: int, corrupt: bool = False) -> Step:
        template = self.templates[int(self.template[i])]
        versions = tuple(self.version[name] for name in template.relations)
        plan = self._plan(template)
        at = float(self.arrival[i])
        step = Step()
        self._corrupt |= corrupt
        tenant = self.tenants[int(self.tenant[i])]

        def serve():
            query = self.server.submit(plan, at_s=at, tag=template.name,
                                       tenant=tenant)
            self.server.run(until_s=at)
            return query

        try:
            query, step.host_s = _timed(self.tracer, serve)
        except ReproError as err:
            step.errors.append(f"{template.name}: {type(err).__name__}: {err}")
            step.record = (i, "error", type(err).__name__)
            return step
        self._pending[query] = (template, versions)
        if self.update_every and (i + 1) % self.update_every == 0:
            name = self.names[int(self.victim[i // self.update_every])]
            self.version[name] = (self.version[name] + 1) % len(self.catalog[name])
            replacement = self.catalog[name][self.version[name]]
            try:
                invalidated, step.update_host_s = _timed(
                    self.tracer, lambda: self.server.update(name, replacement)
                )
            except ReproError as err:
                step.errors.append(f"update {name}: {type(err).__name__}: {err}")
                invalidated = -1
            self.update_host_s.append(step.update_host_s or 0.0)
        else:
            invalidated = None
        step.record = (i, query, invalidated) + self._collect(step)
        return step

    def drain(self) -> Step:
        """Serve everything still queued or in flight (untimed)."""
        self.server.run()
        step = Step()
        self._collect(step)
        return step

    def _collect(self, step: Step) -> tuple:
        outcomes = self.server.outcomes
        new = outcomes[self._seen:]
        self._seen = len(outcomes)
        record = []
        for outcome in new:
            template, versions = self._pending.pop(outcome.query_id)
            self.finished[outcome.query_id] = Finished(
                outcome.status, outcome.arrival_s, outcome.admitted_s,
                outcome.finish_s,
            )
            record.append((outcome.query_id, outcome.status, outcome.finish_s))
            label = f"q{outcome.query_id}:{template.name}"
            if outcome.status != "completed":
                step.errors.append(f"{label}: {outcome.status}: {outcome.error}")
                continue
            step.rows += self.rows_of[template.name]
            _check(step, label, self.oracle(template, versions), outcome.output,
                   self._corrupt)
            self._corrupt = False
            # QueryServer keeps every outcome, output included; a client
            # that has consumed the output lets it go, so memory tracks
            # the working set rather than the length of the stream.
            outcome.output = outcome.result = None
        return tuple(record)

    def counters(self) -> Dict[str, float]:
        counters = dict(self.server.metrics.as_dict(derived=False))
        if self.server.tiering is not None:
            counters.update(
                {f"tier.{k}": v for k, v in self.server.tiering.stats().items()}
            )
        return counters


def _pairs(params: dict, seed: int, r_rows: int, s_rows: int, versions: int):
    """{name: [relation per version]} for pairs R<i>/S<i>."""
    catalog = {}
    for i in range(params["pairs"]):
        r_versions, s_versions = [], []
        for v in range(versions):
            r, s = generate_join_workload(
                JoinWorkloadSpec(
                    r_rows=r_rows, s_rows=s_rows,
                    r_payload_columns=1, s_payload_columns=1,
                    seed=seed * 7919 + 131 * i + v,
                )
            )
            r.name, s.name = f"R{i}", f"S{i}"
            r_versions.append(r)
            s_versions.append(s)
        catalog[f"R{i}"], catalog[f"S{i}"] = r_versions, s_versions
    return catalog


def _reference_oracle(setup, catalog, templates):
    """Digest of a plain execute() of each (template, versions), memoized;
    the first versions are computed now, later ones when first needed."""
    memo: Dict[tuple, Digest] = {}

    def oracle(template: Template, versions: tuple) -> Digest:
        key = (template.name, versions)
        if key not in memo:
            current = {
                name: catalog[name][v]
                for name, v in zip(template.relations, versions)
            }
            memo[key] = digest(
                execute(template.plan(current), device=setup.device,
                        config=setup.config, seed=0).output
            )
        return memo[key]

    for template in templates:
        oracle(template, (0,) * len(template.relations))
    return oracle


def serve_tiered(seed: int, scale: float = 1.0):
    params = PARAMS["workloads"]["serve_tiered"]
    setup = make_setup(params["scale"] * scale)
    fanout = params["s_fanout"]
    pair_bytes = params["dataset_multiple"] * setup.device.global_mem_bytes / params["pairs"]
    # int32 key + one int32 payload: 8 bytes per row on both sides.
    r_rows = max(256, int(pair_bytes / (8 * (1 + fanout))))
    catalog = _pairs(params, seed, r_rows, fanout * r_rows, 1)
    templates = []
    for i in range(params["pairs"]):
        templates.append(Template(
            f"join{i}",
            lambda c, i=i: Join(Scan(c[f"R{i}"], f"R{i}"), Scan(c[f"S{i}"], f"S{i}"),
                                algorithm="NPJ"),
            (f"R{i}", f"S{i}"),
        ))
        if i % 2 == 0:
            templates.append(Template(
                f"agg{i}",
                lambda c, i=i: Aggregate(
                    Scan(c[f"S{i}"], f"S{i}"), group_column="key",
                    aggregates=(AggSpec("s1", "sum"), AggSpec("s1", "max")),
                ),
                (f"S{i}",),
            ))
    oracle = _reference_oracle(setup, catalog, templates)

    def build() -> ServeInstance:
        runtime = TieredRuntime(
            device=setup.device,
            cpu_device=setup.cpu_device,
            segment_rows=params["segment_rows"],
            cache_fraction=params["cache_fraction"],
            amortize_admission=True,
            min_admit_weight=params["min_admit_weight"],
            policy=PlacementPolicy(
                hysteresis=params["hysteresis"],
                min_residency_ticks=params["min_residency_ticks"],
            ),
        )
        server = QueryServer(
            streams=params["streams"], device=setup.device, config=setup.config,
            seed=0, queue_depth=params["queue_depth"], tiering=runtime,
            enable_result_cache=False, mem_overhead=params["mem_overhead"],
        )
        return ServeInstance(params, server, templates, catalog, oracle)

    return build


def serve_writes(seed: int, scale: float = 1.0):
    params = PARAMS["workloads"]["serve_writes"]
    r_rows = max(256, int(params["r_rows"] * scale))
    s_rows = max(512, int(params["s_rows"] * scale))
    setup = make_setup(s_rows / PAPER_ROWS)
    catalog = _pairs(params, seed, r_rows, s_rows, params["versions"])
    templates = []
    for i in range(params["pairs"]):
        r, s = f"R{i}", f"S{i}"
        templates += [
            Template(f"join{i}",
                     lambda c, r=r, s=s: Join(Scan(c[r], r), Scan(c[s], s)), (r, s)),
            Template(f"joinagg{i}",
                     lambda c, r=r, s=s: Aggregate(
                         Join(Scan(c[r], r), Scan(c[s], s)), group_column="key",
                         aggregates=(AggSpec("s1", "sum"), AggSpec("r1", "max"))),
                     (r, s)),
            Template(f"agg{i}",
                     lambda c, s=s: Aggregate(
                         Scan(c[s], s), group_column="key",
                         aggregates=(AggSpec("s1", "sum"), AggSpec("s1", "max"))),
                     (s,)),
        ]
    oracle = _reference_oracle(setup, catalog, templates)

    def build() -> ServeInstance:
        server = QueryServer(
            streams=params["streams"], device=setup.device, config=setup.config,
            seed=0, queue_depth=params["queue_depth"],
        )
        return ServeInstance(params, server, templates, catalog, oracle)

    return build


WORKLOADS = {
    "join_mix": join_mix,
    "groupby_sweep": groupby_sweep,
    "serve_tiered": serve_tiered,
    "serve_writes": serve_writes,
}
