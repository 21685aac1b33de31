"""The benchmark's workloads, run against the public ``repro`` API.

Campaign workloads drive :func:`repro.sim.chaos.run_chaos_campaign` (the
entry ``repro chaos`` uses) over the 2-hop ego net of the generated corpus,
pruned by ``MinCoauthorshipTrust(2)``. Traffic is open-loop in simulated
time: the campaign issues one ``SCDN.access`` every ``request_interval_s``
whatever the outcome. In host time each campaign is a batch, so host cost
is reported as throughput at the stated campaign size.

A run measures two kinds of unit (a campaign, or a case-study sweep):

* the *probe* unit, seeded by the benchmark seed: a campaign the code was
  not tuned on, held to the same checks on every run. It runs first, so it
  also absorbs the process's first-unit warm-up (about a tenth slower).
* the *reference* unit, pinned by the corpus, deployment and campaign
  seeds. Its simulated figures are the Section V / VI figures a traced
  run reports, so they compare exactly between commits, and its host time
  gives ``ops_per_s``; it runs at least twice and must repeat bit for bit.

The Section V tail figures swing by a quarter between campaign seeds (for
example ``fetch_p99_s`` on ``churn`` and ``peer_offload`` on
``reads-tiered``), which no affordable number of pooled campaigns smooths;
pinning the reference unit is what makes them comparable.
"""

from __future__ import annotations

import gc
import statistics
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import SCDN, SCDNConfig, generate_corpus, run_case_study
from repro.casestudy.experiment import CaseStudyConfig
from repro.errors import AuthorizationError
from repro.obs import Registry
from repro.sim.chaos import ChaosConfig, run_chaos_campaign
from repro.social.ego import ego_corpus
from repro.social.trust import MinCoauthorshipTrust

from tracing import ROOT, Tracer, install_layers

# --- workload parameters ------------------------------------------------------

#: all 190 trusted members of the seed-42 ego net, 40 datasets x 2 segments,
#: a 10 h horizon
_CAMPAIGN = dict(horizon_s=36_000.0, members=190, datasets=40, segments_per_dataset=2)

CHURN = ChaosConfig(
    **_CAMPAIGN,
    corruption_rate_per_node_s=2e-5,
    partition_rate_s=2e-4,
    migration_enabled=True,
)
READS = ChaosConfig(
    **_CAMPAIGN,
    crash_rate_per_node_s=0.0,
    outage_rate_per_node_s=0.0,
    slowlink_rate_per_node_s=0.0,
    member_capacity_bytes=20_000_000,
    publish_before_join=True,
    request_interval_s=2.0,
)
READS_TIERED = replace(READS, plan_cache=True, peer_tier=True)

#: the paper's sweep (four placements x replica counts 1..10 x the three
#: trust subgraphs) at 10 runs per cell instead of 100, so that a run holds
#: several sweeps; community-node-degree still leads every subgraph at 10
#: replicas by more than 14 points on each of campaign seeds 1..40
CASE_STUDY = CaseStudyConfig(n_runs=10)
HIT_RATE_ALGORITHM = "community-node-degree"
HIT_RATE_REPLICAS = 10

#: how often a run sets up from scratch; ``setup_s`` is the median
SETUP_REPS = 3


@dataclass(frozen=True)
class Seeds:
    corpus: int
    deployment: int
    #: the reference unit's campaign (or case-study) seed
    campaign: int
    #: the benchmark seed: seeds the probe unit
    probe: int


# --- failure classification ---------------------------------------------------


@dataclass
class AccessTally:
    """``SCDN.access`` outcomes classified by the benchmark, not the harness.

    ``AuthorizationError`` is a policy refusal. Any other library error, a
    non-library exception, or a returned outcome with ``ok=False`` is a
    failure: a ``CatalogError`` raised by a bug must not pass as a denial.
    """

    segments_per_access: int
    calls: int = 0
    refused: int = 0
    failed_calls: int = 0
    raised: int = 0
    served_reads: int = 0
    failed_reads: int = 0
    fetch_s: List[float] = field(default_factory=list)

    def fingerprint(self) -> tuple:
        return (
            self.calls, self.refused, self.failed_calls, self.raised,
            self.served_reads, self.failed_reads, tuple(self.fetch_s),
        )


class Classifier:
    """Wraps ``SCDN.access`` for the whole run and tallies into ``tally``."""

    def __init__(self) -> None:
        self.tally: Optional[AccessTally] = None
        orig = SCDN.access
        classifier = self

        def access(net, author, dataset_id):
            tally = classifier.tally
            tally.calls += 1
            try:
                outcomes = orig(net, author, dataset_id)
            except AuthorizationError:
                tally.refused += 1
                raise
            except BaseException:
                # ReproError other than a refusal, or a bug
                tally.failed_calls += 1
                tally.raised += 1
                tally.failed_reads += tally.segments_per_access
                raise
            bad = False
            for outcome in outcomes:
                if outcome.ok:
                    tally.served_reads += 1
                    if outcome.source == "remote":
                        tally.fetch_s.append(outcome.duration_s)
                else:
                    tally.failed_reads += 1
                    bad = True
            if bad:
                tally.failed_calls += 1
            return outcomes

        self._orig = orig
        SCDN.access = access

    def close(self) -> None:
        SCDN.access = self._orig


# --- measured units -----------------------------------------------------------


@dataclass
class Unit:
    """One measured unit: a campaign, or a case-study sweep."""

    seed: int
    host_s: float
    ops: int
    #: exact simulated result; equal for equal seeds
    fingerprint: tuple
    failures: List[str]
    detail: object = None
    #: accesses the benchmark classifies as failed / refused (campaigns only)
    failed_ops: int = 0
    refused_ops: int = 0


_COUNTERS = (
    "alloc.plan_cache.hits",
    "alloc.plan_cache.misses",
    "alloc.plan_cache.invalidations",
    "peer.admitted",
    "peer.serves",
)


def _injects_faults(config: ChaosConfig) -> bool:
    return any(
        getattr(config, rate) > 0
        for rate in (
            "crash_rate_per_node_s", "outage_rate_per_node_s", "slowlink_rate_per_node_s",
            "corruption_rate_per_node_s", "partition_rate_s", "peer_leave_rate_s",
        )
    )


def _campaign_unit(
    graph, config: ChaosConfig, seeds: Seeds, campaign_seed: int,
    classifier: Classifier, tracer: Optional[Tracer],
) -> Unit:
    net = SCDN(graph, config=SCDNConfig(), seed=seeds.deployment, registry=Registry())
    tally = classifier.tally = AccessTally(config.segments_per_dataset)
    # start each unit from a clean heap, so that no unit pays for
    # collecting the garbage of the one before it
    gc.collect()
    t0 = perf_counter()
    if tracer is None:
        report = run_chaos_campaign(net, config, seed=campaign_seed)
    else:
        with tracer.span(ROOT):
            report = run_chaos_campaign(net, config, seed=campaign_seed)
    host_s = perf_counter() - t0
    classifier.tally = None
    snap = net.obs.snapshot()["counters"]
    counters = {k: int(snap[k]["value"]) if k in snap else 0 for k in _COUNTERS}

    failures = []
    if report.unhandled_exceptions:
        failures.append(f"unhandled_exceptions={report.unhandled_exceptions}")
    if report.corrupt_servable_after_repair:
        failures.append(
            f"corrupt_servable_after_repair={report.corrupt_servable_after_repair}"
        )
    if report.divergence_after_heal:
        failures.append(f"divergence_after_heal={report.divergence_after_heal}")
    if report.post_repair_redundancy < 0.99:
        failures.append(f"post_repair_redundancy={report.post_repair_redundancy:.4f} < 0.99")
    if tally.raised != report.denied - tally.refused + report.unhandled_exceptions:
        failures.append("raised accesses do not match the harness's tallies")
    if tally.raised and not _injects_faults(config):
        # nothing but a refusal may escape an access when no fault is injected
        failures.append(f"{tally.raised} accesses raised without an injected fault")
    failures = [f"campaign seed {campaign_seed}: {f}" for f in failures]
    return Unit(
        seed=campaign_seed,
        host_s=host_s,
        ops=tally.calls,
        fingerprint=(report.to_dict(), tally.fingerprint(), counters),
        failures=failures,
        detail=(report, tally, counters),
        failed_ops=tally.failed_calls,
        refused_ops=tally.refused,
    )


def _case_study_unit(corpus, seed_author, seed: int, tracer: Optional[Tracer]) -> Unit:
    gc.collect()  # as in _campaign_unit
    t0 = perf_counter()
    if tracer is None:
        result = run_case_study(corpus, seed_author, config=CASE_STUDY, seed=seed)
    else:
        with tracer.span(ROOT), tracer.span("casestudy.run"):
            result = run_case_study(corpus, seed_author, config=CASE_STUDY, seed=seed)
    host_s = perf_counter() - t0
    cells = sum(
        len(curve.replica_counts) * CASE_STUDY.n_runs
        for panel in result.subgraphs
        for curve in panel.curves.values()
    )
    failures = []
    for panel in result.subgraphs:
        best = panel.best_algorithm(HIT_RATE_REPLICAS)
        if best != HIT_RATE_ALGORITHM:
            failures.append(
                f"case-study seed {seed}: {best} beats {HIT_RATE_ALGORITHM} "
                f"on {panel.subgraph.name} at {HIT_RATE_REPLICAS} replicas"
            )
    fingerprint = tuple(
        (panel.subgraph.name, name, tuple(c.mean_hit_rate_pct.tolist()),
         tuple(c.std_hit_rate_pct.tolist()), tuple(c.mean_hops.tolist()))
        for panel in result.subgraphs
        for name, c in sorted(panel.curves.items())
    )
    return Unit(seed, host_s, cells, fingerprint, failures, detail=result)


# --- workloads ----------------------------------------------------------------


@dataclass
class Outcome:
    units: List[Unit]
    #: traced runs only: the probe and reference units, run untraced first
    untraced: List[Unit]
    failures: List[str]
    #: host-time metrics of the untraced run (traced runs compute
    #: per-layer metrics from the tracer instead)
    metrics: Dict[str, Tuple[float, str]]
    #: simulated Section V / VI figures of the reference unit that apply
    #: to this workload; deterministic for the pinned seeds
    sim: Dict[str, Tuple[float, str]]
    counters: Dict[str, int]
    params: dict


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _setup_campaign(seeds: Seeds, tracer: Optional[Tracer]):
    """One set-up: corpus, ego net, trust prune and a ready deployment."""
    t0 = perf_counter()
    with _span(tracer, "social.generate_corpus"):
        corpus, seed_author = generate_corpus(seed=seeds.corpus)
    with _span(tracer, "social.ego_corpus"):
        ego = ego_corpus(corpus, seed_author, hops=2)
    with _span(tracer, "social.trust.prune"):
        graph = MinCoauthorshipTrust(2).prune(ego, seed=seed_author).graph
    with _span(tracer, "scdn.init"):
        SCDN(graph, config=SCDNConfig(), seed=seeds.deployment, registry=Registry())
    return perf_counter() - t0, graph


def _setup_case_study(seeds: Seeds, tracer: Optional[Tracer]):
    t0 = perf_counter()
    with _span(tracer, "social.generate_corpus"):
        corpus = generate_corpus(seed=seeds.corpus)
    return perf_counter() - t0, corpus


def _graph_key(graph) -> tuple:
    return (tuple(sorted(graph.nodes())), graph.nx.number_of_edges())


def _rate(units: List[Unit]) -> float:
    return statistics.median(u.ops / u.host_s for u in units)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "campaign" or "case-study"
    config: object

    def params(self) -> dict:
        return {"kind": self.kind, **asdict(self.config)}

    def run(
        self,
        seeds: Seeds,
        import_s: float,
        seconds: float,
        classifier: Classifier,
        tracer: Optional[Tracer],
    ) -> Outcome:
        setup = _setup_campaign if self.kind == "campaign" else _setup_case_study
        failures: List[str] = []
        reps, made = [], []
        for _ in range(SETUP_REPS):
            dt, made_now = setup(seeds, tracer)
            reps.append(dt)
            made.append(made_now)
        if self.kind == "campaign":
            keys = {_graph_key(g) for g in made}
            graph = made[-1]

            def unit_fn(s: int, tr: Optional[Tracer]) -> Unit:
                return _campaign_unit(graph, self.config, seeds, s, classifier, tr)
        else:
            keys = {(len(c), sa, len(c.author_ids)) for c, sa in made}
            corpus, seed_author = made[-1]

            def unit_fn(s: int, tr: Optional[Tracer]) -> Unit:
                return _case_study_unit(corpus, seed_author, s, tr)
        if len(keys) != 1:
            failures.append("set-up is not deterministic: repeated set-ups differ")
        setup_s = import_s + statistics.median(reps)
        del made

        ref_seed = seeds.campaign
        untraced: List[Unit] = []
        units: List[Unit] = []
        if tracer is None:
            # the probe first, so that it also pays the process's first-unit
            # warm-up; then the reference, repeated until the run has lasted
            # ``seconds``
            t0 = perf_counter()
            units.append(unit_fn(seeds.probe, None))
            units[0].detail = None
            while len(units) < 3 or perf_counter() - t0 < seconds:
                units.append(unit_fn(ref_seed, None))
                # the figures come from the first reference; dropping the
                # other results keeps peak memory independent of how many
                # units a run fits
                if len(units) > 2:
                    units[-1].detail = None
            refs = units[1:]
            for u in refs[1:]:
                if u.fingerprint != refs[0].fingerprint:
                    u.failures.append(f"seed {u.seed}: simulated result changed on repeat")
        else:
            untraced = [unit_fn(seeds.probe, None), unit_fn(ref_seed, None)]
            install_layers(tracer)
            try:
                units = [unit_fn(ref_seed, tracer)]
            finally:
                tracer.unwrap_all()
            refs = units
            if units[0].fingerprint != untraced[1].fingerprint:
                units[0].failures.append(
                    f"seed {ref_seed}: tracing changed the simulated result"
                )
        for u in untraced + units:
            failures.extend(u.failures)

        ref = refs[0]
        metrics = {"setup_s": (setup_s, "s"), "ops_per_s": (_rate(refs), "ops/s")}
        counters: Dict[str, int] = {}
        if self.kind == "campaign":
            sim = self._campaign_figures(ref)
            counters = dict(ref.detail[2])
        else:
            hit_rate = statistics.fmean(
                p.curve(HIT_RATE_ALGORITHM).at(HIT_RATE_REPLICAS)
                for p in ref.detail.subgraphs
            )
            sim = {"hit_rate_pct": (hit_rate, "%")}
        return Outcome(units, untraced, failures, metrics, sim, counters, self.params())

    def _campaign_figures(self, ref: Unit):
        report, tally, _ = ref.detail
        fetch = np.asarray(tally.fetch_s, dtype=np.float64)
        served, failed = tally.served_reads, tally.failed_reads
        figures = {
            "availability": (served / (served + failed), "ratio"),
            "acceptance_rate": ((tally.calls - tally.refused) / tally.calls, "ratio"),
            "fetch_p50_s": (float(np.percentile(fetch, 50)), "sim_s"),
            "fetch_p99_s": (float(np.percentile(fetch, 99)), "sim_s"),
            "redundancy": (report.post_repair_redundancy, "ratio"),
        }
        if self.config.peer_tier:
            figures["peer_offload"] = (report.peer_offload_ratio, "ratio")
        return figures


WORKLOADS = {
    w.name: w
    for w in (
        Workload("churn", "campaign", CHURN),
        Workload("reads", "campaign", READS),
        Workload("reads-tiered", "campaign", READS_TIERED),
        Workload("case-study", "case-study", CASE_STUDY),
    )
}
