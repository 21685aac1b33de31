"""End-to-end benchmark of the S-CDN simulator.

Run from the repository root::

    python3 perfbench/run.py --workload reads --seed 1 --seconds 22 --trace 0

Workloads: ``churn``, ``reads``, ``reads-tiered`` and ``case-study`` (see
``workloads.py`` and ``BENCHMARK.json`` for why each is there). Each run is a
fresh single-threaded process that imports ``repro`` from ``src/`` of the
checkout it sits in.

``--trace 0`` measures the end-to-end metrics, which every workload has:
host throughput, set-up time and peak memory. ``--trace 1`` runs the probe
and the reference unit untraced, then the reference again under tracing,
and reports per-layer calls and self times, the tracing overhead, the
run-phase time no span covers, and the paper's Section V / VI figures in
simulated time. A layer's self time is given as a share of the phase it
ran in: the set-up phase (``setup_phase_s``: the import and the set-ups) or
the traced run phase (``run_phase_s``), so a layer a workload never enters
reads 0 % rather than 0 s. A figure a workload does not produce
(``peer_offload`` without the peer tier, the campaign figures on
``case-study``, ``hit_rate_pct`` on campaigns) reads 0; ``--trace 0``
prints the figures that apply as text lines.

The simulated figures come from the reference campaign (or case-study
sweep), pinned by ``--corpus-seed``, ``--deployment-seed`` and
``--campaign-seed``; change them to re-check a claim on a seed set it was
not tuned on. ``--seed`` seeds the probe campaign that every run also runs
and checks.

Every run checks its results. Human-readable lines and the run's metadata
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
the units run (campaigns or sweeps) and ``failed`` those that failed a
check; reads lost to injected faults are not failed units, they lower
``availability`` and are counted per unit in the metadata. The exit status
is 0 only if every check passed. Results and traced spans are also written
to ``.bench_out/`` under the checkout.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

# one process, one thread: no BLAS pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".bench_out"

WORKLOAD_NAMES = ("churn", "reads", "reads-tiered", "case-study")

#: simulated figures a traced run reports, with their units
SIM_FIGURES = (
    ("availability", "ratio"),
    ("acceptance_rate", "ratio"),
    ("fetch_p50_s", "sim_s"),
    ("fetch_p99_s", "sim_s"),
    ("redundancy", "ratio"),
    ("peer_offload", "ratio"),
    ("hit_rate_pct", "%"),
)

#: spans whose ``<name>.calls`` and ``<name>.self_pct`` a traced run reports
SPAN_LAYERS = (
    "setup.import",
    "social.generate_corpus",
    "social.ego_corpus",
    "social.trust.prune",
    "scdn.init",
    "scdn.access",
    "middleware.authorize",
    "client.access_segment",
    "alloc.resolve",
    "alloc.resolve_candidates",
    "peers.offer",
    "peers.evict",
    "peers.candidates",
    "peers.begin_serve",
    "transfer.execute",
    "replication.audit",
    "alloc.repair",
    "alloc.under_replicated",
    "placement.random.select",
    "placement.node-degree.select",
    "placement.community-node-degree.select",
    "placement.clustering-coefficient.select",
    "integrity.scrub",
    "migration.run_cycle",
    "engine.run",
    "casestudy.hitrate.evaluate",
    "casestudy.run",
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True,
                   help="seed of the probe campaign (or case-study sweep)")
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum length of the measured run phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corpus-seed", type=int, default=42)
    p.add_argument("--deployment-seed", type=int, default=42)
    p.add_argument("--campaign-seed", type=int, default=7,
                   help="seed of the reference campaign (or case-study sweep)")
    return p.parse_args(argv)


def _layer_metrics(tracer, outcome):
    """Per-layer table of a traced run: ``{name: (value, unit)}``."""
    from tracing import ROOT

    ph = tracer.phases()
    calls = ph.calls
    out = {"setup_phase_s": (ph.setup_s, "s"), "run_phase_s": (ph.run_s, "s")}
    for name in SPAN_LAYERS:
        # share of the phase the layer ran in; each layer runs in one phase
        # on any one workload, so at most one of the two terms is non-zero
        share = (ph.setup_self_s.get(name, 0.0) / ph.setup_s
                 + ph.run_self_s.get(name, 0.0) / ph.run_s)
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_pct"] = (100.0 * share, "%")
    counts, ctr = tracer.counts, outcome.counters

    def ratio(num, den):
        return num / den if den else 0.0

    ref = outcome.units[0]  # the traced reference unit
    out["middleware.refused"] = (ref.refused_ops, "count")
    out["client.user_cache_ratio"] = (
        ratio(counts["client.user_cache"], calls.get("client.access_segment", 0)),
        "ratio",
    )
    out["alloc.failovers"] = (calls.get("alloc.failovers", 0), "count")
    hits, misses = ctr.get("alloc.plan_cache.hits", 0), ctr.get("alloc.plan_cache.misses", 0)
    out["plancache.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    out["plancache.invalidations"] = (ctr.get("alloc.plan_cache.invalidations", 0), "count")
    out["peers.serves_per_admit"] = (
        ratio(ctr.get("peer.serves", 0), ctr.get("peer.admitted", 0)), "ratio"
    )
    out["transfer.ok_ratio"] = (
        ratio(counts["transfer.ok"], calls.get("transfer.execute", 0)), "ratio"
    )
    out["engine.events"] = (counts["engine.events"], "count")
    out["scdn.access.failed"] = (ref.failed_ops, "count")

    out["trace.overhead_ratio"] = (ref.host_s / outcome.untraced[1].host_s, "ratio")
    out["unattributed_s"] = (ph.run_self_s.get(ROOT, 0.0), "s")
    for name, unit in SIM_FIGURES:
        out[name] = (outcome.sim.get(name, (0.0, unit))[0], unit)

    # the run phase splits exactly into layer self times plus unattributed
    attributed = sum(ph.run_self_s.values())
    if abs(attributed - ph.run_s) > 1e-6 * ph.run_s:
        outcome.failures.append(
            f"self times add up to {attributed:.6f} s, the run phase is {ph.run_s:.6f} s"
        )
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_before = os.getloadavg()

    import repro

    import_end = time.perf_counter()
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import networkx
    import numpy

    from tracing import Tracer
    from workloads import WORKLOADS, Classifier, Seeds

    workload = WORKLOADS[args.workload]
    seeds = Seeds(args.corpus_seed, args.deployment_seed, args.campaign_seed, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.record("setup.import", _T0, import_end)
    classifier = Classifier()
    try:
        outcome = workload.run(seeds, import_end - _T0, args.seconds, classifier, tracer)
        metrics = outcome.metrics
        if tracer is not None:
            metrics = _layer_metrics(tracer, outcome)
    finally:
        classifier.close()
    if not args.trace:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (peak, "MB")

    units = outcome.untraced + outcome.units
    meta = {
        "workload": args.workload,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "seeds": {
            "corpus": seeds.corpus,
            "deployment": seeds.deployment,
            "campaign": seeds.campaign,
            "probe": seeds.probe,
        },
        "params": outcome.params,
        "figures": {k: {"value": v, "unit": unit} for k, (v, unit) in outcome.sim.items()},
        "units": [
            {"seed": u.seed, "traced": u in outcome.units and tracer is not None,
             "host_s": u.host_s, "ops": u.ops, "failed_ops": u.failed_ops}
            for u in units
        ],
        "failures": outcome.failures,
    }
    correct = not outcome.failures
    # a failed check not tied to one unit (set-up, trace accounting) fails all
    failed = sum(1 for u in units if u.failures) or (0 if correct else len(units))
    result = {
        "correct": correct,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=2)
    if tracer is not None:
        tracer.save(str(OUT / f"{stem}-spans.npz"))

    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}")
    print("meta " + json.dumps(meta))
    shown = metrics if args.trace else {**metrics, **outcome.sim}
    for k, (v, unit) in shown.items():
        print(f"{k:<48} {v:>16.6f} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
