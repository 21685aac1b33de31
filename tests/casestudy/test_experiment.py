"""Tests for repro.casestudy.experiment (the full Section VI runner)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.social.generators import CorpusConfig, generate_corpus
from repro.casestudy.experiment import CaseStudyConfig, run_case_study, table1_rows


SMALL_SWEEP = CaseStudyConfig(replica_counts=(1, 3, 5), n_runs=5)


@pytest.fixture(scope="module")
def result():
    cfg = CorpusConfig(
        n_groups=60,
        n_consortium=600,
        mega_paper_size=30,
        consortium_block_size=30,
        large_pubs_per_year=30,
    )
    corpus, seed_author = generate_corpus(cfg, seed=77)
    return run_case_study(corpus, seed_author, config=SMALL_SWEEP, seed=3)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hops": -1},
            {"replica_counts": ()},
            {"replica_counts": (0, 1)},
            {"n_runs": 0},
            {"hit_max_hops": -1},
            {"placement_window": "future"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            CaseStudyConfig(**kwargs)


class TestResultStructure:
    def test_three_panels_four_curves(self, result):
        assert len(result.subgraphs) == 3
        for panel in result.subgraphs:
            assert set(panel.curves) == {
                "random",
                "node-degree",
                "community-node-degree",
                "clustering-coefficient",
            }

    def test_table1_rows(self, result):
        rows = table1_rows(result)
        assert [r[0] for r in rows] == [
            "baseline",
            "double-coauthorship",
            "number-of-authors",
        ]
        assert all(r[1] > 0 and r[3] > 0 for r in rows)

    def test_table1_strictly_shrinking(self, result):
        rows = table1_rows(result)
        assert rows[0][1] > rows[1][1] and rows[0][1] > rows[2][1]
        assert rows[0][3] > rows[1][3] and rows[0][3] > rows[2][3]

    def test_panel_lookup(self, result):
        assert result.panel("baseline").subgraph.name == "baseline"
        with pytest.raises(ConfigurationError):
            result.panel("nope")

    def test_curve_lookup(self, result):
        panel = result.subgraphs[0]
        assert panel.curve("random").algorithm == "random"
        with pytest.raises(ConfigurationError):
            panel.curve("nope")


class TestCurves:
    def test_hit_rates_are_percentages(self, result):
        for panel in result.subgraphs:
            for curve in panel.curves.values():
                assert np.all(curve.mean_hit_rate_pct >= 0)
                assert np.all(curve.mean_hit_rate_pct <= 100)

    def test_monotone_in_replica_count(self, result):
        """More replicas never reduce coverage for deterministic rankers."""
        for panel in result.subgraphs:
            for name in ("node-degree", "community-node-degree"):
                rates = panel.curves[name].mean_hit_rate_pct
                assert np.all(np.diff(rates) >= -1.0)  # tiny tie-break noise allowed

    def test_at_and_final(self, result):
        curve = result.subgraphs[0].curves["random"]
        assert curve.at(5) == curve.final
        with pytest.raises(ConfigurationError):
            curve.at(99)

    def test_gain_after(self, result):
        curve = result.subgraphs[0].curves["community-node-degree"]
        gains = curve.gain_after
        assert set(gains) == {3, 5}

    def test_deterministic_given_seed(self):
        cfg = CorpusConfig(
            n_groups=40, n_consortium=200, mega_paper_size=20,
            consortium_block_size=20, large_pubs_per_year=15,
        )
        corpus, seed_author = generate_corpus(cfg, seed=5)
        small = CaseStudyConfig(replica_counts=(2,), n_runs=3)
        a = run_case_study(corpus, seed_author, config=small, seed=9)
        b = run_case_study(corpus, seed_author, config=small, seed=9)
        for pa, pb in zip(a.subgraphs, b.subgraphs):
            for name in pa.curves:
                assert np.allclose(
                    pa.curves[name].mean_hit_rate_pct,
                    pb.curves[name].mean_hit_rate_pct,
                )


class TestPaperShape:
    """The qualitative Fig. 3 claims, on the small test corpus."""

    def test_community_beats_random_everywhere(self, result):
        for panel in result.subgraphs:
            comm = panel.curves["community-node-degree"].final
            rand = panel.curves["random"].final
            assert comm > rand

    def test_community_usually_matches_node_degree(self, result):
        """On the miniature test corpus the paper's 'community wins' claim
        is noisy; require it on a majority of panels (the full-scale claim
        is asserted by benchmarks/test_bench_fig3.py)."""
        wins = sum(
            panel.curves["community-node-degree"].final
            >= panel.curves["node-degree"].final - 1.0
            for panel in result.subgraphs
        )
        assert wins >= 2

    def test_best_algorithm_reports_winner(self, result):
        panel = result.subgraphs[0]
        best = panel.best_algorithm()
        assert panel.curves[best].final == max(c.final for c in panel.curves.values())


class TestTrainWindowVariant:
    def test_train_placement_window_runs(self):
        cfg = CorpusConfig(
            n_groups=40, n_consortium=200, mega_paper_size=20,
            consortium_block_size=20, large_pubs_per_year=15,
        )
        corpus, seed_author = generate_corpus(cfg, seed=5)
        config = CaseStudyConfig(
            replica_counts=(2,), n_runs=3, placement_window="train"
        )
        result = run_case_study(corpus, seed_author, config=config, seed=9)
        assert len(result.subgraphs) == 3

    def test_empty_inputs_rejected(self):
        cfg = CorpusConfig(
            n_groups=40, n_consortium=200, mega_paper_size=20,
            consortium_block_size=20, large_pubs_per_year=15,
        )
        corpus, seed_author = generate_corpus(cfg, seed=5)
        with pytest.raises(ConfigurationError):
            run_case_study(corpus, seed_author, heuristics=[], seed=9)
        with pytest.raises(ConfigurationError):
            run_case_study(corpus, seed_author, placements=[], seed=9)


def _result_digest(result) -> str:
    """sha256 over every curve's per-count arrays (exact float reprs) and
    the Table I rows, in panel and algorithm order."""
    h = hashlib.sha256()
    for panel in result.subgraphs:
        for name, c in sorted(panel.curves.items()):
            h.update(f"{panel.subgraph.name}|{name}\n".encode())
            for arr in (c.mean_hit_rate_pct, c.std_hit_rate_pct, c.mean_hops):
                h.update((",".join(repr(float(x)) for x in arr) + "\n").encode())
    for row in table1_rows(result):
        h.update((repr(tuple(row)) + "\n").encode())
    return h.hexdigest()


class TestFrozenResult:
    """The paper-scale sweep is frozen: the default seed-42 corpus, 3 runs
    per cell, sweep seed 7.

    The digest was taken before placement scoring, ranking, hit-rate
    evaluation and trust pruning moved to per-graph numpy arrays; equality
    proves the rewrite draws the same RNG stream and scores identically.
    """

    DIGEST = "61bb10933ff5248f9e5c40b50d2ae1bacf076d9077f1ebff4115fce1095808d0"
    TABLE1 = [
        ("baseline", 3664, 1701, 48046),
        ("double-coauthorship", 807, 1571, 4611),
        ("number-of-authors", 609, 1209, 1837),
    ]

    def test_digest_matches(self):
        corpus, seed_author = generate_corpus(seed=42)
        result = run_case_study(
            corpus, seed_author, config=CaseStudyConfig(n_runs=3), seed=7
        )
        assert table1_rows(result) == self.TABLE1
        assert _result_digest(result) == self.DIGEST
