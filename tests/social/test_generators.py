"""Unit tests for repro.social.generators."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.social.generators import (
    CorpusConfig,
    DBLPStyleCorpusGenerator,
    generate_corpus,
)

SMALL = CorpusConfig(
    n_groups=30, n_consortium=120, mega_paper_size=20, consortium_block_size=20
)


class TestConfigValidation:
    def test_defaults_valid(self):
        CorpusConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"years": (2011, 2009)},
            {"n_groups": 1},
            {"p_external": 1.5},
            {"p_repeat_collab": -0.1},
            {"p_single_author": 0.7, "p_large": 0.5},
            {"pubs_per_author_year": 0.0},
            {"large_min": 1},
            {"large_min": 10, "large_max": 9},
            {"n_consortium": -1},
            {"mega_paper_size": -2},
            {"consortium_block_size": 0},
            {"p_block_escape": 2.0},
            {"author_count_tail": 0.0} if hasattr(CorpusConfig, "author_count_tail") else {"consortium_fraction": 1.2},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CorpusConfig(**kwargs)


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        c1 = DBLPStyleCorpusGenerator(SMALL, seed=5).generate()
        c2 = DBLPStyleCorpusGenerator(SMALL, seed=5).generate()
        assert len(c1) == len(c2)
        assert [p.pub_id for p in c1] == [p.pub_id for p in c2]
        assert [sorted(p.authors) for p in c1] == [sorted(p.authors) for p in c2]

    def test_different_seeds_differ(self):
        c1 = DBLPStyleCorpusGenerator(SMALL, seed=5).generate()
        c2 = DBLPStyleCorpusGenerator(SMALL, seed=6).generate()
        assert [sorted(p.authors) for p in c1] != [sorted(p.authors) for p in c2]

    def test_years_within_config(self):
        corpus = DBLPStyleCorpusGenerator(SMALL, seed=5).generate()
        lo, hi = corpus.year_range()
        assert lo >= 2009 and hi <= 2011

    def test_seed_author_publishes(self):
        gen = DBLPStyleCorpusGenerator(SMALL, seed=5)
        corpus = gen.generate()
        assert len(corpus.publications_of(gen.seed_author)) >= 1

    def test_mega_paper_present_with_requested_size(self):
        gen = DBLPStyleCorpusGenerator(SMALL, seed=5)
        corpus = gen.generate()
        sizes = corpus.author_list_size_histogram()
        assert max(sizes) == 20  # mega paper dominates

    def test_mega_paper_disabled(self):
        cfg = CorpusConfig(
            n_groups=30, n_consortium=120, mega_paper_size=0, consortium_block_size=20
        )
        corpus = DBLPStyleCorpusGenerator(cfg, seed=5).generate()
        assert max(corpus.author_list_size_histogram()) <= cfg.large_max

    def test_consortium_members_only_on_large_papers(self):
        corpus = DBLPStyleCorpusGenerator(SMALL, seed=5).generate()
        for p in corpus:
            if any(str(a).startswith("c-") for a in p.authors):
                assert p.n_authors >= SMALL.large_min or p.n_authors == 20

    def test_repeat_collaboration_produces_heavy_edges(self):
        corpus = DBLPStyleCorpusGenerator(SMALL, seed=5).generate()
        counts = corpus.coauthorship_counts()
        assert any(c >= 2 for c in counts.values())

    def test_author_institutions_assigned(self):
        corpus = DBLPStyleCorpusGenerator(SMALL, seed=5).generate()
        gen_seed = DBLPStyleCorpusGenerator.SEED_AUTHOR
        assert corpus.author(gen_seed).institution == "inst-0"

    def test_generate_corpus_wrapper(self):
        corpus, seed = generate_corpus(SMALL, seed=9)
        assert seed in corpus.author_ids


def _corpus_digest(corpus, seed_author) -> str:
    """sha256 over the seed author and every publication, in corpus order."""
    h = hashlib.sha256(str(seed_author).encode())
    for p in corpus:
        authors = ",".join(sorted(p.authors))
        h.update(f"{p.pub_id}|{p.year}|{p.venue}|{p.title}|{authors}\n".encode())
    return h.hexdigest()


class TestFrozenCorpus:
    """The default-config corpus is frozen per seed.

    Digests were taken before the consortium candidate pool moved from a
    per-draw filtered rebuild to ordered remaining-lists; equality proves
    the rewrite draws the same RNG stream and yields the same corpus.
    """

    FROZEN = {
        0: (1823, "7ef929f1e8a0cb809f169c00295571e4bc9ab20e0eb5c81d3039ca5b209ffb98"),
        7: (2291, "f211c335606190a3bbf016a89a720fda567f142f9bcc18198a1d240d089685ff"),
        42: (2051, "3fdc5732e0abd0523eaa3c07203f56cf14673d4387cdd8df35758e5ea2d1ddcd"),
    }

    @pytest.mark.parametrize("seed", sorted(FROZEN))
    def test_digest_matches(self, seed):
        corpus, seed_author = generate_corpus(seed=seed)
        n_pubs, digest = self.FROZEN[seed]
        assert len(corpus) == n_pubs
        assert _corpus_digest(corpus, seed_author) == digest
