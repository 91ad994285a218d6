"""Alignment scoring tests, anchored by the exhaustive-enumeration oracle."""

import io

import numpy as np
import pytest

from cogclust import (
    GapParams,
    Scorer,
    ValidationError,
    DegenerateInputError,
    WordForm,
    nw_score,
    similarity_matrix,
)

from oracles import alignment_best_score


def vanilla(match=1.0, mismatch=-1.0, open_=-1.0, extend=-0.5):
    return Scorer.vanilla(match, mismatch, GapParams(open_, extend))


class TestGapParams:
    def test_defaults(self):
        gaps = GapParams()
        assert gaps.gap_open == -1.0
        assert gaps.gap_extend == -0.5

    def test_positive_penalty_rejected(self):
        with pytest.raises(ValidationError):
            GapParams(gap_open=1.0)
        with pytest.raises(ValidationError):
            GapParams(gap_open=-1.0, gap_extend=0.5)

    def test_extension_dearer_than_opening_rejected(self):
        with pytest.raises(ValidationError):
            GapParams(gap_open=-1.0, gap_extend=-2.0)

    def test_zero_costs_allowed(self):
        GapParams(gap_open=0.0, gap_extend=0.0)


class TestScorer:
    def test_vanilla_requires_match_above_mismatch(self):
        with pytest.raises(ValidationError):
            Scorer.vanilla(match=-1.0, mismatch=1.0)
        with pytest.raises(ValidationError):
            Scorer.vanilla(match=1.0, mismatch=1.0)

    def test_substitution_lookup(self):
        s = vanilla()
        assert s.substitution("a", "a") == 1.0
        assert s.substitution("a", "o") == -1.0
        p = Scorer(("a", "b"), [[2.0, -1.0], [-1.0, 1.0]])
        assert p.substitution("a", "b") == -1.0

    def test_substitution_lookup_and_unknown_symbol(self):
        m = Scorer(("a", "b"), [[2.0, -1.0], [-1.0, 1.0]])
        assert m.substitution("b", "a") == -1.0
        with pytest.raises(ValidationError, match="'x'"):
            m.substitution("x", "a")

    def test_unknown_segment_rejected(self):
        p = Scorer(("a", "b"), [[2.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(ValidationError, match="'z'"):
            nw_score("az", "a", p)

    def test_symmetry_enforced(self):
        with pytest.raises(ValidationError, match="symmetric"):
            Scorer(("a", "b"), [[1.0, 2.0], [3.0, 1.0]])

    def test_shape_enforced(self):
        with pytest.raises(ValidationError):
            Scorer(("a", "b"), [[1.0]])

    def test_positive_infinity_rejected_negative_allowed(self):
        with pytest.raises(ValidationError, match=r"\+inf"):
            Scorer(("a", "b"), [[float("inf"), -1.0], [-1.0, 1.0]])
        with pytest.raises(ValidationError, match=r"\+inf"):
            Scorer.vanilla(match=float("inf"))
        m = Scorer(("a", "b"), [[1.0, float("-inf")], [float("-inf"), 1.0]])
        assert m.has_unobserved_pairs

    def test_from_pmi_replaces_only_the_gaps(self):
        table = Scorer(("a", "b"), [[2.0, -1.0], [-1.0, 1.0]])
        assert table.gaps == GapParams()
        regapped = Scorer.from_pmi(table, GapParams(-2.5, -1.0))
        assert regapped.gaps == GapParams(-2.5, -1.0)
        assert np.array_equal(regapped.scores, table.scores)
        assert regapped != table
        assert Scorer.from_pmi(regapped) == table


class TestNwScoreFixtures:
    def test_identity_two_matches(self):
        assert nw_score("ol", "ol", vanilla()) == 2.0

    def test_mismatch_match_gap(self):
        # o~a mismatch, l~l match, trailing gap over "3"
        assert nw_score("ol", "al3", vanilla()) == -1.0

    def test_empty_versus_word_is_one_gap_run(self):
        assert nw_score("", "abc", vanilla()) == -2.0  # open + 2 * extend
        assert nw_score("abc", "", vanilla()) == -2.0
        assert nw_score("", "", vanilla()) == 0.0

    def test_pmi_scored_gap_choice(self):
        m = Scorer(("a", "b"), [[2.0, -1.0], [-1.0, 1.0]])
        p = Scorer.from_pmi(m, GapParams(-2.5, -1.0))
        assert nw_score("ab", "b", p) == -1.5  # gap "a", then b~b

    def test_fixtures_agree_with_enumeration(self):
        s = vanilla()
        for a, b in [("ol", "ol"), ("ol", "al3"), ("", "abc")]:
            expected = alignment_best_score(
                a, b, s.substitution, s.gaps.gap_open, s.gaps.gap_extend
            )
            assert nw_score(a, b, s) == expected


class TestNwScoreProperties:
    def test_matches_enumeration_on_random_inputs(self):
        rng = np.random.default_rng(7)
        symbols = "peko"
        for _ in range(300):
            a = "".join(rng.choice(list(symbols), size=rng.integers(0, 6)))
            b = "".join(rng.choice(list(symbols), size=rng.integers(0, 6)))
            open_ = -float(rng.uniform(0.1, 3.0))
            extend = -float(rng.uniform(0.0, -open_))
            s = Scorer.vanilla(1.0, -1.0, GapParams(open_, extend))
            expected = alignment_best_score(
                a, b, s.substitution, open_, extend
            )
            assert nw_score(a, b, s) == expected, (a, b, open_, extend)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        symbols = "peko"
        s = vanilla()
        for _ in range(200):
            a = "".join(rng.choice(list(symbols), size=rng.integers(0, 6)))
            b = "".join(rng.choice(list(symbols), size=rng.integers(0, 6)))
            assert nw_score(a, b, s) == nw_score(b, a, s)

    def test_identity_dominance(self):
        rng = np.random.default_rng(13)
        symbols = "peko"
        s = vanilla()
        for _ in range(200):
            size = int(rng.integers(1, 6))
            a = "".join(rng.choice(list(symbols), size=size))
            b = "".join(rng.choice(list(symbols), size=size))
            assert nw_score(a, a, s) == len(a) * 1.0
            assert nw_score(a, b, s) <= nw_score(a, a, s)

    def test_deeper_gap_open_never_raises_scores(self):
        rng = np.random.default_rng(17)
        symbols = "peko"
        for _ in range(100):
            a = "".join(rng.choice(list(symbols), size=rng.integers(1, 6)))
            b = "".join(rng.choice(list(symbols), size=rng.integers(1, 6)))
            shallow = Scorer.vanilla(1.0, -1.0, GapParams(-0.8, -0.4))
            deep = Scorer.vanilla(1.0, -1.0, GapParams(-2.0, -0.4))
            assert nw_score(a, b, deep) <= nw_score(a, b, shallow)


def table1_all_forms():
    rows = [
        ("English", "ol"),
        ("German", "al3"),
        ("French", "tu"),
        ("Spanish", "to8o"),
        ("Swedish", "ala"),
    ]
    return [WordForm(lang, "ALL", word) for lang, word in rows]


class TestSimilarityMatrix:
    def test_identical_words_score_their_length(self):
        sm = similarity_matrix([WordForm("A", "M", "to8o"), WordForm("B", "M", "to8o")], vanilla())
        assert sm.values[0, 1] == 4.0

    def test_negative_scores_clamp_to_zero(self):
        sm = similarity_matrix([WordForm("A", "M", "pp"), WordForm("B", "M", "kk")], vanilla())
        assert sm.values[0, 1] == 0.0

    def test_five_word_meaning_against_enumeration(self):
        forms = table1_all_forms()
        s = vanilla()
        sm = similarity_matrix(forms, s)
        assert sm.values.shape == (5, 5)
        assert np.array_equal(sm.values, sm.values.T)
        assert (sm.values >= 0).all()
        for i, fi in enumerate(forms):
            for j, fj in enumerate(forms):
                raw = alignment_best_score(
                    fi.segments, fj.segments, s.substitution, -1.0, -0.5
                )
                assert sm.values[i, j] == max(0.0, raw)

    def test_diagonal_is_clamped_self_score(self):
        m = Scorer(("a", "b"), [[-1.0, -2.0], [-2.0, 3.0]])
        sm = similarity_matrix([WordForm("A", "M", "a"), WordForm("B", "M", "b")], m)
        assert sm.values[0, 0] == 0.0  # self score -1 clamps
        assert sm.values[1, 1] == 3.0

    def test_empty_forms_rejected(self):
        with pytest.raises(DegenerateInputError):
            similarity_matrix([], vanilla())

    def test_mixed_meanings_rejected(self):
        with pytest.raises(ValidationError):
            similarity_matrix([WordForm("A", "M1", "ol"), WordForm("B", "M2", "ol")], vanilla())

    def test_normalize_divides_by_mean_self_similarity(self):
        s = vanilla()
        forms = [WordForm("A", "M", "ol"), WordForm("B", "M", "al3")]
        plain = similarity_matrix(forms, s)
        norm = similarity_matrix(forms, s, normalize=True)
        raw_self = [2.0, 3.0]
        raw_cross = -1.0  # pre-clamp
        assert plain.values[0, 1] == 0.0
        assert norm.values[0, 1] == max(0.0, raw_cross / ((raw_self[0] + raw_self[1]) / 2))
        assert norm.values[0, 0] == 1.0
        assert norm.values[1, 1] == 1.0

    def test_normalize_rejects_non_positive_self_similarity(self):
        m = Scorer(("a", "b"), [[-1.0, -2.0], [-2.0, 3.0]])
        forms = [WordForm("A", "M", "a"), WordForm("B", "M", "b")]
        with pytest.raises(ValidationError, match="self-similarity"):
            similarity_matrix(forms, m, normalize=True)

    def test_tsv_dump_round_trips_values(self):
        forms = table1_all_forms()
        sm = similarity_matrix(forms, vanilla())
        buf = io.StringIO()
        sm.to_tsv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].split("\t")[1:] == [f.segments for f in forms]
        for i, line in enumerate(lines[1:]):
            cells = line.split("\t")
            assert cells[0] == forms[i].segments
            assert [float(c) for c in cells[1:]] == list(sm.values[i])
