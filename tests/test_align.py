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

from cogclust.align import _CHUNK_PAIRS
from oracles import alignment_best_score

NEG_INF = float("-inf")


def vanilla(match=1.0, mismatch=-1.0, open_=-1.0, extend=-0.5):
    return Scorer.vanilla(match, mismatch, GapParams(open_, extend))


class TestGapParams:
    def test_defaults(self):
        gaps = GapParams()
        assert gaps.gap_open == -1.0
        assert gaps.gap_extend == -0.5

    def test_positive_penalty_rejected(self):
        nan = float("nan")
        for gap_open, gap_extend in ((1.0, -0.5), (-1.0, 0.5), (nan, -0.5), (-1.0, nan)):
            with pytest.raises(ValidationError, match="gap penalties"):
                GapParams(gap_open=gap_open, gap_extend=gap_extend)

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


def scalar_gotoh(a, b, scorer):
    """The per-pair loop the batched kernel replaced: its bitwise reference."""
    sub, gap_open, gap_extend = scorer.substitution, scorer.gaps.gap_open, scorer.gaps.gap_extend
    n, m = len(a), len(b)
    m_prev, x_prev, y_prev = [NEG_INF] * (m + 1), [NEG_INF] * (m + 1), [NEG_INF] * (m + 1)
    m_prev[0] = 0.0
    for j in range(1, m + 1):
        y_prev[j] = gap_open if j == 1 else y_prev[j - 1] + gap_extend
    for i in range(1, n + 1):
        m_cur, x_cur, y_cur = [NEG_INF] * (m + 1), [NEG_INF] * (m + 1), [NEG_INF] * (m + 1)
        x_cur[0] = gap_open if i == 1 else x_prev[0] + gap_extend
        for j in range(1, m + 1):
            diag_m, diag_x, diag_y = m_prev[j - 1], x_prev[j - 1], y_prev[j - 1]
            best = diag_m if diag_m >= diag_x else diag_x
            if diag_y > best:
                best = diag_y
            m_cur[j] = best + sub(a[i - 1], b[j - 1])
            from_m, from_x, from_y = m_prev[j] + gap_open, x_prev[j] + gap_extend, y_prev[j] + gap_open
            best = from_m if from_m >= from_x else from_x
            if from_y > best:
                best = from_y
            x_cur[j] = best
            from_m, from_x, from_y = m_cur[j - 1] + gap_open, x_cur[j - 1] + gap_open, y_cur[j - 1] + gap_extend
            best = from_m if from_m >= from_x else from_x
            if from_y > best:
                best = from_y
            y_cur[j] = best
        m_prev, x_prev, y_prev = m_cur, x_cur, y_cur
    return max(m_prev[m], x_prev[m], y_prev[m])


def same_bits(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


# A table with signed zeros and a pair an unsmoothed PMI estimate never saw.
SIGNED = Scorer(("a", "b", "c"), [
    [1.0, -0.0, NEG_INF],
    [-0.0, 0.0, -0.5],
    [NEG_INF, -0.5, -0.0],
])
KERNEL_CASES = {
    "signed zeros, -inf": SIGNED,
    "signed zeros, -inf, zero gaps": Scorer.from_pmi(SIGNED, GapParams(0.0, 0.0)),
    "vanilla, zero gaps": Scorer.vanilla(1.0, -1.0, GapParams(0.0, 0.0), alphabet="abc"),
}


def mixed_forms(rng, count, max_len):
    """Forms of 1 to max_len segments over "abc", one-segment words included."""
    words = ["a", "c"] + [
        "".join(rng.choice(list("abc"), size=rng.integers(1, max_len + 1)))
        for _ in range(count - 2)
    ]
    return [WordForm(f"L{i}", "M", w) for i, w in enumerate(words)]


class TestBatchedKernel:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_matrix_equals_enumeration_across_chunks(self, case):
        scorer = KERNEL_CASES[case]
        forms = mixed_forms(np.random.default_rng(3), 48, 4)
        assert len(forms) * (len(forms) + 1) // 2 > _CHUNK_PAIRS
        sm = similarity_matrix(forms, scorer)
        oracle = {}
        for i, fi in enumerate(forms):
            for j, fj in enumerate(forms):
                key = (fi.segments, fj.segments)
                if key not in oracle:
                    oracle[key] = alignment_best_score(
                        *key, scorer.substitution, scorer.gaps.gap_open, scorer.gaps.gap_extend
                    )
                raw = oracle[key]
                assert same_bits(sm.values[i, j], raw if raw > 0 else 0.0), (case, key)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_empty_words_equal_enumeration(self, case):
        scorer = KERNEL_CASES[case]
        gaps = scorer.gaps
        for a, b in [("", ""), ("", "a"), ("bc", ""), ("", "abca"), ("a", "a")]:
            want = alignment_best_score(a, b, scorer.substitution, gaps.gap_open, gaps.gap_extend)
            assert same_bits(nw_score(a, b, scorer), want), (case, a, b)

    def test_signed_zeros_follow_the_scalar_tie_rule(self):
        # With gap_open = -0.0 a boundary gap run starts at -0.0, so ties
        # between 0.0 and -0.0 reach every max; the enumeration oracle, which
        # starts each path at +0.0, cannot tell the two apart.
        rng = np.random.default_rng(5)
        values = [0.0, -0.0, NEG_INF, 1.0, -1.0]
        for trial in range(40):
            table = rng.choice(values, size=(3, 3))
            table = np.triu(table) + np.triu(table, 1).T
            gaps = GapParams(*[(-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (-1.0, -0.0)][trial % 4])
            scorer = Scorer(("a", "b", "c"), table, gaps)
            forms = mixed_forms(rng, 50 if trial == 0 else 8, 4)
            words = ["", *(f.segments for f in forms[:6])]
            for a in words:
                for b in words:
                    assert same_bits(nw_score(a, b, scorer), scalar_gotoh(a, b, scorer)), (trial, a, b)
            sm = similarity_matrix(forms, scorer)
            for i, fi in enumerate(forms):
                for j, fj in enumerate(forms):
                    want = np.maximum(scalar_gotoh(fi.segments, fj.segments, scorer), 0.0)
                    assert same_bits(sm.values[i, j], want), (trial, i, j)
