"""Alignment scoring tests, anchored by the exhaustive-enumeration oracle."""

import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from cogclust import (
    CrpConfig,
    GapParams,
    Scorer,
    ValidationError,
    DegenerateInputError,
    WordForm,
    cluster_wordlist,
    crp_cluster_with_history,
    estimate_pmi,
    evaluate_dataset,
    flat_cluster_threshold,
    gold_partitions,
    nw_score,
    parse_wordlist,
    render_report_kv,
    similarity_matrix,
    write_partitions,
)

from cogclust import align
from cogclust.align import _CHUNK_PAIRS
from oracles import alignment_best_score

ROOT = Path(__file__).resolve().parents[1]
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
        for gap_open, gap_extend in ((1.0, -0.5), (-1.0, 0.5), (nan, -0.5), (-1.0, nan),
                                     ("a", -0.5), (None, -0.5), (-1.0, "-0.5"),
                                     (np.array([-1.0, -2.0]), -0.5)):
            with pytest.raises(ValidationError, match="gap penalties"):
                GapParams(gap_open=gap_open, gap_extend=gap_extend)

    def test_extension_dearer_than_opening_rejected(self):
        with pytest.raises(ValidationError):
            GapParams(gap_open=-1.0, gap_extend=-2.0)

    def test_zero_costs_allowed(self):
        GapParams(gap_open=0.0, gap_extend=0.0)


class TestScorer:
    def test_vanilla_requires_match_above_mismatch(self):
        for match, mismatch in ((-1.0, 1.0), (1.0, 1.0), ("1", -1.0), (1.0, None)):
            with pytest.raises(ValidationError, match="match score must exceed mismatch score"):
                Scorer.vanilla(match=match, mismatch=mismatch)

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
        assert np.isneginf(m.scores).any()

    def test_from_pmi_replaces_only_the_gaps(self):
        table = Scorer(("a", "b"), [[2.0, -1.0], [-1.0, 1.0]])
        assert table.gaps == GapParams()
        regapped = Scorer.from_pmi(table, GapParams(-2.5, -1.0))
        assert regapped.gaps == GapParams(-2.5, -1.0)
        assert np.array_equal(regapped.scores, table.scores)
        assert regapped != table
        assert Scorer.from_pmi(regapped) == table
        assert repr(regapped) == "Scorer(2 symbols, GapParams(gap_open=-2.5, gap_extend=-1.0))"
        assert table.__eq__(table.alphabet) is NotImplemented
        assert table != table.alphabet


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
        # The second list repeats the bad word, after a word seen before it.
        for words in (["a", "b"], ["b", "a", "b", "a"]):
            forms = [WordForm(f"L{i}", "M", w) for i, w in enumerate(words)]
            with pytest.raises(ValidationError, match="word 'a' has non-positive self-similarity -1.0"):
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
    """The per-pair loop the batched kernel replaced, with its compare-and-copy maxima."""
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


def transposing_forms():
    """Repeated words in an order that makes the gather transpose pairs.

    Distinct words are numbered longest first, so "cab" is numbered before
    "b", and forms 0 and 5 ("b", "cab") read the distinct pair that the
    kernel aligned as ("cab", "b").
    """
    words = ["b", "a", "b", "c", "a", "cab", "b", "cab"]
    return [WordForm(f"T{i}", "M", w) for i, w in enumerate(words)]


def distinct_pairs(forms):
    d = len({f.segments for f in forms})
    return d * (d + 1) // 2


class TestBatchedKernel:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_matrix_equals_enumeration_across_chunks(self, case):
        scorer = KERNEL_CASES[case]
        forms = mixed_forms(np.random.default_rng(3), 80, 4)
        assert distinct_pairs(forms) > _CHUNK_PAIRS
        for forms in (forms, transposing_forms()):
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

    def test_each_distinct_word_pair_is_aligned_once(self, monkeypatch):
        aligned = []
        kernel = align._gotoh_batch

        def counting(codes, first, second, *rest):
            aligned.append(len(first))
            first_lengths = [len(codes[k]) for k in first]
            # Longest first: first words never lengthen, and never are the shorter.
            assert first_lengths == sorted(first_lengths, reverse=True)
            assert all(n >= len(codes[k]) for n, k in zip(first_lengths, second))
            return kernel(codes, first, second, *rest)

        monkeypatch.setattr(align, "_gotoh_batch", counting)
        for forms in (transposing_forms(), mixed_forms(np.random.default_rng(3), 80, 4)):
            aligned.clear()
            similarity_matrix(forms, vanilla())
            assert aligned == [distinct_pairs(forms)]  # one call, d(d + 1) / 2 pairs

    def test_permuting_forms_permutes_the_matrix(self):
        rng = np.random.default_rng(21)
        forms = mixed_forms(rng, 80, 5) + transposing_forms()
        for scorer in (Scorer.vanilla(alphabet="abc"), SIGNED):  # SIGNED: -0.0 and -inf
            values = similarity_matrix(forms, scorer).values
            for _ in range(4):
                p = rng.permutation(len(forms))
                permuted = similarity_matrix([forms[k] for k in p], scorer).values
                assert permuted.tobytes() == values[np.ix_(p, p)].tobytes()

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_rows_that_end_no_pair_and_blocks_across_chunks(self, case):
        # Lengths 1, 2, 7 and 8 only: rows 3 to 6 end no pair, and the pairs
        # whose first word has 8 symbols, numbered first, outrun one chunk.
        scorer = KERNEL_CASES[case]
        rng = np.random.default_rng(31)
        words = ["a", "b", "ca", "bb", "ac"]
        while len(words) < 60:
            word = "".join(rng.choice(list("abc"), size=7 + len(words) % 2))
            if word not in words:
                words.append(word)
        forms = [WordForm(f"L{i}", "M", w) for i, w in enumerate(words)]
        eights = sum(len(w) == 8 for w in words)
        assert sum(len(words) - k for k in range(eights)) > _CHUNK_PAIRS
        sm = similarity_matrix(forms, scorer)
        for i, a in enumerate(words):
            for j in range(i, len(words)):
                raw = scalar_gotoh(a, words[j], scorer)
                want = raw if raw > 0 else 0.0  # a clamped non-positive score is +0.0
                assert same_bits(sm.values[i, j], want), (case, a, words[j])
                assert same_bits(sm.values[j, i], want), (case, a, words[j])

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_empty_words_equal_enumeration(self, case):
        scorer = KERNEL_CASES[case]
        gaps = scorer.gaps
        for a, b in [("", ""), ("", "a"), ("bc", ""), ("", "abca"), ("a", "a")]:
            want = alignment_best_score(a, b, scorer.substitution, gaps.gap_open, gaps.gap_extend)
            assert same_bits(nw_score(a, b, scorer), want), (case, a, b)

    def test_scores_equal_enumeration_and_are_never_negative_zero(self):
        # Signed zeros in the table and the gaps bring ties between +0.0 and
        # -0.0 to every max; whichever zero a max keeps, the score has the
        # enumeration's bits, is never -0.0 and is the same in both orders.
        rng = np.random.default_rng(5)
        values = [0.0, -0.0, NEG_INF, 1.0, -1.0, 0.5]
        upper = np.triu(np.ones((3, 3), dtype=bool))
        settings = [(-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 0.0), (-1.0, -0.0),
                    (-1.0, 0.0), (-0.5, -0.5), (NEG_INF, -1.0), (-1.0, -1.0)]
        negative_zero_tables = 0
        for trial in range(45):
            table = rng.choice(values, size=(3, 3))
            table = np.where(upper, table, table.T)  # keeps every zero's sign
            negative_zero_tables += bool(np.signbit(table[table == 0]).any())
            gap_open, gap_extend = settings[trial % len(settings)]
            scorer = Scorer(("a", "b", "c"), table, GapParams(gap_open, gap_extend))
            words = ["", *("".join(rng.choice(list("abc"), size=k)) for k in rng.integers(1, 6, size=7))]
            for a in words:
                for b in words:
                    score = nw_score(a, b, scorer)
                    want = alignment_best_score(a, b, scorer.substitution, gap_open, gap_extend)
                    assert same_bits(score, want), (trial, a, b)
                    assert not same_bits(score, -0.0), (trial, a, b)
                    assert same_bits(score, nw_score(b, a, scorer)), (trial, a, b)
        assert negative_zero_tables > 0

    def test_no_score_is_negative_zero_unless_opening_a_gap_is_free(self):
        # With gap_open non-zero no cell holds -0.0, so the kernel's results
        # are the scalar loop's bits unchanged and both orders agree.
        rng = np.random.default_rng(8)
        values = [0.0, -0.0, NEG_INF, 1.0, -1.0]
        upper = np.triu(np.ones((3, 3), dtype=bool))
        for trial in range(40):
            table = rng.choice(values, size=(3, 3))
            table = np.where(upper, table, table.T)  # keeps every zero's sign
            gaps = GapParams(*[(-1.0, -0.0), (-1.0, 0.0), (-0.5, -0.5), (NEG_INF, -1.0)][trial % 4])
            scorer = Scorer(("a", "b", "c"), table, gaps)
            words = ["".join(rng.choice(list("abc"), size=k)) for k in rng.integers(0, 6, size=8)]
            for a in words:
                for b in words:
                    score = nw_score(a, b, scorer)
                    assert same_bits(score, scalar_gotoh(a, b, scorer)), (trial, a, b)
                    assert not same_bits(score, -0.0), (trial, a, b)
                    assert same_bits(score, nw_score(b, a, scorer)), (trial, a, b)

    def test_signed_zeros_follow_the_scalar_tie_rule(self):
        # With gap_open = -0.0 ties between 0.0 and -0.0 reach every max, and
        # np.maximum may keep the other zero than the scalar loop's
        # compare-and-copy. That changes only the sign of a zero score, which
        # the kernel returns as +0.0: its bits are the loop's plus 0.0.
        rng = np.random.default_rng(5)
        values = [0.0, -0.0, NEG_INF, 1.0, -1.0]
        upper = np.triu(np.ones((3, 3), dtype=bool))
        for trial in range(40):
            table = rng.choice(values, size=(3, 3))
            table = np.where(upper, table, table.T)  # keeps every zero's sign
            gaps = GapParams(*[(-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (-1.0, -0.0)][trial % 4])
            scorer = Scorer(("a", "b", "c"), table, gaps)
            forms = mixed_forms(rng, 50 if trial == 0 else 8, 4)
            words = ["", *(f.segments for f in forms[:6])]
            for a in words:
                for b in words:
                    assert same_bits(nw_score(a, b, scorer), scalar_gotoh(a, b, scorer) + 0.0), (trial, a, b)
            if trial == 0:  # enough distinct words for two chunks
                forms += mixed_forms(np.random.default_rng(50), 40, 5)
                assert distinct_pairs(forms) > _CHUNK_PAIRS
            for forms in (forms, transposing_forms()):
                sm = similarity_matrix(forms, scorer)
                for i, fi in enumerate(forms):
                    for j, fj in enumerate(forms):
                        raw = scalar_gotoh(fi.segments, fj.segments, scorer)
                        # A non-positive score, -0.0 included, clamps to +0.0.
                        assert same_bits(sm.values[i, j], raw if raw > 0 else 0.0), (trial, i, j)


class TestPlantedBytes:
    @pytest.mark.parametrize("scorer_name, digest", [
        ("vanilla", "4137ddf4bc50eb09695ad9f508c2f87c13c0c46c30cb50ce6c791b8c38734a64"),
        ("pmi", "91fa6fb710b73f5e7f97a57ee72e2247b008b1088f11bd83737a6dfaecd1388f"),
    ], ids=["vanilla", "pmi"])
    def test_matrices_and_partitions_of_planted_list_are_pinned(
        self, monkeypatch, scorer_name, digest
    ):
        # Every bit the aligner writes: a change in the kernel's order of
        # float operations, or in which pairs it reads, changes the text.
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        from plant import Shape, planted_wordlist

        planted = planted_wordlist(5, Shape(meanings=8, languages=60, proto_len=(3, 9), classes=(1, 8)))
        wordlist = parse_wordlist(io.StringIO(planted.wordlist_tsv()))
        meanings = [wordlist.forms_for_meaning(m) for m in wordlist.meanings]
        assert max(distinct_pairs(forms) for forms in meanings) > _CHUNK_PAIRS
        if scorer_name == "vanilla":
            scorer = Scorer.vanilla()
        else:
            scorer = estimate_pmi(planted.pairs, 0.1)
        buf = io.StringIO()
        for forms in meanings:
            similarity_matrix(forms, scorer).to_tsv(buf)
        write_partitions(wordlist, cluster_wordlist(wordlist, scorer, jobs=1), buf)
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest


class TestPlantedSweepBytes:
    def test_sweep_histories_baseline_and_reports_of_planted_list_are_pinned(self, monkeypatch):
        # Every label, history and report bit of an alpha sweep: a change in
        # the order of the scan's, the baseline's or B-cubed's float
        # operations, or in how a tie or a new label is chosen, changes the text.
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        from plant import Shape, planted_wordlist

        planted = planted_wordlist(5, Shape(meanings=8, languages=60, proto_len=(3, 9), classes=(1, 8)))
        wordlist = parse_wordlist(io.StringIO(planted.wordlist_tsv()))
        scorer = estimate_pmi(planted.pairs, 0.1)
        sims = {m: similarity_matrix(wordlist.forms_for_meaning(m), scorer) for m in wordlist.meanings}
        gold = gold_partitions(wordlist)
        alphas = (0.01, 0.5, 1.0, 2.0, 5.0, 10.0)
        settings = [
            CrpConfig(alpha=a, linkage=linkage, shuffle_seed=order)
            for a in alphas for linkage in ("average", "single") for order in (None, 5)
        ]
        buf = io.StringIO()
        for setting in [*settings, *alphas]:
            parts = {}
            for m, s in sims.items():
                if isinstance(setting, CrpConfig):
                    parts[m], history = crp_cluster_with_history(s, setting)
                    buf.write(f"{setting}\t{m}\t{parts[m].labels}\t{history}\n")
                else:
                    parts[m] = flat_cluster_threshold(s, setting)
                    buf.write(f"flat {setting}\t{m}\t{parts[m].labels}\n")
            report = evaluate_dataset(parts, gold)
            buf.write(f"{render_report_kv(report)}{report!r}\n")  # the repr has every bit
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == (
            "21ae1c205f8910ff3413af4f284d84f0c33b002f19ed1b59c7c46c987b167c37"
        )
