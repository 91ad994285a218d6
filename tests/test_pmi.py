"""PMI estimation and matrix file IO tests."""

import io
import math

import numpy as np
import pytest

from cogclust import (
    ASJP_SOUNDS,
    DegenerateInputError,
    GapParams,
    MatrixFormatError,
    Scorer,
    ValidationError,
    estimate_pmi,
    load_pmi,
    nw_score,
    save_pmi,
)

from oracles import pmi_by_counting

TWO_SYMBOL_FILE = "alphabet\ta b\na\ta\t2.0\na\tb\t-1.0\nb\tb\t1.0\n"


class TestLoadPmi:
    def test_symmetry_completion(self):
        m = load_pmi(io.StringIO(TWO_SYMBOL_FILE))
        assert m.substitution("b", "a") == -1.0
        assert m.substitution("a", "a") == 2.0

    def test_missing_pair(self):
        text = "alphabet\ta b\na\ta\t2.0\na\tb\t-1.0\n"
        with pytest.raises(MatrixFormatError, match=r"\(b, b\)"):
            load_pmi(io.StringIO(text))

    def test_conflicting_mirror_entries(self):
        text = TWO_SYMBOL_FILE + "b\ta\t-0.5\n"
        with pytest.raises(MatrixFormatError, match="conflicting"):
            load_pmi(io.StringIO(text))

    def test_consistent_mirror_entry_tolerated(self):
        text = TWO_SYMBOL_FILE + "b\ta\t-1.0\n"
        assert load_pmi(io.StringIO(text)).substitution("a", "b") == -1.0

    def test_gap_rows_rejected(self):
        text = "alphabet\ta -\na\ta\t1.0\na\t-\t0.0\n-\t-\t0.0\n"
        with pytest.raises(MatrixFormatError, match="gap"):
            load_pmi(io.StringIO(text))

    def test_unknown_symbol_in_pair(self):
        text = "alphabet\ta b\na\ta\t2.0\na\tz\t-1.0\nb\tb\t1.0\n"
        with pytest.raises(MatrixFormatError, match="'z'"):
            load_pmi(io.StringIO(text))

    def test_bad_header(self):
        with pytest.raises(MatrixFormatError, match="alphabet"):
            load_pmi(io.StringIO("a b\n"))

    def test_bad_score_value(self):
        text = "alphabet\ta\na\ta\tpotato\n"
        with pytest.raises(MatrixFormatError, match="potato"):
            load_pmi(io.StringIO(text))

    def test_positive_infinity_rejected(self):
        text = TWO_SYMBOL_FILE.replace("2.0", "inf")
        with pytest.raises(ValidationError, match=r"\+inf"):
            load_pmi(io.StringIO(text))

    def test_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "matrix.tsv"
        path.write_text("\ufeff" + TWO_SYMBOL_FILE, encoding="utf-8")
        want = load_pmi(io.StringIO(TWO_SYMBOL_FILE))
        assert load_pmi(path) == want
        assert load_pmi(io.BytesIO(path.read_bytes())) == want

    def test_line_ends_read_alike_from_every_source(self, tmp_path):
        # CRLF, a blank CRLF line and a lone CR: the same bytes, three sources.
        data = b"alphabet\ta b\r\na\ta\t2.0\r\n\r\na\tb\t-1.0\rb\tb\t1.0\r\n"
        path = tmp_path / "matrix.tsv"
        path.write_bytes(data)
        want = load_pmi(io.StringIO(TWO_SYMBOL_FILE))
        assert load_pmi(path) == want
        assert load_pmi(io.BytesIO(data)) == want
        assert load_pmi(io.StringIO(data.decode("utf-8"))) == want


class TestSaveLoadRoundTrip:
    def test_two_symbol_round_trip(self):
        m = load_pmi(io.StringIO(TWO_SYMBOL_FILE))
        buf = io.StringIO()
        save_pmi(m, buf)
        assert load_pmi(io.StringIO(buf.getvalue())) == m

    def test_all_zero_matrix(self):
        m = Scorer(("a", "b"), np.zeros((2, 2)))
        buf = io.StringIO()
        save_pmi(m, buf)
        again = load_pmi(io.StringIO(buf.getvalue()))
        assert (again.scores == 0).all()

    def test_random_full_alphabet_round_trip_is_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            raw = rng.normal(size=(41, 41)) * rng.uniform(1e-6, 1e6)
            m = Scorer(ASJP_SOUNDS, (raw + raw.T) / 2)
            buf = io.StringIO()
            save_pmi(m, buf)
            again = load_pmi(io.StringIO(buf.getvalue()))
            assert np.array_equal(again.scores, m.scores)
            assert again == m

    def test_path_round_trip(self, tmp_path):
        m = load_pmi(io.StringIO(TWO_SYMBOL_FILE))
        path = tmp_path / "matrix.tsv"
        save_pmi(m, path)
        assert load_pmi(path) == m

    def test_unobserved_pair_sentinel_survives_round_trip(self):
        m = estimate_pmi([("a", "a")], smoothing=0, alphabet=("a", "b"))
        buf = io.StringIO()
        save_pmi(m, buf)
        again = load_pmi(io.StringIO(buf.getvalue()))
        assert again == m
        assert again.has_unobserved_pairs


def random_aligned_corpus(rng, symbols="peko", n_pairs=8, max_len=6):
    pairs = []
    for _ in range(n_pairs):
        length = int(rng.integers(1, max_len))
        left = []
        right = []
        for _ in range(length):
            x = "-" if rng.random() < 0.15 else str(rng.choice(list(symbols)))
            if x == "-":
                y = str(rng.choice(list(symbols)))
            else:
                y = "-" if rng.random() < 0.15 else str(rng.choice(list(symbols)))
            left.append(x)
            right.append(y)
        pairs.append(("".join(left), "".join(right)))
    return pairs


class TestEstimatePmi:
    def test_single_identical_pair_scores_zero(self):
        m = estimate_pmi([("a", "a")], smoothing=0, alphabet=("a", "b"))
        assert m.substitution("a", "a") == 0.0

    def test_independence_corpus_scores_zero(self):
        # 3 x (a,a), 3 x (b,b), 2 x (a,b): the pooled pair frequency of (a,b)
        # equals q(a) * q(b) = 1/4 exactly.
        pairs = [("a", "a")] * 3 + [("b", "b")] * 3 + [("a", "b")] * 2
        m = estimate_pmi(pairs, smoothing=0, alphabet=("a", "b"))
        assert abs(m.substitution("a", "b")) < 1e-12

    def test_four_position_corpus_matches_hand_derivation(self):
        # positions (a,a), (a,a), (b,b), (a,b):
        #   p(a,a)=2/4, p(b,b)=1/4, p(a,b)=1/4, q(a)=5/8, q(b)=3/8
        pairs = [("aaba", "aabb")]
        m = estimate_pmi(pairs, smoothing=0, alphabet=("a", "b"))
        assert abs(m.substitution("a", "a") - math.log((2 / 4) / (5 / 8) ** 2)) < 1e-12
        assert abs(m.substitution("a", "b") - math.log((1 / 4) / ((5 / 8) * (3 / 8)))) < 1e-12
        assert abs(m.substitution("b", "b") - math.log((1 / 4) / (3 / 8) ** 2)) < 1e-12

    def test_matches_counting_oracle_on_random_corpora(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            pairs = random_aligned_corpus(rng)
            try:
                m = estimate_pmi(pairs, smoothing=0, alphabet=tuple("peko"))
            except DegenerateInputError:
                continue
            expected = pmi_by_counting(pairs)
            for (x, y), value in expected.items():
                got = m.substitution(x, y)
                if math.isinf(value):
                    assert math.isinf(got) and got < 0
                else:
                    assert abs(got - value) < 1e-12

    def test_sign_tracks_chance_co_occurrence(self):
        # a~a co-occurs above chance (8/18 > 1/4), a~b below (2/18 < 1/4).
        pairs = [("aa", "aa")] * 4 + [("bb", "bb")] * 4 + [("ab", "ba")]
        m = estimate_pmi(pairs, smoothing=0, alphabet=("a", "b"))
        assert m.substitution("a", "a") > 0
        assert m.substitution("a", "b") < 0

    def test_sign_property_on_random_corpora(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            pairs = random_aligned_corpus(rng, n_pairs=12)
            try:
                m = estimate_pmi(pairs, smoothing=0, alphabet=tuple("peko"))
            except DegenerateInputError:
                continue
            joint = {}
            marg = {}
            tot_j = tot_m = 0
            for left, right in pairs:
                for x, y in zip(left, right):
                    for s in (x, y):
                        if s != "-":
                            marg[s] = marg.get(s, 0) + 1
                            tot_m += 1
                    if x != "-" and y != "-":
                        key = tuple(sorted((x, y)))
                        joint[key] = joint.get(key, 0) + 1
                        tot_j += 1
            for (x, y), count in joint.items():
                chance = (marg[x] / tot_m) * (marg[y] / tot_m)
                observed = count / tot_j
                if observed > chance:
                    assert m.substitution(x, y) > 0
                elif observed < chance:
                    assert m.substitution(x, y) < 0

    def test_output_symmetric_and_dense(self):
        rng = np.random.default_rng(31)
        pairs = random_aligned_corpus(rng, n_pairs=20)
        m = estimate_pmi(pairs, smoothing=0.1, alphabet=tuple("peko"))
        assert np.array_equal(m.scores, m.scores.T)
        assert m.scores.shape == (4, 4)
        assert np.isfinite(m.scores).all()

    def test_zero_smoothing_flags_unobserved_pairs(self):
        m = estimate_pmi([("a", "a")], smoothing=0, alphabet=("a", "b"))
        assert m.has_unobserved_pairs
        assert m.substitution("a", "b") == float("-inf")
        smoothed = estimate_pmi([("a", "a")], smoothing=0.1, alphabet=("a", "b"))
        assert not smoothed.has_unobserved_pairs

    def test_all_gap_corpus_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            estimate_pmi([("a-", "-a")], smoothing=0, alphabet=("a",))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValidationError, match="unequal"):
            estimate_pmi([("aa", "a")])

    def test_out_of_alphabet_segment_rejected(self):
        with pytest.raises(ValidationError, match="'z'"):
            estimate_pmi([("az", "aa")], alphabet=("a",))

    def test_negative_smoothing_rejected(self):
        for smoothing in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="smoothing"):
                estimate_pmi([("a", "a")], smoothing=smoothing, alphabet=("a",))

    def test_estimated_matrix_drives_the_aligner(self):
        pairs = [("pk", "kp")] * 5 + [("ee", "oo")]
        m = estimate_pmi(pairs, smoothing=0.5, alphabet=tuple("peko"))
        assert m.gaps == GapParams()
        assert m.substitution("p", "k") > 0
        assert nw_score("p", "k", m) == m.substitution("p", "k")
