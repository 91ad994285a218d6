"""PMI estimation and matrix file IO tests."""

import hashlib
import io
import math
from pathlib import Path

import numpy as np
import pytest

from cogclust import (
    ASJP_SOUNDS,
    DegenerateInputError,
    GapParams,
    ParseError,
    Scorer,
    ValidationError,
    estimate_pmi,
    load_pmi,
    nw_score,
    save_pmi,
)

from oracles import pmi_by_counting

ROOT = Path(__file__).resolve().parents[1]
TWO_SYMBOL_FILE = "alphabet\ta b\na\ta\t2.0\na\tb\t-1.0\nb\tb\t1.0\n"


class TestLoadPmi:
    def test_symmetry_completion(self):
        m = load_pmi(io.StringIO(TWO_SYMBOL_FILE))
        assert m.substitution("b", "a") == -1.0
        assert m.substitution("a", "a") == 2.0

    def test_missing_pair(self):
        text = "alphabet\ta b\na\ta\t2.0\na\tb\t-1.0\n"
        with pytest.raises(ParseError, match=r"\(b, b\)"):
            load_pmi(io.StringIO(text))

    def test_conflicting_mirror_entries(self):
        # The earlier score prints as a Python float under every numpy.
        text = TWO_SYMBOL_FILE + "b\ta\t-0.5\n"
        with pytest.raises(ParseError) as err:
            load_pmi(io.StringIO(text))
        assert str(err.value) == "line 5: conflicting scores for pair (b, a): -1.0 vs -0.5"

    def test_consistent_mirror_entry_tolerated(self):
        text = TWO_SYMBOL_FILE + "b\ta\t-1.0\n"
        assert load_pmi(io.StringIO(text)).substitution("a", "b") == -1.0

    def test_gap_rows_rejected(self):
        text = "alphabet\ta -\na\ta\t1.0\na\t-\t0.0\n-\t-\t0.0\n"
        with pytest.raises(ParseError, match="gap"):
            load_pmi(io.StringIO(text))

    def test_unknown_symbol_in_pair(self):
        text = "alphabet\ta b\na\ta\t2.0\na\tz\t-1.0\nb\tb\t1.0\n"
        with pytest.raises(ParseError, match="'z'"):
            load_pmi(io.StringIO(text))

    def test_bad_header(self):
        with pytest.raises(ParseError, match="alphabet"):
            load_pmi(io.StringIO("a b\n"))

    def test_wrong_column_count_reports_line(self, tmp_path):
        text = "alphabet\ta b\na\ta\t2.0\n\na\tb\n"
        with pytest.raises(ParseError) as err:
            load_pmi(io.StringIO(text))
        assert str(err.value) == "line 4: expected 3 columns, got 2"
        path = tmp_path / "matrix.tsv"  # a path, unlike an open file, is named
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_pmi(path)
        assert str(err.value) == f"{path}: line 4: expected 3 columns, got 2"

    def test_bad_score_value(self):
        text = "alphabet\ta\na\ta\tpotato\n"
        with pytest.raises(ParseError, match="potato"):
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
        assert np.isneginf(again.scores).any()


# Alphabets outside the rule of alphabet.check_alphabet, each with its message.
BAD_ALPHABETS = {
    "empty": ((), "alphabet is empty"),
    "two characters": (("a", "bc"), "alphabet symbols must be single characters"),
    "empty symbol": (("a", ""), "alphabet symbols must be single characters"),
    **{
        name: (("a", sep), f"alphabet symbol {sep!r} separates the fields of a matrix file")
        for name, sep in (("space", " "), ("tab", "\t"), ("CR", "\r"), ("LF", "\n"))
    },
    **{
        name: (("a", sur), f"alphabet symbol {sur!r} is a lone surrogate, which UTF-8 cannot encode")
        for name, sur in (("high surrogate", "\ud800"), ("low surrogate", "\udfff"))
    },
    "duplicate": (("a", "b", "a"), "alphabet contains duplicate symbols"),
    "gap": (("a", "-"), "the gap symbol '-' may not be part of a score table; "
                        "gap costs are aligner parameters"),
}


class TestAlphabetRule:
    @pytest.mark.parametrize("case", sorted(BAD_ALPHABETS))
    def test_rejected_by_scorer_and_by_estimate_before_any_pair(self, tmp_path, case):
        alphabet, message = BAD_ALPHABETS[case]
        taken = []

        def pairs():
            for pair in [("ab", "ab"), ("a-", "-b")]:
                taken.append(pair)
                yield pair

        for build in (
            lambda: Scorer(alphabet, np.zeros((len(alphabet), len(alphabet)))),
            lambda: estimate_pmi(pairs(), 0.1, alphabet=alphabet),
            # A setting's error names no file, and comes before the file is opened.
            lambda: estimate_pmi(tmp_path / "missing.tsv", 0.1, alphabet=alphabet),
        ):
            with pytest.raises(ValidationError) as err:
                build()
            assert str(err.value) == message
        assert taken == []

    def test_every_accepted_table_round_trips_and_every_rejected_alphabet_fails_on_line_1(self):
        rng = np.random.default_rng(43)
        # Symbols the rule allows, line and space marks that the file does
        # not split on included.
        pool = list(ASJP_SOUNDS) + list("\u00e9\u4e2d_~\x0b\x0c\x1c\x85\xa0\u2028\ufeff")
        values = [0.0, -0.0, float("-inf"), 1.5, -2.25, 1e-300, -7e300]
        bad_symbols = ["", "ab", " ", "\t", "\r", "\n", "-"]
        rejected = [alphabet for alphabet, _ in BAD_ALPHABETS.values()]
        for _ in range(60):
            k = int(rng.integers(1, 9))
            alphabet = tuple(pool[i] for i in rng.choice(len(pool), size=k, replace=False))
            table = rng.choice(values, size=(k, k))
            table = np.where(np.triu(np.ones((k, k), dtype=bool)), table, table.T)
            t = Scorer(alphabet, table)
            buf = io.StringIO()
            save_pmi(t, buf)
            again = load_pmi(io.StringIO(buf.getvalue()))
            assert again == t
            assert again.scores.tobytes() == t.scores.tobytes()  # -0.0 and -inf kept
            bad = list(alphabet)
            bad.insert(int(rng.integers(0, k + 1)), str(rng.choice(bad_symbols + [alphabet[0]])))
            rejected.append(tuple(bad))
        for alphabet in rejected:
            with pytest.raises(ValidationError) as rule:
                Scorer(alphabet, np.zeros((len(alphabet), len(alphabet))))
            with pytest.raises(ParseError) as err:
                load_pmi(io.StringIO("alphabet\t" + " ".join(alphabet) + "\n"))
            assert err.value.line == 1
            if alphabet and set(alphabet).isdisjoint(" \t\r\n"):
                # The header reads back the same symbols, so the same message.
                assert str(err.value) == f"line 1: {rule.value}"


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
        assert np.isneginf(m.scores).any()
        assert m.substitution("a", "b") == float("-inf")
        smoothed = estimate_pmi([("a", "a")], smoothing=0.1, alphabet=("a", "b"))
        assert not np.isneginf(smoothed.scores).any()

    def test_all_gap_corpus_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            estimate_pmi([("a-", "-a")], smoothing=0, alphabet=("a",))

    def test_unequal_lengths_rejected(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            estimate_pmi([("aa", "a")])
        assert str(err.value) == "aligned pair ('aa', 'a') has unequal lengths 2 and 1"
        # Read from a file, the pair names its line, blank lines counted
        # whatever their line ends, and a path is named first.
        path = tmp_path / "pairs.tsv"
        for data, line in ((b"ol\tal\n\naa\ta\n", 3), (b"ol\tal\r\n\r\n\r\naa\ta\r\n", 4)):
            path.write_bytes(data)
            for source, prefix in ((path, f"{path}: "), (str(path), f"{path}: "),
                                   (io.BytesIO(data), "")):
                with pytest.raises(ValidationError) as err:
                    estimate_pmi(source)
                assert str(err.value) == (
                    f"{prefix}line {line}: aligned pair ('aa', 'a') has unequal lengths 2 and 1"
                )

    def test_gap_symbol_in_the_alphabet_rejected(self):
        # A table with a '-' row could be saved but never loaded back.
        alphabet = ("a", "-", "b")
        for build in (
            lambda: estimate_pmi([("ab-", "a-b"), ("ba", "bb")], 0.5, alphabet=alphabet),
            lambda: Scorer(alphabet, np.zeros((3, 3))),
            lambda: Scorer.vanilla(alphabet=alphabet),
        ):
            with pytest.raises(ValidationError) as err:
                build()
            assert str(err.value) == (
                "the gap symbol '-' may not be part of a score table; "
                "gap costs are aligner parameters"
            )

    @pytest.mark.parametrize("smoothing", [0, 0.1])
    def test_duplicate_alphabet_symbol_rejected(self, smoothing):
        with pytest.raises(ValidationError) as err:
            estimate_pmi([("ab", "ab")], smoothing, alphabet=("a", "b", "a"))
        assert str(err.value) == "alphabet contains duplicate symbols"

    @pytest.mark.parametrize("smoothing, digest", [
        (0.1, "e4919b937bfaa096b2ac75aba0aedf492478e154ef2c4356fd5ee3f649c42541"),
        (0, "7476d7504ed8f3801ec0c50505f419ccb50d7fcb45219b23010a81a409660b8d"),
    ])
    def test_saved_table_of_planted_pairs_is_pinned(self, monkeypatch, smoothing, digest):
        # Every bit of the estimate: a change in the counting or in the order
        # of the float operations changes the saved text.
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        from plant import Shape, planted_wordlist

        shape = Shape(meanings=20, languages=40, proto_len=(3, 9), classes=(1, 8))
        buf = io.StringIO()
        save_pmi(estimate_pmi(planted_wordlist(3, shape).pairs, smoothing), buf)
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest

    def test_out_of_alphabet_segment_rejected(self):
        with pytest.raises(ValidationError, match="'z'"):
            estimate_pmi([("az", "aa")], alphabet=("a",))
        with pytest.raises(ValidationError) as err:
            estimate_pmi(io.StringIO("aa\taa\naz\taa\n"), alphabet=("a",))
        assert str(err.value) == "line 2: segment 'z' is not in the alphabet"

    def test_negative_smoothing_rejected(self, tmp_path):
        for smoothing in (-0.1, float("nan"), float("inf"), "0.1", None):
            with pytest.raises(ValidationError, match="smoothing"):
                estimate_pmi([("a", "a")], smoothing=smoothing, alphabet=("a",))
            # Checked before the file is opened, and naming no file.
            with pytest.raises(ValidationError) as err:
                estimate_pmi(tmp_path / "missing.tsv", smoothing=smoothing)
            assert str(err.value) == "smoothing must be finite and >= 0"

    def test_a_file_of_pairs_gives_the_table_of_its_pairs(self, tmp_path):
        pairs = [("ol", "al"), ("o-l", "oll"), ("ala", "ala")]
        text = "\r\n".join("\t".join(pair) for pair in pairs) + "\n\n"
        path = tmp_path / "pairs.tsv"
        path.write_text(text, encoding="utf-8")
        want = estimate_pmi(pairs, 0.2)
        for source in (path, io.StringIO(text), io.BytesIO(path.read_bytes())):
            assert estimate_pmi(source, 0.2) == want

    def test_estimated_matrix_drives_the_aligner(self):
        pairs = [("pk", "kp")] * 5 + [("ee", "oo")]
        m = estimate_pmi(pairs, smoothing=0.5, alphabet=tuple("peko"))
        assert m.gaps == GapParams()
        assert m.substitution("p", "k") > 0
        assert nw_score("p", "k", m) == m.substitution("p", "k")
