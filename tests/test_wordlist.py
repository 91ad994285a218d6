"""Word list parsing and validation tests."""

import io
import pickle
import random

import pytest

from cogclust import (
    ASJP_SOUNDS,
    MODIFIER_CHARS,
    MeaningNotFoundError,
    ParseError,
    ValidationError,
    WordForm,
    WordList,
    gold_partitions,
    parse_wordlist,
)

HEADER = "language\tconcept\ttranscription\tcognate_class\n"

TABLE_SAMPLE = HEADER + "".join(
    f"{lang}\t{concept}\t{word}\t{cls}\n"
    for lang, concept, word, cls in [
        ("English", "ALL", "ol", "c1"),
        ("German", "ALL", "al3", "c1"),
        ("French", "ALL", "tu", "c2"),
        ("Spanish", "ALL", "to8o", "c2"),
        ("Swedish", "ALL", "ala", "c1"),
        ("English", "AND", "End", "d1"),
        ("German", "AND", "unt", "d1"),
        ("French", "AND", "e", "d2"),
        ("Spanish", "AND", "i", "d2"),
        ("Swedish", "AND", "ok", "d3"),
    ]
)


def parse(text, **kwargs):
    return parse_wordlist(io.StringIO(text), **kwargs)


class TestParsing:
    def test_two_rows(self):
        wl = parse(HEADER + "English\tALL\tol\tc1\nGerman\tALL\tal3\tc1\n")
        assert len(wl) == 2
        assert wl.meanings == ("ALL",)
        assert wl.languages == ("English", "German")
        assert wl.forms[0] == WordForm("English", "ALL", "ol", "c1")
        assert list(wl) == list(wl.forms)
        assert repr(wl) == "WordList(2 forms, 1 meanings, 2 languages)"

    def test_header_only(self):
        wl = parse(HEADER)
        assert len(wl) == 0
        assert wl.meanings == ()
        assert wl.languages == ()

    def test_three_column_file_has_no_gold(self):
        wl = parse("language\tconcept\ttranscription\nEnglish\tALL\tol\n")
        assert wl.forms[0].gold_class is None
        assert gold_partitions(wl) == {}

    def test_reordered_header_columns(self):
        wl = parse("transcription\tlanguage\tconcept\nol\tEnglish\tALL\n")
        assert wl.forms[0] == WordForm("English", "ALL", "ol")

    def test_empty_gold_field_means_unlabelled(self):
        wl = parse(HEADER + "English\tALL\tol\t\nGerman\tALL\tal3\t\n")
        assert all(f.gold_class is None for f in wl.forms)

    def test_bytes_stream(self):
        wl = parse_wordlist(io.BytesIO(TABLE_SAMPLE.encode("utf-8")))
        assert len(wl) == 10

    def test_path_input(self, tmp_path):
        path = tmp_path / "words.tsv"
        path.write_text(TABLE_SAMPLE, encoding="utf-8")
        assert parse_wordlist(path) == parse(TABLE_SAMPLE)

    def test_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "words.tsv"
        path.write_bytes(b"\xef\xbb\xbf" + TABLE_SAMPLE.encode("utf-8"))
        want = parse(TABLE_SAMPLE)
        assert parse_wordlist(path) == want
        assert parse_wordlist(io.BytesIO(path.read_bytes())) == want

    def test_line_ends_read_alike_from_every_source(self, tmp_path):
        # CRLF, a blank CRLF line and a lone CR: the same bytes, three sources.
        rows = TABLE_SAMPLE.split("\n")
        text = "\r\n".join(rows[:3]) + "\r\n\r\n" + "\r".join(rows[3:6]) + "\r\n"
        text += "\n".join(rows[6:])
        data = text.encode("utf-8")
        path = tmp_path / "words.tsv"
        path.write_bytes(data)
        want = parse(TABLE_SAMPLE)
        assert parse_wordlist(path) == want
        assert parse_wordlist(io.BytesIO(data)) == want
        assert parse_wordlist(io.StringIO(text)) == want

    def test_only_newline_ends_a_line(self):
        # str.splitlines() would end a line at each of these too.
        others = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
        for ch in [*others, others]:
            wl = parse(HEADER + f"Eng{ch}lish\tA{ch}LL\tol\tc1\nGerman\tALL\tal3\tc1\n")
            assert [(f.language, f.meaning) for f in wl] == [
                (f"Eng{ch}lish", f"A{ch}LL"), ("German", "ALL")
            ]

    def test_long_list_keeps_every_row_and_line_number(self):
        # Far more text than one block of lines, blank lines in between.
        rows = [f"L{i}\tM{i % 7}\tol\t\n" + "\n" * (i % 3) for i in range(6000)]
        text = HEADER + "".join(rows)
        wl = parse(text)
        assert [f.language for f in wl] == [f"L{i}" for i in range(6000)]
        bad_line = text.count("\n") + 1
        with pytest.raises(ParseError, match=f"^line {bad_line}: expected 4 columns, got 1$"):
            parse(text + "stray")

    def test_equal_values_share_one_string_and_the_list_pickles(self):
        wl = parse(TABLE_SAMPLE + "English\tBIG\tol\tc1\nGerman\tBIG\to*l\tc1\n")
        assert wl.forms[-1].segments == "ol"
        first = {}
        for form in wl:
            for value in (form.language, form.meaning, form.segments, form.gold_class):
                assert first.setdefault(value, value) is value
        assert not hasattr(wl.forms[0], "__dict__")
        # A spawn pool sends the list to its workers as a pickle.
        assert pickle.loads(pickle.dumps(wl)) == wl


class TestParseErrors:
    def test_out_of_alphabet_symbol_named_with_line(self):
        with pytest.raises(ValidationError, match=r"'9'") as err:
            parse(HEADER + "English\tALL\tol\tc1\nGerman\tALL\ta9\tc1\n")
        assert "line 3" in str(err.value)

    def test_wrong_column_count_reports_line(self, tmp_path):
        text = HEADER + "English\tALL\tol\tc1\n\nEnglish\tALL\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == "line 4: expected 4 columns, got 2"
        path = tmp_path / "words.tsv"  # a path, unlike an open file, is named
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_wordlist(path)
        assert str(err.value) == f"{path}: line 4: expected 4 columns, got 2"

    def test_bytes_that_are_not_utf8_name_their_line(self):
        data = HEADER.replace("\n", "\r\n").encode("utf-8") + b"Engl\xffish\tALL\tol\tc1\n"
        with pytest.raises(ParseError) as err:
            parse_wordlist(io.BytesIO(data))
        assert str(err.value).startswith("line 2: not UTF-8: byte 0xff")

    def test_empty_transcription(self):
        with pytest.raises(ValidationError, match="empty transcription"):
            parse(HEADER + "English\tALL\t\tc1\n")

    @pytest.mark.parametrize("text, error, message", [
        ("language\tconcept\ttranscription\tconcept\n", ParseError,
         "line 1: duplicate column 'concept'"),
        (HEADER + "English\tALL\tol\tc1\n\tALL\tal3\tc1\n", ValidationError,
         "line 3: empty language identifier"),
        (HEADER + "English\tALL\tol\tc1\nGerman\t\tal3\tc1\n", ValidationError,
         "line 3: empty concept identifier"),
    ], ids=["duplicate column", "empty language", "empty concept"])
    def test_rejected_naming_its_line(self, text, error, message):
        with pytest.raises(error) as err:
            parse(text)
        assert str(err.value) == message

    def test_missing_required_column(self):
        with pytest.raises(ParseError, match="transcription"):
            parse("language\tconcept\nEnglish\tALL\n")

    def test_unknown_column(self):
        with pytest.raises(ParseError, match="loan"):
            parse("language\tconcept\ttranscription\tloan\n")

    def test_mixed_gold_within_meaning_rejected(self):
        with pytest.raises(ValidationError, match="ALL"):
            parse(HEADER + "English\tALL\tol\tc1\nGerman\tALL\tal3\t\n")


class TestModifiers:
    def test_strip_is_default(self):
        wl = parse(HEADER + 'English\tALL\to~l"\tc1\n')
        assert wl.forms[0].segments == "ol"

    def test_strict_rejects_modifiers(self):
        with pytest.raises(ValidationError, match="'~'"):
            parse(HEADER + "English\tALL\to~l\tc1\n", modifiers="strict")

    def test_stripping_everything_leaves_empty_transcription(self):
        with pytest.raises(ValidationError, match="empty transcription"):
            parse(HEADER + "English\tALL\t~~\tc1\n")

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            parse(TABLE_SAMPLE, modifiers="ignore")
        # Checked before the file is opened, and naming no file.
        with pytest.raises(ValidationError) as err:
            parse_wordlist(tmp_path / "missing.tsv", modifiers="ignore")
        assert str(err.value) == "unknown modifier policy 'ignore'"

    def test_first_of_two_foreign_symbols_is_named(self):
        for modifiers in ("strip", "strict"):
            with pytest.raises(ValidationError) as err:
                parse(HEADER + "English\tALL\tol\tc1\nGerman\tALL\ta9l?\tc1\n", modifiers=modifiers)
            assert str(err.value) == "line 3: symbol '9' is not in the alphabet"
        with pytest.raises(ValidationError, match="'~'"):
            parse(HEADER + "English\tALL\to~l9\tc1\n", modifiers="strict")

    def test_both_modes_match_a_per_symbol_check(self):
        # Random transcriptions of sounds, modifiers and foreign symbols give
        # the forms or the first error of a check that visits each symbol.
        def per_symbol(word, modifiers):
            if modifiers == "strip":
                word = "".join(ch for ch in word if ch not in MODIFIER_CHARS)
            if not word:
                return "line 2: empty transcription"
            for ch in word:
                if ch not in ASJP_SOUNDS:
                    return f"line 2: symbol {ch!r} is not in the alphabet"
            return word

        rng = random.Random(3)
        pool = list(ASJP_SOUNDS) * 2 + sorted(MODIFIER_CHARS) + list("9?-é ")
        outcomes = set()
        for _ in range(400):
            word = "".join(rng.choices(pool, k=rng.randint(1, 5)))
            for modifiers in ("strip", "strict"):
                try:
                    got = parse(HEADER + f"English\tALL\t{word}\tc1\n", modifiers=modifiers).forms[0].segments
                except ValidationError as err:
                    got = str(err)
                want = per_symbol(word, modifiers)
                assert got == want, (word, modifiers)
                outcomes.add(want if want.startswith("line") else "form")
        assert len(outcomes) > 5  # forms, empty words and several symbols named


class TestDuplicates:
    def test_identical_rows_collapse_with_counter(self):
        wl = parse(
            HEADER
            + "English\tALL\tol\tc1\n"
            + "English\tALL\tol\tc1\n"
            + "German\tALL\tal3\tc1\n"
        )
        assert len(wl) == 2
        assert wl.duplicates_collapsed == 1

    def test_distinct_transcriptions_are_kept_as_synonyms(self):
        wl = parse(HEADER + "English\tALL\tol\tc1\nEnglish\tALL\tal\tc1\n")
        assert len(wl) == 2
        assert wl.duplicates_collapsed == 0


class TestFormsForMeaning:
    def test_file_order_preserved(self):
        wl = parse(TABLE_SAMPLE)
        words = [f.segments for f in wl.forms_for_meaning("ALL")]
        assert words == ["ol", "al3", "tu", "to8o", "ala"]

    def test_single_form_meaning(self):
        wl = parse(HEADER + "English\tALL\tol\tc1\n")
        assert len(wl.forms_for_meaning("ALL")) == 1

    def test_unknown_meaning(self):
        wl = parse(TABLE_SAMPLE)
        with pytest.raises(MeaningNotFoundError, match="XYZ"):
            wl.forms_for_meaning("XYZ")
        with pytest.raises(KeyError):
            wl.forms_for_meaning("XYZ")

    def test_meanings_partition_the_forms(self):
        wl = parse(TABLE_SAMPLE)
        collected = [f for m in wl.meanings for f in wl.forms_for_meaning(m)]
        assert sorted(map(id, collected)) == sorted(map(id, wl.forms))
        assert len(collected) == len(wl)


class TestWordListConstruction:
    def test_empty_segments_rejected(self):
        with pytest.raises(ValidationError):
            WordForm("English", "ALL", "")

    def test_programmatic_duplicates_collapse(self):
        wl = WordList([WordForm("A", "M", "ol"), WordForm("A", "M", "ol")])
        assert len(wl) == 1
        assert wl.duplicates_collapsed == 1
        assert wl == WordList([WordForm("A", "M", "ol")])
        assert wl.__eq__(wl.forms) is NotImplemented
        assert wl != wl.forms
