"""Word list parsing, validation and round-trip tests."""

import io

import pytest

from cogclust import (
    MeaningNotFoundError,
    ParseError,
    ValidationError,
    WordForm,
    WordList,
    gold_partitions,
    parse_wordlist,
    write_wordlist,
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


class TestParseErrors:
    def test_out_of_alphabet_symbol_named_with_line(self):
        with pytest.raises(ValidationError, match=r"'9'") as err:
            parse(HEADER + "English\tALL\tol\tc1\nGerman\tALL\ta9\tc1\n")
        assert "line 3" in str(err.value)

    def test_wrong_column_count_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse(HEADER + "English\tALL\n")

    def test_empty_transcription(self):
        with pytest.raises(ValidationError, match="empty transcription"):
            parse(HEADER + "English\tALL\t\tc1\n")

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

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError):
            parse(TABLE_SAMPLE, modifiers="ignore")


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


class TestRoundTrip:
    def test_parse_write_parse_identity(self):
        wl = parse(TABLE_SAMPLE)
        buf = io.StringIO()
        write_wordlist(wl, buf)
        assert parse(buf.getvalue()) == wl

    def test_round_trip_without_gold(self):
        wl = parse("language\tconcept\ttranscription\nEnglish\tALL\tol\n")
        buf = io.StringIO()
        write_wordlist(wl, buf)
        assert parse(buf.getvalue()) == wl

    def test_write_to_path(self, tmp_path):
        wl = parse(TABLE_SAMPLE)
        path = tmp_path / "out.tsv"
        write_wordlist(wl, path)
        assert parse_wordlist(path) == wl


class TestWordListConstruction:
    def test_empty_segments_rejected(self):
        with pytest.raises(ValidationError):
            WordForm("English", "ALL", "")

    def test_programmatic_duplicates_collapse(self):
        wl = WordList([WordForm("A", "M", "ol"), WordForm("A", "M", "ol")])
        assert len(wl) == 1
        assert wl.duplicates_collapsed == 1
