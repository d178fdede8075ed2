import dataclasses
import random
import re
import time
from datetime import date, datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvmforge import lvm
from lvmforge import (
    HighPrecisionTime,
    LvmDocument,
    LvmFileHeader,
    LvmSegment,
    Separator,
    TimePref,
    channel_series,
    parse_lvm,
    serialize_lvm,
)
from lvmforge.errors import (
    ChannelCountMismatch,
    IndexOutOfRange,
    InvariantViolation,
    LvmforgeError,
    MalformedNumber,
    MissingHeaderTerminator,
    MissingMagicLine,
    UnsupportedFeature,
)

import corpus
from docgen import random_document

MINIMAL = (
    "LabVIEW Measurement\n"
    "Separator\tTab\n"
    "Decimal_Separator\t.\n"
    "***End_of_Header***\n"
    "Channels\t1\n"
    "***End_of_Header***\n"
    "X_Value\tChannel 0\n"
)


def test_annex1_header(annex1_doc):
    h = annex1_doc.header
    assert h.separator is Separator.TAB
    assert h.decimal_separator == ","
    assert h.time_pref is TimePref.ABSOLUTE
    assert h.operator == "Profesor"
    assert h.date == date(2013, 2, 6)
    assert h.time == HighPrecisionTime(17, 49, 40, "8399038314819335937")


def test_annex1_segment(annex1_doc):
    s = annex1_doc.segments[0]
    assert s.channels == 3
    assert s.delta_x == [1.0, 1.0, 1.0]
    assert s.x0 == [0.0, 0.0, 0.0]
    assert s.samples_per_channel == [1, 1, 1]
    assert s.x_dimension == ["Time", "Time", "Time"]
    assert s.notes == "X values guaranteed valid only for Channel 0"
    assert s.column_names == ["X_Value", "Channel 0", "Channel 1", "Channel 2", "Comment"]
    assert len(s.x) == 16


def test_annex1_first_row(annex1_doc):
    s = annex1_doc.segments[0]
    assert s.x[0] == 0.0
    assert [column[0] for column in s.columns] == [23.4, 23.4, 23.6]
    assert s.comments == {}


def test_minimal_file_empty_data_block():
    doc = parse_lvm(MINIMAL)
    assert doc.segments[0].channels == 1
    assert (doc.segments[0].x, doc.segments[0].columns) == ([], [[]])


def test_dot_decimal_separator_row():
    text = MINIMAL + "1.5\t20.0\n"
    doc = parse_lvm(text)
    assert (doc.segments[0].x, doc.segments[0].columns) == ([1.5], [[20.0]])


def test_locale_equivalence():
    comma = MINIMAL.replace("Decimal_Separator\t.", "Decimal_Separator\t,")
    doc_dot = parse_lvm(MINIMAL + "1.5\t-20.25\n")
    doc_comma = parse_lvm(comma + "1,5\t-20,25\n")
    assert doc_dot.segments[0] == doc_comma.segments[0]


def test_annex1_roundtrip(annex1_doc):
    assert parse_lvm(serialize_lvm(annex1_doc)) == annex1_doc


def test_serialize_delta_x_line(annex1_doc):
    text = serialize_lvm(annex1_doc).decode()
    assert "Delta_X\t1,000000\t1,000000\t1,000000" in text
    assert "0,0000000000000000E+0" in text


def test_crlf_input(annex1_bytes):
    crlf = annex1_bytes.replace(b"\n", b"\r\n")
    assert parse_lvm(crlf) == parse_lvm(annex1_bytes)
    assert b"\r" not in serialize_lvm(parse_lvm(crlf))


def test_utf8_bom_is_stripped(annex1_bytes):
    assert parse_lvm(b"\xef\xbb\xbf" + annex1_bytes) == parse_lvm(annex1_bytes)


def test_missing_magic_line():
    with pytest.raises(MissingMagicLine):
        parse_lvm("Something else\n" + MINIMAL)


def test_missing_file_terminator():
    with pytest.raises(MissingHeaderTerminator):
        parse_lvm("LabVIEW Measurement\nSeparator\tTab\n")


def test_file_ending_after_the_file_header_has_no_segment():
    with pytest.raises(MissingHeaderTerminator, match="no segment found after file header"):
        parse_lvm("LabVIEW Measurement\nSeparator\tTab\n***End_of_Header***\n")


def test_file_ending_after_a_segment_header_has_no_column_row():
    text = MINIMAL.replace("X_Value\tChannel 0\n", "")
    with pytest.raises(ChannelCountMismatch, match="column-name row missing") as info:
        parse_lvm(text)
    assert (info.value.expected, info.value.found) == (2, 0)


def test_missing_segment_terminator():
    with pytest.raises(MissingHeaderTerminator):
        parse_lvm("LabVIEW Measurement\n***End_of_Header***\nChannels\t1\n")
    # a segment header reads each field as it comes, so a bad field is
    # reported before the missing terminator
    with pytest.raises(MalformedNumber) as info:
        parse_lvm("LabVIEW Measurement\n***End_of_Header***\nChannels\tx\n")
    assert (info.value.line, info.value.column) == (3, 2)


def test_parse_outcomes_match_the_committed_corpus():
    # every edited document of tests/corpus.py parses (or fails) as recorded
    expected = corpus.GOLDEN.read_text(encoding="ascii").splitlines()
    changed = [(old, new) for old, new in zip(expected, corpus.outcomes()) if old != new]
    assert len(expected) == corpus.SIZE
    assert not changed, f"{len(changed)} outcomes changed, first: {changed[:3]}"


def test_malformed_number_position():
    # float() reads "1_0" and " 2.5", the real grammar does not; a lone
    # surrogate is what an undecodable byte becomes in str input
    for rows, line in (("1.5\tno-number\n", 8), ("1.5\t1_0\n", 8), ("1.5\t 2.5\n", 8),
                       ("1.5\t20.0\n2.5\t\udce9\n", 9)):
        with pytest.raises(MalformedNumber) as info:
            parse_lvm(MINIMAL + rows)
        assert info.value.line == line
        assert info.value.column == 2


def test_grammars_take_only_ascii_digits():
    # "١" (ARABIC-INDIC DIGIT ONE) is a digit to \d, float() and strptime's %Y
    assert lvm.read_date("٢٠١٣/02/06") is None
    for text in ("١", "1.٥", "٥e1"):
        assert lvm.read_real(text, lvm.ANY_DECIMAL) is None
    assert lvm.read_int("١") is None
    for text in ("١2:00:00", "12:00:00.٥"):
        assert lvm.read_time(text, lvm.ANY_DECIMAL) is None
    for text, line, column in ((MINIMAL.replace("Channels\t1", "Channels\t١"), 5, 2),
                               (MINIMAL + "1.5\t2١\n", 8, 2)):
        with pytest.raises(MalformedNumber) as info:
            parse_lvm(text)
        assert (info.value.line, info.value.column) == (line, column)


def test_a_time_off_the_clock_is_outside_the_grammar():
    # as read_date gives None for Feb 30, read_time does for hours over 23,
    # minutes over 59 and seconds over 60 (60 is a leap second)
    for text in ("24:00:00", "23:60:00", "23:59:61", "99:99:99", "24:00:00.5"):
        assert lvm.read_time(text, lvm.ANY_DECIMAL) is None, text
    assert lvm.read_time("23:59:60") == HighPrecisionTime(23, 59, 60)
    assert lvm.read_time("7:5:3") == HighPrecisionTime(7, 5, 3)
    text = MINIMAL.replace("Decimal_Separator\t.\n", "Decimal_Separator\t.\nTime\t24:00:00\n")
    with pytest.raises(MalformedNumber,
                       match=r"^line 4, field 2: not a HH:MM:SS time: '24:00:00'$"):
        parse_lvm(text)


def _strptime_date(text):
    """read_date's reference: strptime's reading of "%Y/%m/%d", ASCII only."""
    try:
        return datetime.strptime(text, "%Y/%m/%d").date() if text.isascii() else None
    except ValueError:
        return None


_DATE_PIECES = st.sampled_from(["0", "1", "2", "3", "9", "02", "12", "13", "29", "30",
                                "31", "32", " ", " 6", "/", "١", "+", "-", "2013", "0000"])


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(_DATE_PIECES, max_size=7).map("".join),
                 st.tuples(st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
                           st.sampled_from(["{:04d}/{:02d}/{:02d}", "{:04d}/{}/{}",
                                            "{:04d}/{}/{:2d}", "{:d}/{:d}/{:d}"]))
                 .map(lambda t: t[3].format(*t[:3])),
                 st.text(max_size=12)))
def test_read_date_reads_as_strptime_does(text):
    assert lvm.read_date(text) == _strptime_date(text)


@pytest.mark.parametrize("read, text", [(lvm.read_real, "1.5"), (lvm.read_int, "5"),
                                        (lvm.read_time, "12:00:00")])
def test_a_value_is_the_whole_text(read, text):
    # a value is the whole text: no trailing line break or space
    assert read(text) is not None
    for tail in ("\n", "\r", " "):
        assert read(text + tail) is None, tail


def test_overflowing_header_real_is_malformed(annex1_bytes):
    # 1e999 overflows to inf, which no renderer writes back (format_sci16 fails)
    text = annex1_bytes.decode().replace("X0\t0,0000000000000000E+0", "X0\t1e999", 1)
    with pytest.raises(MalformedNumber) as info:
        parse_lvm(text)
    assert (info.value.line, info.value.column) == (21, 2)


@pytest.mark.parametrize("row, column", [("1.5\t1e999", 2), ("1.5\t-1e999", 2),
                                         ("1e999\t20.0", 1), ("1.5\t1e999x", 2)])
def test_overflowing_sample_is_malformed(row, column):
    with pytest.raises(MalformedNumber) as info:
        parse_lvm(MINIMAL + row + "\n")
    assert (info.value.line, info.value.column) == (8, column)


def test_row_field_count_mismatch():
    with pytest.raises(ChannelCountMismatch) as info:
        parse_lvm(MINIMAL + "1.5\t20.0\t30.0\n")
    assert info.value.expected == 2
    assert info.value.found == 3


def test_header_list_length_mismatch():
    bad = MINIMAL.replace("Channels\t1", "Channels\t1\nDelta_X\t1.0\t1.0")
    with pytest.raises(ChannelCountMismatch, match=r"^expected 1, found 2 \(delta_x\)$"):
        parse_lvm(bad)


@pytest.mark.parametrize("line, replacement", [
    ("X_Columns\tOne", "X_Columns\tMulti"),
    ("X_Columns\tOne", "X_Columns\tNo"),
    ("Multi_Headings\tNo", "Multi_Headings\tYes"),
    ("Separator\tTab", "Separator\tSpace"),
    # a Separator line must name the character after its key, the split character
    ("Separator\tTab", "Separator\tComma"),
    ("Separator\tTab", "Separator,Tab"),
    ("Separator\tTab", "Separator\tTab\nSeparator\tComma"),
    ("Decimal_Separator\t,", "Decimal_Separator\t;"),
    # a comma cannot be both the field and the decimal separator
    ("Separator\tTab", "Separator,Comma\nDecimal_Separator,,"),
    ("Time_Pref\tAbsolute", "Time_Pref\tSometimes"),
])
def test_unsupported_features(annex1_bytes, line, replacement):
    text = annex1_bytes.decode()
    if line not in text:
        text = text.replace("X_Columns\tOne", line)  # pragma: no cover
    with pytest.raises(UnsupportedFeature):
        parse_lvm(text.replace(line, replacement))


def test_unknown_header_keys_preserved_in_order(annex1_bytes):
    text = annex1_bytes.decode().replace(
        "Time_Pref\tAbsolute", "Time_Pref\tAbsolute\nZeta\tz\nAlpha\ta")
    doc = parse_lvm(text)
    assert list(doc.header.extra_keys.items()) == [("Zeta", "z"), ("Alpha", "a")]
    assert parse_lvm(serialize_lvm(doc)) == doc


def test_channel_series_annex(annex1_doc):
    x, y = channel_series(annex1_doc, 0, 2)
    assert (x[0], y[0]) == (0.0, 23.6)
    assert len(x) == len(y) == 16


def test_channel_series_empty_block():
    assert channel_series(parse_lvm(MINIMAL), 0, 0) == ((), ())


def test_channel_series_skips_absent_values():
    text = MINIMAL.replace("Channels\t1", "Channels\t2")
    text = text.replace("X_Value\tChannel 0", "X_Value\tChannel 0\tChannel 1")
    text += "0.0\t\t5.0\n1.0\t4.0\t6.0\n"
    doc = parse_lvm(text)
    assert channel_series(doc, 0, 0) == ((1.0,), (4.0,))
    assert channel_series(doc, 0, 1) == ((0.0, 1.0), (5.0, 6.0))


def test_channel_series_index_errors(annex1_doc):
    with pytest.raises(IndexOutOfRange):
        channel_series(annex1_doc, 1, 0)
    with pytest.raises(IndexOutOfRange):
        channel_series(annex1_doc, 0, 3)


def test_comment_column_roundtrip():
    text = MINIMAL.replace("X_Value\tChannel 0", "X_Value\tChannel 0\tComment")
    text += "0.0\t1.0\tfirst\n1.0\t2.0\n2.0\t3.0\t\n"
    doc = parse_lvm(text)
    assert doc.segments[0].comments == {0: "first", 2: ""}
    assert parse_lvm(serialize_lvm(doc)) == doc


def test_multi_segment_roundtrip():
    doc = random_document(random.Random(7), segments=2)
    assert len(doc.segments) == 2
    again = parse_lvm(serialize_lvm(doc))
    assert again == doc


def test_serializer_rejects_row_length_mismatch():
    doc = parse_lvm(MINIMAL)
    for x, columns in (([0.0], [[1.0], [2.0]]), ([0.0], [[1.0, 2.0]]), ([0.0, 1.0], [[1.0]]),
                       ([0.0], [])):
        doc.segments[0] = dataclasses.replace(doc.segments[0], x=x, columns=columns)
        with pytest.raises(InvariantViolation, match="columns must be 1 lists of"):
            serialize_lvm(doc)


def test_serializer_rejects_comment_without_column():
    for row in (0, 1):  # a comment on the one row, or past it
        doc = parse_lvm(MINIMAL + "0.0\t1.0\n")
        doc.segments[0].comments[row] = "x"
        with pytest.raises(InvariantViolation, match="a comment needs a Comment column"):
            serialize_lvm(doc)


def test_serializer_rejects_non_finite_values():
    doc = parse_lvm(MINIMAL)
    doc.segments[0].x.append(0.0)
    doc.segments[0].columns[0].append(float("nan"))
    with pytest.raises(InvariantViolation):
        serialize_lvm(doc)
    doc.segments[0].x[0] = None
    doc.segments[0].columns[0][0] = 1.0
    with pytest.raises(InvariantViolation):
        serialize_lvm(doc)
    doc.segments[0].x, doc.segments[0].columns = [], [[]]
    doc.segments[0].x0 = [float("inf")]
    with pytest.raises(InvariantViolation):
        serialize_lvm(doc)


def _header(**changes):
    def breaks(doc):
        doc.header = dataclasses.replace(doc.header, **changes)
    return breaks


def _segment(**changes):
    def breaks(doc):
        doc.segments[0] = dataclasses.replace(doc.segments[0], **changes)
    return breaks


@pytest.mark.parametrize("breaks, message", [
    (_header(decimal_separator=";"), "decimal_separator must be '.' or ','"),
    (lambda doc: doc.segments.clear(), "document has no segments"),
    (_header(operator="two\nlines"), "contains a line break"),
    (_segment(channels=0), "segment must have at least one channel"),
    (_segment(x0=[0.0, 0.0]), "x0 length != channels"),
    (_segment(column_names=["X_Value", "Channel 0", "Channel 1"]),
     "column_names length != 1 + channels"),
], ids=["decimal separator", "no segments", "line break", "no channel", "channel list",
        "column names"])
def test_serializer_refuses_a_document_it_cannot_represent(breaks, message):
    doc = parse_lvm(MINIMAL)
    serialize_lvm(doc)
    breaks(doc)
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        serialize_lvm(doc)


_LONE = "caf\udce9"  # what an undecodable byte becomes in str input


@pytest.mark.parametrize("place", ["operator", "header key", "header value", "notes",
                                   "segment key", "column name", "row comment"])
def test_serializer_refuses_text_utf8_cannot_encode(place):
    text = MINIMAL.replace("X_Value\tChannel 0", "X_Value\tChannel 0\tComment")
    doc = parse_lvm(text + "0.0\t1.0\tfirst\n")
    header, segment = doc.header, doc.segments[0]
    if place == "operator":
        doc = dataclasses.replace(doc, header=dataclasses.replace(header, operator=_LONE))
    elif place == "header key":
        header.extra_keys[_LONE] = "x"
    elif place == "header value":
        header.extra_keys["Project"] = _LONE
    elif place == "notes":
        segment.notes = _LONE
    elif place == "segment key":
        segment.extra_keys[_LONE] = "x"
    elif place == "column name":
        segment.column_names[1] = _LONE
    else:
        segment.comments[0] = _LONE
    with pytest.raises(InvariantViolation, match="not UTF-8 text"):
        serialize_lvm(doc)


def test_column_row_count_mismatch():
    bad = MINIMAL.replace("Channels\t1", "Channels\t2")
    with pytest.raises(ChannelCountMismatch) as info:
        parse_lvm(bad)
    assert info.value.expected == 3
    assert info.value.found == 2


@pytest.mark.parametrize("channels_line", ["Channels\t0\n", ""])
def test_a_segment_with_no_channel_is_refused(channels_line):
    text = MINIMAL.replace("Channels\t1\n", channels_line).replace("\tChannel 0", "")
    with pytest.raises(ChannelCountMismatch, match="at least one channel") as info:
        parse_lvm(text + "0.0\n1.0\n")
    assert (info.value.expected, info.value.found) == (1, 0)


def test_serializer_rejects_comma_comma():
    doc = LvmDocument(
        header=LvmFileHeader(separator=Separator.COMMA, decimal_separator=","),
        segments=[LvmSegment(channels=1, samples_per_channel=[1],
                             x_dimension=["Time"], x0=[0.0], delta_x=[1.0],
                             column_names=["X_Value", "Channel 0"])])
    with pytest.raises(InvariantViolation):
        serialize_lvm(doc)


def test_high_precision_time_fraction_verbatim():
    t = HighPrecisionTime(17, 49, 40, "8399038314819335937")
    assert t.render(",") == "17:49:40,8399038314819335937"
    assert t.render(".") == "17:49:40.8399038314819335937"
    assert HighPrecisionTime(1, 2, 3).render(",") == "01:02:03"


def test_high_precision_time_range_checks():
    with pytest.raises(InvariantViolation):
        HighPrecisionTime(24, 0, 0)
    # "²" and "١" are digits to str.isdigit, but no time grammar reads them
    for digits in ("12a", "²", "1١"):
        with pytest.raises(InvariantViolation):
            HighPrecisionTime(0, 0, 0, digits)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_property(seed):
    doc = random_document(random.Random(seed))
    assert parse_lvm(serialize_lvm(doc)) == doc


_EXTRA_KEYS = st.one_of(
    st.sampled_from(sorted(lvm.FILE_HEADER_KEYS | lvm.SEGMENT_HEADER_KEYS)),
    st.sampled_from(["", " ", "\t", ",", "***End_of_Header***", "***End_of_Header*** "]),
    st.text("abcXYZ_", min_size=1, max_size=6))
_EXTRAS = st.dictionaries(_EXTRA_KEYS, st.text("ab1 ,\t*", max_size=4), max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_extra_keys_read_back_or_are_refused(seed, data):
    """An extra key the parser would read as a field, skip as a blank line
    or take for a header terminator is refused; any other reads back."""
    doc = random_document(random.Random(seed))
    doc = LvmDocument(
        dataclasses.replace(doc.header, extra_keys=data.draw(_EXTRAS, label="header")),
        [dataclasses.replace(s, extra_keys=data.draw(_EXTRAS, label="segment"))
         for s in doc.segments])
    try:
        text = serialize_lvm(doc)
    except InvariantViolation:
        return
    assert parse_lvm(text) == doc


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fraction_digits_byte_exact(seed):
    doc = random_document(random.Random(seed))
    again = parse_lvm(serialize_lvm(doc))
    if doc.header.time is not None:
        assert again.header.time.fraction_digits == doc.header.time.fraction_digits
    for ours, theirs in zip(doc.segments, again.segments):
        for a, b in zip(ours.channel_times, theirs.channel_times):
            assert a.fraction_digits == b.fraction_digits


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_annex1_parses_or_raises_lvmforge_error(annex1_bytes, data):
    """Bytes or text spliced into the fixture at any offset, replacing any
    short span, and arbitrary bytes or text alone give a document or one
    LvmforgeError, never another exception."""
    kind = data.draw(st.sampled_from(["bytes", "str"]), label="kind")
    fixture, splice = ((annex1_bytes, st.binary(max_size=16)) if kind == "bytes" else
                       (annex1_bytes.decode(), st.text(max_size=16)))
    if data.draw(st.booleans(), label="arbitrary"):
        mutated = data.draw(st.binary() if kind == "bytes" else st.text(), label="input")
    else:
        start = data.draw(st.integers(0, len(fixture)), label="offset")
        stop = data.draw(st.integers(start, min(start + 16, len(fixture))), label="stop")
        mutated = fixture[:start] + data.draw(splice, label="splice") + fixture[stop:]
    try:
        parse_lvm(mutated)
    except LvmforgeError:
        pass


# -- the one-pass data block ------------------------------------------------------

# (separator, decimal separator, Separator value); the parser refuses a
# decimal separator that is also the field separator
_LAYOUTS = (("\t", ",", "Tab"), (",", ".", "Comma"))
_NUMBERS = st.one_of(
    st.floats(-1e9, 1e9, allow_nan=False).map(lambda v: "%.6f" % v),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "-0", "+7", ".5", "5.", "1e3", "2E-2", "-0.0e+1"]))


def _mutate(kind, lines, at, choice, sep, ds, channels):
    """Apply one mutation at line index at (an edit if the line exists,
    else an insertion before it)."""
    fields = lines[at].split(sep) if at < len(lines) else None
    edits = {
        "empty sample": lambda f: f[:-1] + [""],
        "empty x": lambda f: [""] + f[1:],
        "letter": lambda f: f[:-1] + [f[-1] + "x"],
        "overflow": lambda f: f[:-1] + ["1e999"],
        "other decimal": lambda f: f[:-1] + ["1.5" if ds == "," else "1,5"],
        "extra field": lambda f: f + ["1"],
        "missing field": lambda f: f[:-1],
        "comment": lambda f: f + ["note"],
        "empty comment": lambda f: f + [""],
        "carriage return": lambda f: f[:-1] + [f[-1] + "\r"],
        # text float() reads but the real grammar does not
        "float-only text": lambda f: f[:-1] + [choice],
    }
    inserts = {
        "blank line": "",
        "whitespace line": sep * channels,
        "space line": " ",
        "second segment": "\n".join([f"Channels{sep}1", "***End_of_Header***",
                                     f"X_Value{sep}Channel 0", f"1{sep}2"]),
    }
    if kind in edits and fields is not None:
        lines[at] = sep.join(edits[kind](fields))
    elif kind in inserts:
        lines.insert(at, inserts[kind])


_MUTATIONS = ("empty sample", "empty x", "letter", "overflow", "other decimal",
              "extra field", "missing field", "comment", "empty comment",
              "carriage return", "blank line", "whitespace line", "space line",
              "second segment", "float-only text")
_FLOAT_ONLY = ("inf", "-Infinity", "nan", "1_0", " 1.5", "2 ", "\u0661", "\uff17")


def _outcome(text):
    try:
        return parse_lvm(text)
    except LvmforgeError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_fast_rows_agree_with_the_row_loop(data):
    """Parsing with the one-pass data block and with the row loop alone
    gives equal documents, or the same error class and message."""
    sep, ds, name = data.draw(st.sampled_from(_LAYOUTS), label="layout")
    channels = data.draw(st.integers(1, 3), label="channels")  # it refuses 0 channels
    comment_column = data.draw(st.booleans(), label="comment column")
    rows = data.draw(st.lists(st.lists(_NUMBERS, min_size=1 + channels,
                                       max_size=1 + channels), max_size=6), label="rows")
    lines = [sep.join(f.replace(".", ds) for f in row) for row in rows]
    for kind in data.draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3), label="mutations"):
        _mutate(kind, lines, data.draw(st.integers(0, len(lines)), label=kind),
                data.draw(st.sampled_from(_FLOAT_ONLY)), sep, ds, channels)
    columns = ["X_Value", *(f"Channel {k}" for k in range(channels))]
    text = "\n".join([
        "LabVIEW Measurement", f"Separator{sep}{name}", f"Decimal_Separator{sep}{ds}",
        "***End_of_Header***", f"Channels{sep}{channels}", "***End_of_Header***",
        sep.join(columns + ["Comment"] * comment_column), *lines]) + "\n"
    with pytest.MonkeyPatch.context() as patch:
        # with no digit in the alphabet no chunk is converted whole
        patch.setattr(lvm, "_FAST_ALPHABET", b"")
        row_loop = _outcome(text)
    assert _outcome(text) == row_loop
    with pytest.MonkeyPatch.context() as patch:
        # chunks of 2 lines: mutations fall on chunk edges and in later chunks
        patch.setattr(lvm, "_CHUNK", 2)
        assert _outcome(text) == row_loop


def test_a_block_with_empty_samples_is_converted_in_chunks():
    """5000 rows of 8 channels, 0.2 % of the samples empty, parse without a
    field read through _field, into the document the row loop reads."""
    rng = random.Random(25)
    rows = ["\t".join(["%.6f" % i] + ["" if rng.random() < 0.002 else "%.6f" % rng.uniform(-50, 300)
                                     for _ in range(8)]) for i in range(5000)]
    text = (MINIMAL.replace("Channels\t1", "Channels\t8").replace(
        "X_Value\tChannel 0", "\t".join(["X_Value"] + [f"Channel {k}" for k in range(8)]))
        + "\n".join(rows) + "\n")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lvm, "_FAST_ALPHABET", b"")
        row_loop = parse_lvm(text)

    def refuse(read, text, line_no, *args):
        assert line_no < 8, f"line {line_no}: a data field read through _field"
        return field(read, text, line_no, *args)

    field = lvm._field

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lvm, "_field", refuse)
        doc = parse_lvm(text)
    assert doc == row_loop
    assert sum(column.count(None) for column in doc.segments[0].columns) > 0


def test_fast_rows_take_a_clean_block_whole(annex1_bytes):
    # the Annex-1 block has a Comment column but no comment
    assert len(parse_lvm(annex1_bytes).segments[0].x) == 16
    with pytest.raises(MalformedNumber) as info:
        parse_lvm(MINIMAL + "1.5\t20.0\n\t\n2.5\t\n3\t1e999\n")
    assert (info.value.line, info.value.column) == (11, 2)


def test_parse_is_linear_in_segments():
    segment = "\n".join(["Channels\t1", "***End_of_Header***", "X_Value\tChannel 0",
                         *(f"{i}.000000\t{i}.500000" for i in range(10))])
    text = "\n".join(["LabVIEW Measurement", "Separator\tTab", "Decimal_Separator\t.",
                      "***End_of_Header***", *[segment] * 4000]) + "\n"
    start = time.perf_counter()
    doc = parse_lvm(text)
    elapsed = time.perf_counter() - start
    assert len(doc.segments) == 4000 and all(len(s.x) == 10 for s in doc.segments)
    assert elapsed < 1.0, f"4000 segments took {elapsed:.2f} s"
