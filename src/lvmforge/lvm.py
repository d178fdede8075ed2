"""Reader and writer for the LabVIEW Measurement (.lvm) text format.

The format is line oriented: a magic line, a file header closed by an
``***End_of_Header***`` line, then one or more segments, each with its own
header, a column-name row and tab- or comma-separated data rows.  Numbers
use the decimal separator declared in the file header, so ``23,400000``
and ``23.400000`` denote the same value depending on the header.

Supported feature set: ``X_Columns=One``, ``Multi_Headings=No``; anything
else is rejected with :class:`~lvmforge.errors.UnsupportedFeature` rather
than silently misread.  Unrecognized header keys are preserved verbatim
(in order) so that parse -> serialize -> parse is the identity on the
document level.

The reader walks one list of the input's nonblank lines, each with its
1-based line number: ``_header_block`` reads the file header and each
segment header, and a segment's data lines are read in chunks of ``_CHUNK``
lines, so parsing is linear in the input whatever the number of segments.
A chunk of plain numbers is converted whole into the segment's x and channel
columns, any other a row at a time.  Every field the parser rejects, in a
header or a data row, is rejected by ``_field``, which names its line and field.

This module is the one owner of how a value is written as text and read
back: the real, integer, boolean, date, time and text grammars
(``read_*``, ASCII digits only), the renderers (``format_*``) and the file-
and segment-header field lists.  The parser and serializer here, the
equipment model's ``validate_value`` and ``render_canonical``, the importer
and the exporters all use them.

Each header line is declared once, in canonical order, as one row of
``_FILE_LINES`` or ``_SEGMENT_LINES``: its key, the dataclass field it
fills, its reader and renderer (and, for a segment line, its default
entries).  The parser, ``file_header_fields`` and ``segment_header_fields``
(and through them the serializer and the importer) and the key sets read
those tables, so a new header line is a new field and one more row.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from datetime import date as Date
from enum import Enum
from itertools import compress, repeat
from typing import Optional, Union

from .errors import (
    ChannelCountMismatch,
    IndexOutOfRange,
    InvariantViolation,
    MalformedNumber,
    MissingHeaderTerminator,
    MissingMagicLine,
    UnsupportedFeature,
)

MAGIC_LINE = "LabVIEW Measurement"
HEADER_TERMINATOR = "***End_of_Header***"
COMMENT_COLUMN = "Comment"


class Separator(Enum):
    TAB = "Tab"
    COMMA = "Comma"

    @property
    def char(self) -> str:
        return "\t" if self is Separator.TAB else ","


class TimePref(Enum):
    ABSOLUTE = "Absolute"
    RELATIVE = "Relative"


@dataclass(frozen=True)
class HighPrecisionTime:
    """Time of day with the fractional-second digits kept as text.

    The Annex-style files carry fractions like ``,8399038314819335937``
    (19 digits), beyond what a binary float can hold, so the digit string
    is the authoritative value and round-trips byte for byte.
    """

    hours: int
    minutes: int
    seconds: int
    fraction_digits: str = ""

    def __post_init__(self):
        if not (0 <= self.hours <= 23 and 0 <= self.minutes <= 59 and 0 <= self.seconds <= 60):
            raise InvariantViolation(f"time out of range: {self}")
        if self.fraction_digits and not re.fullmatch("[0-9]+", self.fraction_digits):
            raise InvariantViolation("fraction_digits must be ASCII decimal digits")

    def render(self, decimal_separator: str = ".") -> str:
        base = f"{self.hours:02d}:{self.minutes:02d}:{self.seconds:02d}"
        return base + decimal_separator + self.fraction_digits if self.fraction_digits else base


@dataclass(frozen=True)
class LvmFileHeader:
    writer_version: int = 2
    reader_version: int = 2
    separator: Separator = Separator.TAB
    decimal_separator: str = "."
    time_pref: TimePref = TimePref.ABSOLUTE
    operator: str = ""
    date: Optional[Date] = None
    time: Optional[HighPrecisionTime] = None
    extra_keys: dict[str, str] = field(default_factory=dict)


@dataclass
class LvmSegment:
    channels: int
    notes: Optional[str] = None
    samples_per_channel: list[int] = field(default_factory=list)
    channel_dates: list[Date] = field(default_factory=list)
    channel_times: list[HighPrecisionTime] = field(default_factory=list)
    x_dimension: list[str] = field(default_factory=list)
    x0: list[float] = field(default_factory=list)
    delta_x: list[float] = field(default_factory=list)
    column_names: list[str] = field(default_factory=list)
    # the data block: x, one column per channel (None: an empty sample), comments by row
    x: list[float] = field(default_factory=list)
    columns: list[list[Optional[float]]] = field(default_factory=list)
    comments: dict[int, str] = field(default_factory=dict)
    extra_keys: dict[str, str] = field(default_factory=dict)

    @property
    def has_comment_column(self) -> bool:
        return bool(self.column_names) and self.column_names[-1] == COMMENT_COLUMN


@dataclass
class LvmDocument:
    header: LvmFileHeader
    segments: list[LvmSegment]


# --- value grammar and renderers --------------------------------------------
#
# ``ds`` names the decimal separator a text may use: ".", "," or
# ANY_DECIMAL, which accepts either (the equipment-model convention).
# Readers return None for text outside the grammar.  A pattern must match
# the whole text (fullmatch), so a trailing line break is outside it.

ANY_DECIMAL = ".,"
_SURROGATE = re.compile("[\ud800-\udfff]")
_BOOL_WORDS = {"yes": True, "true": True, "no": False, "false": False}


def _real_pattern(ds: str) -> re.Pattern:
    d = f"[{re.escape(ds)}]"
    return re.compile(rf"[+-]?(?:\d+(?:{d}\d*)?|{d}\d+)(?:[eE][+-]?\d+)?", re.ASCII)


def _time_pattern(ds: str) -> re.Pattern:
    return re.compile(rf"([01]?\d|2[0-3]):([0-5]?\d):([0-5]?\d|60)(?:[{re.escape(ds)}](\d+))?",
                      re.ASCII)


_REAL_PATTERNS = {ds: _real_pattern(ds) for ds in (".", ",", ANY_DECIMAL)}
_TIME_PATTERNS = {ds: _time_pattern(ds) for ds in (".", ",", ANY_DECIMAL)}
_INT_PATTERN = re.compile(r"[+-]?\d+", re.ASCII)
# the alternatives of strptime's %Y/%m/%d, ASCII digits only
_DATE_PATTERN = re.compile(r"(\d{4})/(1[0-2]|0[1-9]|[1-9])/(3[01]|[12]\d|0[1-9]|[1-9]| [1-9])",
                           re.ASCII)


def read_real(text: str, ds: str = ".") -> Optional[float]:
    """A finite real: text that overflows to infinity (``1e999``) is
    outside the grammar, as no renderer or reader takes it back."""
    if not _REAL_PATTERNS[ds].fullmatch(text):
        return None
    # the pattern admits no decimal character other than ds
    value = float(text.replace(",", "."))
    return value if math.isfinite(value) else None


def read_int(text: str) -> Optional[int]:
    return int(text) if _INT_PATTERN.fullmatch(text) else None


def read_bool(text: str) -> Optional[bool]:
    """Yes/No as .lvm headers write them, or true/false; any letter case."""
    return _BOOL_WORDS.get(text.casefold())


def read_date(text: str) -> Optional[Date]:
    """YYYY/MM/DD as strptime's "%Y/%m/%d" reads it (month and day may be
    unpadded, the day space-padded), in ASCII digits, naming a real day."""
    m = _DATE_PATTERN.fullmatch(text)
    try:
        return Date(*map(int, m.groups())) if m else None
    except ValueError:  # year 0 or a day past the month's end
        return None


def read_time(text: str, ds: str = ".") -> Optional[HighPrecisionTime]:
    """HH:MM:SS with optional fraction digits after ds, naming a time on
    the clock: None for hours over 23, minutes over 59 or seconds over 60."""
    m = _TIME_PATTERNS[ds].fullmatch(text)
    return HighPrecisionTime(*map(int, m.groups()[:3]), m.group(4) or "") if m else None


def read_text(text: str) -> Optional[str]:
    """Text that UTF-8 can encode: no lone surrogate, which is what an
    undecodable byte in a command-line argument or a file name becomes."""
    return None if _SURROGATE.search(text) else text


def read_line(text: str) -> Optional[str]:
    """read_text's text in one field of one line: no "\\n", "\\r" or "\\t"."""
    return None if "\n" in text or "\r" in text or "\t" in text else read_text(text)


# printf-style spec of the fixed-6 rendering, for callers that write many
# numbers into one template
FIXED6 = "%.6f"


def format_fixed6(value: float, ds: str = ".") -> str:
    """Render a real with 6 fixed decimals, matching the data-block style."""
    text = FIXED6 % value
    return text if ds == "." else text.replace(".", ds)


def format_real(value: float) -> str:
    """Canonical "." rendering of a real: 6 fixed decimals when they hold
    the value exactly, otherwise the shortest text that reads back as the
    same float (``repr``), so read_real inverts it for every finite value."""
    text = format_fixed6(value)
    return text if float(text) == value else repr(value)


def format_sci16(value: float, ds: str = ".") -> str:
    """Render a real in the X0 style: 16 fractional digits, bare exponent."""
    mantissa, exponent = f"{value:.16E}".split("E")
    text = f"{mantissa}E{int(exponent):+d}"
    return text if ds == "." else text.replace(".", ds)


def format_bool(value: bool) -> str:
    return "Yes" if value else "No"


def format_date(value: Date) -> str:
    # not strftime: it leaves years below 1000 unpadded, which read_date rejects
    return f"{value.year:04d}/{value.month:02d}/{value.day:02d}"


# --- header lines -------------------------------------------------------------

# a line read by one of these reads and renders with the file's decimal separator
_LOCALIZED = (read_real, read_time)

# key -> (LvmFileHeader field, reader, renderer).  A closed setting reads
# through its map of legal texts; one without a field is fixed by the one
# layout supported.  Operator, Date and Time are written only when set.
_FILE_LINES = {
    "Writer_Version": ("writer_version", read_int, str),
    "Reader_Version": ("reader_version", read_int, str),
    "Separator": ("separator", {s.value: s for s in Separator}, None),
    "Decimal_Separator": ("decimal_separator", {".": ".", ",": ","}, None),
    "Multi_Headings": (None, {"No": None}, None),
    "X_Columns": (None, {"One": None}, None),
    "Time_Pref": ("time_pref", {p.value: p for p in TimePref}, None),
    "Operator": ("operator", str, str),
    "Date": ("date", read_date, format_date),
    "Time": ("time", read_time, HighPrecisionTime.render),
}

# key -> (LvmSegment field, reader, renderer, default entries).  Notes and
# Channels hold one value; a segment that lacks a list gets default * channels.
_SEGMENT_LINES = {
    "Notes": ("notes", str, str, None),
    "Channels": ("channels", read_int, str, None),
    "Samples": ("samples_per_channel", read_int, str, (1,)),
    "Date": ("channel_dates", read_date, format_date, ()),
    "Time": ("channel_times", read_time, HighPrecisionTime.render, ()),
    "X_Dimension": ("x_dimension", str, str, ("Time",)),
    "X0": ("x0", read_real, format_sci16, (0.0,)),
    "Delta_X": ("delta_x", read_real, format_fixed6, (1.0,)),
}

# the keys the parser reads into a field, per level; any other key is an
# extra key, kept verbatim
FILE_HEADER_KEYS = frozenset(_FILE_LINES)
SEGMENT_HEADER_KEYS = frozenset(_SEGMENT_LINES)


def file_header_fields(header: LvmFileHeader, ds: str) -> list[tuple[str, str]]:
    """The file header's (key, value) lines in canonical order, reals and
    times rendered with decimal separator ds."""
    fields = []
    for key, (name, read, render) in _FILE_LINES.items():
        value = getattr(header, name) if name else None
        if render is None:  # a closed setting, always written
            fields.append((key, next((t for t, v in read.items() if v == value), value)))
        elif value not in ("", None):
            fields.append((key, render(value, ds) if read in _LOCALIZED else render(value)))
    fields.extend(header.extra_keys.items())
    return fields


def segment_header_fields(segment: LvmSegment,
                          ds: str) -> list[tuple[str, Union[str, list[str]]]]:
    """The segment header's lines in canonical order, reals and times
    rendered with decimal separator ds: (key, str) for a single value
    (Notes, Channels, unrecognized keys), else (key, one str per channel)."""
    fields: list[tuple[str, Union[str, list[str]]]] = []
    for key, (name, read, render, default) in _SEGMENT_LINES.items():
        value = getattr(segment, name)
        if default is None and value is not None:
            fields.append((key, render(value)))
        elif default is not None and value:
            args = (ds,) if read in _LOCALIZED else ()
            fields.append((key, [render(v, *args) for v in value]))
    fields.extend(segment.extra_keys.items())
    return fields


# --- parsing ---------------------------------------------------------------

# a data chunk's characters besides sep and ds, and its lines, which bound its memory
_FAST_ALPHABET = b"0123456789eE+-"
_CHUNK = 1024

_GRAMMAR_NAMES = {read_real: "a number under {!r}", read_int: "an integer",
                  read_date: "a YYYY/MM/DD date", read_time: "a HH:MM:SS time"}


def _field(read, text: str, line_no: int, col: int, *ds: str):
    """read(text, *ds), or MalformedNumber(line_no, col) if read rejects text."""
    value = read(text, *ds)
    if value is None:
        raise MalformedNumber(line_no, col, f"not {_GRAMMAR_NAMES[read].format(*ds)}: {text!r}")
    return value


def _mismatched_channel_list(segment: LvmSegment) -> Optional[str]:
    """The first per-channel list whose length is not the channel count, or
    None; lists with default entries first, and the others may be empty."""
    lists = [(name, default) for name, _, _, default in _SEGMENT_LINES.values()
             if default is not None]
    for name, default in sorted(lists, key=lambda item: not item[1]):
        length = len(getattr(segment, name))
        if length != segment.channels and (length or default):
            return name
    return None


def _decode(data) -> str:
    if isinstance(data, str):
        return data
    try:
        return bytes(data).decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise UnsupportedFeature(f"input is not UTF-8 text: {exc}") from None


def _is_terminator(line: str) -> bool:
    return line.rstrip("\t, ") == HEADER_TERMINATOR


def _header_block(lines: list[tuple[str, int]], at: int) -> tuple[list, int]:
    """The lines from index at up to the next header terminator, and the
    index after that terminator (len(lines) + 1 when there is none)."""
    end = next((i for i in range(at, len(lines)) if _is_terminator(lines[i][0])), len(lines))
    return lines[at:end], end + 1


def parse_lvm(data) -> LvmDocument:
    """Parse .lvm text (bytes or str) into an :class:`LvmDocument`.

    Bytes are read as UTF-8; a leading UTF-8 byte-order mark is dropped.

    Raises MissingMagicLine, MissingHeaderTerminator, MalformedNumber,
    ChannelCountMismatch or UnsupportedFeature on malformed or
    out-of-feature-set input.
    """
    text = _decode(data).replace("\r\n", "\n")
    lines = [(line, n) for n, line in enumerate(text.split("\n"), 1) if line.strip()]
    if not lines or lines[0][0].rstrip("\t, ") != MAGIC_LINE:
        raise MissingMagicLine(f"first line is not {MAGIC_LINE!r}")

    block, at = _header_block(lines, 1)
    if at > len(lines):
        raise MissingHeaderTerminator("file header never terminated")
    header = _parse_file_header(block)
    sep, ds = header.separator.char, header.decimal_separator
    segments, texts = [], [line for line, _ in lines] + [HEADER_TERMINATOR]
    while at < len(lines):
        segment, at = _parse_segment(lines, texts, at, sep, ds)
        segments.append(segment)
    if not segments:
        raise MissingHeaderTerminator("no segment found after file header")
    return LvmDocument(header=header, segments=segments)


def _parse_file_header(block: list[tuple[str, int]]) -> LvmFileHeader:
    # Lines split on the character that follows the first "Separator" key
    # (a tab if none does), and each Separator line must name that character.
    sep = next((line[9] for line, _ in block if line[:10] in ("Separator\t", "Separator,")), "\t")

    fields: dict[str, object] = {}
    extra: dict[str, str] = {}
    localized: dict[str, tuple] = {}
    for line, line_no in block:
        key, _, value = line.partition(sep)
        name, read, _ = _FILE_LINES.get(key, (None, None, None))
        if read is None:
            extra[key] = value
        elif isinstance(read, dict):
            if value not in read or key == "Separator" and read[value].char != sep:
                raise UnsupportedFeature(f"{key}={value!r}")
            if name:
                fields[name] = read[value]
        elif read in _LOCALIZED:
            # the decimal separator may be declared after this line
            localized[name] = (read, value, line_no)
        else:
            fields[name] = _field(read, value, line_no, 2)
    ds = fields.get("decimal_separator", ".")
    if ds == sep:
        raise UnsupportedFeature(f"Decimal_Separator={ds!r} is also the field separator")
    for name, (read, value, line_no) in localized.items():
        fields[name] = _field(read, value, line_no, 2, ds)
    return LvmFileHeader(extra_keys=extra, **fields)


def _parse_segment(lines: list[tuple[str, int]], texts: list[str], at: int, sep: str,
                   ds: str) -> tuple[LvmSegment, int]:
    """The segment whose header starts at lines[at], and the index after it;
    texts holds the lines without their numbers, then a header terminator."""
    block, at = _header_block(lines, at)
    fields: dict[str, object] = {}
    extra: dict[str, str] = {}
    for line, line_no in block:
        key, _, value = line.partition(sep)
        name, read, _, default = _SEGMENT_LINES.get(key, (None,) * 4)
        if read is None:
            extra[key] = value
        elif default is None:
            fields[name] = _field(read, value, line_no, 2)
        else:
            args = (ds,) if read in _LOCALIZED else ()
            fields[name] = [_field(read, v, line_no, i, *args)
                            for i, v in enumerate(line.split(sep)[1:], 2)]
    # checked after the fields, so a bad field is reported first
    if at > len(lines):
        raise MissingHeaderTerminator("segment header never terminated")

    channels = fields.get("channels")
    if at == len(lines):
        raise ChannelCountMismatch(1 + (channels or 0), 0, "column-name row missing")
    column_names = lines[at][0].split(sep)
    has_comment = column_names[-1] == COMMENT_COLUMN

    if channels is None:
        channels = fields["channels"] = len(column_names) - 1 - has_comment
    if channels < 1:
        raise ChannelCountMismatch(1, channels, "a segment needs at least one channel")
    expected_cols = 1 + channels + has_comment
    if len(column_names) != expected_cols:
        raise ChannelCountMismatch(expected_cols, len(column_names), "column-name row")

    defaults = {name: list(default * channels)
                for name, _, _, default in _SEGMENT_LINES.values() if default}
    segment = LvmSegment(column_names=column_names, extra_keys=extra,
                         columns=[[] for _ in range(channels)], **{**defaults, **fields})
    name = _mismatched_channel_list(segment)
    if name:
        raise ChannelCountMismatch(channels, len(getattr(segment, name)), name)

    # Data rows run until EOF or a non-numeric first field, which starts the
    # next segment's header, so chunks stop before the non-numeric lines that
    # lead up to the next terminator.  A chunk _read_chunk refuses is read a row
    # at a time; a row it refuses alone reads each field through read_real.
    match_real = _REAL_PATTERNS[ds].fullmatch
    end = min(texts.index(HEADER_TERMINATOR, at), len(lines))
    while end > at + 1 and not match_real(texts[end - 1].split(sep)[0]):
        end -= 1
    for start in range(at + 1, end, _CHUNK):
        if _read_chunk(segment, texts[start:min(start + _CHUNK, end)], sep, ds):
            continue
        for at, (line, line_no) in enumerate(lines[start:min(start + _CHUNK, end)], start):
            if _read_chunk(segment, [line], sep, ds):
                continue
            fields = line.split(sep)
            if not match_real(fields[0]):
                return segment, at
            # a row may leave out the comment a Comment column declares
            comments = len(fields) - 1 - channels
            if not 0 <= comments <= has_comment:
                raise ChannelCountMismatch(1 + channels + has_comment, len(fields),
                                           f"data row {line_no}")
            if comments:
                segment.comments[len(segment.x)] = fields.pop()
            for column, (col, f) in zip([segment.x, *segment.columns], enumerate(fields, 1)):
                column.append(_field(read_real, f, line_no, col, ds) if f else None)
    return segment, end


def _read_chunk(segment: LvmSegment, texts: list[str], sep: str, ds: str) -> bool:
    """Convert the data lines texts whole into the segment's columns, or return
    False if one is not 1 + channels numbers with a nonempty x.  On _FAST_ALPHABET
    + sep + ds (the file header refuses sep == ds), float() reads exactly read_real's
    grammar once ds reads as ".": no whitespace, "_", "inf"/"nan" or non-ASCII digit
    occurs.  isascii() comes first, as encode() raises on a lone surrogate."""
    block, width = sep.join(texts), 1 + segment.channels
    alphabet = _FAST_ALPHABET + (sep + ds).encode()
    if (not block.isascii() or block.encode().translate(None, alphabet)
            or {*map(str.count, texts, repeat(sep))} != {width - 1}):
        return False
    fields, holes = block.replace(ds, ".").split(sep), []
    for _ in range(fields.count("")):  # found by index: an enumerate scan is slower
        holes.append(fields.index("", holes[-1] + 1 if holes else 0))
        fields[holes[-1]] = "0"  # an empty sample, None once converted
    try:
        values: list = list(map(float, fields))
    except ValueError:  # text outside the grammar
        return False
    if not math.isfinite(sum(values)) or any(hole % width == 0 for hole in holes):
        return False  # an overflow (1e999), or an empty x
    for hole in holes:
        values[hole] = None
    for k, column in enumerate([segment.x, *segment.columns]):
        column += values[k::width]
    return True


# --- serialization ----------------------------------------------------------

def serialize_lvm(doc: LvmDocument) -> bytes:
    """Render a document in the canonical .lvm layout (LF line endings).

    Data reals use 6 fixed decimals, X0 the 16-digit scientific form; both
    honor the declared decimal separator.  Raises InvariantViolation when
    the document cannot be represented losslessly.
    """
    header = doc.header
    sep = header.separator.char
    ds = header.decimal_separator
    if ds not in (".", ","):
        raise InvariantViolation(f"decimal_separator must be '.' or ',': {ds!r}")
    if sep == "," and ds == ",":
        raise InvariantViolation("comma cannot be both field and decimal separator")
    if not doc.segments:
        raise InvariantViolation("document has no segments")

    def check_text(text: str, what: str, allow_sep: bool = False):
        if read_text(text) is None:
            raise InvariantViolation(f"{what} is not UTF-8 text")
        if "\n" in text or "\r" in text:
            raise InvariantViolation(f"{what} contains a line break")
        if not allow_sep and sep in text:
            raise InvariantViolation(f"{what} contains the field separator")

    out = [MAGIC_LINE]
    _check_extra_keys(header.extra_keys, FILE_HEADER_KEYS, sep, "header")
    for key, value in file_header_fields(header, ds):
        check_text(key, f"header key {key!r}")
        check_text(value, f"value of {key!r}", allow_sep=True)
        out.append(key + sep + value)
    out.append(HEADER_TERMINATOR)

    for segment in doc.segments:
        out.extend(_serialize_segment(segment, sep, ds, check_text))
    return ("\n".join(out) + "\n").encode("utf-8")


def _check_extra_keys(extra_keys: dict[str, str], known: frozenset[str], sep: str,
                      level: str) -> None:
    """Raise InvariantViolation for an extra key whose line the parser would
    not read back as that key: one it reads into a field, a blank line (which
    it skips) or a header terminator."""
    for key, value in extra_keys.items():
        line = key + sep + value
        if key in known or not line.strip() or _is_terminator(line):
            raise InvariantViolation(f"{level} extra key {key!r} would not read back")


def _serialize_segment(segment: LvmSegment, sep: str, ds: str, check_text) -> list[str]:
    n = segment.channels
    if n < 1:
        raise InvariantViolation("segment must have at least one channel")
    name = _mismatched_channel_list(segment)
    if name:
        raise InvariantViolation(f"{name} length != channels")
    if not all(map(math.isfinite, segment.x0 + segment.delta_x)):
        raise InvariantViolation("X0/Delta_X values must be finite")
    if len(segment.column_names) != 1 + n + segment.has_comment_column:
        raise InvariantViolation("column_names length != 1 + channels (+ Comment)")

    out = []
    _check_extra_keys(segment.extra_keys, SEGMENT_HEADER_KEYS, sep, "segment")
    for key, value in segment_header_fields(segment, ds):
        check_text(key, f"segment key {key!r}")
        if isinstance(value, str):
            check_text(value, f"value of {key!r}", allow_sep=True)
            out.append(key + sep + value)
        else:
            for entry in value:
                check_text(entry, f"{key} entry")
            out.append(sep.join([key, *value]))
    out.append(HEADER_TERMINATOR)

    for name in segment.column_names:
        check_text(name, f"column name {name!r}")
    out.append(sep.join(segment.column_names))

    rows, comments = len(segment.x), segment.comments
    if len(segment.columns) != n or any(len(column) != rows for column in segment.columns):
        raise InvariantViolation(f"columns must be {n} lists of {rows} samples, as x is")
    if comments and not (segment.has_comment_column and all(0 <= i < rows for i in comments)):
        raise InvariantViolation("a comment needs a Comment column and a row")
    for i, row in enumerate(zip(segment.x, *segment.columns)):
        if row[0] is None or not all(v is None or math.isfinite(v) for v in row):
            raise InvariantViolation(f"row {i} contains a non-finite value")
        out.append(sep.join(["" if v is None else format_fixed6(v, ds) for v in row]))
        if i in comments:
            check_text(comments[i], f"comment of row {i}")
            out[-1] += sep + comments[i]
    return out


def channel_series(doc: LvmDocument, segment_index: int, channel_index: int) -> tuple[tuple, tuple]:
    """One channel's (x, y) columns, without the rows where its sample is empty."""
    try:
        segment = doc.segments[segment_index]
    except IndexError:
        raise IndexOutOfRange(f"segment {segment_index} of {len(doc.segments)}") from None
    if not 0 <= channel_index < segment.channels:
        raise IndexOutOfRange(f"channel {channel_index} of {segment.channels}")
    column = segment.columns[channel_index]
    present = [y is not None for y in column]
    return tuple(compress(segment.x, present)), tuple(compress(column, present))
