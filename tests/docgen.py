"""Seeded random generator of valid LvmDocument values for round-trip tests.

Values that the serializer renders at 6 decimals are quantized to
micro-units so that parse(serialize(d)) == d holds exactly; X0 entries stay
full-precision floats because their 17-significant-digit scientific
rendering round-trips any float64.
"""

import random
import string
from datetime import date

from lvmforge import (
    HighPrecisionTime,
    LvmDocument,
    LvmFileHeader,
    LvmSegment,
    Separator,
    TimePref,
)
from lvmforge.lvm import FILE_HEADER_KEYS, SEGMENT_HEADER_KEYS

# keys the parser reads into a field, which an extra key may not take
_KNOWN_KEYS = FILE_HEADER_KEYS | SEGMENT_HEADER_KEYS
_WORD_CHARS = string.ascii_letters + "_"
_TEXT_CHARS = string.ascii_letters + string.digits + " _-/().:"


def quantized(rng: random.Random, lo: float = -100.0, hi: float = 100.0) -> float:
    return rng.randint(int(lo * 1e6), int(hi * 1e6)) / 1e6


def word(rng: random.Random, max_len: int = 8) -> str:
    return "".join(rng.choice(_WORD_CHARS) for _ in range(rng.randint(1, max_len)))


def text(rng: random.Random, max_len: int = 12) -> str:
    return "".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randint(0, max_len)))


def random_hpt(rng: random.Random) -> HighPrecisionTime:
    digits = "".join(rng.choice(string.digits) for _ in range(rng.randint(0, 25)))
    return HighPrecisionTime(rng.randint(0, 23), rng.randint(0, 59),
                             rng.randint(0, 59), digits)


def random_date(rng: random.Random) -> date:
    return date(rng.randint(1990, 2035), rng.randint(1, 12), rng.randint(1, 28))


def _extra_keys(rng: random.Random, sep_char: str) -> dict:
    extras = {}
    for _ in range(rng.randint(0, 3)):
        key = word(rng)
        if key in _KNOWN_KEYS or key in extras:
            continue
        value = text(rng)
        if rng.random() < 0.2 and sep_char == "\t":
            value += "\t" + text(rng)  # separators survive in raw values
        extras[key] = value
    return extras


def random_document(rng: random.Random, channels: int | None = None,
                    max_rows: int = 30, segments: int | None = None,
                    decimal_separator: str | None = None) -> LvmDocument:
    if decimal_separator is None:
        decimal_separator = rng.choice([".", ","])
    if decimal_separator == ",":
        separator = Separator.TAB
    else:
        separator = rng.choice([Separator.TAB, Separator.COMMA])
    header = LvmFileHeader(
        writer_version=rng.randint(1, 3),
        reader_version=rng.randint(1, 3),
        separator=separator,
        decimal_separator=decimal_separator,
        operator=text(rng) if rng.random() < 0.7 else "",
        date=random_date(rng) if rng.random() < 0.8 else None,
        time=random_hpt(rng) if rng.random() < 0.8 else None,
        time_pref=rng.choice(list(TimePref)),
        extra_keys=_extra_keys(rng, separator.char),
    )
    n_segments = segments if segments is not None else (1 if rng.random() < 0.8 else 2)
    segs = [_random_segment(rng, channels, max_rows, separator.char)
            for _ in range(n_segments)]
    return LvmDocument(header=header, segments=segs)


def _random_segment(rng: random.Random, channels: int | None, max_rows: int,
                    sep_char: str) -> LvmSegment:
    n = channels if channels is not None else rng.randint(1, 4)
    with_comment = rng.random() < 0.5
    column_names = ["X_Value"] + [f"Channel {k}" for k in range(n)]
    if with_comment:
        column_names.append("Comment")
    shared_date = random_date(rng)
    shared_time = random_hpt(rng)
    x, columns, comments = [], [[] for _ in range(n)], {}
    for i in range(rng.randint(0, max_rows)):
        for column in columns:
            column.append(None if rng.random() < 0.1 else quantized(rng))
        if with_comment and rng.random() < 0.3:
            comments[i] = text(rng).replace(sep_char, " ")
        x.append(quantized(rng, 0, 1000))
    return LvmSegment(
        channels=n,
        notes=text(rng) if rng.random() < 0.3 else None,
        samples_per_channel=[rng.randint(1, 3)] * n,
        channel_dates=[shared_date] * n if rng.random() < 0.7 else [],
        channel_times=[shared_time] * n if rng.random() < 0.7 else [],
        x_dimension=["Time"] * n,
        x0=[rng.choice([0.0, rng.uniform(-1e3, 1e3)]) for _ in range(n)],
        delta_x=[quantized(rng, 0.000001, 10)] * n,
        column_names=column_names,
        x=x,
        columns=columns,
        comments=comments,
        extra_keys=_extra_keys(rng, sep_char),
    )
