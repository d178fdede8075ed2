"""Seeded corpus of edited .lvm documents and the parser's outcome on each.

Each document is a ``docgen.random_document`` of one to three segments,
serialized, then given up to four random edits: a field replaced or
appended, a line inserted, dropped, duplicated or swapped, or the decimal
characters of a line swapped.  Edited text comes from ``POOL``.  Some
documents use CRLF line endings, and some go in as UTF-8 bytes with a
byte-order mark.

The outcome of a document is one line: ``ok`` and the SHA-256 of
``serialize_lvm(parse_lvm(text))``, or the stage that raised (``parse`` or
``serialize``), the error's class, its attributes (line, field, counts) and
its message.  ``tests/data/parse_outcomes.txt`` holds the outcome of every
document, and ``test_lvm.py`` checks the parser against it.  A change that
alters an outcome on purpose regenerates the file::

    PYTHONPATH=src python tests/corpus.py

and says in its description how many lines changed and why.
"""

import hashlib
import random
import sys
from pathlib import Path

from docgen import random_document
from lvmforge.lvm import (
    FILE_HEADER_KEYS,
    HEADER_TERMINATOR,
    MAGIC_LINE,
    SEGMENT_HEADER_KEYS,
    parse_lvm,
    serialize_lvm,
)

SEED = 20130206
SIZE = 2000
GOLDEN = Path(__file__).parent / "data" / "parse_outcomes.txt"

# empty samples, overflow, text float() reads but the grammar does not, a
# non-ASCII digit, a lone surrogate, and lines that open or close a block
POOL = ("", "1e999", "-1e999", "1_0", " 2.5", "nan", "١", "\udce9",
        HEADER_TERMINATOR, "Separator\tComma", MAGIC_LINE)
_KEYS = sorted(FILE_HEADER_KEYS | SEGMENT_HEADER_KEYS)


def _edit(rng: random.Random, lines: list[str], sep: str) -> None:
    kind = rng.choice(("replace", "append", "insert", "drop", "duplicate", "swap",
                       "decimal"))
    at = rng.randrange(len(lines))
    if kind == "replace":
        fields = lines[at].split(sep)
        fields[rng.randrange(len(fields))] = rng.choice(POOL)
        lines[at] = sep.join(fields)
    elif kind == "append":
        lines[at] += sep + rng.choice(POOL)
    elif kind == "insert":
        line = rng.choice(POOL)
        if rng.random() < 0.5:
            line = rng.choice(_KEYS) + sep + line
        lines.insert(at, line)
    elif kind == "drop" and len(lines) > 1:
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "swap":
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == "decimal":
        lines[at] = lines[at].translate({ord("."): ",", ord(","): "."})


def documents(size: int = SIZE, seed: int = SEED):
    """The corpus: size inputs to parse_lvm, each a str or bytes."""
    rng = random.Random(seed)
    for _ in range(size):
        doc = random_document(rng, max_rows=6, segments=rng.randint(1, 3))
        lines = serialize_lvm(doc).decode("utf-8").split("\n")[:-1]
        for _ in range(rng.choice((0, 1, 1, 2, 2, 3, 4))):
            _edit(rng, lines, doc.header.separator.char)
        text = ("\r\n" if rng.random() < 0.2 else "\n").join(lines) + "\n"
        if rng.random() < 0.1 and "\udce9" not in text:
            yield text.encode("utf-8-sig")
        else:
            yield text


def outcome(data) -> str:
    """One line naming what parsing, then serializing, data gives."""
    stage = "parse"
    try:
        doc = parse_lvm(data)
        stage = "serialize"
        return "ok " + hashlib.sha256(serialize_lvm(doc)).hexdigest()
    except Exception as exc:
        attributes = " ".join(f"{k}={v!r}" for k, v in sorted(vars(exc).items()))
        return f"{stage} {type(exc).__name__} [{attributes}] {ascii(str(exc))}"


def outcomes(size: int = SIZE, seed: int = SEED) -> list[str]:
    return [f"{i} {outcome(data)}" for i, data in enumerate(documents(size, seed))]


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    out.write_text("\n".join(outcomes()) + "\n", encoding="ascii")
