"""Export of stored measurements to XML and Excel-compatible CSV.

Both formats are the normalized side of the pipeline: numbers always use
"." decimals and 6 fixed digits regardless of the source file's locale,
except REAL parameters that need more than 6 decimals, which print in
shortest round-trip form (see :func:`lvmforge.model.render_canonical`).
Timestamps are ISO 8601, and identical records produce byte-identical
output.

Both formats are written in time linear in rows × channels.  The XML is
written as text, in exactly the bytes that ``xml.etree.ElementTree`` gives
for the same tree after ``ET.indent``.  The CSV series rows skip
``csv.writer``: a ``%.6f`` number holds only digits, ``-`` and ``.``, and a
row's x cell is never empty, so no cell of theirs needs quoting.
"""

from __future__ import annotations

import csv
import io

from .ingest import MeasurementRecord
from .lvm import FIXED6
from .model import ConceptCategory, render_canonical

_DECLARATION = "<?xml version='1.0' encoding='utf-8'?>"
_INDENT = "  "


def _escape_attr(text: str) -> str:
    """An attribute value escaped as ElementTree escapes it."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("\r", "&#13;").replace("\n", "&#10;")
            .replace("\t", "&#09;"))


def _escape_text(text: str) -> str:
    """Element text escaped as ElementTree escapes it."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _start_tag(depth: int, tag: str, attrs: dict[str, str]) -> str:
    """An indented start tag, without its closing ``>`` or `` />``."""
    items = "".join(f' {key}="{_escape_attr(value)}"' for key, value in attrs.items())
    return f"{_INDENT * depth}<{tag}{items}"


def export_xml(record: MeasurementRecord) -> bytes:
    """UTF-8 XML: measurement root, one category element per non-empty
    category (in canonical order), parameter elements with name/type/unit
    attributes and the canonical value as text, and one series element per
    channel with x/y point attributes."""
    body = []
    for category in ConceptCategory:
        values = record.values.get(category)
        if not values:
            continue
        body.append(_start_tag(1, "category", {"name": category.value}) + ">")
        for name, typed in values.items():
            attrs = {"name": name, "type": typed.value_type.value}
            if typed.unit is not None:
                attrs["unit"] = typed.unit
            tag = _start_tag(2, "parameter", attrs)
            text = render_canonical(typed)
            body.append(f"{tag}>{_escape_text(text)}</parameter>" if text else tag + " />")
        body.append(_INDENT + "</category>")
    point = f'{_INDENT * 2}<point x="{FIXED6}" y="{FIXED6}" />'
    for series in record.series:
        attrs = {"name": series.name}
        if series.unit is not None:
            attrs["unit"] = series.unit
        tag = _start_tag(1, "series", attrs)
        if not series.x:
            body.append(tag + " />")
            continue
        body.append(tag + ">")
        body.extend([point % xy for xy in zip(series.x, series.y)])
        body.append(_INDENT + "</series>")
    root = _start_tag(0, "measurement", {
        "equipment": record.equipment_name,
        "imported-at": record.imported_at.isoformat(),
        "source-file": record.source_file,
    })
    if body:
        lines = [_DECLARATION, root + ">", *body, "</measurement>"]
    else:
        lines = [_DECLARATION, root + " />"]
    return ("\n".join(lines) + "\n").encode("utf-8", "xmlcharrefreplace")


def export_csv(record: MeasurementRecord) -> bytes:
    """Two sections: metadata rows (category,parameter,type,unit,value) and,
    after a blank line, the series block with an X_Value header row and one
    6-decimal row per sample (see _series_columns).  Standard CSV quoting, LF
    line endings."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["category", "parameter", "type", "unit", "value"])
    for category in ConceptCategory:
        for name, typed in record.values.get(category, {}).items():
            writer.writerow([category.value, name, typed.value_type.value,
                             typed.unit or "", render_canonical(typed)])
    if record.series:
        writer.writerow([])
        writer.writerow(["X_Value"] + [s.name for s in record.series])
        buffer.writelines(row + "\n" for row in map(",".join, zip(*_series_columns(record))))
    return buffer.getvalue().encode("utf-8")


def _series_columns(record: MeasurementRecord) -> list[list[str]]:
    """The series block's cells column-wise, each number formatted once: the
    x column, then one y column per channel.  When every channel has the same
    abscissae, the y columns hold the points in order, so a repeated x keeps
    each of its samples.  Otherwise a channel's k-th sample at x is keyed
    (x, k), there is one row per key of any channel, in increasing (x, k)
    order, and a channel's cell holds its sample with the row's key, or
    nothing.  So every sample is written once, and the samples of a file
    whose x never decreases keep their row order."""
    xs = record.series[0].x
    if all(s.x == xs for s in record.series[1:]):
        return [[FIXED6 % x for x in xs]] + [[FIXED6 % y for y in s.y] for s in record.series]
    keyed = []
    for series in record.series:
        seen: dict[float, int] = {}
        keyed.append({})
        for x, y in zip(series.x, series.y):
            seen[x] = k = seen.get(x, -1) + 1
            keyed[-1][x, k] = FIXED6 % y
    keys = sorted(dict.fromkeys(key for cells in keyed for key in cells))
    return [[FIXED6 % x for x, _ in keys]] + [[cells.get(key, "") for key in keys]
                                              for cells in keyed]
