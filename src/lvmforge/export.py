"""Export of stored measurements to XML and Excel-compatible CSV.

Both formats are the normalized side of the pipeline: numbers always use
"." decimals and 6 fixed digits regardless of the source file's locale,
except REAL parameters that need more than 6 decimals, which print in
shortest round-trip form (see :func:`lvmforge.model.render_canonical`).
Timestamps are ISO 8601, and identical records produce byte-identical
output.

Both formats are written in time linear in rows × channels.  The XML is
text in exactly the bytes ``xml.etree.ElementTree`` gives after
``ET.indent``; each distinct x column (as float64 bytes) is formatted once,
and each series' points with one ``%``.  The CSV series rows skip
``csv.writer`` (a ``%.6f`` number holds only digits, ``-`` and ``.``, and x
is never empty, so no cell needs quoting); a shared-grid row is one ``%``.
"""

from __future__ import annotations

import csv
import io
from array import array

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
    point = f'\n{_INDENT * 2}<point x="%s" y="{FIXED6}" />'
    x_texts: dict[bytes, list[str]] = {}
    for series in record.series:
        attrs = {"name": series.name}
        if series.unit is not None:
            attrs["unit"] = series.unit
        key = array("d", series.x).tobytes()  # not ==, which takes -0.0 for 0.0
        xs = x_texts[key] = x_texts.get(key) or list(map(FIXED6.__mod__, series.x))
        xy = [None] * (2 * len(xs))
        xy[::2], xy[1::2] = xs, series.y
        points = (point * len(xs)) % tuple(xy)
        tag = _start_tag(1, "series", attrs)
        body.append(f"{tag}>{points}\n{_INDENT}</series>" if xs else tag + " />")
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
    after a blank line, the series block: an X_Value header row, then one
    6-decimal row per sample if every channel has the same x, otherwise the
    rows of _series_columns.  Standard CSV quoting, LF line endings."""
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
        xs = record.series[0].x
        if all(s.x == xs for s in record.series[1:]):
            row = ",".join([FIXED6] * (1 + len(record.series))) + "\n"
            buffer.writelines(map(row.__mod__, zip(xs, *(s.y for s in record.series))))
        else:
            buffer.writelines(row + "\n" for row in map(",".join, zip(*_series_columns(record))))
    return buffer.getvalue().encode("utf-8")


def _series_columns(record: MeasurementRecord) -> list[list[str]]:
    """The series block of channels on different grids column-wise, each
    number formatted once by ``%.6f``: the x column, then one y column per
    channel.  A channel's k-th sample at x is keyed (x, k), there is one row
    per key of any channel, in increasing (x, k) order, and a channel's cell
    holds its sample with the row's key, or nothing.  So every sample is
    written once, and the samples of a file whose x never decreases keep
    their row order."""
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
