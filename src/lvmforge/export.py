"""Export of stored measurements to XML and Excel-compatible CSV.

Both formats are the normalized side of the pipeline: numbers always use
"." decimals and 6 fixed digits regardless of the source file's locale,
except REAL parameters that need more than 6 decimals, which print in
shortest round-trip form (see :func:`lvmforge.model.render_canonical`).
Timestamps are ISO 8601, and identical records produce byte-identical
output.
"""

from __future__ import annotations

import csv
import io
import xml.etree.ElementTree as ET

from .ingest import MeasurementRecord
from .lvm import format_fixed6
from .model import ConceptCategory, render_canonical

def export_xml(record: MeasurementRecord) -> bytes:
    """UTF-8 XML: measurement root, one category element per non-empty
    category (in canonical order), parameter elements with name/type/unit
    attributes and the canonical value as text, and one series element per
    channel with x/y point attributes."""
    root = ET.Element("measurement", {
        "equipment": record.equipment_name,
        "imported-at": record.imported_at.isoformat(),
        "source-file": record.source_file,
    })
    for category in ConceptCategory:
        values = record.values.get(category)
        if not values:
            continue
        element = ET.SubElement(root, "category", {"name": category.value})
        for name, typed in values.items():
            attrs = {"name": name, "type": typed.value_type.value}
            if typed.unit is not None:
                attrs["unit"] = typed.unit
            ET.SubElement(element, "parameter", attrs).text = render_canonical(typed)
    for series in record.series:
        attrs = {"name": series.name}
        if series.unit is not None:
            attrs["unit"] = series.unit
        element = ET.SubElement(root, "series", attrs)
        for x, y in series.points:
            ET.SubElement(element, "point",
                          {"x": format_fixed6(x), "y": format_fixed6(y)})
    tree = ET.ElementTree(root)
    ET.indent(tree)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"


def export_csv(record: MeasurementRecord) -> bytes:
    """Two sections: metadata rows (category,parameter,type,unit,value) and,
    after a blank line, the series block with an X_Value header row and one
    6-decimal row per abscissa.  Standard CSV quoting, LF line endings."""
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
        for x in _abscissae(record):
            row = [format_fixed6(x)]
            for series in record.series:
                y = dict(series.points).get(x)
                row.append("" if y is None else format_fixed6(y))
            writer.writerow(row)
    return buffer.getvalue().encode("utf-8")


def _abscissae(record: MeasurementRecord) -> list[float]:
    """X values in file order; the ordered union if channels disagree."""
    xs = [x for x, _ in record.series[0].points]
    if all([x for x, _ in s.points] == xs for s in record.series[1:]):
        return xs
    merged: dict[float, None] = {}
    for series in record.series:
        for x, _ in series.points:
            merged.setdefault(x)
    return list(merged)
