import csv
import io
import itertools
import math
import time
import tracemalloc
import xml.etree.ElementTree as ET
from datetime import date, datetime

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lvmforge import (
    ChannelSeries,
    ConceptCategory,
    MeasurementRecord,
    TypedValue,
    ValueType,
    builtin_sytherm,
    export_csv,
    export_xml,
    gen_lvm,
    map_lvm_to_record,
    parse_lvm,
    serialize_lvm,
    synth_first_order,
)
from lvmforge.model import render_canonical


# Reference renderers: the ElementTree XML writer and the CSV writer that
# writes channels on one grid row by row, and for channels on different
# grids writes one row per (x, k) key in increasing order, looking each cell
# up as the channel's k-th sample at x by a scan of its points.  Slow, but
# their output is the byte-exact contract of export_xml and export_csv.

def reference_xml(record):
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
            ET.SubElement(element, "point", {"x": f"{x:.6f}", "y": f"{y:.6f}"})
    tree = ET.ElementTree(root)
    ET.indent(tree)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"


def reference_csv(record):
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
        xs = [x for x, _ in record.series[0].points]
        if all([x for x, _ in s.points] == xs for s in record.series[1:]):
            for i, x in enumerate(xs):
                writer.writerow([f"{x:.6f}"] + [f"{s.points[i][1]:.6f}" for s in record.series])
            return buffer.getvalue().encode("utf-8")
        keys = []
        for series in record.series:
            for i, (x, _) in enumerate(series.points):
                key = (x, [px for px, _ in series.points[:i]].count(x))
                if key not in keys:
                    keys.append(key)
        for x, k in sorted(keys):
            row = [f"{x:.6f}"]
            for series in record.series:
                ys = [y for px, y in series.points if px == x]
                row.append(f"{ys[k]:.6f}" if k < len(ys) else "")
            writer.writerow(row)
    return buffer.getvalue().encode("utf-8")


# no lone surrogates: UTF-8 cannot encode them, and parsed text never has them
_TEXT = st.text(st.sampled_from("&<>\"'\r\n\t \u00b0\u00b5\u20ac")
                | st.characters(exclude_categories=("Cs",)), max_size=8)
_UNIT = st.none() | _TEXT
_TYPED = st.one_of(
    st.builds(TypedValue, _TEXT, st.just(ValueType.STRING), _UNIT),
    st.builds(TypedValue, _TEXT, st.just(ValueType.ENUMERATION), _UNIT),
    st.builds(TypedValue, st.integers(), st.just(ValueType.INTEGER), _UNIT),
    st.builds(TypedValue, st.floats(allow_nan=False, allow_infinity=False),
              st.just(ValueType.REAL), _UNIT),
    st.builds(TypedValue, st.booleans(), st.just(ValueType.BOOLEAN), _UNIT),
    st.builds(TypedValue, st.dates(), st.just(ValueType.DATE), _UNIT),
)
# a small pool of abscissae, so that channels share, repeat and miss x values
_X = st.sampled_from([0.0, -0.0, 0.1, 0.5, 1.0, 2.5, 1e6]) | st.floats(allow_nan=False)
_Y = st.floats()


@st.composite
def records(draw):
    record = MeasurementRecord(equipment_name=draw(_TEXT), imported_at=draw(st.datetimes()),
                               source_file=draw(_TEXT))
    for category in draw(st.lists(st.sampled_from(ConceptCategory), unique=True)):
        record.values[category] = draw(st.dictionaries(_TEXT, _TYPED, max_size=4))
    shared_grid = draw(st.none() | st.lists(_X, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        if shared_grid is None:
            points = draw(st.lists(st.tuples(_X, _Y), max_size=6))
        else:
            ys = draw(st.lists(_Y, min_size=len(shared_grid), max_size=len(shared_grid)))
            points = list(zip(shared_grid, ys))
        record.series.append(ChannelSeries(draw(_TEXT), draw(_UNIT), [x for x, _ in points],
                                           [y for _, y in points]))
    return record


@pytest.fixture()
def annex_record(annex1_doc, sytherm3):
    return map_lvm_to_record(annex1_doc, sytherm3, source_file="annex1.lvm",
                             imported_at=datetime(2024, 3, 1, 10, 0, 0))


def test_exports_match_reference_on_annex1(annex_record):
    assert export_xml(annex_record) == reference_xml(annex_record)
    assert export_csv(annex_record) == reference_csv(annex_record)


def _record(*columns):
    """A record of one series per (x, y) pair of columns."""
    record = MeasurementRecord(equipment_name="E", imported_at=datetime(2024, 1, 1),
                               source_file="f")
    record.series.extend(ChannelSeries(f"c{i}", None, x, y) for i, (x, y) in enumerate(columns))
    return record


@settings(max_examples=200, deadline=None)
@given(records())
# x columns equal under == whose zeros differ in sign, either way round: XML
# prints each series' own x, so a shared x text must mean the same bytes
@example(_record(([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]), ([-0.0, 1.0, 2.0], [4.0, 5.0, 6.0])))
@example(_record(([1.0, -0.0], [1.0, 2.0]), ([1.0, 0.0], [3.0, 4.0])))
# one grid of int x, and samples that are not finite or are -0.0
@example(_record(([0, 1, 2, 3], [math.nan, math.inf, -math.inf, -0.0]),
                 ([0, 1, 2, 3], [-0.0, math.nan, math.inf, -math.inf])))
def test_exports_match_reference(record):
    assert export_xml(record) == reference_xml(record)
    assert export_csv(record) == reference_csv(record)


def test_exports_scale_linearly():
    """4000 x 8 points: the per-row map rebuild took about 11 s for CSV."""
    responses = [synth_first_order(20.0 + c, 100.0, tau=5.0 + c, dt=0.1, n=4000)
                 for c in range(8)]
    doc = gen_lvm(responses, operator="Profesor", date=date(2013, 2, 6))
    record = map_lvm_to_record(parse_lvm(serialize_lvm(doc)), builtin_sytherm(8),
                               source_file="long.lvm", imported_at=datetime(2024, 1, 1))
    for exporter in (export_csv, export_xml):
        start = time.perf_counter()
        exporter(record)
        assert time.perf_counter() - start < 2.0, exporter.__name__


def test_xml_export_holds_at_most_two_copies_of_its_document():
    """The joined text and its encoding: the pieces go before encode, so
    5000 x 8 points peak below 3 times the output (3.4 with the pieces kept)."""
    responses = [synth_first_order(20.0 + c, 100.0, tau=5.0 + c, dt=0.1, n=5000)
                 for c in range(8)]
    doc = gen_lvm(responses, operator="Profesor", date=date(2013, 2, 6))
    record = map_lvm_to_record(parse_lvm(serialize_lvm(doc)), builtin_sytherm(8),
                               source_file="long.lvm", imported_at=datetime(2024, 1, 1))
    tracemalloc.start()
    try:
        size = len(export_xml(record))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * size, peak / size


def test_xml_operator_parameter(annex_record):
    text = export_xml(annex_record).decode()
    assert '<parameter name="Operator" type="String">Profesor</parameter>' in text
    root = ET.fromstring(text)
    category = root.find("category[@name='MeasurementInformation']")
    assert category is not None
    assert category.find("parameter[@name='Operator']").text == "Profesor"


def test_xml_root_attributes(annex_record):
    root = ET.fromstring(export_xml(annex_record))
    assert root.tag == "measurement"
    assert root.get("equipment") == "SYTHERM"
    assert root.get("imported-at") == "2024-03-01T10:00:00"
    assert root.get("source-file") == "annex1.lvm"


def test_xml_category_order_and_units(annex_record):
    root = ET.fromstring(export_xml(annex_record))
    names = [c.get("name") for c in root.findall("category")]
    assert names == ["MeasurementInformation", "ExperimentCharacterization"]
    series = root.findall("series")
    assert [s.get("name") for s in series] == ["Channel_0", "Channel_1", "Channel_2"]
    assert series[0].get("unit") == "CelsiusDegree"
    first_point = series[0].find("point")
    assert (first_point.get("x"), first_point.get("y")) == ("0.000000", "23.400000")


def test_xml_parameters_in_declaration_order(annex_record, sytherm3):
    root = ET.fromstring(export_xml(annex_record))
    for category_element in root.findall("category"):
        category = ConceptCategory(category_element.get("name"))
        exported = [p.get("name") for p in category_element.findall("parameter")]
        declared = [p.name for p in sytherm3.by_category(category)
                    if p.name in exported]
        assert exported == declared


def test_xml_no_series_elements():
    record = MeasurementRecord(equipment_name="E", imported_at=datetime(2024, 1, 1),
                               source_file="x")
    root = ET.fromstring(export_xml(record))
    assert root.findall("series") == []


def test_xml_parameter_count_matches_values(annex_record):
    root = ET.fromstring(export_xml(annex_record))
    stored = sum(len(values) for values in annex_record.values.values())
    assert len(root.findall("category/parameter")) == stored
    points = sum(len(s.points) for s in annex_record.series)
    assert len(root.findall("series/point")) == points


def test_csv_series_block(annex_record):
    lines = export_csv(annex_record).decode().split("\n")
    header_index = lines.index("X_Value,Channel_0,Channel_1,Channel_2")
    assert lines[header_index + 1] == "0.000000,23.400000,23.400000,23.600000"
    assert lines[header_index - 1] == ""  # blank line before the series block
    assert lines[0] == "category,parameter,type,unit,value"


def test_csv_keeps_every_sample_at_a_repeated_abscissa():
    text = ("LabVIEW Measurement\nSeparator\tTab\nDecimal_Separator\t.\n***End_of_Header***\n"
            "Channels\t1\n***End_of_Header***\nX_Value\tChannel 0\n"
            "0\t20.5\n1\t21.5\n1\t22.5\n2\t23.5\n")
    record = map_lvm_to_record(parse_lvm(text), builtin_sytherm(1),
                               imported_at=datetime(2024, 1, 1))
    lines = export_csv(record).decode().splitlines()
    assert lines[lines.index("X_Value,Channel_0") + 1:] == [
        "0.000000,20.500000", "1.000000,21.500000", "1.000000,22.500000", "2.000000,23.500000"]
    assert len(ET.fromstring(export_xml(record)).findall("series/point")) == 4


def _series_rows(text):
    """The series block of export_csv's text, one list of cells per row."""
    rows = list(csv.reader(io.StringIO(text)))
    return rows[rows.index([]) + 2:]


@pytest.mark.parametrize("rows, series_rows", [
    ("0\t1\t5\n1\t\t6\n2\t3\t7\n",
     [["0.000000", "1.000000", "5.000000"], ["1.000000", "", "6.000000"],
      ["2.000000", "3.000000", "7.000000"]]),
    ("0\t1\t5\n0\t2\t\n1\t3\t6\n",
     [["0.000000", "1.000000", "5.000000"], ["0.000000", "2.000000", ""],
      ["1.000000", "3.000000", "6.000000"]]),
], ids=["a-gap-in-the-middle", "a-gap-at-a-repeated-abscissa"])
def test_csv_of_channels_on_different_grids_keeps_every_sample_in_row_order(rows,
                                                                             series_rows):
    text = ("LabVIEW Measurement\nSeparator\tTab\nDecimal_Separator\t.\n***End_of_Header***\n"
            "Channels\t2\n***End_of_Header***\nX_Value\tChannel 0\tChannel 1\n" + rows)
    record = map_lvm_to_record(parse_lvm(text), builtin_sytherm(2),
                               imported_at=datetime(2024, 1, 1))
    assert _series_rows(export_csv(record).decode()) == series_rows
    assert len(ET.fromstring(export_xml(record)).findall("series/point")) == 5


@st.composite
def gapped_documents(draw):
    """(.lvm text, channels, data rows) of 1-4 channels: x non-decreasing
    from a small pool, so that it repeats, and about one sample in ten empty
    (None)."""
    channels = draw(st.integers(1, 4))
    xs = sorted(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]), max_size=10)))
    samples = st.integers(0, 9).flatmap(
        lambda n: st.none() if n == 0 else st.integers(-10**6, 10**6).map(lambda i: i / 1000))
    rows = [(x, draw(st.lists(samples, min_size=channels, max_size=channels))) for x in xs]
    names = "\t".join(f"Channel {c}" for c in range(channels))
    text = ("LabVIEW Measurement\nSeparator\tTab\nDecimal_Separator\t.\n***End_of_Header***\n"
            f"Channels\t{channels}\n***End_of_Header***\nX_Value\t{names}\n"
            + "".join("\t".join([repr(x), *("" if y is None else repr(y) for y in ys)]) + "\n"
                      for x, ys in rows))
    return text, channels, rows


@settings(max_examples=200, deadline=None)
@given(gapped_documents())
def test_csv_writes_a_parsed_file_s_samples_once_each_in_row_order(document):
    """Each channel's column holds exactly its samples, in order, and the
    series rows are the file's rows that hold a sample, in order, with the
    rows at one x packed: a channel's k-th sample at x is on the k-th row at
    x.  So the rows are the file's own wherever a channel's empty samples at
    an x follow its samples there; rows "0 1 _" and "0 _ 2" make the same
    record as one row "0 1 2", so no export can tell them apart."""
    text, channels, rows = document
    record = map_lvm_to_record(parse_lvm(text), builtin_sytherm(channels),
                               imported_at=datetime(2024, 1, 1))
    got = _series_rows(export_csv(record).decode())
    for c in range(channels):
        assert [row[c + 1] for row in got if row[c + 1]] == \
            [f"{ys[c]:.6f}" for _, ys in rows if ys[c] is not None]
    packed = []
    for x, run in itertools.groupby(rows, key=lambda row: row[0]):
        run = [ys for _, ys in run]
        columns = [[ys[c] for ys in run if ys[c] is not None] for c in range(channels)]
        for k in range(max(map(len, columns))):
            packed.append([f"{x:.6f}"] + [f"{column[k]:.6f}" if k < len(column) else ""
                                          for column in columns])
    assert got == packed


def test_csv_quoting():
    record = MeasurementRecord(equipment_name="E", imported_at=datetime(2024, 1, 1),
                               source_file="x")
    record.set_value(ConceptCategory.MEASUREMENT_INFORMATION, "Operator",
                     TypedValue("A,B", ValueType.STRING))
    text = export_csv(record).decode()
    assert 'MeasurementInformation,Operator,String,,"A,B"' in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[1][-1] == "A,B"


def test_csv_reimport_matches_series(annex_record):
    rows = list(csv.reader(io.StringIO(export_csv(annex_record).decode())))
    blank = rows.index([])
    header = rows[blank + 1]
    assert header[0] == "X_Value"
    for i, series in enumerate(annex_record.series, start=1):
        assert header[i] == series.name
        for row, (x, y) in zip(rows[blank + 2:], series.points):
            assert abs(float(row[0]) - x) <= 5e-7
            assert abs(float(row[i]) - y) <= 5e-7


def test_csv_dot_decimals_despite_comma_source(annex_record):
    # source file uses "," decimals; exports always use "."
    body = export_csv(annex_record).decode()
    for line in body.split("\n"):
        if line.startswith("0,") or ",23,4" in line:
            pytest.fail(f"comma decimal leaked into CSV: {line!r}")


def test_exports_deterministic(annex_record):
    assert export_xml(annex_record) == export_xml(annex_record)
    assert export_csv(annex_record) == export_csv(annex_record)


def test_information_preservation(annex_record):
    rows = list(csv.reader(io.StringIO(export_csv(annex_record).decode())))
    blank = rows.index([])
    metadata = rows[1:blank]
    assert len(metadata) == sum(len(v) for v in annex_record.values.values())
    rendered = {(r[0], r[1]) for r in metadata}
    for category, values in annex_record.values.items():
        for name in values:
            assert (category.value, name) in rendered
    series_rows = rows[blank + 2:]
    cell_count = sum(1 for row in series_rows for cell in row[1:] if cell != "")
    assert cell_count == sum(len(s.points) for s in annex_record.series)
