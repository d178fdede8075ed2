import dataclasses
import itertools
import json
import math
import random
import os
import pathlib
import re
import sqlite3
import subprocess
import sys
import tempfile
import threading
import time
from datetime import date, datetime

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lvmforge import (
    ChannelSeries,
    ConceptCategory,
    EquipmentModel,
    MeasurementRecord,
    ParsingBinding,
    ParsingProcedure,
    TypedValue,
    ValueType,
    builtin_sytherm,
    export_csv,
    export_xml,
    import_file,
    init_schema,
    map_lvm_to_record,
    parse_lvm,
    render_canonical,
)
from lvmforge import cli
from lvmforge.errors import (
    DuplicateBinding,
    DuplicateKey,
    DuplicateProcedure,
    ExtensionNotDeclared,
    LengthMismatch,
    ForeignKeyViolation,
    NotFound,
    SchemaVersionMismatch,
    StorageError,
    StorageUnavailable,
    TypeMismatch,
    UnknownEquipment,
    UnknownParameter,
    UnknownProcedure,
)
from lvmforge.ingest import LVM_HANDLER_ID
from lvmforge.lvm import read_text
from lvmforge.store import _BATCH, _QUERY, Store

from conftest import ANNEX1_PATH, equipment_models

EXPECTED_TABLES = {
    "t_eqp_equipments", "t_psf_parsingfunction", "t_efe_equipmentfileextension",
    "t_prm_parameters", "t_msr_measurements", "t_val_values", "t_ser_series",
}


def table_names(store):
    return {r[0] for r in store._conn.execute(
        "SELECT name FROM sqlite_master WHERE type='table' AND name NOT LIKE 'sqlite_%'")}


def count(store, table):
    return store._conn.execute(f"SELECT count(*) FROM {table}").fetchone()[0]


def orphan_counts(store):
    orphans = {}
    for child, parent in (("t_val_values", "t_msr_measurements"),
                          ("t_ser_series", "t_msr_measurements")):
        orphans[child] = store._conn.execute(
            f"SELECT count(*) FROM {child} c LEFT JOIN {parent} p"
            " ON p.msr_number = c.msr_number WHERE p.msr_number IS NULL").fetchone()[0]
    orphans["t_efe"] = store._conn.execute(
        "SELECT count(*) FROM t_efe_equipmentfileextension e"
        " LEFT JOIN t_eqp_equipments q ON q.eqp_number = e.eqp_number"
        " LEFT JOIN t_psf_parsingfunction p ON p.psf_number = e.psf_number"
        " WHERE q.eqp_number IS NULL OR p.psf_number IS NULL").fetchone()[0]
    return orphans


@pytest.fixture()
def annex_record(annex1_doc, sytherm3):
    return map_lvm_to_record(annex1_doc, sytherm3, source_file="annex1.lvm",
                             imported_at=datetime(2024, 3, 1, 10, 0, 0))


def test_init_fresh(tmp_path):
    with init_schema(tmp_path / "fresh.db") as store:
        assert table_names(store) == EXPECTED_TABLES
        assert all(count(store, t) == 0 for t in EXPECTED_TABLES)


def test_init_idempotent(tmp_path, sytherm3):
    path = tmp_path / "store.db"
    with init_schema(path) as store:
        store.put_equipment(sytherm3)
    with init_schema(path) as store:
        assert store.list_equipment() == ["SYTHERM"]


def test_init_version_mismatch(tmp_path):
    path = tmp_path / "store.db"
    init_schema(path).close()
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA user_version = 99")
    conn.commit()
    conn.close()
    with pytest.raises(SchemaVersionMismatch):
        init_schema(path)


def test_init_foreign_database(tmp_path):
    path = tmp_path / "foreign.db"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE unrelated (x)")
    conn.commit()
    conn.close()
    with pytest.raises(SchemaVersionMismatch):
        init_schema(path)


def test_init_unavailable_path(tmp_path):
    with pytest.raises(StorageUnavailable):
        init_schema(tmp_path / "missing-dir" / "store.db")


def test_put_equipment_parameter_rows(store, sytherm3):
    store.put_equipment(sytherm3)
    # §III.B recount: X_Value + 3 channels + 3 Measurement + 9 Experiment
    assert count(store, "t_prm_parameters") == 16


def test_put_equipment_duplicate(store, sytherm3):
    store.put_equipment(sytherm3)
    with pytest.raises(DuplicateKey):
        store.put_equipment(sytherm3)


def test_put_equipment_refuses_a_taken_name_naming_the_model(store, sytherm3):
    """Whatever the second model declares, the name alone refuses it, and
    the error names the model as DuplicateProcedure and DuplicateBinding
    name theirs; no table changes."""
    store.put_equipment(sytherm3)
    before = {t: count(store, t) for t in EXPECTED_TABLES}
    for model in (sytherm3, builtin_sytherm(1), EquipmentModel("SYTHERM")):
        with pytest.raises(DuplicateKey, match="^model SYTHERM exists$"):
            store.put_equipment(model)
        assert {t: count(store, t) for t in EXPECTED_TABLES} == before
    assert store.get_equipment("SYTHERM") == sytherm3


def test_equipment_roundtrip(store, sytherm3):
    store.put_equipment(sytherm3)
    assert store.get_equipment("SYTHERM") == sytherm3


@settings(max_examples=200, deadline=None)
@given(equipment_models())
@example(EquipmentModel(".", description="\ud800"))
def test_every_model_that_constructs_reads_back(model):
    """The store gives back every model it takes.  It takes every model
    that constructs, except one holding text UTF-8 cannot encode (a lone
    surrogate), which it refuses whole with a StorageError."""
    texts = [model.name, model.producer, model.description, model.webpage or "",
             model.picture or "", model.visual_model or "", *model.extensions,
             *model.ignored_file_keys,
             *(text for p in model.parameters for text in (p.name, *p.enum_domain))]
    with tempfile.TemporaryDirectory() as work, init_schema(f"{work}/store.db") as store:
        if any(read_text(text) is None for text in texts):
            with pytest.raises(StorageError):
                store.put_equipment(model)
            assert store.list_equipment() == []
        else:
            store.put_equipment(model)
            assert store.get_equipment(model.name) == model


def test_binding_before_procedure(store, sytherm3):
    store.put_equipment(sytherm3)
    binding = ParsingBinding("SYTHERM", "LVM_PARSING", "lvm")
    with pytest.raises(ForeignKeyViolation):
        store.put_binding(binding)


def test_binding_roundtrip(store, sytherm3):
    store.put_equipment(sytherm3)
    store.put_procedure(ParsingProcedure("LVM_PARSING", LVM_HANDLER_ID))
    binding = ParsingBinding("SYTHERM", "LVM_PARSING", "lvm")
    assert store.put_binding(binding) == "LVM_PARSING_LVM"
    assert store.list_bindings() == [binding]
    with pytest.raises(DuplicateKey):
        store.put_binding(binding)


def test_put_binding_refuses_an_extension_the_equipment_does_not_declare(store, sytherm3):
    store.put_equipment(sytherm3)
    store.put_procedure(ParsingProcedure("P", LVM_HANDLER_ID))
    before = {t: count(store, t) for t in EXPECTED_TABLES}
    for extension in ("csv", "a.b", " x"):
        with pytest.raises(ExtensionNotDeclared,
                           match=f"^SYTHERM does not declare {re.escape('.' + extension)}$"):
            store.put_binding(ParsingBinding("SYTHERM", "P", extension))
    assert store.list_bindings() == []
    assert {t: count(store, t) for t in EXPECTED_TABLES} == before


def test_dispatch_errors_are_the_stores(store, sytherm3):
    """Each dispatch rule is checked by the store method that writes the
    table, and a refused write changes no table."""
    store.put_equipment(sytherm3)
    store.put_procedure(ParsingProcedure("P", LVM_HANDLER_ID))
    store.put_binding(ParsingBinding("SYTHERM", "P", "lvm"))
    before = {t: count(store, t) for t in EXPECTED_TABLES}
    for call, error, message in (
            (lambda: store.put_binding(ParsingBinding("SYTHERM", "P", "lvm")),
             DuplicateBinding, r"^\(SYTHERM, lvm\)$"),
            (lambda: store.put_binding(ParsingBinding("SYTHERM", "NOPE", "lvm")),
             UnknownProcedure, "^NOPE$"),
            (lambda: store.put_binding(ParsingBinding("NOPE", "P", "lvm")),
             UnknownEquipment, "^NOPE$"),
            (lambda: store.put_procedure(ParsingProcedure("P", LVM_HANDLER_ID)),
             DuplicateProcedure, "^P$")):
        with pytest.raises(error, match=message):
            call()
        assert {t: count(store, t) for t in EXPECTED_TABLES} == before


def test_remove_equipment_deletes_the_model_its_parameters_and_bindings(store, sytherm3):
    other = dataclasses.replace(builtin_sytherm(2), name="OTHER")
    store.put_equipment(sytherm3)
    store.put_equipment(other)
    store.put_procedure(ParsingProcedure("P", LVM_HANDLER_ID))
    for name in ("SYTHERM", "OTHER"):
        store.put_binding(ParsingBinding(name, "P", "lvm"))
    store.remove_equipment("SYTHERM")
    assert store.list_equipment() == ["OTHER"]
    assert store.list_bindings() == [ParsingBinding("OTHER", "P", "lvm")]
    assert store.list_procedures() == ["P"]
    assert count(store, "t_prm_parameters") == len(other.parameters)
    assert store.get_equipment("OTHER") == other
    with pytest.raises(UnknownEquipment, match="^SYTHERM$"):
        store.remove_equipment("SYTHERM")


@pytest.mark.parametrize("with_values", [True, False])
def test_remove_equipment_refuses_a_model_with_measurements(store, sytherm3, annex_record,
                                                            with_values):
    """Refused by the schema's foreign keys, whether the record's value rows
    or only its measurement row reference the model; no table changes."""
    store.put_equipment(sytherm3)
    store.put_procedure(ParsingProcedure("P", LVM_HANDLER_ID))
    store.put_binding(ParsingBinding("SYTHERM", "P", "lvm"))
    store.put_measurement(annex_record if with_values else MeasurementRecord(
        equipment_name="SYTHERM", imported_at=datetime(2024, 1, 1), source_file="x.lvm"))
    before = {t: count(store, t) for t in EXPECTED_TABLES}
    with pytest.raises(ForeignKeyViolation, match="^SYTHERM has measurements$"):
        store.remove_equipment("SYTHERM")
    assert {t: count(store, t) for t in EXPECTED_TABLES} == before


def test_resolve_sends_one_statement_that_searches_the_binding_index(store, sytherm3):
    """resolve finds the binding through the (eqp_number, efe_extension)
    unique index; no table is scanned."""
    store.put_equipment(sytherm3)
    store.put_procedure(ParsingProcedure("P", LVM_HANDLER_ID))
    store.put_binding(ParsingBinding("SYTHERM", "P", "lvm"))
    sent = []
    store._conn.set_trace_callback(sent.append)
    assert store.resolve("SYTHERM", "run.LVM") == ParsingProcedure("P", LVM_HANDLER_ID)
    store._conn.set_trace_callback(None)
    assert len(sent) == 1
    plan = " | ".join(r[3] for r in store._conn.execute("EXPLAIN QUERY PLAN " + sent[0]))
    assert "SCAN" not in plan, plan
    assert "(eqp_number=? AND efe_extension=?)" in plan, plan


def test_put_measurement_rows(store, sytherm3, annex_record):
    store.put_equipment(sytherm3)
    store.put_measurement(annex_record)
    operator = store._conn.execute(
        "SELECT val_text FROM t_val_values v JOIN t_prm_parameters p"
        " ON p.prm_number = v.prm_number WHERE p.prm_name = 'Operator'").fetchone()
    assert operator == ("Profesor",)
    assert count(store, "t_ser_series") == 48


def test_put_measurement_no_series(store, sytherm3):
    store.put_equipment(sytherm3)
    record = MeasurementRecord(equipment_name="SYTHERM",
                               imported_at=datetime(2024, 1, 1), source_file="x.lvm")
    store.put_measurement(record)
    assert count(store, "t_ser_series") == 0


def test_put_measurement_unknown_equipment(store, annex_record):
    with pytest.raises(UnknownEquipment):
        store.put_measurement(annex_record)


def test_put_measurement_undeclared_parameter(store, sytherm3, annex_record):
    store.put_equipment(sytherm3)
    from lvmforge import TypedValue, ValueType
    annex_record.set_value(ConceptCategory.WARNINGS, "Ghost",
                           TypedValue("boo", ValueType.STRING))
    with pytest.raises(UnknownParameter):
        store.put_measurement(annex_record)
    assert count(store, "t_msr_measurements") == 0  # atomic rollback
    assert count(store, "t_val_values") == 0


def test_put_measurement_rejects_what_get_would_not_give_back(store, sytherm3,
                                                              annex_record):
    """A series unit, or a value's category, type or unit, other than the
    model declares would come back as the model's, so put refuses it."""
    store.put_equipment(sytherm3)
    store.put_measurement(annex_record)
    info = ConceptCategory.MEASUREMENT_INFORMATION
    setup = ConceptCategory.EXPERIMENT_CHARACTERIZATION
    cases = [
        ("Channel_1", lambda r: r.series.__setitem__(
            1, dataclasses.replace(r.series[1], unit="Kelvin"))),
        ("Date", lambda r: r.set_value(info, "Date",
                                       TypedValue("2013/01/01", ValueType.STRING))),
        ("X0", lambda r: r.set_value(setup, "X0", TypedValue(0.0, ValueType.REAL, "Kelvin"))),
        ("Operator", lambda r: r.set_value(ConceptCategory.WARNINGS, "Operator",
                                           r.values[info].pop("Operator"))),
    ]
    before = {t: count(store, t) for t in EXPECTED_TABLES}
    for name, spoil in cases:
        record = dataclasses.replace(annex_record, series=list(annex_record.series), values={
            category: dict(values) for category, values in annex_record.values.items()})
        spoil(record)
        with pytest.raises(UnknownParameter, match=f"SYTHERM: {name} has .* in the record"
                                                   " but .* in the model"):
            store.put_measurement(record)
        assert {t: count(store, t) for t in EXPECTED_TABLES} == before


def test_put_measurement_rejects_a_value_its_grammar_does_not_read_back(
        store, sytherm3, annex_record):
    """Each value's stored text must read back as the value itself: get
    would otherwise fail on the record or return another value."""
    store.put_equipment(sytherm3)
    store.put_measurement(annex_record)
    info = ConceptCategory.MEASUREMENT_INFORMATION
    setup = ConceptCategory.EXPERIMENT_CHARACTERIZATION
    cases = [
        (setup, "Channels", TypedValue("many", ValueType.INTEGER), "'many'"),
        (setup, "X0", TypedValue(float("nan"), ValueType.REAL), "'nan'"),
        (info, "Date", TypedValue("2013/02/06", ValueType.DATE),
         "'2013/02/06': a str is not a Date value"),
        (setup, "X0", TypedValue("1.5", ValueType.REAL), "'1.5': a str is not a Real value"),
        (setup, "Multi_Headings", TypedValue("yes", ValueType.BOOLEAN),
         "'Yes': reads back as another value"),
    ]
    before = {t: count(store, t) for t in EXPECTED_TABLES}
    for category, name, typed, rejected in cases:
        record = dataclasses.replace(annex_record, values={
            c: dict(values) for c, values in annex_record.values.items()})
        record.set_value(category, name, typed)
        with pytest.raises(TypeMismatch, match=re.escape(f"parameter {name!r} rejects {rejected}")):
            store.put_measurement(record)
        assert {t: count(store, t) for t in EXPECTED_TABLES} == before


@pytest.mark.parametrize("text", ["a\nb", "a\rb", "\n"])
def test_put_measurement_refuses_a_string_of_more_than_one_line(store, sytherm3,
                                                                annex_record, text):
    store.put_equipment(sytherm3)
    before = {t: count(store, t) for t in EXPECTED_TABLES}
    annex_record.set_value(ConceptCategory.MEASUREMENT_INFORMATION, "Operator",
                           TypedValue(text, ValueType.STRING))
    with pytest.raises(TypeMismatch, match="expected one line of UTF-8 text"):
        store.put_measurement(annex_record)
    assert {t: count(store, t) for t in EXPECTED_TABLES} == before


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), float("-inf"), "23.4",
    # REAL affinity rounds it to 2**53; SQLite cannot bind it; float() overflows
    pytest.param(2**53 + 1, id="2**53+1"), pytest.param(2**70, id="2**70"),
    pytest.param(10**400, id="10**400")])
@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_put_measurement_rejects_a_sample_that_is_not_a_finite_real(
        store, sytherm3, annex_record, bad, axis):
    """SQLite binds NaN as NULL and the parser refuses infinities, so the
    store refuses both, any sample that is not a number, and any int that
    would not come back as itself, before it writes a row."""
    store.put_equipment(sytherm3)
    store.put_measurement(annex_record)
    series = list(annex_record.series)
    columns = [list(series[1].x), list(series[1].y)]
    columns[axis][3] = bad
    series[1] = ChannelSeries(series[1].name, series[1].unit, *columns)
    before = {t: count(store, t) for t in EXPECTED_TABLES}
    with pytest.raises(TypeMismatch, match=re.escape(
            f"parameter {series[1].name!r} rejects {bad!r}: a sample must be a finite real")):
        store.put_measurement(dataclasses.replace(annex_record, series=series))
    assert {t: count(store, t) for t in EXPECTED_TABLES} == before


def test_put_measurement_rejects_a_point_that_is_not_a_pair(store):
    """An x without its y would bind a batch's flat parameters shifted, so
    a series whose columns differ in length is refused on construction.  A
    sample that is a pair or None is refused by put with TypeMismatch, not
    a raw TypeError, before it writes a row."""
    model = builtin_sytherm(1)
    store.put_equipment(model)
    xs = [float(i) for i in range(_BATCH)]
    with pytest.raises(LengthMismatch, match=f"'Channel_0': {_BATCH} x, {_BATCH - 1} y"):
        ChannelSeries("Channel_0", "CelsiusDegree", xs, xs[:-1])
    before = {t: count(store, t) for t in EXPECTED_TABLES}
    for bad in ((1.0, 2.0), None):
        for columns in ((xs[:2] + [bad] + xs[3:], xs), (xs, xs[:2] + [bad] + xs[3:])):
            record = dataclasses.replace(_channel_record(model, ()), series=[
                ChannelSeries("Channel_0", "CelsiusDegree", *columns)])
            with pytest.raises(TypeMismatch,
                               match=re.escape(f"rejects {bad!r}: a sample must be a finite real")):
                store.put_measurement(record)
            assert {t: count(store, t) for t in EXPECTED_TABLES} == before


def test_measurement_roundtrip(store, sytherm3, annex_record):
    store.put_equipment(sytherm3)
    msr = store.put_measurement(annex_record)
    loaded = store.get_measurement(msr)
    assert dataclasses.replace(loaded, record_id=None) == annex_record
    assert loaded.record_id == msr


def _series(name, unit, points):
    """The series of the (x, y) points."""
    return ChannelSeries(name, unit, [x for x, _ in points], [y for _, y in points])


def _channel_record(model, *points):
    """A record of the model with one series per points tuple, in channel order."""
    return MeasurementRecord(
        equipment_name=model.name, imported_at=datetime(2024, 1, 1), source_file="hand.lvm",
        series=[_series(p.name, p.unit, series)
                for p, series in zip(model.channel_parameters, points)])


def test_points_read_back_as_tuples_of_float_pairs(store):
    model = builtin_sytherm(3)
    store.put_equipment(model)
    # integral samples (SQLite keeps them as integers on disk), an empty
    # series, and a repeated x with an int sample
    record = _channel_record(model, ((1.0, 2.0), (2.0, 3.5)), (),
                             ((1.0, 1.0), (1.0, 2.0), (0.5, -3)))
    got = store.get_measurement(store.put_measurement(record))
    assert [s.points for s in got.series] == [s.points for s in record.series]
    for series in got.series:
        assert type(series.points) is tuple
        for point in series.points:
            assert type(point) is tuple and len(point) == 2
            assert [type(v) for v in point] == [float, float]


@pytest.mark.xfail(strict=True, reason=(
    "SQLite stores an integral REAL as an integer, so -0.0 reads back as 0.0;"
    " see the FOUND line on -0.0 in CHANGES.md and ROADMAP item 2"))
def test_negative_zero_sample_keeps_its_sign_after_put_get(store):
    model = builtin_sytherm(1)
    store.put_equipment(model)
    got = store.get_measurement(store.put_measurement(_channel_record(model, ((1.0, -0.0),))))
    assert b"1.000000,-0.000000" in export_csv(got)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(x0=_FINITE, delta_x=_FINITE)
@example(x0=1.23456789e-3, delta_x=1.0)
def test_real_parameters_survive_put_get(annex1_bytes, x0, delta_x):
    model = builtin_sytherm(3)
    record = map_lvm_to_record(parse_lvm(annex1_bytes), model,
                               imported_at=datetime(2024, 3, 1, 10, 0, 0))
    for name, value in (("X0", x0), ("Delta_X", delta_x)):
        record.set_value(ConceptCategory.EXPERIMENT_CHARACTERIZATION, name,
                         TypedValue(value, ValueType.REAL))
    with init_schema(":memory:") as store:
        store.put_equipment(model)
        got = store.get_measurement(store.put_measurement(record))
    assert got.values == record.values


def test_get_missing(store):
    with pytest.raises(NotFound):
        store.get_measurement(123)


def test_query_filters(store, sytherm3, annex_record):
    store.put_equipment(sytherm3)
    msr = store.put_measurement(annex_record)
    assert [s.record_id for s in store.query(operator="Profesor")] == [msr]
    assert store.query(operator="Nobody") == []
    assert [s.record_id for s in store.query(equipment="SYTHERM",
                                             date_from=date(2013, 2, 6),
                                             date_to=date(2013, 2, 6))] == [msr]
    assert store.query(date_to=date(2013, 2, 5)) == []
    assert store.query(equipment="OTHER") == []
    param = (ConceptCategory.EXPERIMENT_CHARACTERIZATION, "Channels", "3")
    assert [s.record_id for s in store.query(parameter=param)] == [msr]
    summary = store.query()[0]
    assert summary.operator == "Profesor"
    assert summary.source_file == "annex1.lvm"


def test_delete_then_get(store, sytherm3, annex_record):
    store.put_equipment(sytherm3)
    msr = store.put_measurement(annex_record)
    store.delete_measurement(msr)
    with pytest.raises(NotFound):
        store.get_measurement(msr)
    with pytest.raises(NotFound):
        store.delete_measurement(msr)
    assert orphan_counts(store) == {"t_val_values": 0, "t_ser_series": 0, "t_efe": 0}


def test_update_value_readback(store, sytherm3, annex_record):
    store.put_equipment(sytherm3)
    msr = store.put_measurement(annex_record)
    store.update_value(msr, "Operator", "Student1")
    loaded = store.get_measurement(msr)
    assert loaded.get_value(ConceptCategory.MEASUREMENT_INFORMATION, "Operator") == "Student1"


def test_an_edit_adds_a_missing_value_in_declaration_order(store, sytherm3, annex1_bytes):
    """A value the file lacked, set by an edit, reads back and exports where
    the model declares it, as if the file had held it."""
    store.put_equipment(sytherm3)
    stamp = datetime(2024, 3, 1, 10, 0, 0)
    edited, reference = (
        store.put_measurement(map_lvm_to_record(parse_lvm(data), sytherm3,
                                                source_file="annex1.lvm", imported_at=stamp))
        for data in (annex1_bytes.replace(b"Operator\tProfesor\n", b""), annex1_bytes))
    store.update_value(edited, "Operator", "Profesor")
    got, want = store.get_measurement(edited), store.get_measurement(reference)
    assert list(got.values[ConceptCategory.MEASUREMENT_INFORMATION]) == [
        "Operator", "Date", "Time"]
    assert export_csv(got) == export_csv(want)
    assert export_xml(got) == export_xml(want)


def test_update_value_type_mismatch(store, sytherm3, annex_record):
    store.put_equipment(sytherm3)
    msr = store.put_measurement(annex_record)
    for raw in ("abc", "3\n"):  # a value is the whole text: no trailing line break
        with pytest.raises(TypeMismatch):
            store.update_value(msr, "Channels", raw)
    loaded = store.get_measurement(msr)
    assert loaded.get_value(ConceptCategory.EXPERIMENT_CHARACTERIZATION, "Channels") == 3


def test_update_value_rejects_overflowing_real(store, sytherm3, annex_record):
    store.put_equipment(sytherm3)
    msr = store.put_measurement(annex_record)
    with pytest.raises(TypeMismatch):
        store.update_value(msr, "X0", "1e999")
    loaded = store.get_measurement(msr)
    assert loaded.get_value(ConceptCategory.EXPERIMENT_CHARACTERIZATION, "X0") == 0.0


def test_update_value_missing_record(store, sytherm3):
    store.put_equipment(sytherm3)
    with pytest.raises(NotFound):
        store.update_value(999, "Operator", "X")


def test_update_value_undeclared_parameter(store, sytherm3, annex_record):
    store.put_equipment(sytherm3)
    msr = store.put_measurement(annex_record)
    with pytest.raises(UnknownParameter):
        store.update_value(msr, "Ghost", "X")


def test_query_matches_brute_force(store, sytherm3, annex1_bytes):
    """Every combination of equipment, operator, parameter and date filters
    drawn from small pools gives the records, operators and order a scan of
    the records themselves gives, on two equipments, with some records
    lacking an Operator value and some sharing an import time."""
    models = (sytherm3, dataclasses.replace(sytherm3, name="OTHER"))
    for model in models:
        store.put_equipment(model)
    docs = (parse_lvm(annex1_bytes), parse_lvm(annex1_bytes.replace(b"Operator\tProfesor\n", b"")))
    rng = random.Random(11)
    ids = []
    for i in range(12):
        record = map_lvm_to_record(
            rng.choice(docs), rng.choice(models), source_file=f"run{i}.lvm",
            imported_at=datetime(2024, 3, rng.randint(1, 4), 9, 0, 0))
        msr = store.put_measurement(record)
        operator = rng.choice(["Profesor", "Student1", None])
        if operator is not None:
            store.update_value(msr, "Operator", operator)
        store.update_value(msr, "Date", f"2013/02/{rng.randint(1, 9):02d}")
        store.update_value(msr, "X_Dimension", rng.choice(["Time", "Depth"]))
        ids.append(msr)

    records = {i: store.get_measurement(i) for i in ids}
    mi = ConceptCategory.MEASUREMENT_INFORMATION
    ec = ConceptCategory.EXPERIMENT_CHARACTERIZATION

    def brute(equipment, operator, parameter, date_from, date_to):
        keep = []
        for i, r in records.items():
            op = r.get_value(mi, "Operator")
            dt = r.get_value(mi, "Date")
            if equipment is not None and r.equipment_name != equipment:
                continue
            if operator is not None and op != operator:
                continue
            if parameter is not None:
                category, name, text = parameter
                typed = r.values.get(category, {}).get(name)
                if typed is None or render_canonical(typed) != text:
                    continue
            if date_from is not None and dt < date_from:
                continue
            if date_to is not None and dt > date_to:
                continue
            keep.append((r.imported_at, i, r.equipment_name, op))
        return [(i, name, op) for _, i, name, op in sorted(keep)]

    pools = {
        "equipment": (None, "SYTHERM", "OTHER", "NONE"),
        "operator": (None, "Profesor", "Student1", "Nobody"),
        "parameter": (None, (ec, "X_Dimension", "Time"), (ec, "X_Dimension", "Depth"),
                      (mi, "X_Dimension", "Time"), (mi, "Operator", "Student1"),
                      (ec, "Ghost", "Time")),
        "date_from": (None, date(2013, 2, 3), date(2013, 2, 6)),
        "date_to": (None, date(2013, 2, 5), date(2013, 2, 8)),
    }
    for drawn in itertools.product(*pools.values()):
        kwargs = dict(zip(pools, drawn))
        got = [(s.record_id, s.equipment_name, s.operator) for s in store.query(**kwargs)]
        assert got == brute(**kwargs), kwargs


def _mask_arguments(sql: str) -> str:
    """The statement text with each bound argument, literal or parameter, as ?."""
    return re.sub(r"NULL|'[^']*'|:\w+", "?", sql)


def test_query_sends_one_statement_that_searches_the_value_indexes(store, sytherm3,
                                                                   annex_record):
    """Every combination of query's five filters sends the one statement
    _QUERY, whose plan reads parameter and value rows only by SEARCH on
    their unique indexes: Operator, Date and the parameter filter each take
    one (eqp_number, prm_name) and one (msr_number, prm_number) lookup."""
    store.put_equipment(sytherm3)
    msr = store.put_measurement(annex_record)
    filters = {"equipment": "SYTHERM", "operator": "Profesor",
               "parameter": (ConceptCategory.EXPERIMENT_CHARACTERIZATION, "Channels", "3"),
               "date_from": date(2013, 2, 6), "date_to": date(2013, 2, 6)}
    texts = set()
    for given_ in itertools.product((False, True), repeat=len(filters)):
        kwargs = {name: value for (name, value), on in zip(filters.items(), given_) if on}
        sent = []
        store._conn.set_trace_callback(sent.append)
        assert [s.record_id for s in store.query(**kwargs)] == [msr], kwargs
        store._conn.set_trace_callback(None)
        assert len(sent) == 1, kwargs
        # the trace shows each argument bound in place
        texts.add(_mask_arguments(sent[0]))
        plan = [r[3] for r in store._conn.execute("EXPLAIN QUERY PLAN " + sent[0])]
        assert {line.split()[1] for line in plan if line.startswith("SCAN")} <= {"m", "q"}, plan
        searches = [line for line in plan if line.startswith("SEARCH")]
        for index in ("sqlite_autoindex_t_prm_parameters_1 (eqp_number=? AND prm_name=?)",
                      "sqlite_autoindex_t_val_values_1 (msr_number=? AND prm_number=?)"):
            assert sum(index in line for line in searches) == 3, plan
    assert texts == {_mask_arguments(_QUERY)}


# every public Store method, called on a store that holds equipment SYTHERM,
# procedure LVM_PARSING and measurement msr
_STORE_CALLS = {
    "put_equipment": lambda s, r, msr: s.put_equipment(
        dataclasses.replace(builtin_sytherm(2), name="OTHER")),
    "get_equipment": lambda s, r, msr: s.get_equipment("SYTHERM"),
    "remove_equipment": lambda s, r, msr: s.remove_equipment("SYTHERM"),
    "list_equipment": lambda s, r, msr: s.list_equipment(),
    "put_procedure": lambda s, r, msr: s.put_procedure(
        ParsingProcedure("OTHER", LVM_HANDLER_ID)),
    "list_procedures": lambda s, r, msr: s.list_procedures(),
    "put_binding": lambda s, r, msr: s.put_binding(
        ParsingBinding("SYTHERM", "LVM_PARSING", "lvm")),
    "list_bindings": lambda s, r, msr: s.list_bindings(),
    "put_measurement": lambda s, r, msr: s.put_measurement(r),
    "get_measurement": lambda s, r, msr: s.get_measurement(msr),
    "query": lambda s, r, msr: s.query(operator="Profesor"),
    "delete_measurement": lambda s, r, msr: s.delete_measurement(msr),
    "update_value": lambda s, r, msr: s.update_value(msr, "Operator", "Student1"),
}
_WRITES = {"put_equipment", "remove_equipment", "put_procedure", "put_binding",
           "put_measurement", "delete_measurement", "update_value"}


def _drop_series(path, store):
    store._conn.execute("DROP TABLE t_ser_series")
    return None


def _lock(mode):
    def hold(path, store):
        other = sqlite3.connect(path, isolation_level=None)
        other.execute(f"BEGIN {mode}")
        return other
    return hold


@pytest.mark.parametrize("break_store, methods", [
    (_drop_series, {"put_measurement", "get_measurement", "delete_measurement"}),
    (_lock("IMMEDIATE"), _WRITES),
    (_lock("EXCLUSIVE"), set(_STORE_CALLS)),
], ids=["series-table-dropped", "write-locked", "exclusively-locked"])
def test_no_sqlite_error_escapes(tmp_path, sytherm3, annex_record, break_store, methods):
    path = tmp_path / "store.db"
    with init_schema(path) as store:
        store.put_equipment(sytherm3)
        store.put_procedure(ParsingProcedure("LVM_PARSING", LVM_HANDLER_ID))
        msr = store.put_measurement(annex_record)
        before = {t: count(store, t) for t in EXPECTED_TABLES}
        store._conn.execute("PRAGMA busy_timeout = 0")
        other = break_store(path, store)
        for name in sorted(methods):
            with pytest.raises(StorageUnavailable, match=re.escape(str(path))):
                _STORE_CALLS[name](store, annex_record, msr)
        if other is not None:
            other.close()
        # every failed write rolled back completely
        assert {t: count(store, t) for t in table_names(store)} == \
            {t: n for t, n in before.items() if t in table_names(store)}


# -- schema version 2 ----------------------------------------------------------

# the schema text of version 1, as init_schema wrote it
_V1_SCHEMA = """
CREATE TABLE t_eqp_equipments (
    eqp_number      INTEGER PRIMARY KEY,
    eqp_name        TEXT NOT NULL UNIQUE,
    eqp_producer    TEXT NOT NULL DEFAULT '',
    eqp_description TEXT NOT NULL DEFAULT '',
    eqp_webpage     TEXT,
    eqp_picture     TEXT,
    eqp_visualmodel TEXT,
    eqp_extensions  TEXT NOT NULL DEFAULT '',
    eqp_ignoredkeys TEXT NOT NULL DEFAULT ''
);
CREATE TABLE t_psf_parsingfunction (
    psf_number INTEGER PRIMARY KEY,
    psf_name   TEXT NOT NULL UNIQUE
);
CREATE TABLE t_efe_equipmentfileextension (
    efe_number    TEXT NOT NULL,
    eqp_number    INTEGER NOT NULL REFERENCES t_eqp_equipments(eqp_number),
    psf_number    INTEGER NOT NULL REFERENCES t_psf_parsingfunction(psf_number),
    efe_extension TEXT NOT NULL,
    UNIQUE (eqp_number, psf_number, efe_extension),
    UNIQUE (eqp_number, efe_extension)
);
CREATE TABLE t_prm_parameters (
    prm_number   INTEGER PRIMARY KEY,
    eqp_number   INTEGER NOT NULL REFERENCES t_eqp_equipments(eqp_number),
    prm_name     TEXT NOT NULL,
    prm_category TEXT NOT NULL,
    prm_type     TEXT NOT NULL,
    prm_unit     TEXT,
    prm_source   TEXT NOT NULL,
    UNIQUE (eqp_number, prm_name)
);
CREATE TABLE t_msr_measurements (
    msr_number      INTEGER PRIMARY KEY,
    eqp_number      INTEGER NOT NULL REFERENCES t_eqp_equipments(eqp_number),
    msr_imported_at TEXT NOT NULL,
    msr_sourcefile  TEXT NOT NULL DEFAULT '',
    msr_warnings    TEXT NOT NULL DEFAULT '[]',
    msr_aux         TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE t_val_values (
    val_number INTEGER PRIMARY KEY,
    msr_number INTEGER NOT NULL REFERENCES t_msr_measurements(msr_number),
    prm_number INTEGER NOT NULL REFERENCES t_prm_parameters(prm_number),
    val_text   TEXT NOT NULL,
    UNIQUE (msr_number, prm_number)
);
CREATE TABLE t_ser_series (
    ser_number INTEGER PRIMARY KEY,
    msr_number INTEGER NOT NULL REFERENCES t_msr_measurements(msr_number),
    prm_number INTEGER NOT NULL REFERENCES t_prm_parameters(prm_number),
    ser_index  INTEGER NOT NULL,
    ser_x      REAL NOT NULL,
    ser_y      REAL NOT NULL,
    UNIQUE (msr_number, prm_number, ser_index)
);
"""


def _v1_store(path, model, records):
    """A version-1 store holding model and records, written with the
    statements of the version-1 put_measurement."""
    conn = sqlite3.connect(path)
    conn.executescript(_V1_SCHEMA)
    conn.execute("PRAGMA user_version = 1")
    Store(conn, path).put_equipment(model)  # these tables did not change
    params = {name: number for number, name in conn.execute(
        "SELECT prm_number, prm_name FROM t_prm_parameters")}
    with conn:
        for record in records:
            msr = conn.execute(
                "INSERT INTO t_msr_measurements (eqp_number, msr_imported_at,"
                " msr_sourcefile, msr_warnings, msr_aux) VALUES (1,?,?,?,?)",
                (record.imported_at.isoformat(), record.source_file,
                 json.dumps(record.warnings), json.dumps(record.aux))).lastrowid
            for per_category in record.values.values():
                for name, typed in per_category.items():
                    conn.execute(
                        "INSERT INTO t_val_values (msr_number, prm_number, val_text)"
                        " VALUES (?,?,?)", (msr, params[name], render_canonical(typed)))
            for series in record.series:
                for index, (x, y) in enumerate(series.points):
                    conn.execute(
                        "INSERT INTO t_ser_series (msr_number, prm_number,"
                        " ser_index, ser_x, ser_y) VALUES (?,?,?,?,?)",
                        (msr, params[series.name], index, x, y))
    conn.close()


def _dump(path):
    """Schema text, user_version and every row of the store at path."""
    conn = sqlite3.connect(path)
    try:
        tables = [r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name")]
        return (conn.execute("PRAGMA user_version").fetchone()[0],
                conn.execute("SELECT type, name, sql FROM sqlite_master ORDER BY name").fetchall(),
                {t: conn.execute(f"SELECT * FROM {t}").fetchall() for t in tables})
    finally:
        conn.close()


def test_v1_store_migrates_on_open(tmp_path, sytherm3, annex_record):
    path = tmp_path / "v1.db"
    reversed_record = dataclasses.replace(annex_record, source_file="reversed.lvm",
                                          series=annex_record.series[::-1])
    _v1_store(path, sytherm3, [annex_record, reversed_record])
    with init_schema(path) as store:
        assert store._conn.execute("PRAGMA user_version").fetchone()[0] == 2
        assert store._conn.execute("PRAGMA foreign_key_check").fetchall() == []
        assert store._conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
        assert table_names(store) == EXPECTED_TABLES
        assert count(store, "t_ser_series") == 2 * 48
        for msr, record in ((1, annex_record), (2, reversed_record)):
            assert dataclasses.replace(store.get_measurement(msr), record_id=None) == record
        store.put_measurement(annex_record)  # and it takes new records
    migrated = _dump(path)
    init_schema(path).close()
    assert _dump(path) == migrated


def test_failed_migration_leaves_the_store_at_v1(tmp_path, sytherm3, annex_record):
    path = tmp_path / "v1.db"
    _v1_store(path, sytherm3, [annex_record])
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t_ser_series_v2 (x)")  # the migration's CREATE fails
    conn.close()
    before = _dump(path)
    with pytest.raises(StorageUnavailable, match="t_ser_series_v2"):
        init_schema(path)
    assert _dump(path) == before  # column, rows and user_version all rolled back


_REALS = st.floats(allow_nan=False, allow_infinity=False)
_POINTS = st.lists(st.tuples(_REALS, _REALS), max_size=6).flatmap(
    # repeated x values: some points reuse an earlier point's x
    lambda points: st.lists(st.sampled_from(points), max_size=3).map(
        lambda extra: tuple(points + [(x, -y) for x, y in extra])) if points
    else st.just(()))


@st.composite
def _hand_built_records(draw):
    """A record of a SYTHERM model, with any of its parameters as series in
    any order, each series possibly empty."""
    model = builtin_sytherm(draw(st.integers(1, 4)))
    chosen = draw(st.permutations(model.parameters).flatmap(
        lambda params: st.integers(0, len(params)).map(lambda n: params[:n])))
    record = MeasurementRecord(
        equipment_name=model.name, imported_at=datetime(2024, 3, 1, 10, 0, 0),
        source_file="hand.lvm",
        series=[_series(p.name, p.unit, draw(_POINTS, label=p.name)) for p in chosen])
    return model, record


@settings(max_examples=80, deadline=None)
@given(built=_hand_built_records(), data=st.data())
@example(built=(builtin_sytherm(2), MeasurementRecord(
    equipment_name="SYTHERM", imported_at=datetime(2024, 1, 1), source_file="",
    series=[ChannelSeries("Channel_1", "CelsiusDegree", (5e-324, 5e-324),
                          (1.7976931348623157e308, -2.2250738585072014e-308)),
            ChannelSeries("Channel_0", "CelsiusDegree", (), ())])), data=None)
def test_put_get_identity_for_hand_built_records(built, data):
    model, record = built
    with init_schema(":memory:") as store:
        store.put_equipment(model)
        got = store.get_measurement(store.put_measurement(record))
        assert dataclasses.replace(got, record_id=None) == record
        if record.series and data is not None:
            twice = dataclasses.replace(record, series=record.series + [_series(
                record.series[0].name, record.series[0].unit,
                data.draw(_POINTS, label="second series of one name"))])
            before = {t: count(store, t) for t in EXPECTED_TABLES}
            with pytest.raises(DuplicateKey):
                store.put_measurement(twice)
            assert {t: count(store, t) for t in EXPECTED_TABLES} == before


def test_series_reads_and_delete_sort_nothing(store, sytherm3, annex_record):
    """The series reads of get_measurement (one per series) and the series
    DELETE follow the primary key: no temporary B-tree sorts their rows."""
    store.put_equipment(sytherm3)
    msr = store.put_measurement(annex_record)
    sent = []
    store._conn.set_trace_callback(sent.append)
    store.get_measurement(msr)
    store.delete_measurement(msr)
    store._conn.set_trace_callback(None)
    series_sql = [sql for sql in sent if "t_ser_series" in sql]
    assert [sql.split()[0] for sql in series_sql] == ["SELECT"] * 3 + ["DELETE"]
    for sql in series_sql:
        plan = " | ".join(r[3] for r in store._conn.execute("EXPLAIN QUERY PLAN " + sql))
        assert "TEMP B-TREE" not in plan and "PRIMARY KEY" in plan, (sql, plan)


def test_get_measurement_sorts_nothing(store, sytherm3, annex_record):
    """No statement get_measurement sends plans a temporary B-tree: the
    values come in prm_number (declaration) order along the (msr_number,
    prm_number) index, each series along the primary key."""
    store.put_equipment(sytherm3)
    msr = store.put_measurement(annex_record)
    sent = []
    store._conn.set_trace_callback(sent.append)
    store.get_measurement(msr)
    store._conn.set_trace_callback(None)
    assert any("t_val_values" in sql for sql in sent)
    for sql in sent:
        plan = " | ".join(r[3] for r in store._conn.execute("EXPLAIN QUERY PLAN " + sql))
        assert "TEMP B-TREE" not in plan, (sql, plan)


_BOUNDARY_LENGTHS = (0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), lengths=st.permutations(_BOUNDARY_LENGTHS))
def test_put_get_identity_across_batch_boundaries(data, lengths):
    """Series that end before, on and after a chunk boundary, one length
    per channel: each point is one row, indexed 0..n-1, and get gives the
    record back."""
    model = builtin_sytherm(len(lengths))
    record = _channel_record(model, *(
        data.draw(st.lists(st.tuples(_REALS, _REALS), min_size=n, max_size=n).map(tuple),
                  label=f"{n} points") for n in lengths))
    with init_schema(":memory:") as store:
        store.put_equipment(model)
        msr = store.put_measurement(record)
        assert dataclasses.replace(store.get_measurement(msr), record_id=None) == record
        assert count(store, "t_ser_series") == sum(lengths)
        indices = {}
        for name, index in store._conn.execute(
                "SELECT prm_name, ser_index FROM t_ser_series JOIN t_prm_parameters"
                " USING (prm_number) ORDER BY prm_name, ser_index"):
            indices.setdefault(name, []).append(index)
    assert indices == {s.name: list(range(len(s.points))) for s in record.series if s.points}


def test_a_failure_in_mid_write_rolls_the_whole_put_back(store):
    """A row refused inside the second series' second multi-row statement,
    after the first series is written, leaves no row of the record."""
    model = builtin_sytherm(3)
    store.put_equipment(model)
    points = tuple((float(i), float(-i)) for i in range(2 * _BATCH + 1))
    record = _channel_record(model, points, points, points)
    second = store._conn.execute("SELECT prm_number FROM t_prm_parameters WHERE prm_name = ?",
                                 (record.series[1].name,)).fetchone()[0]
    store._conn.execute(
        "CREATE TEMP TRIGGER refuse_one_row BEFORE INSERT ON main.t_ser_series"
        f" WHEN NEW.prm_number = {second} AND NEW.ser_index = {_BATCH + 3}"
        " BEGIN SELECT RAISE(ABORT, 'refused in mid-write'); END")
    before = {t: count(store, t) for t in EXPECTED_TABLES}
    with pytest.raises(StorageError, match="refused in mid-write"):
        store.put_measurement(record)
    assert {t: count(store, t) for t in EXPECTED_TABLES} == before


def test_put_writes_a_series_in_multi_row_statements(store):
    """Points go in _BATCH rows per statement, not one statement each."""
    model = builtin_sytherm(1)
    store.put_equipment(model)
    record = _channel_record(model, tuple((i / 10, math.sin(i)) for i in range(5000)))
    sent = []
    store._conn.set_trace_callback(sent.append)
    store.put_measurement(record)
    store._conn.set_trace_callback(None)
    assert len(sent) <= math.ceil(5000 / _BATCH) + _BATCH, len(sent)
    assert count(store, "t_ser_series") == 5000


def test_lone_surrogate_text_is_a_storage_error(tmp_path, store, sytherm3, annex1_bytes):
    store.put_equipment(sytherm3)
    store.put_procedure(ParsingProcedure("LVM_PARSING", LVM_HANDLER_ID))
    store.put_binding(ParsingBinding("SYTHERM", "LVM_PARSING", "lvm"))
    # an undecodable byte in a file name reads as a lone surrogate
    source = tmp_path / "caf\udce9.lvm"
    source.write_bytes(annex1_bytes)
    before = {t: count(store, t) for t in EXPECTED_TABLES}
    for call in (lambda: store.query(operator="caf\udce9"),
                 lambda: store.get_equipment("S\udce9"),
                 lambda: import_file(source, "SYTHERM", None, store)):
        with pytest.raises(StorageError):
            call()
    assert {t: count(store, t) for t in EXPECTED_TABLES} == before


# -- one transaction per call ------------------------------------------------------

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

# a worker process: it says "ready", then opens each store path it reads
# and prints "ok" or the error
_OPENER = """
import sys
from lvmforge import init_schema
print("ready", flush=True)
for line in sys.stdin:
    try:
        init_schema(line.rstrip("\\n")).close()
        print("ok", flush=True)
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}", flush=True)
"""


def _workers(script, *args, count):
    """count started processes running script, each past its "ready" line."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    workers = [subprocess.Popen([sys.executable, "-c", script, *map(str, args)], env=env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for _ in range(count)]
    for worker in workers:
        assert worker.stdout.readline() == "ready\n"
    return workers


def _release(workers, line):
    """Send line to every worker at once; returns each one's answer."""
    for worker in workers:
        worker.stdin.write(line + "\n")
        worker.stdin.flush()
    return [worker.stdout.readline().rstrip("\n") for worker in workers]


def _stop(workers):
    for worker in workers:
        worker.stdin.close()
    for worker in workers:
        assert worker.wait(timeout=60) == 0
        worker.stdout.close()


def test_concurrent_first_opens_of_one_path_all_succeed(tmp_path):
    """Four processes open one fresh path at the same moment, over ten
    rounds: one creates the store, the others wait for it and find it."""
    workers = _workers(_OPENER, count=4)
    try:
        for round_ in range(10):
            path = tmp_path / f"store{round_}.db"
            assert _release(workers, str(path)) == ["ok"] * 4, round_
            with init_schema(path) as store:
                assert store._conn.execute("PRAGMA user_version").fetchone()[0] == 2
                assert table_names(store) == EXPECTED_TABLES
    finally:
        _stop(workers)


def test_opening_a_current_store_reads_its_version_and_begins_nothing(tmp_path,
                                                                     monkeypatch):
    """Only creating, migrating or refusing a store takes the write lock."""
    path = tmp_path / "store.db"
    init_schema(path).close()
    sent = []
    connect = sqlite3.connect

    def tracing_connect(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.set_trace_callback(sent.append)
        return conn

    monkeypatch.setattr(sqlite3, "connect", tracing_connect)
    init_schema(path).close()
    assert sent == ["PRAGMA foreign_keys = ON", "PRAGMA user_version"]


def test_opens_and_reads_pass_a_writer_holding_the_write_lock(tmp_path, sytherm3,
                                                               annex_record, capsys):
    """A second connection holds BEGIN IMMEDIATE: opening the store, the
    reads and `lvmforge list` answer at once, not after the busy timeout."""
    path = tmp_path / "store.db"
    with init_schema(path) as store:
        store.put_equipment(sytherm3)
        msr = store.put_measurement(annex_record)
    writer = sqlite3.connect(path, isolation_level=None)
    writer.execute("BEGIN IMMEDIATE")
    try:
        start = time.monotonic()
        with init_schema(path) as store:
            assert store.list_equipment() == ["SYTHERM"]
            assert [summary.record_id for summary in store.query()] == [msr]
            assert dataclasses.replace(store.get_measurement(msr), record_id=None) == \
                annex_record
        assert cli.run(["--store", str(path), "list"]) == 0
        assert time.monotonic() - start < 1.0
    finally:
        writer.close()
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_a_creation_that_fails_partway_leaves_no_table(tmp_path, monkeypatch):
    path = tmp_path / "store.db"
    connect = sqlite3.connect

    def refusing_connect(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.set_authorizer(lambda action, table, *_: sqlite3.SQLITE_DENY if (
            action == sqlite3.SQLITE_CREATE_TABLE and table == "t_val_values")
            else sqlite3.SQLITE_OK)
        return conn

    monkeypatch.setattr(sqlite3, "connect", refusing_connect)
    with pytest.raises(StorageUnavailable, match=re.escape(str(path))):
        init_schema(path)
    monkeypatch.undo()
    assert _dump(path) == (0, [], {})
    with init_schema(path) as store:  # the next open initializes the store
        assert table_names(store) == EXPECTED_TABLES
        assert store._conn.execute("PRAGMA user_version").fetchone()[0] == 2


def _run_during(store, marker, call):
    """Have call() run in a second thread when the store's connection starts
    a statement holding marker, and give it 0.5 s before that statement
    runs.  Returns the thread and the list that receives call()'s result or
    error."""
    outcome = []
    thread = threading.Thread(target=lambda: outcome.append(_outcome_of(call)))

    def trace(sql):
        if marker in sql and thread.ident is None:
            thread.start()
            thread.join(0.5)

    store._conn.set_trace_callback(trace)
    return thread, outcome


def _outcome_of(call):
    try:
        return call()
    except Exception as exc:
        return exc


def test_a_delete_cannot_tear_a_read(tmp_path, store, sytherm3, annex_record):
    """A delete from a second connection, started between get_measurement's
    first and second statement, takes effect only after the read ends: the
    read gives the whole record back."""
    store.put_equipment(sytherm3)
    msr = store.put_measurement(annex_record)

    def delete():
        with init_schema(tmp_path / "store.db") as other:
            other.delete_measurement(msr)
        return "deleted"

    thread, outcome = _run_during(store, "FROM t_prm_parameters", delete)
    got = store.get_measurement(msr)
    store._conn.set_trace_callback(None)
    thread.join(30)
    assert outcome == ["deleted"]
    assert dataclasses.replace(got, record_id=None) == annex_record
    with pytest.raises(NotFound):
        store.get_measurement(msr)


def test_a_remove_waits_for_a_put_and_is_then_refused(tmp_path, store, sytherm3, annex_record):
    """A remove_equipment from a second connection, started while
    put_measurement reads the model, waits for the put to commit; the model
    then has a measurement, so the remove is refused."""
    store.put_equipment(sytherm3)

    def remove():
        with init_schema(tmp_path / "store.db") as other:
            other.remove_equipment("SYTHERM")

    thread, outcome = _run_during(store, "FROM t_prm_parameters", remove)
    msr = store.put_measurement(annex_record)
    store._conn.set_trace_callback(None)
    thread.join(30)
    assert [type(error) for error in outcome] == [ForeignKeyViolation]
    assert str(outcome[0]) == "SYTHERM has measurements"
    assert store.list_equipment() == ["SYTHERM"]
    assert dataclasses.replace(store.get_measurement(msr), record_id=None) == annex_record


# a worker process: it says "ready", then imports the fixture into the store
# at argv[1], opening the store for each import as a CLI command does, as
# many times as the line it reads says
_IMPORTER = """
import sys
from lvmforge import import_file, init_schema
print("ready", flush=True)
for line in sys.stdin:
    for _ in range(int(line)):
        with init_schema(sys.argv[1]) as store:
            import_file(sys.argv[2], "SYTHERM", None, store)
    print("ok", flush=True)
"""


def test_concurrent_importers_keep_the_store_whole(tmp_path, sytherm3):
    """P processes each import the Annex-1 fixture K times into one store
    at once: every import lands, and the store passes SQLite's integrity
    and foreign-key checks."""
    processes, times = 4, 5
    path = tmp_path / "store.db"
    with init_schema(path) as store:
        store.put_equipment(sytherm3)
        store.put_procedure(ParsingProcedure("LVM_PARSING", LVM_HANDLER_ID))
        store.put_binding(ParsingBinding("SYTHERM", "LVM_PARSING", "lvm"))
    workers = _workers(_IMPORTER, path, ANNEX1_PATH, count=processes)
    try:
        assert _release(workers, str(times)) == ["ok"] * processes
    finally:
        _stop(workers)
    with init_schema(path) as store:
        assert store._conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
        assert store._conn.execute("PRAGMA foreign_key_check").fetchall() == []
        assert count(store, "t_msr_measurements") == processes * times
        assert count(store, "t_ser_series") == processes * times * 48
