"""Unified relational persistence for equipments, procedures and measurements.

The schema follows the t_<code>_<name> / <code>_number naming convention:

    t_eqp_equipments            equipment models (+ parameter rows in t_prm)
    t_psf_parsingfunction       parsing procedures by name
    t_efe_equipmentfileextension  (equipment, procedure, extension) link table;
                                  efe_number holds the PROCEDURE_EXT binding name
    t_prm_parameters            typed parameter definitions per equipment
    t_msr_measurements          one row per imported measurement; msr_series
                                lists its series' prm_numbers in record order
    t_val_values                canonical text rendering of each parameter value,
                                read in prm_number (declaration) order
    t_ser_series                one (index, x, y) row per series point, clustered
                                by (msr_number, prm_number, ser_index), written
                                in multi-row INSERTs of _BATCH rows that bind
                                slices of the series' x and y interleaved; a
                                series reads back as one key range of rows,
                                transposed into x and y columns of floats only

Values are stored in their canonical text form (see
:func:`lvmforge.model.render_canonical`); put_measurement refuses a value
that validate_value does not read back from that text as the same value,
so put followed by get reconstructs an equal record.  update_value sets a
value in one UPSERT, whether the record has it or not.  query sends one
statement whatever its filters, and every query or DML text here is a
constant, so no statement is built at run time.  put_procedure,
put_binding and resolve apply every dispatch rule over procedures and
bindings.  This is schema version 2; init_schema migrates a version-1
store (t_ser_series as a rowid table, no msr_series) on open.  Every
SQLite failure, at open time or later, surfaces as a
:class:`~lvmforge.errors.StorageError` (see _sqlite_errors).

Each Store call is one transaction: the connection is in autocommit mode
and Store._transaction alone sends BEGIN, COMMIT and ROLLBACK.  A call
takes SQLite's one write lock only when it may write: writes begin
IMMEDIATE, taking the lock before their first read, so concurrent writers
queue on the busy timeout; get_equipment and get_measurement begin
deferred, so their statements read one state; a one-statement read runs
alone.  init_schema reads the version alone and begins IMMEDIATE only to
create, migrate or refuse a store, so opening a current store waits for
no writer that holds the lock.  Any error rolls the whole call back.
A reader still waits, up to the busy timeout, while a writer holds the
PENDING or EXCLUSIVE lock: during its commit, or after a large put
spills its page cache to the file.
"""

from __future__ import annotations

import json
import math
import os
import sqlite3
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date as Date
from datetime import datetime
from itertools import chain, count, repeat
from operator import itemgetter
from typing import Optional

from .errors import (
    DuplicateBinding,
    DuplicateKey,
    DuplicateProcedure,
    ExtensionNotDeclared,
    ForeignKeyViolation,
    MalformedDefinition,
    NoBinding,
    NotFound,
    SchemaVersionMismatch,
    StorageUnavailable,
    TypeMismatch,
    UnknownEquipment,
    UnknownParameter,
    UnknownProcedure,
)
from .ingest import ChannelSeries, MeasurementRecord, ParsingBinding, ParsingProcedure
from .lvm import format_date, read_line
from .model import (
    ConceptCategory,
    EquipmentModel,
    ParameterDefinition,
    TypedValue,
    make_typed,
    read_parameter,
    render_canonical,
)

SCHEMA_VERSION = 2

# one statement each: executescript would commit before running them
_SCHEMA = ("""CREATE TABLE t_eqp_equipments (
    eqp_number      INTEGER PRIMARY KEY,
    eqp_name        TEXT NOT NULL UNIQUE,
    eqp_producer    TEXT NOT NULL DEFAULT '',
    eqp_description TEXT NOT NULL DEFAULT '',
    eqp_webpage     TEXT,
    eqp_picture     TEXT,
    eqp_visualmodel TEXT,
    eqp_extensions  TEXT NOT NULL DEFAULT '',
    eqp_ignoredkeys TEXT NOT NULL DEFAULT ''
)""", """CREATE TABLE t_psf_parsingfunction (
    psf_number INTEGER PRIMARY KEY,
    psf_name   TEXT NOT NULL UNIQUE
)""", """CREATE TABLE t_efe_equipmentfileextension (
    efe_number    TEXT NOT NULL,
    eqp_number    INTEGER NOT NULL REFERENCES t_eqp_equipments(eqp_number),
    psf_number    INTEGER NOT NULL REFERENCES t_psf_parsingfunction(psf_number),
    efe_extension TEXT NOT NULL,
    UNIQUE (eqp_number, psf_number, efe_extension),
    UNIQUE (eqp_number, efe_extension)
)""", """CREATE TABLE t_prm_parameters (
    prm_number   INTEGER PRIMARY KEY,
    eqp_number   INTEGER NOT NULL REFERENCES t_eqp_equipments(eqp_number),
    prm_name     TEXT NOT NULL,
    prm_category TEXT NOT NULL,
    prm_type     TEXT NOT NULL,
    prm_unit     TEXT,
    prm_source   TEXT NOT NULL,
    UNIQUE (eqp_number, prm_name)
)""", """CREATE TABLE t_msr_measurements (
    msr_number      INTEGER PRIMARY KEY,
    eqp_number      INTEGER NOT NULL REFERENCES t_eqp_equipments(eqp_number),
    msr_imported_at TEXT NOT NULL,
    msr_sourcefile  TEXT NOT NULL DEFAULT '',
    msr_warnings    TEXT NOT NULL DEFAULT '[]',
    msr_aux         TEXT NOT NULL DEFAULT '{}',
    msr_series      TEXT NOT NULL DEFAULT '[]'
)""", """CREATE TABLE t_val_values (
    val_number INTEGER PRIMARY KEY,
    msr_number INTEGER NOT NULL REFERENCES t_msr_measurements(msr_number),
    prm_number INTEGER NOT NULL REFERENCES t_prm_parameters(prm_number),
    val_text   TEXT NOT NULL,
    UNIQUE (msr_number, prm_number)
)""")

# one B-tree entry per point; the key is the read order of get_measurement
# and keeps the v1 rule that a series has each index once
_SERIES_TABLE = """
CREATE TABLE {} (
    msr_number INTEGER NOT NULL REFERENCES t_msr_measurements(msr_number),
    prm_number INTEGER NOT NULL REFERENCES t_prm_parameters(prm_number),
    ser_index  INTEGER NOT NULL,
    ser_x      REAL NOT NULL,
    ser_y      REAL NOT NULL,
    PRIMARY KEY (msr_number, prm_number, ser_index)
) WITHOUT ROWID;
"""

# Points go in as multi-row INSERTs of _BATCH rows, one row per point: the
# cost of a put is mostly per statement step, not per B-tree row.  A
# statement binds msr_number, prm_number and its first ser_index once, then
# the x, y pairs flat.  A series' last len % _BATCH points take the one-row
# statement, so only these two texts are ever compiled.  _BATCH stays small
# because each connection (each CLI command) compiles the batch text again.
_BATCH = 32
_SERIES_COLUMNS = "INSERT INTO t_ser_series (msr_number, prm_number, ser_index, ser_x, ser_y)"
_INSERT_POINT = _SERIES_COLUMNS + " VALUES (?,?,?,?,?)"
_INSERT_BATCH = _SERIES_COLUMNS + " VALUES " + ",".join(
    f"(?1,?2,?3+{j},?{4 + 2 * j},?{5 + 2 * j})" for j in range(_BATCH))

# the columns of a (ser_x, ser_y) row
_X, _Y = itemgetter(0), itemgetter(1)

# a model's t_eqp_equipments row, read without constructing the model
_EQUIPMENT = ("SELECT eqp_number, eqp_name, eqp_producer, eqp_description, eqp_webpage,"
              " eqp_picture, eqp_visualmodel, eqp_extensions, eqp_ignoredkeys"
              " FROM t_eqp_equipments WHERE eqp_name = ?")

# Store.remove_equipment's statements, children first
_REMOVE_EQUIPMENT = (
    "DELETE FROM t_efe_equipmentfileextension WHERE eqp_number = ?",
    "DELETE FROM t_prm_parameters WHERE eqp_number = ?",
    "DELETE FROM t_eqp_equipments WHERE eqp_number = ?",
)

# Store.query's one statement: a filter whose argument is NULL passes.
# Operator and Date come through the (eqp_number, prm_name) and
# (msr_number, prm_number) unique indexes.
_QUERY = """
SELECT m.msr_number, q.eqp_name, m.msr_imported_at, m.msr_sourcefile, o.val_text
FROM t_msr_measurements m JOIN t_eqp_equipments q ON q.eqp_number = m.eqp_number
LEFT JOIN t_prm_parameters po ON po.eqp_number = m.eqp_number AND po.prm_name = 'Operator'
LEFT JOIN t_val_values o ON o.msr_number = m.msr_number AND o.prm_number = po.prm_number
LEFT JOIN t_prm_parameters pd ON pd.eqp_number = m.eqp_number AND pd.prm_name = 'Date'
LEFT JOIN t_val_values d ON d.msr_number = m.msr_number AND d.prm_number = pd.prm_number
WHERE (:equipment IS NULL OR q.eqp_name = :equipment)
  AND (:operator IS NULL OR o.val_text = :operator)
  AND (:date_from IS NULL OR d.val_text >= :date_from)
  AND (:date_to IS NULL OR d.val_text <= :date_to)
  AND (:category IS NULL OR EXISTS (SELECT 1 FROM t_prm_parameters p JOIN t_val_values v
    ON v.msr_number = m.msr_number AND v.prm_number = p.prm_number
    WHERE p.eqp_number = m.eqp_number AND p.prm_name = :name
    AND p.prm_category = :category AND v.val_text = :text))
ORDER BY m.msr_imported_at, m.msr_number"""


def _encode_type(definition: ParameterDefinition) -> str:
    """prm_type: the type's name, then an enumeration's values in parentheses
    (a value holds no ',' but any other text)."""
    domain = definition.enum_domain
    return definition.value_type.value + (f"({','.join(domain)})" if domain else "")


def _json_strings(text: str, shape: type):
    """JSON text holding a shape (list or dict) of strings, as put writes it."""
    value = json.loads(text)
    strings = [*value, *value.values()] if isinstance(value, dict) else value
    if not isinstance(value, shape) or not all(isinstance(s, str) for s in strings):
        raise ValueError(text)
    return value


def _one_line(text: Optional[str]) -> Optional[str]:
    """A stored String value, or None: ValueError unless it is one line of
    UTF-8 text, as put writes one (older stores may hold line breaks)."""
    if text is not None and read_line(text) is None:
        raise ValueError(text)
    return text


@dataclass(frozen=True)
class RecordSummary:
    record_id: int
    equipment_name: str
    imported_at: datetime
    source_file: str
    operator: Optional[str] = None


def init_schema(storage_path) -> "Store":
    """Open (creating if necessary) the store at the given path.

    Idempotent: opening a store at SCHEMA_VERSION reads its version and
    nothing else.  Otherwise the version is read again in one IMMEDIATE
    transaction: a new store is created there, and a version-1 store
    migrated (see _migrate_v1); any other version raises
    SchemaVersionMismatch.
    """
    with _sqlite_errors(storage_path):
        store = Store(sqlite3.connect(str(storage_path), isolation_level=None), storage_path)
        try:
            store._conn.execute("PRAGMA foreign_keys = ON")  # a no-op inside a transaction
            if store._conn.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION:
                return store  # a current store: one read, no write lock
            with store._transaction() as conn:  # read again under the lock
                version = conn.execute("PRAGMA user_version").fetchone()[0]
                if version == 0:
                    tables = "SELECT count(*) FROM sqlite_master WHERE type = 'table'"
                    if conn.execute(tables).fetchone()[0]:
                        raise SchemaVersionMismatch(f"{storage_path}: existing database"
                                                    " carries no lvmforge version marker")
                    for statement in (*_SCHEMA, _SERIES_TABLE.format("t_ser_series")):
                        conn.execute(statement)
                    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
                elif version == 1:
                    _migrate_v1(conn)
                elif version != SCHEMA_VERSION:
                    raise SchemaVersionMismatch(
                        f"{storage_path}: schema version {version}, expected {SCHEMA_VERSION}")
        except BaseException:
            store.close()
            raise
    return store


def _migrate_v1(conn: sqlite3.Connection) -> None:
    """Rewrite a version-1 store as version 2 inside init_schema's
    transaction; any failure rolls it back and leaves the store at version 1.

    Version 1 kept the points in a rowid table (written once to the table
    and once to its UNIQUE index) and no msr_series: a record's series
    came back in insertion order, which is record order, so msr_series
    takes each measurement's series ordered by their first ser_number.
    """
    conn.execute("ALTER TABLE t_msr_measurements"
                 " ADD COLUMN msr_series TEXT NOT NULL DEFAULT '[]'")
    order: dict[int, list[int]] = {}
    for msr_number, prm_number in conn.execute(
            "SELECT msr_number, prm_number FROM t_ser_series"
            " GROUP BY msr_number, prm_number ORDER BY msr_number, min(ser_number)"):
        order.setdefault(msr_number, []).append(prm_number)
    conn.executemany(
        "UPDATE t_msr_measurements SET msr_series = ? WHERE msr_number = ?",
        [(json.dumps(prm_numbers), msr) for msr, prm_numbers in order.items()])
    conn.execute(_SERIES_TABLE.format("t_ser_series_v2"))
    conn.execute(
        "INSERT INTO t_ser_series_v2 SELECT msr_number, prm_number, ser_index, ser_x,"
        " ser_y FROM t_ser_series ORDER BY msr_number, prm_number, ser_index")
    conn.execute("DROP TABLE t_ser_series")
    conn.execute("ALTER TABLE t_ser_series_v2 RENAME TO t_ser_series")
    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")


@contextmanager
def _sqlite_errors(storage_path):
    """Map every sqlite3 failure in the block onto the StorageError
    hierarchy: a violated constraint becomes ForeignKeyViolation or
    DuplicateKey, any other failure StorageUnavailable naming the store.
    Text that UTF-8 cannot encode (a lone surrogate, as an undecodable
    byte in a file name becomes) fails the same way when it is bound."""
    try:
        yield
    except sqlite3.IntegrityError as exc:
        kind = ForeignKeyViolation if "FOREIGN KEY" in str(exc).upper() else DuplicateKey
        raise kind(str(exc)) from None
    except (sqlite3.Error, UnicodeEncodeError) as exc:
        raise StorageUnavailable(f"{storage_path}: {exc}") from None


class Store:
    """Handle over one on-disk store; use init_schema() to obtain one."""

    def __init__(self, conn: sqlite3.Connection, storage_path):
        self._conn = conn
        self._path = storage_path

    def close(self):
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    @contextmanager
    def _transaction(self, begin: str = "BEGIN IMMEDIATE"):
        """The block as one transaction, committed on success and rolled back
        on any error.  Writes begin IMMEDIATE, taking the write lock at once;
        a read of several statements passes "BEGIN" to read one state."""
        with _sqlite_errors(self._path):
            self._conn.execute(begin)
            try:
                yield self._conn
                self._conn.execute("COMMIT")
            except BaseException:
                if self._conn.in_transaction:  # SQLite ends it itself on some errors
                    self._conn.execute("ROLLBACK")
                raise

    def _equipment_row(self, name: str) -> tuple:
        """The model's _EQUIPMENT row; UnknownEquipment if the store has none."""
        row = self._conn.execute(_EQUIPMENT, (name,)).fetchone()
        if row is None:
            raise UnknownEquipment(name)
        return row

    # -- equipments ---------------------------------------------------------

    def put_equipment(self, model: EquipmentModel) -> int:
        """Insert the model and all its parameter rows; returns eqp_number.
        DuplicateKey if the name is taken."""
        with self._transaction() as conn:
            try:
                eqp = conn.execute(
                    "INSERT INTO t_eqp_equipments (eqp_name, eqp_producer,"
                    " eqp_description, eqp_webpage, eqp_picture, eqp_visualmodel,"
                    " eqp_extensions, eqp_ignoredkeys) VALUES (?,?,?,?,?,?,?,?)",
                    (model.name, model.producer, model.description, model.webpage,
                     model.picture, model.visual_model,
                     " ".join(sorted(model.extensions)),
                     " ".join(sorted(model.ignored_file_keys)))).lastrowid
            except sqlite3.IntegrityError:  # UNIQUE (eqp_name)
                raise DuplicateKey(f"model {model.name} exists") from None
            for p in model.parameters:
                conn.execute(
                    "INSERT INTO t_prm_parameters (eqp_number, prm_name,"
                    " prm_category, prm_type, prm_unit, prm_source)"
                    " VALUES (?,?,?,?,?,?)",
                    (eqp, p.name, p.category.value, _encode_type(p),
                     p.unit, p.source.value))
            return eqp

    def get_equipment(self, name: str) -> EquipmentModel:
        with self._transaction("BEGIN"):
            row = self._equipment_row(name)
            params = tuple(d for _, d in self._parameter_ids(row[0]).values())
        return EquipmentModel(
            name=row[1], producer=row[2], description=row[3], webpage=row[4],
            picture=row[5], visual_model=row[6],
            extensions=frozenset(row[7].split()), parameters=params,
            ignored_file_keys=frozenset(row[8].split()))

    def list_equipment(self) -> list[str]:
        with _sqlite_errors(self._path):
            return [r[0] for r in self._conn.execute(
                "SELECT eqp_name FROM t_eqp_equipments ORDER BY eqp_name")]

    def remove_equipment(self, name: str) -> None:
        """Delete a model with its bindings and parameters in one transaction.

        Reads only the model's t_eqp_equipments row, so a stored model that
        no longer constructs can be removed.  Raises UnknownEquipment, or
        ForeignKeyViolation while a measurement uses the model.
        """
        with self._transaction() as conn:
            eqp = self._equipment_row(name)[:1]
            try:
                for statement in _REMOVE_EQUIPMENT:
                    conn.execute(statement, eqp)
            except sqlite3.IntegrityError:  # a measurement references the model
                raise ForeignKeyViolation(f"{name} has measurements") from None

    def _parameter_ids(self, eqp_number: int) -> dict[str, tuple[int, ParameterDefinition]]:
        """name -> (prm_number, definition), read through the model's
        vocabulary: MalformedDefinition names a row outside it."""
        out = {}
        # sorted here, not in a temp B-tree: the (eqp_number, prm_name) index
        # gives name order, and declaration order is prm_number order
        for number, name, category, type_text, unit, source in sorted(self._conn.execute(
                "SELECT prm_number, prm_name, prm_category, prm_type, prm_unit,"
                " prm_source FROM t_prm_parameters WHERE eqp_number = ?", (eqp_number,))):
            value_type, enum, domain = type_text.partition("(")
            try:
                out[name] = (number, read_parameter(name, category, value_type, unit, source,
                                                    domain[:-1] if enum else None))
            except MalformedDefinition as exc:
                raise MalformedDefinition(f"{self._path}: parameter {name!r}: {exc}") from None
        return out

    def _decoded(self, msr_number: int, column: str, decode, stored, *args):
        """decode(stored, *args) for a column of measurement msr_number;
        damaged text raises StorageUnavailable naming the store, the
        measurement and the column.  Every encoded column is read here."""
        try:
            return decode(stored, *args)
        except (ValueError, TypeError, KeyError):
            raise StorageUnavailable(f"{self._path}: measurement {msr_number}:"
                                     f" {column} {stored!r} does not read back") from None

    # -- procedures and bindings ---------------------------------------------

    def put_procedure(self, procedure: ParsingProcedure) -> int:
        """Insert the procedure; returns psf_number.  DuplicateProcedure if taken."""
        with self._transaction() as conn:
            try:
                return conn.execute(
                    "INSERT INTO t_psf_parsingfunction (psf_name) VALUES (?)",
                    (procedure.name,)).lastrowid
            except sqlite3.IntegrityError:  # UNIQUE (psf_name)
                raise DuplicateProcedure(procedure.name) from None

    def list_procedures(self) -> list[str]:
        with _sqlite_errors(self._path):
            return [r[0] for r in self._conn.execute(
                "SELECT psf_name FROM t_psf_parsingfunction ORDER BY psf_number")]

    def put_binding(self, binding: ParsingBinding) -> str:
        """Insert the link row; returns efe_number (the binding name).  Raises
        UnknownEquipment, UnknownProcedure, ExtensionNotDeclared unless the
        equipment's model declares the extension, and DuplicateBinding when
        (equipment, extension) is bound already."""
        with self._transaction() as conn:
            row = self._equipment_row(binding.equipment_name)
            psf = conn.execute("SELECT psf_number FROM t_psf_parsingfunction WHERE psf_name = ?",
                               (binding.procedure_name,)).fetchone()
            if psf is None:
                raise UnknownProcedure(binding.procedure_name)
            if binding.extension not in row[7].split():
                raise ExtensionNotDeclared(
                    f"{binding.equipment_name} does not declare .{binding.extension}")
            try:
                conn.execute(
                    "INSERT INTO t_efe_equipmentfileextension"
                    " (efe_number, eqp_number, psf_number, efe_extension)"
                    " VALUES (?,?,?,?)",
                    (binding.binding_name, row[0], psf[0], binding.extension))
            except sqlite3.IntegrityError:  # UNIQUE (eqp_number, efe_extension)
                raise DuplicateBinding(
                    f"({binding.equipment_name}, {binding.extension})") from None
        return binding.binding_name

    def resolve(self, equipment: str, filename: str) -> ParsingProcedure:
        """The procedure bound to (equipment, extension of filename), found
        through the (eqp_number, efe_extension) index; NoBinding if none.
        Stored procedures all name the .lvm parser, the only implementation."""
        extension = os.path.splitext(filename)[1].lstrip(".").lower()
        with _sqlite_errors(self._path):
            row = self._conn.execute(
                "SELECT psf_name FROM t_efe_equipmentfileextension"
                " JOIN t_eqp_equipments USING (eqp_number) JOIN t_psf_parsingfunction"
                " USING (psf_number) WHERE eqp_name = ? AND efe_extension = ?",
                (equipment, extension)).fetchone()
        if row is None:
            raise NoBinding(equipment, extension)
        return ParsingProcedure(row[0])

    def list_bindings(self) -> list[ParsingBinding]:
        with _sqlite_errors(self._path):
            return [
                ParsingBinding(*r) for r in self._conn.execute(
                    "SELECT q.eqp_name, p.psf_name, e.efe_extension"
                    " FROM t_efe_equipmentfileextension e"
                    " JOIN t_eqp_equipments q ON q.eqp_number = e.eqp_number"
                    " JOIN t_psf_parsingfunction p ON p.psf_number = e.psf_number"
                    " ORDER BY e.rowid")
            ]

    # -- measurements ----------------------------------------------------------

    def put_measurement(self, record: MeasurementRecord) -> int:
        with self._transaction() as conn:
            eqp = self._equipment_row(record.equipment_name)[0]
            params = self._parameter_ids(eqp)

            def describe(sides: dict) -> str:
                return ", ".join(f"{key} {getattr(value, 'value', value)}"
                                 for key, value in sides.items())

            def prm_number(name: str, **given) -> int:
                """The parameter's number.  Raises UnknownParameter when the
                model lacks the parameter or declares it other than given:
                the store keeps only the model's declaration."""
                if name not in params:
                    raise UnknownParameter(f"{record.equipment_name}: {name}")
                number, definition = params[name]
                declared = {key: getattr(definition, key) for key in given}
                if declared != given:
                    raise UnknownParameter(
                        f"{record.equipment_name}: {name} has {describe(given)} in the"
                        f" record but {describe(declared)} in the model")
                return number

            values = [(prm_number(name, category=category, value_type=typed.value_type,
                                  unit=typed.unit), _stored_text(params[name][1], typed))
                      for category, per_category in record.values.items()
                      for name, typed in per_category.items()]
            series: list[int] = []
            for s in record.series:
                number = prm_number(s.name, unit=s.unit)
                if number in series:
                    raise DuplicateKey(f"{record.equipment_name}: two series {s.name!r}")
                _require_finite(s)
                series.append(number)
            msr = conn.execute(
                "INSERT INTO t_msr_measurements (eqp_number, msr_imported_at,"
                " msr_sourcefile, msr_warnings, msr_aux, msr_series) VALUES (?,?,?,?,?,?)",
                (eqp, record.imported_at.isoformat(), record.source_file,
                 json.dumps(record.warnings), json.dumps(record.aux),
                 json.dumps(series))).lastrowid
            conn.executemany(
                "INSERT INTO t_val_values (msr_number, prm_number, val_text) VALUES (?,?,?)",
                [(msr, number, text) for number, text in values])
            for number, s in zip(series, record.series):
                flat = [0.0] * (2 * len(s.x))
                flat[::2], flat[1::2] = s.x, s.y
                tail = len(s.x) - len(s.x) % _BATCH
                # a generator: one chunk's parameters are built at a time
                conn.executemany(_INSERT_BATCH, (
                    (msr, number, start, *flat[2 * start:2 * (start + _BATCH)])
                    for start in range(0, tail, _BATCH)))
                conn.executemany(_INSERT_POINT, zip(
                    repeat(msr), repeat(number), count(tail), s.x[tail:], s.y[tail:]))
            return msr

    def get_measurement(self, msr_number: int) -> MeasurementRecord:
        with self._transaction("BEGIN"):
            row = self._conn.execute(
                "SELECT m.eqp_number, q.eqp_name, m.msr_imported_at, m.msr_sourcefile,"
                " m.msr_warnings, m.msr_aux, m.msr_series FROM t_msr_measurements m"
                " JOIN t_eqp_equipments q ON q.eqp_number = m.eqp_number"
                " WHERE m.msr_number = ?", (msr_number,)).fetchone()
            if row is None:
                raise NotFound(f"measurement {msr_number}")
            by_id = dict(self._parameter_ids(row[0]).values())
            record = MeasurementRecord(
                equipment_name=row[1],
                imported_at=self._decoded(msr_number, "msr_imported_at",
                                          datetime.fromisoformat, row[2]),
                source_file=row[3],
                warnings=self._decoded(msr_number, "msr_warnings", _json_strings, row[4], list),
                aux=self._decoded(msr_number, "msr_aux", _json_strings, row[5], dict),
                record_id=msr_number,
            )
            for prm_number, text in self._conn.execute(
                    "SELECT prm_number, val_text FROM t_val_values"
                    " WHERE msr_number = ? ORDER BY prm_number", (msr_number,)):
                definition = self._decoded(msr_number, "prm_number", by_id.__getitem__,
                                           prm_number)
                record.set_value(definition.category, definition.name,
                                 make_typed(definition, text))
            series = self._decoded(msr_number, "msr_series",
                                   lambda text: [(n, by_id[n]) for n in json.loads(text)], row[6])
            # one key-range read per series, transposed by itemgetter in C (zip(*rows)
            # is slower); sum, in C too, refuses a text or BLOB sample (REAL keeps them)
            for prm_number, d in series:
                rows = self._conn.execute(
                    "SELECT ser_x, ser_y FROM t_ser_series WHERE msr_number = ?"
                    " AND prm_number = ? ORDER BY ser_index", (msr_number, prm_number)).fetchall()
                x, y = tuple(map(_X, rows)), tuple(map(_Y, rows))
                for column, values in (("ser_x", x), ("ser_y", y)):
                    try:
                        sum(values)
                    except TypeError:
                        raise StorageUnavailable(f"{self._path}: measurement {msr_number}: series"
                                                 f" {d.name}: {column} is not all REAL") from None
                record.series.append(ChannelSeries(d.name, d.unit, x, y))
        return record

    def query(self, equipment: Optional[str] = None, operator: Optional[str] = None,
              parameter: Optional[tuple[ConceptCategory, str, str]] = None,
              date_from: Optional[Date] = None,
              date_to: Optional[Date] = None) -> list[RecordSummary]:
        """Record summaries matching all given filters, ordered by import time.

        ``parameter`` is (category, name, canonical value text); the date
        range applies to the measurement's Date parameter value.  Every call
        sends the one statement _QUERY, with NULL for each filter not given.
        """
        category, name, text = (None, None, None) if parameter is None else parameter
        args = {"equipment": equipment, "operator": operator, "name": name, "text": text,
                "category": None if parameter is None else category.value,
                "date_from": date_from and format_date(date_from),
                "date_to": date_to and format_date(date_to)}
        with _sqlite_errors(self._path):
            return [
                RecordSummary(record_id=r[0], equipment_name=r[1],
                              imported_at=self._decoded(r[0], "msr_imported_at",
                                                        datetime.fromisoformat, r[2]),
                              source_file=r[3],
                              operator=self._decoded(r[0], "Operator val_text", _one_line, r[4]))
                for r in self._conn.execute(_QUERY, args)
            ]

    def delete_measurement(self, msr_number: int) -> None:
        """Remove the measurement with its value and series rows."""
        with self._transaction() as conn:
            conn.execute("DELETE FROM t_ser_series WHERE msr_number = ?", (msr_number,))
            conn.execute("DELETE FROM t_val_values WHERE msr_number = ?", (msr_number,))
            if not conn.execute("DELETE FROM t_msr_measurements WHERE msr_number = ?",
                                (msr_number,)).rowcount:
                raise NotFound(f"measurement {msr_number}")

    def update_value(self, msr_number: int, parameter: str, raw: str) -> None:
        """Set one parameter value to the canonical rendering of ``raw`` in
        one UPSERT, which adds a value the record lacks.

        The new text must pass the parameter's declared value grammar;
        on TypeMismatch the stored value is unchanged.
        """
        with self._transaction() as conn:
            row = conn.execute(
                "SELECT eqp_number FROM t_msr_measurements WHERE msr_number = ?",
                (msr_number,)).fetchone()
            if row is None:
                raise NotFound(f"measurement {msr_number}")
            params = self._parameter_ids(row[0])
            if parameter not in params:
                raise UnknownParameter(parameter)
            prm_number, definition = params[parameter]
            text = render_canonical(make_typed(definition, raw))
            conn.execute(
                "INSERT INTO t_val_values (msr_number, prm_number, val_text) VALUES (?,?,?)"
                " ON CONFLICT (msr_number, prm_number)"
                " DO UPDATE SET val_text = excluded.val_text",
                (msr_number, prm_number, text))


def _stored_text(definition: ParameterDefinition, typed: TypedValue) -> str:
    """The canonical text of a value.  Raises TypeMismatch unless the
    parameter's grammar reads that text back as the value itself, which is
    what get_measurement will do with it."""
    try:
        text = render_canonical(typed)
    except (AttributeError, TypeError):
        # a Python value of another kind than its ValueType, e.g. a str Date
        raise TypeMismatch(definition.name, str(typed.value),
                           f"a {type(typed.value).__name__} is not a"
                           f" {typed.value_type.value} value") from None
    if make_typed(definition, text) != typed:
        raise TypeMismatch(definition.name, text, "reads back as another value")
    return text


def _require_finite(series: ChannelSeries) -> None:
    """Raise TypeMismatch for the first sample, in point order, that is not
    a finite real get would give back as itself.  SQLite binds NaN as NULL
    and the .lvm parser refuses infinities, so the store keeps neither.  An
    int sample is bound as an SQLite INTEGER: one outside 64 bits does not
    bind, and REAL affinity rounds one that float() does not hold exactly
    (2**53 + 1 would come back as 2**53)."""
    try:
        # float.__floor__ takes only a float and raises on NaN and on an
        # infinity, so one pass in C clears columns of finite floats
        deque(map(float.__floor__, chain(series.x, series.y)), 0)
        return
    except (TypeError, ValueError, OverflowError):
        pass
    for v in chain.from_iterable(zip(series.x, series.y)):
        if not (math.isfinite(v) if isinstance(v, float) else
                isinstance(v, int) and -2**63 <= v < 2**63 and float(v) == v):
            raise TypeMismatch(series.name, v, "a sample must be a finite real")
