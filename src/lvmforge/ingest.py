"""Parsing procedures and bindings, and the file-to-record import workflow.

A parsing procedure is a named parser implementation; a binding attaches
one to an (equipment, file extension) pair, realizing the many-to-many
relation between equipments and procedures.  A binding's name is derived
by the PROCEDURE_EXT convention, e.g. LVM_PARSING bound to "lvm" is
LVM_PARSING_LVM.

Equipments, procedures and bindings live in the store alone, and the store
applies every dispatch rule over them (Store.put_procedure, put_binding,
resolve).  The .lvm parser is the only implementation: a procedure names
it by ``LVM_HANDLER_ID``, its default handler id, and a procedure with any
other handler id cannot be built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional

from .errors import (ChannelCountMismatch, EmptyName, ExtensionNotDeclared, InvariantViolation,
                     LengthMismatch, UnknownHandler)
from .lvm import (
    LvmDocument,
    channel_series,
    file_header_fields,
    parse_lvm,
    segment_header_fields,
)
from .model import (
    ConceptCategory,
    EquipmentModel,
    TypedValue,
    make_typed,
)


LVM_HANDLER_ID = "builtin.lvm"


@dataclass(frozen=True)
class ParsingProcedure:
    name: str
    handler_id: str = LVM_HANDLER_ID

    def __post_init__(self):
        if not self.name.strip():
            raise EmptyName("procedure name must be non-empty")
        if self.handler_id != LVM_HANDLER_ID:
            raise UnknownHandler(self.handler_id)


@dataclass(frozen=True)
class ParsingBinding:
    equipment_name: str
    procedure_name: str
    extension: str

    def __post_init__(self):
        object.__setattr__(self, "extension", self.extension.lower())

    # derived, by the PROCEDURE_EXT convention: it has one legal value
    binding_name = property(lambda self: f"{self.procedure_name.upper()}_{self.extension.upper()}")


@dataclass(frozen=True)
class ChannelSeries:
    """One channel's samples as two columns of equal length, abscissae x and
    values y, each made a tuple on construction (LengthMismatch if their
    lengths differ).  Series compare their columns as tuples of floats do:
    -0.0 == 0.0, and a NaN sample equals only that same float object."""

    name: str
    unit: Optional[str]
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "y", tuple(self.y))
        if len(self.x) != len(self.y):
            raise LengthMismatch(f"series {self.name!r}: {len(self.x)} x, {len(self.y)} y")

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """The (x, y) pairs, built on each read."""
        return tuple(zip(self.x, self.y))


@dataclass
class MeasurementRecord:
    """One imported measurement: typed parameter values plus numeric series."""

    equipment_name: str
    imported_at: datetime
    source_file: str
    values: dict[ConceptCategory, dict[str, TypedValue]] = field(default_factory=dict)
    series: list[ChannelSeries] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    aux: dict[str, str] = field(default_factory=dict)
    record_id: Optional[int] = None

    def get_value(self, category: ConceptCategory, name: str):
        """Raw python value of one parameter, or None if unset."""
        typed = self.values.get(category, {}).get(name)
        return None if typed is None else typed.value

    def set_value(self, category: ConceptCategory, name: str, typed: TypedValue):
        self.values.setdefault(category, {})[name] = typed


class Registry:
    """Remnant of the dispatch rules, which the store now applies; kept
    only for callers not yet moved to the Store methods."""

    @classmethod
    def from_store(cls, store) -> "Registry":
        return cls()

    def bind(self, equipment: str, procedure: str, extension: str) -> ParsingBinding:
        """The binding of procedure to (equipment, extension), unchecked:
        Store.put_binding checks it when it writes it."""
        return ParsingBinding(equipment, procedure, extension)


def map_lvm_to_record(doc: LvmDocument, model: EquipmentModel,
                      source_file: str = "", imported_at: Optional[datetime] = None,
                      ) -> MeasurementRecord:
    """Map a parsed .lvm document onto an equipment model.

    The header becomes one key -> text map: the file header's lines first,
    then the first segment's single-value lines, which override them, then
    its per-channel lines, whose channel-0 value fills only an unset key
    (whole lists and Notes go to aux).  Each key the model neither declares
    nor ignores warns once; the declared ones are typed in declaration
    order, the order of each category's values.  Channel columns become
    series named after the model's channel parameters.
    """
    if "lvm" not in model.extensions:
        raise ExtensionNotDeclared(f"{model.name} does not declare .lvm")
    if not doc.segments:
        raise InvariantViolation("document has no segments")
    segment = doc.segments[0]
    model_channels = len(model.channel_parameters)
    if model_channels != segment.channels:
        raise ChannelCountMismatch(model_channels, segment.channels,
                                   f"model {model.name}")

    record = MeasurementRecord(
        equipment_name=model.name,
        imported_at=imported_at or datetime.now(),
        source_file=source_file,
    )
    texts = dict(file_header_fields(doc.header, "."))
    for key, value in segment_header_fields(segment, "."):
        if key == "Notes":
            record.aux["Notes"] = value
        elif isinstance(value, str):
            texts[key] = value
        else:
            record.aux[key] = " ".join(value)
            texts.setdefault(key, value[0])
    ignored = model.ignored_file_keys
    record.warnings = [f"unknown header key {key!r}" for key in texts
                       if key not in ignored and model.parameter(key) is None]
    for parameter in model.parameters:
        if parameter.name in texts and parameter.name not in ignored:
            record.set_value(parameter.category, parameter.name,
                             make_typed(parameter, texts[parameter.name]))

    for k, parameter in enumerate(model.channel_parameters):
        record.series.append(ChannelSeries(parameter.name, parameter.unit,
                                           *channel_series(doc, 0, k)))

    for index in range(1, len(doc.segments)):
        record.warnings.append(f"segment {index} ignored: only the first segment is imported")
    return record


def import_file(path, equipment: str, registry, store) -> int:
    """Parse one measurement file, map it and persist it; returns the record
    id.  NoBinding unless the file's extension is bound for the equipment.
    registry is not read: callers pass None."""
    filename = os.path.basename(str(path))
    store.resolve(equipment, filename)
    model = store.get_equipment(equipment)
    with open(path, "rb") as handle:
        data = handle.read()
    record = map_lvm_to_record(parse_lvm(data), model, source_file=filename)
    return store.put_measurement(record)
