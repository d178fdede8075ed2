"""Concept-based equipment models.

An equipment is described once, as a set of typed parameters grouped into
six concept categories (instrument setup, data, measurement information,
experiment characterization, warnings, measured object).  Models are
immutable and check themselves when built, so every layer accepts the same
ones; ``dataclasses.replace`` gives a checked copy.  The module also ships
the built-in SYTHERM thermocouple-ensemble model and the line-oriented
definition-file format used to add equipment without programming.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date
from enum import Enum
from functools import partial
from typing import Optional, Union

from .errors import (
    DuplicateParameterName,
    EmptyName,
    InvalidChannelCount,
    InvariantViolation,
    MalformedDefinition,
    MissingEnumDomain,
    TypeMismatch,
    UnknownUnit,
)
from .lvm import (
    ANY_DECIMAL,
    HighPrecisionTime,
    format_bool,
    format_date,
    format_real,
    read_bool,
    read_date,
    read_int,
    read_real,
    read_line,
    read_time,
)


class ConceptCategory(Enum):
    """The six concept categories, in canonical (export) order."""

    INSTRUMENT_SETUP = "InstrumentSetup"
    DATA = "Data"
    MEASUREMENT_INFORMATION = "MeasurementInformation"
    EXPERIMENT_CHARACTERIZATION = "ExperimentCharacterization"
    WARNINGS = "Warnings"
    MEASURED_OBJECT = "MeasuredObject"


class ValueType(Enum):
    INTEGER = "Integer"
    REAL = "Real"
    BOOLEAN = "Boolean"
    TIME = "Time"
    DATE = "Date"
    ENUMERATION = "Enumeration"
    STRING = "String"


class ParameterSource(Enum):
    FILE = "File"
    KEYBOARD = "Keyboard"


# SI unit names accepted for parameter definitions.  A constant, so that a
# model stored by one process reads back in every other; a unit a lab needs
# is added here.
DEFAULT_UNITS = frozenset({
    "Second", "Radian", "Tesla", "Ampere", "CelsiusDegree",
    "Kelvin", "Volt", "Ohm", "Metre", "Kilogram",
})


@dataclass(frozen=True)
class ParameterDefinition:
    name: str
    category: ConceptCategory
    value_type: ValueType
    unit: Optional[str] = None
    source: ParameterSource = ParameterSource.FILE
    enum_domain: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise EmptyName("parameter name must be non-empty")
        if self.value_type is ValueType.ENUMERATION and not self.enum_domain:
            raise MissingEnumDomain(self.name)
        if self.value_type is not ValueType.ENUMERATION and self.enum_domain:
            raise MissingEnumDomain(f"{self.name}: enum_domain only valid for Enumeration")
        if self.unit is not None and self.unit not in DEFAULT_UNITS:
            raise UnknownUnit(f"{self.name}: {self.unit!r} is not a known unit")
        for value in self.enum_domain:
            if "," in value:  # the store joins the domain with ','
                raise InvariantViolation(f"{self.name}: enumeration value {value!r} contains ','")


@dataclass(frozen=True)
class EquipmentModel:
    name: str
    producer: str = ""
    description: str = ""
    webpage: Optional[str] = None
    picture: Optional[str] = None
    visual_model: Optional[str] = None
    extensions: frozenset[str] = frozenset()
    parameters: tuple[ParameterDefinition, ...] = ()
    ignored_file_keys: frozenset[str] = frozenset()

    def __post_init__(self):
        """Extensions are lower-cased, as resolve compares them.  The store
        keeps extensions and ignored keys space-separated, so each is one
        word; an extension holds no '.', or no file name would match it.  No
        text holds what the definition file would change (a line break,
        surrounding whitespace, a '|' in a parameter), so every model renders
        and parses back."""
        if not self.name.strip():
            raise EmptyName("equipment name must be non-empty")
        texts = [(getattr(self, field), field) for field in
                 ("name", "producer", "description", "webpage", "picture", "visual_model")]
        for p in self.parameters:
            texts += [(p.name, "parameter name"), *((v, f"enum value of {p.name!r}")
                                                    for v in p.enum_domain)]
        for text, what in texts:
            if text is not None and ("".join(text.splitlines()) != text or text != text.strip()):
                raise MalformedDefinition(f"{what} has a line break or surrounding whitespace")
        for p in self.parameters:
            if any("|" in text for text in (p.name, *p.enum_domain)):
                raise MalformedDefinition(f"parameter {p.name!r} contains '|'")
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            duplicate = next(n for n in names if names.count(n) > 1)
            raise DuplicateParameterName(f"{self.name}: {duplicate}")
        object.__setattr__(self, "extensions", frozenset(e.lower() for e in self.extensions))
        bad = [f"extension {e!r} is not one word without '.'"
               for e in self.extensions if e.split() != [e] or "." in e]
        bad += [f"ignored key {k!r} is not one word"
                for k in self.ignored_file_keys if k.split() != [k]]
        if bad:
            raise InvariantViolation(f"{self.name}: {bad[0]}")

    def parameter(self, name: str) -> Optional[ParameterDefinition]:
        for p in self.parameters:
            if p.name == name:
                return p
        return None

    def by_category(self, category: ConceptCategory) -> tuple[ParameterDefinition, ...]:
        return tuple(p for p in self.parameters if p.category is category)

    @property
    def channel_parameters(self) -> tuple[ParameterDefinition, ...]:
        """Data-category channel parameters, in declaration order."""
        return tuple(
            p for p in self.by_category(ConceptCategory.DATA) if p.name != "X_Value"
        )


def builtin_sytherm(channel_count: int = 3) -> EquipmentModel:
    """The built-in SYTHERM thermocouple-acquisition model.

    Data: X_Value plus one Channel_k parameter per acquisition channel.
    Measurement: Operator, Date, Time.  Experiment: the .lvm header keys.
    Writer_Version, Reader_Version and Samples are ignored on import; the
    Samples entries stay in the record's aux notes.
    """
    if not isinstance(channel_count, int) or channel_count < 1:
        raise InvalidChannelCount(f"channel_count must be >= 1, got {channel_count!r}")
    cat = ConceptCategory
    vt = ValueType
    params = [ParameterDefinition("X_Value", cat.DATA, vt.REAL, unit="Second")]
    params += [
        ParameterDefinition(f"Channel_{k}", cat.DATA, vt.REAL, unit="CelsiusDegree")
        for k in range(channel_count)
    ]
    params += [
        ParameterDefinition("Operator", cat.MEASUREMENT_INFORMATION, vt.STRING),
        ParameterDefinition("Date", cat.MEASUREMENT_INFORMATION, vt.DATE),
        ParameterDefinition("Time", cat.MEASUREMENT_INFORMATION, vt.TIME),
        ParameterDefinition("Channels", cat.EXPERIMENT_CHARACTERIZATION, vt.INTEGER),
        ParameterDefinition("Separator", cat.EXPERIMENT_CHARACTERIZATION, vt.ENUMERATION,
                            enum_domain=("Tab", "Comma")),
        ParameterDefinition("Decimal_Separator", cat.EXPERIMENT_CHARACTERIZATION, vt.STRING),
        ParameterDefinition("Multi_Headings", cat.EXPERIMENT_CHARACTERIZATION, vt.BOOLEAN),
        ParameterDefinition("X_Columns", cat.EXPERIMENT_CHARACTERIZATION, vt.ENUMERATION,
                            enum_domain=("No", "One", "Multi")),
        ParameterDefinition("Time_Pref", cat.EXPERIMENT_CHARACTERIZATION, vt.ENUMERATION,
                            enum_domain=("Absolute", "Relative")),
        ParameterDefinition("X_Dimension", cat.EXPERIMENT_CHARACTERIZATION, vt.STRING),
        ParameterDefinition("X0", cat.EXPERIMENT_CHARACTERIZATION, vt.REAL),
        ParameterDefinition("Delta_X", cat.EXPERIMENT_CHARACTERIZATION, vt.REAL),
    ]
    return EquipmentModel(
        name="SYTHERM",
        producer="UPB Measurement Laboratory",
        description="thermocouple acquisition ensemble",
        extensions=frozenset({"lvm"}),
        parameters=tuple(params),
        ignored_file_keys=frozenset({"Writer_Version", "Reader_Version", "Samples"}),
    )


# --- value grammar -----------------------------------------------------------

TypedScalar = Union[int, float, bool, Date, HighPrecisionTime, str]


# ValueType -> (reader, renderer, what a rejected text was expected to be);
# an Enumeration reads against its definition's domain and renders as is
_GRAMMARS = {
    ValueType.INTEGER: (read_int, str, "an integer"),
    ValueType.REAL: (partial(read_real, ds=ANY_DECIMAL), format_real, "a real"),
    ValueType.BOOLEAN: (read_bool, format_bool, "Yes/No/true/false"),
    ValueType.DATE: (read_date, format_date, "YYYY/MM/DD"),
    ValueType.TIME: (partial(read_time, ds=ANY_DECIMAL), HighPrecisionTime.render, "HH:MM:SS[.fff]"),
    ValueType.STRING: (read_line, str, "one line of UTF-8 text"),
}


def validate_value(definition: ParameterDefinition, raw: str) -> TypedScalar:
    """Apply the parameter's declared type to a raw text value.

    Reals accept either "." or "," as decimal separator, booleans accept
    the .lvm Yes/No convention alongside true/false, dates are YYYY/MM/DD
    and times HH:MM:SS with an optional fractional part, strings one line
    of UTF-8 text (no "\\n" or "\\r", no lone surrogate).  The grammars are
    those of :mod:`lvmforge.lvm`.
    """
    if definition.value_type is ValueType.ENUMERATION:
        value = raw if raw in definition.enum_domain else None
        expected = f"one of {', '.join(definition.enum_domain)}"
    else:
        read, _, expected = _GRAMMARS[definition.value_type]
        value = read(raw)
    if value is None:
        raise TypeMismatch(definition.name, raw, f"expected {expected}")
    return value


@dataclass(frozen=True)
class TypedValue:
    """A validated value together with its declared type and unit."""

    value: TypedScalar
    value_type: ValueType
    unit: Optional[str] = None


def make_typed(definition: ParameterDefinition, raw: str) -> TypedValue:
    return TypedValue(validate_value(definition, raw), definition.value_type, definition.unit)


def render_canonical(typed: TypedValue) -> str:
    """Fixed text form of a typed value: the storage/export rendering.

    Integers base-10; reals with "." and 6 decimals when those hold the
    value exactly, otherwise in shortest round-trip form; booleans Yes/No;
    dates YYYY/MM/DD; times with the full fraction digit string.
    validate_value reads the rendering of every value it returns back as
    that value, so the rendering is injective and storage equality is
    value equality.
    """
    grammar = _GRAMMARS.get(typed.value_type)
    return grammar[1](typed.value) if grammar else str(typed.value)


# --- definition-file format ---------------------------------------------------
#
#   name: SYTHERM
#   producer: UPB Measurement Laboratory
#   extensions: lvm
#   ignored_keys: Reader_Version Writer_Version
#   param: X_Value|Data|Real|Second|File
#   param: Separator|ExperimentCharacterization|Enumeration||File|Tab,Comma
#
# One "param:" line per parameter (name|category|type|unit|source, with a
# sixth comma-separated field for enumeration domains).  Unit empty means
# dimensionless.  A single-valued field is given at most once; extensions
# and ignored_keys lines add up.

# what -> (name -> member): the parameter vocabulary, read by read_parameter
_VOCABULARY = {what: {member.value: member for member in enum} for what, enum in
               (("category", ConceptCategory), ("type", ValueType), ("source", ParameterSource))}


def read_parameter(name: str, category: str, value_type: str, unit: Optional[str],
                   source: str, domain: Optional[str] = None) -> ParameterDefinition:
    """A parameter from the texts of a definition-file "param:" line or a
    stored parameter row: unit empty or None for none, domain the
    comma-separated enumeration values or None.  Raises MalformedDefinition
    for a category, type or source outside the vocabulary."""
    texts = (("category", category), ("type", value_type), ("source", source))
    unknown = [f"unknown {what} {text!r}" for what, text in texts if text not in _VOCABULARY[what]]
    if unknown:
        raise MalformedDefinition(unknown[0])
    category, value_type, source = (_VOCABULARY[what][text] for what, text in texts)
    return ParameterDefinition(
        name, category, value_type, unit or None, source,
        tuple(d.strip() for d in domain.split(",")) if domain is not None else ())


def render_model_definition(model: EquipmentModel) -> str:
    """Render a model as definition-file text (inverse of parse_model_definition)."""
    lines = [f"name: {model.name}", f"producer: {model.producer}",
             f"description: {model.description}"]
    for key, value in (("webpage", model.webpage), ("picture", model.picture),
                       ("visual_model", model.visual_model)):
        if value is not None:
            lines.append(f"{key}: {value}")
    lines.append("extensions: " + " ".join(sorted(model.extensions)))
    if model.ignored_file_keys:
        lines.append("ignored_keys: " + " ".join(sorted(model.ignored_file_keys)))
    for p in model.parameters:
        parts = [p.name, p.category.value, p.value_type.value, p.unit or "", p.source.value]
        if p.enum_domain:
            parts.append(",".join(p.enum_domain))
        lines.append("param: " + "|".join(parts))
    return "\n".join(lines) + "\n"


def parse_model_definition(text: str) -> EquipmentModel:
    """Parse definition-file text into an EquipmentModel.

    Raises MalformedDefinition on format errors; parameter-level problems
    (duplicate names, missing enum domains, unknown units) surface as their
    own error types.
    """
    fields: dict[str, str] = {}
    params: list[ParameterDefinition] = []
    words: dict[str, set[str]] = {"extensions": set(), "ignored_keys": set()}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, colon, value = stripped.partition(":")
        if not colon:
            raise MalformedDefinition(f"line {line_no}: expected 'key: value'")
        key = key.strip()
        value = value.strip()
        if key == "param":
            parts = value.split("|")
            if len(parts) not in (5, 6):
                raise MalformedDefinition(
                    f"line {line_no}: expected name|category|type|unit|source[|domain]")
            try:
                params.append(read_parameter(*(p.strip() for p in parts)))
            except MalformedDefinition as exc:
                raise MalformedDefinition(f"line {line_no}: {exc}") from None
        elif key in words:
            words[key].update(value.split())
        elif key in ("name", "producer", "description", "webpage", "picture", "visual_model"):
            if key in fields:
                raise MalformedDefinition(f"line {line_no}: field {key!r} given twice")
            fields[key] = value
        else:
            raise MalformedDefinition(f"line {line_no}: unknown field {key!r}")
    if "name" not in fields:
        raise MalformedDefinition("definition is missing the 'name' field")
    return EquipmentModel(**fields, extensions=frozenset(words["extensions"]),
                          parameters=tuple(params),
                          ignored_file_keys=frozenset(words["ignored_keys"]))
