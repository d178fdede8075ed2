import dataclasses
import random
from datetime import date

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lvmforge import (
    ConceptCategory,
    EquipmentModel,
    HighPrecisionTime,
    ParameterDefinition,
    ParameterSource,
    TypedValue,
    ValueType,
    builtin_sytherm,
    parse_lvm,
    parse_model_definition,
    render_canonical,
    render_model_definition,
    serialize_lvm,
    validate_value,
)
from lvmforge.errors import (
    DuplicateParameterName,
    EmptyName,
    InvalidChannelCount,
    InvariantViolation,
    MalformedDefinition,
    MalformedNumber,
    MissingEnumDomain,
    TypeMismatch,
    UnknownUnit,
)
from lvmforge.ingest import map_lvm_to_record
from lvmforge.model import make_typed

from conftest import equipment_models
from docgen import random_document


def test_define_equipment_sytherm_fields(sytherm3):
    assert sytherm3.producer == "UPB Measurement Laboratory"
    assert sytherm3.description == "thermocouple acquisition ensemble"
    assert sytherm3.extensions == frozenset({"lvm"})


def test_define_equipment_minimal():
    model = EquipmentModel("X")
    assert model.name == "X"
    assert model.parameters == ()
    assert model.extensions == frozenset()


def test_define_equipment_empty_name():
    with pytest.raises(EmptyName):
        EquipmentModel("")


def test_add_parameter_grouping():
    model = EquipmentModel("E", parameters=(
        ParameterDefinition("Channels", ConceptCategory.EXPERIMENT_CHARACTERIZATION,
                            ValueType.INTEGER),
        ParameterDefinition("Operator", ConceptCategory.MEASUREMENT_INFORMATION,
                            ValueType.STRING)))
    assert [p.name for p in model.by_category(ConceptCategory.EXPERIMENT_CHARACTERIZATION)] == ["Channels"]
    assert [p.name for p in model.by_category(ConceptCategory.MEASUREMENT_INFORMATION)] == ["Operator"]


def test_add_parameter_duplicate():
    definition = ParameterDefinition("P", ConceptCategory.DATA, ValueType.REAL)
    model = EquipmentModel("E", parameters=(definition,))
    with pytest.raises(DuplicateParameterName):
        dataclasses.replace(model, parameters=model.parameters + (definition,))


_P = ParameterDefinition("P", ConceptCategory.DATA, ValueType.REAL)
_MODE = ParameterDefinition("Mode", ConceptCategory.DATA, ValueType.ENUMERATION,
                            enum_domain=("a", "b"))
_STRIPPED = " has a line break or surrounding whitespace$"


@pytest.mark.parametrize("fields, error, message", [
    ({"name": ""}, EmptyName, "^equipment name must be non-empty$"),
    ({"name": " \t"}, EmptyName, "^equipment name must be non-empty$"),
    ({"parameters": (_P, _P)}, DuplicateParameterName, "^E: P$"),
    ({"extensions": frozenset({"l vm"})}, InvariantViolation, "^E: extension 'l vm' "),
    ({"extensions": frozenset({"", "lvm"})}, InvariantViolation, "^E: extension '' "),
    ({"extensions": frozenset({"tar.gz"})}, InvariantViolation, "^E: extension 'tar.gz' "),
    ({"ignored_file_keys": frozenset({"Writer Version"})}, InvariantViolation,
     "^E: ignored key 'Writer Version' "),
    ({"ignored_file_keys": frozenset({""})}, InvariantViolation, "^E: ignored key '' "),
    # text the definition file would read back changed
    ({"description": "a\x85b"}, MalformedDefinition, "^description" + _STRIPPED),
    ({"producer": " MagLab "}, MalformedDefinition, "^producer" + _STRIPPED),
    ({"name": " A"}, MalformedDefinition, "^name" + _STRIPPED),
    ({"webpage": "http://x\n"}, MalformedDefinition, "^webpage" + _STRIPPED),
    ({"picture": " "}, MalformedDefinition, "^picture" + _STRIPPED),
    ({"visual_model": "a\u2028b"}, MalformedDefinition, "^visual_model" + _STRIPPED),
    ({"parameters": (dataclasses.replace(_MODE, name="p\r"),)}, MalformedDefinition,
     "^parameter name" + _STRIPPED),
    ({"parameters": (dataclasses.replace(_MODE, enum_domain=("a\nb", ")")),)},
     MalformedDefinition, "^enum value of 'Mode'" + _STRIPPED),
    ({"parameters": (dataclasses.replace(_MODE, name="a|b"),)}, MalformedDefinition,
     r"^parameter 'a\|b' contains '\|'$"),
    ({"parameters": (dataclasses.replace(_MODE, enum_domain=("a", "x|y")),)},
     MalformedDefinition, r"^parameter 'Mode' contains '\|'$"),
])
def test_equipment_model_checks_its_invariants(fields, error, message):
    with pytest.raises(error, match=message):
        EquipmentModel(**{"name": "E", **fields})
    with pytest.raises(error, match=message):  # replace builds a model too
        dataclasses.replace(EquipmentModel("E"), **fields)


def test_equipment_model_lower_cases_its_extensions():
    assert EquipmentModel("E", extensions=frozenset({"LVM"})).extensions == {"lvm"}
    model = dataclasses.replace(builtin_sytherm(1), extensions=frozenset({"Lvm", "MES"}))
    assert model.extensions == frozenset({"lvm", "mes"})


def test_enumeration_value_holds_no_comma():
    with pytest.raises(InvariantViolation, match="^Sep: enumeration value 'a,b' contains ','$"):
        ParameterDefinition("Sep", ConceptCategory.DATA, ValueType.ENUMERATION,
                            enum_domain=("a,b", "c"))


def test_enum_requires_domain():
    with pytest.raises(MissingEnumDomain):
        ParameterDefinition("Sep", ConceptCategory.DATA, ValueType.ENUMERATION)
    with pytest.raises(MissingEnumDomain):
        ParameterDefinition("P", ConceptCategory.DATA, ValueType.REAL,
                            enum_domain=("a",))


def test_unit_table():
    with pytest.raises(UnknownUnit):
        ParameterDefinition("P", ConceptCategory.DATA, ValueType.REAL, unit="Parsec")


def test_builtin_sytherm_3(sytherm3):
    channel = sytherm3.channel_parameters
    assert [p.name for p in channel] == ["Channel_0", "Channel_1", "Channel_2"]
    assert all(p.unit == "CelsiusDegree" for p in channel)
    # recounted from the built-in listing: X_Value + 3 Measurement + 9 Experiment
    assert len(sytherm3.parameters) - len(channel) == 13
    assert len(sytherm3.parameters) == 16
    assert sytherm3.ignored_file_keys == frozenset({"Writer_Version", "Reader_Version",
                                                    "Samples"})


def test_builtin_sytherm_1_data_category():
    model = builtin_sytherm(1)
    data = [p.name for p in model.by_category(ConceptCategory.DATA)]
    assert data == ["X_Value", "Channel_0"]


def test_builtin_sytherm_rejects_zero():
    with pytest.raises(InvalidChannelCount):
        builtin_sytherm(0)


def test_category_partition(sytherm3):
    names = set()
    total = 0
    for category in ConceptCategory:
        group = sytherm3.by_category(category)
        total += len(group)
        names.update(p.name for p in group)
    assert total == len(sytherm3.parameters)
    assert names == {p.name for p in sytherm3.parameters}


@pytest.mark.parametrize("vtype, raw, expected", [
    (ValueType.BOOLEAN, "No", False),
    (ValueType.BOOLEAN, "Yes", True),
    (ValueType.BOOLEAN, "true", True),
    (ValueType.BOOLEAN, "false", False),
    (ValueType.INTEGER, "3", 3),
    (ValueType.INTEGER, "-17", -17),
    (ValueType.REAL, "1,000000", 1.0),
    (ValueType.REAL, "2.5e2", 250.0),
    (ValueType.DATE, "2013/02/06", date(2013, 2, 6)),
    (ValueType.TIME, "17:49:40,8399", HighPrecisionTime(17, 49, 40, "8399")),
    (ValueType.TIME, "07:05:03", HighPrecisionTime(7, 5, 3)),
    (ValueType.STRING, "anything at all", "anything at all"),
])
def test_validate_value_accepts(vtype, raw, expected):
    definition = ParameterDefinition("P", ConceptCategory.DATA, vtype,
                                     enum_domain=("x",) if vtype is ValueType.ENUMERATION else ())
    assert validate_value(definition, raw) == expected


@pytest.mark.parametrize("vtype, raw", [
    (ValueType.INTEGER, "three"),
    (ValueType.INTEGER, "1.5"),
    (ValueType.REAL, "1,5,0"),
    (ValueType.REAL, "abc"),
    (ValueType.BOOLEAN, "maybe"),
    (ValueType.DATE, "06/02/2013"),
    (ValueType.DATE, "2013/13/40"),
    (ValueType.TIME, "25:00:00"),
    (ValueType.TIME, "noon"),
])
def test_validate_value_rejects(vtype, raw):
    definition = ParameterDefinition("P", ConceptCategory.DATA, vtype)
    with pytest.raises(TypeMismatch):
        validate_value(definition, raw)


@settings(max_examples=200, deadline=None)
@given(st.text(st.characters(exclude_categories=()), max_size=8))
@example("café")
@example("caf\udce9")  # what the cp1252 byte 0xE9 in argv or a file name becomes
@example("\ud83d\ude00")  # a surrogate pair is two lone surrogates in a str
@example("a\nb")
@example("a\rb")
@example("a\tb")  # one field of a tab-separated line
@example("a\u2028b")  # a line break to str.splitlines, but not to a file's lines
def test_validate_string_accepts_exactly_utf8_text(text):
    # sqlite and the exporters cannot encode a lone surrogate, and a line
    # break would split a line of the CLI's output or of a .lvm header, and a
    # tab a field of a list line
    definition = ParameterDefinition("Operator", ConceptCategory.MEASUREMENT_INFORMATION,
                                     ValueType.STRING)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        one_line = False
    else:
        one_line = not set(text) & set("\t\n\r")
    if one_line:
        assert validate_value(definition, text) == text
    else:
        with pytest.raises(TypeMismatch, match="expected one line of UTF-8 text"):
            validate_value(definition, text)


def test_validate_enumeration():
    definition = ParameterDefinition("Separator", ConceptCategory.DATA,
                                     ValueType.ENUMERATION, enum_domain=("Tab", "Comma"))
    assert validate_value(definition, "Tab") == "Tab"
    with pytest.raises(TypeMismatch):
        validate_value(definition, "Space")


def test_render_canonical_forms():
    assert render_canonical(TypedValue(3, ValueType.INTEGER)) == "3"
    assert render_canonical(TypedValue(1.0, ValueType.REAL)) == "1.000000"
    assert render_canonical(TypedValue(False, ValueType.BOOLEAN)) == "No"
    assert render_canonical(TypedValue(date(2013, 2, 6), ValueType.DATE)) == "2013/02/06"
    assert render_canonical(
        TypedValue(HighPrecisionTime(17, 49, 40, "8399"), ValueType.TIME)
    ) == "17:49:40.8399"


_SCALARS = st.one_of(
    st.tuples(st.just(ValueType.INTEGER),
              st.integers(-10**9, 10**9).map(str)),
    st.tuples(st.just(ValueType.REAL),
              st.integers(-10**9, 10**9).map(lambda k: f"{k / 1e6:.6f}")),
    st.tuples(st.just(ValueType.REAL),
              st.floats(allow_nan=False, allow_infinity=False).map(repr)),
    st.tuples(st.just(ValueType.BOOLEAN), st.sampled_from(["Yes", "No", "true", "false"])),
    st.tuples(st.just(ValueType.DATE),
              st.dates().map(lambda d: f"{d.year:04d}/{d.month:02d}/{d.day:02d}")),
    st.tuples(st.just(ValueType.TIME),
              st.builds(lambda h, m, s, f: f"{h}:{m}:{s}" + ("," + f if f else ""),
                        st.integers(0, 23), st.integers(0, 59), st.integers(0, 59),
                        st.text("0123456789", max_size=22))),
    st.tuples(st.just(ValueType.STRING),
              st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"),
                      max_size=20)),
)


@settings(max_examples=150, deadline=None)
@given(_SCALARS)
def test_accepted_values_roundtrip_through_render(pair):
    vtype, raw = pair
    definition = ParameterDefinition("P", ConceptCategory.DATA, vtype)
    value = validate_value(definition, raw)
    rendered = render_canonical(TypedValue(value, vtype))
    assert validate_value(definition, rendered) == value


def _parser_reads(kind, text, ds):
    """The value parse_lvm reads from text in a field of the given kind, or
    None when it rejects the text."""
    segment_line = {"real": "", "int": f"Samples\t{text}\n",
                    "date": f"Date\t{text}\n", "time": f"Time\t{text}\n"}[kind]
    data = ("LabVIEW Measurement\nSeparator\tTab\n"
            f"Decimal_Separator\t{ds}\n***End_of_Header***\n"
            f"Channels\t1\n{segment_line}***End_of_Header***\n"
            f"X_Value\tY\n0\t{text if kind == 'real' else '1'}\n")
    try:
        segment = parse_lvm(data).segments[0]
    except MalformedNumber:
        return None
    read = {"real": segment.columns[0], "int": segment.samples_per_channel,
            "date": segment.channel_dates, "time": segment.channel_times}
    return read[kind][0]


_GRAMMAR_KINDS = (("real", ValueType.REAL), ("int", ValueType.INTEGER),
                  ("date", ValueType.DATE), ("time", ValueType.TIME))


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789+-.,:/eE ", max_size=12) | st.text(max_size=8)
       | st.from_regex(r"[0-9]{1,4}[-/:.,][0-9]{1,2}[-/:.,][0-9]{1,2}([.,][0-9]{0,3})?",
                       fullmatch=True),
       st.sampled_from([".", ","]))
@example("1e999", ".")
@example("-1e999", ".")
def test_parser_and_model_grammars_agree(text, ds):
    assume(text and not set(text) & set("\t\r\n"))
    for kind, value_type in _GRAMMAR_KINDS:
        parsed = _parser_reads(kind, text, ds)
        if parsed is None and value_type in (ValueType.REAL, ValueType.TIME):
            # the model accepts either decimal separator
            parsed = _parser_reads(kind, text, "," if ds == "." else ".")
        try:
            validated = validate_value(ParameterDefinition("P", ConceptCategory.DATA,
                                                           value_type), text)
        except TypeMismatch:
            validated = None
        assert validated == parsed, kind


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_sytherm_accepts_every_serialized_document(seed, channels):
    doc = random_document(random.Random(seed), channels=channels)
    model = builtin_sytherm(channels)
    record = map_lvm_to_record(doc, model)  # must not raise TypeMismatch
    assert record.equipment_name == "SYTHERM"
    serialize_lvm(doc)


def test_definition_roundtrip_sytherm(sytherm3):
    text = render_model_definition(sytherm3)
    assert parse_model_definition(text) == sytherm3


def test_definition_roundtrip_custom():
    model = EquipmentModel(
        "Hysterezisgraph", "MagLab", "hysteresis bench", webpage="http://example.org/h",
        extensions=frozenset({"MES", "coi"}), parameters=(
            ParameterDefinition("Mode", ConceptCategory.INSTRUMENT_SETUP,
                                ValueType.ENUMERATION, source=ParameterSource.KEYBOARD,
                                enum_domain=("AC", "DC")),
            ParameterDefinition("Field", ConceptCategory.DATA, ValueType.REAL,
                                unit="Tesla")))
    text = render_model_definition(model)
    parsed = parse_model_definition(text)
    assert parsed == model
    assert parsed.extensions == frozenset({"mes", "coi"})


@pytest.mark.parametrize("field", ["producer", "name", "parameter", "enum value"])
def test_render_refuses_text_the_parser_would_strip(field):
    mode = ParameterDefinition("Mode", ConceptCategory.INSTRUMENT_SETUP,
                               ValueType.ENUMERATION, enum_domain=("a", "b"))
    model = EquipmentModel("A", producer="x", parameters=(mode,))
    changed = {
        "producer": {"producer": " x "},
        "name": {"name": " A"},
        "parameter": {"parameters": (dataclasses.replace(mode, name=" p"),)},
        "enum value": {"parameters": (dataclasses.replace(mode, enum_domain=(" a", "b")),)},
    }[field]
    render_model_definition(model)
    with pytest.raises(MalformedDefinition, match="surrounding whitespace"):
        render_model_definition(dataclasses.replace(model, **changed))


@settings(max_examples=300, deadline=None)
@given(equipment_models())
def test_definition_roundtrip_whenever_rendering_succeeds(model):
    """Every model that constructs renders, and parses back."""
    assert parse_model_definition(render_model_definition(model)) == model


@pytest.mark.parametrize("line", [
    "params X|Data|Real||File",
    "param: X|NoSuchCategory|Real||File",
    "param: X|Data|Complex||File",
    "param: X|Data|Real||Telepathy",
    "param: X|Data|Real",
    "mystery: 5",
    "name: F",  # a single-valued field given twice
])
def test_definition_malformed(line):
    with pytest.raises(MalformedDefinition):
        parse_model_definition(f"name: E\n{line}\n")


def test_definition_skips_comment_lines(sytherm3):
    text = "# a SYTHERM model\n" + render_model_definition(sytherm3).replace(
        "param:", "  # the parameters\nparam:", 1)
    assert parse_model_definition(text) == sytherm3


def test_definition_requires_name():
    with pytest.raises(MalformedDefinition):
        parse_model_definition("producer: x\n")


def test_make_typed_carries_unit(sytherm3):
    typed = make_typed(sytherm3.parameter("X_Value"), "1,5")
    assert typed == TypedValue(1.5, ValueType.REAL, "Second")
