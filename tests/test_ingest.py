import random
import re
from datetime import date, datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvmforge import (
    ChannelSeries,
    ConceptCategory,
    LvmDocument,
    LvmFileHeader,
    ParsingBinding,
    ParsingProcedure,
    builtin_sytherm,
    import_file,
    map_lvm_to_record,
    parse_lvm,
    serialize_lvm,
)
from lvmforge.errors import (
    ChannelCountMismatch,
    DuplicateBinding,
    DuplicateProcedure,
    EmptyName,
    ExtensionNotDeclared,
    InvariantViolation,
    LengthMismatch,
    NoBinding,
    TypeMismatch,
    UnknownEquipment,
    UnknownHandler,
    UnknownProcedure,
)
from lvmforge.ingest import LVM_HANDLER_ID

from docgen import random_document


@pytest.fixture()
def seeded(store, sytherm3):
    """A store that holds SYTHERM and LVM_PARSING."""
    store.put_equipment(sytherm3)
    store.put_procedure(ParsingProcedure("LVM_PARSING", LVM_HANDLER_ID))
    return store


def test_register_and_resolve(seeded):
    seeded.put_binding(ParsingBinding("SYTHERM", "LVM_PARSING", "lvm"))
    assert seeded.resolve("SYTHERM", "run1.lvm").name == "LVM_PARSING"
    assert seeded.list_procedures() == ["LVM_PARSING"]


def test_register_twice(seeded):
    with pytest.raises(DuplicateProcedure, match="^LVM_PARSING$"):
        seeded.put_procedure(ParsingProcedure("LVM_PARSING", LVM_HANDLER_ID))
    assert seeded.list_procedures() == ["LVM_PARSING"]


def test_register_unknown_handler(seeded):
    with pytest.raises(UnknownHandler, match="^builtin.mes$"):
        seeded.put_procedure(ParsingProcedure("MES_PARSING", "builtin.mes"))
    assert seeded.list_procedures() == ["LVM_PARSING"]


def test_procedure_checks_itself():
    with pytest.raises(EmptyName, match="^procedure name must be non-empty$"):
        ParsingProcedure("", LVM_HANDLER_ID)
    with pytest.raises(UnknownHandler, match="^nonsense.handler$"):
        ParsingProcedure("P", "nonsense.handler")
    # the .lvm parser is the default, so callers pass the name alone
    assert ParsingProcedure("P") == ParsingProcedure("P", LVM_HANDLER_ID)


def test_a_binding_put_with_an_upper_case_extension_resolves(seeded):
    binding = ParsingBinding("SYTHERM", "LVM_PARSING", "LVM")
    assert (binding.extension, binding.binding_name) == ("lvm", "LVM_PARSING_LVM")
    seeded.put_binding(binding)
    assert seeded.resolve("SYTHERM", "a.lvm").name == "LVM_PARSING"
    with pytest.raises(DuplicateBinding, match=r"^\(SYTHERM, lvm\)$"):
        seeded.put_binding(ParsingBinding("SYTHERM", "LVM_PARSING", "lvm"))


def test_bind_canonical_name(seeded):
    binding = ParsingBinding("SYTHERM", "LVM_PARSING", "lvm")
    assert seeded.put_binding(binding) == "LVM_PARSING_LVM"
    assert binding.binding_name == "LVM_PARSING_LVM"
    assert binding.equipment_name == "SYTHERM"
    assert binding.extension == "lvm"


def test_bind_undeclared_extension(seeded):
    with pytest.raises(ExtensionNotDeclared, match="^SYTHERM does not declare .txt$"):
        seeded.put_binding(ParsingBinding("SYTHERM", "LVM_PARSING", "txt"))


def test_bind_duplicate(seeded):
    seeded.put_binding(ParsingBinding("SYTHERM", "LVM_PARSING", "lvm"))
    for extension in ("lvm", "LVM"):
        with pytest.raises(DuplicateBinding, match=r"^\(SYTHERM, lvm\)$"):
            seeded.put_binding(ParsingBinding("SYTHERM", "LVM_PARSING", extension))


def test_bind_unknown_names(seeded):
    with pytest.raises(UnknownEquipment, match="^NOPE$"):
        seeded.put_binding(ParsingBinding("NOPE", "LVM_PARSING", "lvm"))
    with pytest.raises(UnknownProcedure, match="^NOPE$"):
        seeded.put_binding(ParsingBinding("SYTHERM", "NOPE", "lvm"))


def test_resolve_case_insensitive_extension(seeded):
    seeded.put_binding(ParsingBinding("SYTHERM", "LVM_PARSING", "lvm"))
    assert seeded.resolve("SYTHERM", "run1.LVM").name == "LVM_PARSING"


def test_resolve_no_binding(seeded):
    seeded.put_binding(ParsingBinding("SYTHERM", "LVM_PARSING", "lvm"))
    with pytest.raises(NoBinding, match="'SYTHERM', 'csv'"):
        seeded.resolve("SYTHERM", "run1.csv")
    with pytest.raises(NoBinding):
        seeded.resolve("SYTHERM", "no_extension")


@settings(max_examples=50, deadline=None)
@given(st.from_regex(r"[A-Z]{2,12}_PARSING", fullmatch=True),
       st.from_regex(r"[a-z0-9]{1,6}", fullmatch=True))
def test_binding_name_law(procedure, extension):
    binding = ParsingBinding("SYTHERM", procedure, extension)
    assert binding.binding_name == procedure.upper() + "_" + extension.upper()


def test_map_annex_record(annex1_doc, sytherm3):
    record = map_lvm_to_record(annex1_doc, sytherm3, source_file="annex1.lvm")
    mi = ConceptCategory.MEASUREMENT_INFORMATION
    ec = ConceptCategory.EXPERIMENT_CHARACTERIZATION
    assert record.get_value(mi, "Operator") == "Profesor"
    assert record.get_value(mi, "Date") == date(2013, 2, 6)
    assert record.get_value(ec, "Channels") == 3
    assert record.get_value(ec, "Separator") == "Tab"
    assert record.get_value(ec, "Delta_X") == 1.0
    assert [(s.name, s.unit, len(s.points)) for s in record.series] == [
        ("Channel_0", "CelsiusDegree", 16),
        ("Channel_1", "CelsiusDegree", 16),
        ("Channel_2", "CelsiusDegree", 16),
    ]
    assert record.series[0].points[0] == (0.0, 23.4)


_SAMPLES = st.lists(st.floats(), max_size=5)


@settings(max_examples=100, deadline=None)
@given(xs=_SAMPLES, ys=_SAMPLES, as_tuples=st.booleans())
def test_channel_series_holds_two_tuple_columns_of_equal_length(xs, ys, as_tuples):
    """Columns of equal length become tuples, points pairs them, and columns
    of unequal length are refused."""
    x, y = (tuple(xs), tuple(ys)) if as_tuples else (iter(xs), ys)
    if len(xs) != len(ys):
        with pytest.raises(LengthMismatch):
            ChannelSeries("Channel_0", None, x, y)
        return
    series = ChannelSeries("Channel_0", None, x, y)
    assert type(series.x) is tuple and type(series.y) is tuple
    assert len(series.x) == len(xs)
    assert all(a is b for a, b in zip(series.x + series.y, xs + ys))
    assert series.points == tuple(zip(series.x, series.y))
    assert series == ChannelSeries("Channel_0", None, series.x, series.y)


def test_map_ignored_keys_absent(annex1_doc, sytherm3):
    record = map_lvm_to_record(annex1_doc, sytherm3)
    stored = {name for values in record.values.values() for name in values}
    assert "Writer_Version" not in stored
    assert "Reader_Version" not in stored
    assert not any("Writer_Version" in w or "Reader_Version" in w
                   for w in record.warnings)


def test_map_annex1_gives_no_warning(annex1_doc, sytherm3):
    record = map_lvm_to_record(annex1_doc, sytherm3)
    assert record.warnings == []
    assert record.aux["Samples"] == "1 1 1"


def test_map_unknown_key_warns(annex1_bytes, sytherm3):
    text = annex1_bytes.decode().replace(
        "Operator\tProfesor", "Operator\tProfesor\nProject\tthermo-lab")
    record = map_lvm_to_record(parse_lvm(text), sytherm3)
    assert sum("Project" in w for w in record.warnings) == 1


def test_map_warns_once_for_an_unknown_key_in_both_headers(annex1_bytes, sytherm3):
    text = annex1_bytes.decode().replace(
        "Operator\tProfesor", "Operator\tProfesor\nProject\tthermo-lab").replace(
        "Channels\t3", "Channels\t3\nProject\tthermo-lab")
    record = map_lvm_to_record(parse_lvm(text), sytherm3)
    assert [w for w in record.warnings if "Project" in w] == ["unknown header key 'Project'"]


def test_map_a_key_both_declared_and_ignored_is_skipped_silently(annex1_doc, sytherm3):
    import dataclasses
    model = dataclasses.replace(
        sytherm3, ignored_file_keys=sytherm3.ignored_file_keys | {"Operator"})
    record = map_lvm_to_record(annex1_doc, model)
    assert "Operator" not in record.values[ConceptCategory.MEASUREMENT_INFORMATION]
    assert not any("Operator" in w for w in record.warnings)


def test_map_a_single_value_segment_line_overrides_the_file_header(annex1_bytes, sytherm3):
    text = annex1_bytes.decode().replace("Channels\t3", "Channels\t3\nOperator\tStudent1")
    record = map_lvm_to_record(parse_lvm(text), sytherm3)
    assert record.get_value(ConceptCategory.MEASUREMENT_INFORMATION, "Operator") == "Student1"


def test_map_refuses_a_document_without_segments(sytherm3):
    with pytest.raises(InvariantViolation, match="^document has no segments$"):
        map_lvm_to_record(LvmDocument(LvmFileHeader(), []), sytherm3)


def test_map_channel_count_mismatch(annex1_doc):
    with pytest.raises(ChannelCountMismatch):
        map_lvm_to_record(annex1_doc, builtin_sytherm(2))


def test_map_refuses_a_string_value_holding_a_carriage_return(annex1_bytes, sytherm3):
    """The parser splits lines on "\\n" only, so a lone "\\r" reaches the
    String grammar, which takes one line of text."""
    doc = parse_lvm(annex1_bytes.replace(b"Operator\tProfesor", b"Operator\tPro\rfesor", 1))
    assert doc.header.operator == "Pro\rfesor"
    with pytest.raises(TypeMismatch, match=re.escape(
            "parameter 'Operator' rejects 'Pro\\rfesor': expected one line of UTF-8 text")):
        map_lvm_to_record(doc, sytherm3)


def test_map_file_header_date_wins(annex1_bytes, sytherm3):
    # segment dates differ from the file header date; header takes precedence
    text = annex1_bytes.decode().replace(
        "Date\t2013/02/06\t2013/02/06\t2013/02/06",
        "Date\t2013/02/07\t2013/02/07\t2013/02/07")
    record = map_lvm_to_record(parse_lvm(text), sytherm3)
    assert record.get_value(ConceptCategory.MEASUREMENT_INFORMATION, "Date") == date(2013, 2, 6)
    assert record.aux["Date"] == "2013/02/07 2013/02/07 2013/02/07"


def test_map_requires_lvm_extension(annex1_doc, sytherm3):
    import dataclasses
    model = dataclasses.replace(sytherm3, extensions=frozenset({"txt"}))
    with pytest.raises(ExtensionNotDeclared):
        map_lvm_to_record(annex1_doc, model)


def test_map_later_segments_warn(sytherm3):
    doc = random_document(random.Random(3), channels=3, segments=2)
    record = map_lvm_to_record(doc, sytherm3)
    assert any("segment 1 ignored" in w for w in record.warnings)
    total_points = sum(len(s.x) for s in record.series)
    assert total_points <= 3 * len(doc.segments[0].x)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_mapping_totality_over_serialized_documents(seed, channels):
    doc = parse_lvm(serialize_lvm(random_document(random.Random(seed), channels=channels)))
    record = map_lvm_to_record(doc, builtin_sytherm(channels))
    stored = {name for values in record.values.values() for name in values}
    assert "Writer_Version" not in stored and "Reader_Version" not in stored


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_mapped_values_follow_the_declaration_order(seed, channels):
    model = builtin_sytherm(channels)
    doc = parse_lvm(serialize_lvm(random_document(random.Random(seed), channels=channels)))
    record = map_lvm_to_record(doc, model)
    for category, values in record.values.items():
        declared = [p.name for p in model.by_category(category)]
        assert list(values) == [name for name in declared if name in values]


def test_import_file(tmp_path, seeded, annex1_bytes):
    seeded.put_binding(ParsingBinding("SYTHERM", "LVM_PARSING", "lvm"))
    path = tmp_path / "annex1.lvm"
    path.write_bytes(annex1_bytes)
    record_id = import_file(path, "SYTHERM", None, seeded)
    record = seeded.get_measurement(record_id)
    assert record.get_value(ConceptCategory.MEASUREMENT_INFORMATION, "Operator") == "Profesor"
    assert record.source_file == "annex1.lvm"


def test_import_missing_file(tmp_path, seeded):
    seeded.put_binding(ParsingBinding("SYTHERM", "LVM_PARSING", "lvm"))
    with pytest.raises(FileNotFoundError):
        import_file(tmp_path / "nope.lvm", "SYTHERM", None, seeded)


def test_import_unbound_extension(tmp_path, seeded):
    path = tmp_path / "data.csv"
    path.write_text("x\n")
    with pytest.raises(NoBinding):
        import_file(path, "SYTHERM", None, seeded)


def test_store_resolves_a_binding_and_gives_back_its_equipment(seeded, sytherm3):
    seeded.put_binding(ParsingBinding("SYTHERM", "LVM_PARSING", "lvm"))
    assert seeded.resolve("SYTHERM", "x.lvm").name == "LVM_PARSING"
    assert seeded.get_equipment("SYTHERM") == sytherm3
    with pytest.raises(UnknownEquipment, match="^NOPE$"):
        seeded.get_equipment("NOPE")


def test_resolve_sees_a_binding_written_after_a_miss(seeded):
    with pytest.raises(NoBinding):
        seeded.resolve("SYTHERM", "x.lvm")
    seeded.put_binding(ParsingBinding("SYTHERM", "LVM_PARSING", "lvm"))
    assert seeded.resolve("SYTHERM", "x.lvm").name == "LVM_PARSING"


def test_record_timestamps(annex1_doc, sytherm3):
    stamp = datetime(2020, 5, 17, 8, 30)
    record = map_lvm_to_record(annex1_doc, sytherm3, imported_at=stamp)
    assert record.imported_at == stamp
