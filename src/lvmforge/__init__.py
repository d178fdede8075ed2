"""lvmforge: LabVIEW .lvm measurement integration toolkit.

Parse .lvm files, map them onto concept-based equipment models, persist
everything in one relational store, analyze thermocouple series and export
to XML or Excel-compatible CSV.
"""

from .analysis import (
    NonLinearityInput,
    StepResponse,
    detect_steady_state,
    estimate_time_constant,
    gen_lvm,
    nonlinearity_error,
    step_response_from_series,
    synth_first_order,
)
from .export import export_csv, export_xml
from .ingest import (
    ChannelSeries,
    MeasurementRecord,
    ParsingBinding,
    ParsingProcedure,
    import_file,
    map_lvm_to_record,
)
from .lvm import (
    HighPrecisionTime,
    LvmDocument,
    LvmFileHeader,
    LvmSegment,
    Separator,
    TimePref,
    channel_series,
    parse_lvm,
    serialize_lvm,
)
from .model import (
    ConceptCategory,
    EquipmentModel,
    ParameterDefinition,
    ParameterSource,
    TypedValue,
    ValueType,
    builtin_sytherm,
    parse_model_definition,
    render_canonical,
    render_model_definition,
    validate_value,
)
from .store import RecordSummary, Store, init_schema

__version__ = "0.1.0"

__all__ = [
    "ChannelSeries",
    "ConceptCategory",
    "EquipmentModel",
    "HighPrecisionTime",
    "LvmDocument",
    "LvmFileHeader",
    "LvmSegment",
    "MeasurementRecord",
    "NonLinearityInput",
    "ParameterDefinition",
    "ParameterSource",
    "ParsingBinding",
    "ParsingProcedure",
    "RecordSummary",
    "Separator",
    "StepResponse",
    "Store",
    "TimePref",
    "TypedValue",
    "ValueType",
    "builtin_sytherm",
    "channel_series",
    "detect_steady_state",
    "estimate_time_constant",
    "export_csv",
    "export_xml",
    "gen_lvm",
    "import_file",
    "init_schema",
    "map_lvm_to_record",
    "nonlinearity_error",
    "parse_lvm",
    "parse_model_definition",
    "render_canonical",
    "render_model_definition",
    "serialize_lvm",
    "step_response_from_series",
    "synth_first_order",
    "validate_value",
]
