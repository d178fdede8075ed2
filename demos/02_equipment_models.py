"""Model measurement equipment with typed, categorized parameters.

Shows the built-in SYTHERM thermocouple ensemble, a custom model built
from scratch, the value grammar, and the definition-file format teachers
use to add equipment without programming.
"""

from lvmforge import (
    ConceptCategory,
    EquipmentModel,
    ParameterDefinition,
    ParameterSource,
    ValueType,
    builtin_sytherm,
    parse_model_definition,
    render_model_definition,
    validate_value,
)

# --- the built-in SYTHERM model -------------------------------------------

sytherm = builtin_sytherm(3)
print("name:     ", sytherm.name)
print("producer: ", sytherm.producer)
print("extensions:", sorted(sytherm.extensions))
for category in ConceptCategory:
    group = sytherm.by_category(category)
    if group:
        print(f"{category.value}: {[p.name for p in group]}")
print("ignored on import:", sorted(sytherm.ignored_file_keys))

# --- the value grammar -------------------------------------------------------

channels = sytherm.parameter("Channels")
multi = sytherm.parameter("Multi_Headings")
print("Channels '3'      ->", validate_value(channels, "3"))
print("Multi_Headings No ->", validate_value(multi, "No"))
print("Channel_0 '23,4'  ->", validate_value(sytherm.parameter("Channel_0"), "23,4"))

# --- defining new equipment in code ----------------------------------------
# The model checks itself when it is built: a blank name, a repeated
# parameter or an extension that no file name could match is refused here.

magnetometer = EquipmentModel(
    "VSM", "MagLab", "vibrating sample magnetometer",
    webpage="http://example.org/vsm",
    extensions=frozenset({"TXT"}),  # stored lower-cased, as files are matched
    parameters=(
        ParameterDefinition("Field", ConceptCategory.DATA, ValueType.REAL, unit="Tesla"),
        ParameterDefinition("Mode", ConceptCategory.INSTRUMENT_SETUP, ValueType.ENUMERATION,
                            source=ParameterSource.KEYBOARD, enum_domain=("AC", "DC")),
    ))
print("VSM extensions:", sorted(magnetometer.extensions))

# --- the definition-file format ----------------------------------------------
# Equipment travels as a small text file; render and parse are inverses.

text = render_model_definition(magnetometer)
print()
print(text)
assert parse_model_definition(text) == magnetometer
print("definition file round-trips: True")
