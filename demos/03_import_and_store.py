"""The full ingestion path: dispatch through the store, import, query, edit.

A parsing procedure is bound to an (equipment, extension) pair in the
store; importing a file resolves the procedure from the filename, maps the
parsed document onto the equipment model and persists one measurement
record in the same store.
"""

import tempfile
from datetime import date
from pathlib import Path

from lvmforge import (
    ConceptCategory,
    HighPrecisionTime,
    ParsingBinding,
    ParsingProcedure,
    StepResponse,
    builtin_sytherm,
    gen_lvm,
    import_file,
    init_schema,
    serialize_lvm,
)
from lvmforge.errors import NoBinding
from lvmforge.ingest import LVM_HANDLER_ID

workspace = tempfile.TemporaryDirectory(prefix="lvmforge-demo-")
workdir = Path(workspace.name)

# Write a three-channel measurement file to import.
responses = [
    StepResponse(tuple((float(k), 23.4 + 0.2 * c) for k in range(8)),
                 23.4 + 0.2 * c, 23.4 + 0.2 * c)
    for c in range(3)
]
doc = gen_lvm(responses, operator="Profesor", date=date(2013, 2, 6),
              time=HighPrecisionTime(17, 49, 40, "8399038314819335937"))
lvm_path = workdir / "run1.lvm"
lvm_path.write_bytes(serialize_lvm(doc))

# Store setup: the SYTHERM model, the LVM_PARSING procedure, one binding.
# The store checks each write (a taken name, an undeclared or already bound
# extension) and resolves a file name to its procedure.  The binding's name
# is derived from it by the PROCEDURE_EXT convention.
store = init_schema(workdir / "lab.db")
store.put_equipment(builtin_sytherm(3))
store.put_procedure(ParsingProcedure("LVM_PARSING", LVM_HANDLER_ID))
binding = ParsingBinding("SYTHERM", "LVM_PARSING", "lvm")
store.put_binding(binding)
print("binding:", binding.binding_name)
print("resolve run1.lvm ->", store.resolve("SYTHERM", "run1.lvm").name)
try:
    store.resolve("SYTHERM", "run1.csv")
except NoBinding as exc:
    print("resolve run1.csv ->", type(exc).__name__, "-", exc)

record_id = import_file(lvm_path, "SYTHERM", None, store)
print("imported record:", record_id)

record = store.get_measurement(record_id)
mi = ConceptCategory.MEASUREMENT_INFORMATION
print("operator:", record.get_value(mi, "Operator"))
print("series:  ", [(s.name, len(s.points)) for s in record.series])
print("warnings:", record.warnings)

# Queries work on the stored parameter values.
print("by operator:", [s.record_id for s in store.query(operator="Profesor")])
print("by date:    ", [s.record_id for s in store.query(date_from=date(2013, 1, 1),
                                                        date_to=date(2013, 12, 31))])

# Edit and remove round out the measurement lifecycle.
store.update_value(record_id, "Operator", "Student1")
print("after edit:", store.get_measurement(record_id).get_value(mi, "Operator"))
store.delete_measurement(record_id)
print("after remove:", [s.record_id for s in store.query()])
store.close()
workspace.cleanup()
