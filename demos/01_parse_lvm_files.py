"""Walk through parsing and writing LabVIEW .lvm measurement files.

Builds a small three-channel file in memory, parses it, pokes at the
typed document, and shows that serialization is lossless.
"""

from lvmforge import channel_series, parse_lvm, serialize_lvm

# A .lvm file is line oriented: magic line, a file header closed by
# ***End_of_Header***, then per-segment headers and the data block.
# This one uses tab separation with "," as the decimal separator, the
# combination produced by the laboratory LabVIEW setup.
RAW = (
    "LabVIEW Measurement\n"
    "Writer_Version\t2\n"
    "Reader_Version\t2\n"
    "Separator\tTab\n"
    "Decimal_Separator\t,\n"
    "Multi_Headings\tNo\n"
    "X_Columns\tOne\n"
    "Time_Pref\tAbsolute\n"
    "Operator\tProfesor\n"
    "Date\t2013/02/06\n"
    "Time\t17:49:40,8399038314819335937\n"
    "***End_of_Header***\n"
    "\n"
    "Notes\tX values guaranteed valid only for Channel 0\n"
    "Channels\t3\n"
    "Samples\t1\t1\t1\n"
    "X_Dimension\tTime\tTime\tTime\n"
    "X0\t0,0000000000000000E+0\t0,0000000000000000E+0\t0,0000000000000000E+0\n"
    "Delta_X\t1,000000\t1,000000\t1,000000\n"
    "***End_of_Header***\n"
    "X_Value\tChannel 0\tChannel 1\tChannel 2\tComment\n"
    "0,000000\t23,400000\t23,400000\t23,600000\n"
    "0,531250\t23,400000\t23,400000\t23,600000\n"
    "1,531250\t23,600000\t23,600000\t23,799999\n"
)

doc = parse_lvm(RAW)

header = doc.header
print("operator:", header.operator)
print("acquired:", header.date, header.time.render("."))
# 19 fractional digits survive verbatim; a float could not hold them
print("fraction digits:", header.time.fraction_digits)

segment = doc.segments[0]
print("channels:", segment.channels)
print("columns: ", segment.column_names)
print("notes:   ", segment.notes)
# the data block is held by column: x, then one column per channel
print("rows:    ", len(segment.x))
print("x:       ", segment.x)

# channel_series gives one channel's (x, y) columns, skipping the rows
# where that channel's field was left empty
for k in range(segment.channels):
    print(f"channel {k}:", channel_series(doc, 0, k))

# Serialization reproduces the canonical layout; parsing it again gives
# an equal document (the round-trip law the test suite checks at scale).
again = parse_lvm(serialize_lvm(doc))
print("round-trip equal:", again == doc)

print()
print(serialize_lvm(doc).decode(), end="")
