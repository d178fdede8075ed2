"""Exception hierarchy shared by all lvmforge modules.

Every domain error is a subclass of :class:`LvmforgeError`; the CLI maps each
one to a stable ``ERROR <ClassName>: <detail>`` line and exit code 1.
"""


class LvmforgeError(Exception):
    """Base class for all domain errors raised by this package."""


# --- .lvm parsing / serialization ---------------------------------------

class MissingMagicLine(LvmforgeError):
    """First line of the file is not the .lvm magic line."""


class MissingHeaderTerminator(LvmforgeError):
    """A header block is not closed by an ***End_of_Header*** line."""


class MalformedNumber(LvmforgeError):
    """A numeric (or date/time) field could not be decoded.

    Carries the 1-based line number and 1-based field position.
    """

    def __init__(self, line: int, column: int, detail: str = ""):
        self.line = line
        self.column = column
        msg = f"line {line}, field {column}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ChannelCountMismatch(LvmforgeError):
    def __init__(self, expected: int, found: int, detail: str = ""):
        self.expected = expected
        self.found = found
        msg = f"expected {expected}, found {found}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class UnsupportedFeature(LvmforgeError):
    """A declared .lvm feature outside the supported set (e.g. X_Columns=Multi)."""


class IndexOutOfRange(LvmforgeError):
    pass


class InvariantViolation(LvmforgeError):
    """A document handed to the serializer breaks a type invariant."""


# --- equipment modeling ---------------------------------------------------

class EmptyName(LvmforgeError):
    pass


class DuplicateParameterName(LvmforgeError):
    pass


class MissingEnumDomain(LvmforgeError):
    pass


class UnknownUnit(LvmforgeError):
    pass


class InvalidChannelCount(LvmforgeError):
    pass


class TypeMismatch(LvmforgeError):
    def __init__(self, name: str, raw: str, detail: str = ""):
        self.name = name
        self.raw = raw
        msg = f"parameter {name!r} rejects {raw!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class MalformedDefinition(LvmforgeError):
    """An equipment definition file could not be parsed."""


# --- store ----------------------------------------------------------------

class StorageError(LvmforgeError):
    """Base class for persistence failures."""


class StorageUnavailable(StorageError):
    pass


class SchemaVersionMismatch(StorageError):
    pass


class DuplicateKey(StorageError):
    pass


class ForeignKeyViolation(StorageError):
    pass


class UnknownParameter(StorageError):
    pass


class NotFound(StorageError):
    pass


# --- dispatch: procedures and bindings, checked by the store ----------------

class DuplicateProcedure(DuplicateKey):
    pass


class UnknownHandler(LvmforgeError):
    pass


class DuplicateBinding(DuplicateKey):
    pass


class UnknownEquipment(LvmforgeError):
    pass


class UnknownProcedure(ForeignKeyViolation):
    pass


class ExtensionNotDeclared(LvmforgeError):
    pass


class NoBinding(LvmforgeError):
    def __init__(self, equipment: str, extension: str):
        self.equipment = equipment
        self.extension = extension
        super().__init__(f"no parsing procedure bound to ({equipment!r}, {extension!r})")


# --- analysis ---------------------------------------------------------------

class DenominatorZero(LvmforgeError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"reference temperature equals ambient reference at index {index}")


class LengthMismatch(LvmforgeError):
    pass


class InsufficientData(LvmforgeError):
    pass


class NoCrossing(LvmforgeError):
    pass


class DegenerateStep(LvmforgeError):
    pass


class InvalidParameters(LvmforgeError):
    pass


class GridMismatch(LvmforgeError):
    pass
