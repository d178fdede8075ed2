import pathlib

import pytest
from hypothesis import strategies as st

from lvmforge import (
    ConceptCategory,
    EquipmentModel,
    ParameterDefinition,
    ParameterSource,
    ValueType,
    builtin_sytherm,
    init_schema,
    parse_lvm,
)
from lvmforge.errors import LvmforgeError
from lvmforge.model import DEFAULT_UNITS

DATA_DIR = pathlib.Path(__file__).parent / "data"
ANNEX1_PATH = DATA_DIR / "annex1.lvm"


@pytest.fixture(scope="session")
def annex1_bytes() -> bytes:
    return ANNEX1_PATH.read_bytes()


@pytest.fixture()
def annex1_doc(annex1_bytes):
    return parse_lvm(annex1_bytes)


@pytest.fixture()
def sytherm3():
    return builtin_sytherm(3)


@pytest.fixture()
def store(tmp_path):
    handle = init_schema(tmp_path / "store.db")
    yield handle
    handle.close()


# text weighted towards the characters that the store's encodings (space-
# and comma-separated lists) and the definition-file format (one field per
# line, stripped, '|'-separated) treat specially
_HOSTILE = st.text(st.sampled_from(" \t\n\r\x0b\x85\u2028.,|:#()Aaé") | st.characters(),
                   max_size=5)


@st.composite
def _parameters(draw):
    value_type = draw(st.just(ValueType.ENUMERATION) | st.sampled_from(ValueType))
    try:
        return ParameterDefinition(
            draw(_HOSTILE), draw(st.sampled_from(ConceptCategory)), value_type,
            unit=draw(st.none() | st.sampled_from(sorted(DEFAULT_UNITS))),
            source=draw(st.sampled_from(ParameterSource)),
            enum_domain=tuple(draw(st.lists(_HOSTILE, min_size=1, max_size=3)))
            if value_type is ValueType.ENUMERATION else ())
    except LvmforgeError:
        return None


def _constructs(**fields) -> bool:
    try:
        EquipmentModel(**{"name": "E", **fields})
    except LvmforgeError:
        return False
    return True


@st.composite
def equipment_models(draw):
    """Every EquipmentModel that constructs from hostile text: each drawn
    text, parameter, extension and ignored key that a model refuses is left
    out, so its field keeps the default."""
    parameters = {p.name: p for p in draw(st.lists(_parameters(), max_size=4))
                  if p and _constructs(parameters=(p,))}
    words = {field: frozenset(w for w in draw(st.lists(_HOSTILE, max_size=3))
                              if _constructs(**{field: {w}}))
             for field in ("extensions", "ignored_file_keys")}
    texts = {field: draw(strategy) for field, strategy in (
        ("producer", _HOSTILE), ("description", _HOSTILE), ("webpage", st.none() | _HOSTILE),
        ("picture", st.none() | _HOSTILE), ("visual_model", st.none() | _HOSTILE))}
    return EquipmentModel(
        draw(_HOSTILE.filter(lambda name: _constructs(name=name))),
        parameters=tuple(parameters.values()), **words,
        **{field: text for field, text in texts.items() if _constructs(**{field: text})})
