"""The protocol op table: coverage generated from it, not hand-listed.

Every op and every request field the table declares gets a wrong-typed
probe; the server must answer each with a typed ``invalid <op> request``
error naming the field and leave the repository untouched.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import MLCask
from repro.remote import RepositoryServer, decode_message, encode_message
from repro.remote.protocol import (
    BOOL,
    DICT,
    DICT_LIST,
    OPS,
    OPT_POS_INT,
    OPT_STR,
    STR_LIST,
)

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
_NOT_A_LIST = st.one_of(
    _SCALARS, st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
)

#: Values each field kind must reject. ``True`` is deliberately among the
#: rejected integers: a bool is never an int on the wire.
WRONG_VALUES = {
    STR_LIST: st.one_of(
        _NOT_A_LIST,
        st.lists(_SCALARS.filter(lambda v: not isinstance(v, str)), min_size=1, max_size=3),
    ),
    DICT_LIST: st.one_of(_NOT_A_LIST, st.lists(_SCALARS, min_size=1, max_size=3)),
    DICT: st.one_of(_SCALARS, st.lists(st.integers(), max_size=2)),
    OPT_STR: st.one_of(
        st.booleans(), st.integers(), st.lists(st.text(max_size=2), max_size=2)
    ),
    OPT_POS_INT: st.one_of(
        st.booleans(),
        st.integers(max_value=0),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=3),
    ),
    BOOL: st.one_of(st.none(), st.integers(), st.text(max_size=3)),
}

FIELDS = [
    (op, name, kind) for op, spec in OPS.items() for name, kind in spec.fields.items()
]


@pytest.fixture(scope="module")
def server():
    return RepositoryServer(MLCask(metric="accuracy", seed=0))


def answer(server, meta, blobs=None):
    response, _ = decode_message(server.handle_bytes(encode_message(meta, blobs)))
    return response


def test_every_table_op_has_a_handler_and_no_handler_lacks_an_op():
    handled = {
        name[len("_op_"):] for name in dir(RepositoryServer) if name.startswith("_op_")
    }
    assert handled == set(OPS)


def test_every_kind_has_wrong_values():
    assert {kind for _, _, kind in FIELDS} <= set(WRONG_VALUES)


@pytest.mark.parametrize(
    "op,name,kind", FIELDS, ids=[f"{op}.{name}" for op, name, _ in FIELDS]
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_wrong_typed_field_is_rejected_typed_and_touches_nothing(
    server, op, name, kind, data
):
    value = data.draw(WRONG_VALUES[kind], label=name)
    before = server._state_token()
    error = answer(server, {"op": op, name: value})["error"]
    assert error["type"] == "RemoteProtocolError"
    assert error["message"] == f"invalid {op} request: '{name}' must be {kind.expected}"
    assert server._state_token() == before


@pytest.mark.parametrize(
    "op,meta,message",
    [
        (
            "push",
            {"commits": [{"commit_id": "c", "sequence": True}]},
            "every commit needs an integer 'sequence'",
        ),
        (
            "push",
            {"recipes": [{"blob": "b", "chunks": [], "size": True}]},
            "every recipe needs",
        ),
        ("trace", {"limit": True}, "'limit' must be a positive integer"),
    ],
)
def test_bool_is_never_an_int(server, op, meta, message):
    before = server._state_token()
    error = answer(server, {"op": op, **meta})["error"]
    assert error["message"].startswith(f"invalid {op} request: {message}")
    assert server._state_token() == before
