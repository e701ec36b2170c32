"""The JSON type rule of every data file: `has_type` and `check_record`."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oikg.artifacts import check_record, has_type
from oikg.cli import GEN_KEYS
from oikg.errors import SchemaError
from oikg.navgraph import NODE_KEYS, graph_from_dict
from oikg.synthenv import EPISODE_KEYS, episode_from_dict

# a strategy per JSON type; "huge int" is an int too large for a float
JSON_TYPES = {
    "bool": st.booleans(),
    "int": st.integers(-2 ** 64, 2 ** 64),
    "float": st.floats(),
    "str": st.text(max_size=6),
    "list": st.lists(st.integers(0, 5), max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
    "null": st.none(),
    "huge int": st.integers(2 ** 1024, 2 ** 1100) | st.integers(-2 ** 1100, -2 ** 1024),
}
# the JSON types that fit a field of each type
FITS = {bool: {"bool"}, int: {"int", "huge int"}, float: {"int", "float"},
        str: {"str"}}


def other_type(kind):
    """A value of a JSON type that does not fit `kind`; for a list field,
    also a list holding one element of a type that does not fit."""
    fits = {"list"} if isinstance(kind, list) else FITS[kind]
    wrong = st.one_of([s for name, s in JSON_TYPES.items() if name not in fits])
    if isinstance(kind, list):
        wrong = wrong | other_type(kind[0]).map(lambda v: [v])
    return wrong


def load_node(record):
    graph_from_dict({"nodes": [record], "edges": []})


# each schema table: a record that fits it, and the reader that checks it
SCHEMAS = {
    "config": (GEN_KEYS, {"feature_dim": 10, "sigma": 0.1, "mode": "shortest",
                          "latent_seed_seen": 1, "latent_seed_unseen": 2},
               lambda record: check_record(record, GEN_KEYS, "config.json")),
    "node": (NODE_KEYS, {"id": 4, "pos": [0.5, 1, 2.0], "room": 3,
                         "objects": [0, 7]}, load_node),
    "episode": (EPISODE_KEYS, {"gt_path": [0, 1], "tokens": [1, 3, 2]},
                episode_from_dict),
}


def test_has_type_rule():
    assert has_type(True, bool) and not has_type(1, bool) and not has_type(0, bool)
    assert not has_type(True, int) and not has_type(False, float)
    assert has_type(10 ** 400, int) and not has_type(10 ** 400, float)
    assert has_type(int(sys.float_info.max), float)
    assert not has_type(2.0, int) and not has_type("1", int)
    assert has_type([], [int]) and has_type([1, 2], [int])
    assert not has_type([1, True], [int]) and not has_type((1, 2), [int])
    assert has_type([1, 2.5], [float]) and not has_type([[1]], [int])


def test_check_record_names_where_and_the_first_bad_key():
    with pytest.raises(SchemaError, match=r"^f\.json: expected a JSON object$"):
        check_record([], GEN_KEYS, "f.json")
    with pytest.raises(SchemaError, match=r"^f\.json: missing key 'sigma'$"):
        check_record({"feature_dim": 10}, GEN_KEYS, "f.json")
    with pytest.raises(SchemaError, match=r"^f\.json: key 'feature_dim' has a value"):
        check_record({"feature_dim": "10", "sigma": "x"}, GEN_KEYS, "f.json")


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_every_schema_record_example_loads(schema):
    _, record, read = SCHEMAS[schema]
    read(dict(record))


@pytest.mark.parametrize("schema, key", [(schema, key) for schema in sorted(SCHEMAS)
                                         for key in SCHEMAS[schema][0]])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_value_of_another_json_type_is_a_schema_error(schema, key, data):
    """For every key of each schema table, a value of any other JSON type
    raises SchemaError and nothing else."""
    keys, record, read = SCHEMAS[schema]
    bad = dict(record)
    bad[key] = data.draw(other_type(keys[key]))
    with pytest.raises(SchemaError, match=repr(key)):
        read(bad)
