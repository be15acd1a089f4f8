"""Config readers: any mutated JSON object gives a record or a ConfigError."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from avhgnn.config import ConfigError
from avhgnn.data import SynthSpec
from avhgnn.layers import ModelConfig
from avhgnn.training import TrainConfig

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)

READERS = [
    (TrainConfig, TrainConfig().to_dict()),   # nested rules -> EdgeRules -> EdgeRule
    (ModelConfig, ModelConfig(d_audio=5, d_video=7, n_audio=4, n_video=6,
                              num_classes=3).to_dict()),
    (SynthSpec, SynthSpec().to_dict()),
]


def _paths(d, prefix=()):
    """Key paths to every value of a nested dict, nested dicts included."""
    for key, value in d.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


@pytest.mark.parametrize("cls, base", READERS, ids=[cls.__name__ for cls, _ in READERS])
@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_mutated_object_gives_record_or_config_error(cls, base, data):
    d = copy.deepcopy(base)
    path = data.draw(st.sampled_from(list(_paths(base))))
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        parent[path[-1]] = data.draw(JSON_VALUES)
    else:
        parent[data.draw(st.text(max_size=8).filter(lambda k: k not in parent))] = \
            data.draw(JSON_VALUES)
    try:
        record = cls.from_dict(d)
    except ConfigError:
        return
    assert isinstance(record, cls)
