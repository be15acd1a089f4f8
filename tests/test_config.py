"""Config and manifest readers: any mutated JSON object gives a record or
the reader's own error."""

import copy
import sys

import pytest
from hypothesis import given, settings, strategies as st

from avhgnn.config import ConfigError
from avhgnn.data import (DataFormatError, DatasetError, DatasetManifest, ManifestItem,
                         SynthSpec)
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


MANIFEST = DatasetManifest(num_classes=2, class_names=["a", "b"],
                           items=[ManifestItem("x", "x.hgav", [0, 1]),
                                  ManifestItem("y", "y.hgav", [1])]).to_dict()


def _paths(d, prefix=()):
    """Key paths to every value of a nested dict, nested dicts and the first
    of a list of dicts included."""
    for key, value in d.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))
        if isinstance(value, list) and value and isinstance(value[0], dict):
            yield from _paths(value[0], prefix + (key, 0))


def _mutated(base, data):
    """`base` with one value replaced by an arbitrary JSON value, or one
    unknown key added beside it."""
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
    return d


@pytest.mark.parametrize("cls, base", READERS, ids=[cls.__name__ for cls, _ in READERS])
@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_mutated_object_gives_record_or_config_error(cls, base, data):
    try:
        record = cls.from_dict(_mutated(base, data))
    except ConfigError:
        return
    assert isinstance(record, cls)


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_mutated_manifest_gives_manifest_or_data_error(data):
    try:
        manifest = DatasetManifest.from_dict(_mutated(MANIFEST, data))
    except (DataFormatError, DatasetError):
        return
    assert isinstance(manifest, DatasetManifest)
    assert all(isinstance(it, ManifestItem) for it in manifest.items)


def test_the_largest_finite_float_is_a_finite_number():
    """A float field takes every finite value, the largest one included."""
    assert TrainConfig(gamma=sys.float_info.max).gamma == sys.float_info.max
