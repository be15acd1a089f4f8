"""Byte-level fuzz of the two binary readers.

The committed fixture's container (`read_container`) and checkpoint
(`load_checkpoint`, then `build_model` and `build_optimizer`) are cut short,
have one bit flipped, or have one header field set to a huge, negative or
wrongly typed value. Each read must succeed or raise DataFormatError or
ConfigError: any other exception is a reader defect. A flipped payload bit
may load, since no block carries a checksum.
"""

import json
import struct
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from avhgnn.config import ConfigError
from avhgnn.data import DataFormatError, read_container
from avhgnn.training import load_checkpoint

FIXTURE = Path(__file__).parent / "data" / "checkpoint_v1"  # see test_checkpoint_fixture.py
CHECKPOINT = (FIXTURE / "checkpoint.hgck").read_bytes()
CONTAINER = (FIXTURE / "synth-0000.hgav").read_bytes()  # written by gen-synth
HEADER_LEN = struct.unpack("<I", CHECKPOINT[8:12])[0]
HEADER = json.loads(CHECKPOINT[12:12 + HEADER_LEN])

FIELD_VALUES = st.one_of(
    st.sampled_from([2**64, 10**30, 2**31, -1, -2**63, 0, 1e308, -1.5, float("nan"),
                     "x", None, True, [], {}, [1, 2]]),
    st.integers(), st.floats(), st.text(max_size=4))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _truncated(blob):
    return st.integers(0, len(blob) - 1).map(lambda n: blob[:n])


def _bit_flipped(blob):
    def flip(bit):
        out = bytearray(blob)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)

    return st.integers(0, 8 * len(blob) - 1).map(flip)


def _leaf_paths(node, path=()):
    """Every path of keys and indices into `node`, to nested values and leaves alike."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    yield path
    for key, child in children:
        yield from _leaf_paths(child, path + (key,))


def _with_header_field(path, value):
    """CHECKPOINT with the header value at `path` set to `value`."""
    header = json.loads(json.dumps(HEADER))
    *parents, last = path
    node = header
    for key in parents:
        node = node[key]
    node[last] = value
    text = json.dumps(header).encode()
    return (CHECKPOINT[:8] + struct.pack("<I", len(text)) + text
            + CHECKPOINT[12 + HEADER_LEN:])


HEADER_FIELD = st.builds(_with_header_field,
                         st.sampled_from([p for p in _leaf_paths(HEADER) if p]), FIELD_VALUES)


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(_truncated(CHECKPOINT), _bit_flipped(CHECKPOINT), HEADER_FIELD))
@example(blob=_with_header_field(("rng_state", "state", "state"), -1))  # an OverflowError
@example(blob=_with_header_field(("model_config", "d_audio"), 2**64))  # too big for a shape
def test_a_mutated_checkpoint_loads_or_raises_a_config_error(scratch, blob):
    path = scratch / "mutated.hgck"
    path.write_bytes(blob)
    try:
        ckpt = load_checkpoint(path)
        ckpt.build_optimizer(ckpt.build_model())
    except (ConfigError, DataFormatError):
        pass


def _with_container_field(slot, value):
    """CONTAINER with header field `slot` (version, n_audio, d_audio, n_video,
    d_video) set to the uint32 `value`; 2**31 and up reads as negative in C."""
    return CONTAINER[:4 + 4 * slot] + struct.pack("<I", value) + CONTAINER[8 + 4 * slot:]


CONTAINER_FIELD = st.builds(
    _with_container_field, st.integers(0, 4),
    st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(_truncated(CONTAINER), _bit_flipped(CONTAINER), CONTAINER_FIELD))
def test_a_mutated_container_reads_or_raises_a_data_format_error(scratch, blob):
    path = scratch / "mutated.hgav"
    path.write_bytes(blob)
    try:
        read_container(path)
    except (ConfigError, DataFormatError):
        pass
