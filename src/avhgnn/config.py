"""Config records: every field is type- and range-checked on construction.

TrainConfig, ModelConfig, SynthSpec, EdgeRule, Checkpoint and the dataset
manifest records derive from Record. Their int, float, str, list and choice
fields are checked from the field annotations in one method, and
Record.from_dict is the one reader that turns a malformed JSON object into
a ConfigError.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import sys
import typing
from numbers import Real


_type_hints = functools.cache(typing.get_type_hints)


class ConfigError(ValueError):
    """A config value is out of range or inconsistent with the dataset."""


class Record:
    """Base of the config dataclasses.

    An `int` field must be a non-bool integer >= its FLOORS entry (default
    0), a `float` field a finite non-bool real, a field named in CHOICES one
    of its values, and a `str` or `list` field of exactly that type.
    Subclasses with cross-field rules call super().__post_init__() before
    checking them.
    """

    FLOORS = {}
    CHOICES = {}

    def __post_init__(self):
        for name, kind in _type_hints(type(self)).items():
            value = getattr(self, name)
            floor = self.FLOORS.get(name, 0)
            if kind is int and type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if kind is int and value < floor:
                raise ConfigError(f"{name} must be >= {floor}, got {value!r}")
            # abs() <= float max is false for nan, inf and ints too large for a float
            if kind is float and (type(value) is bool or not isinstance(value, Real)
                                  or not abs(value) <= sys.float_info.max):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
            if name in self.CHOICES and value not in self.CHOICES[name]:
                raise ConfigError(f"{name} must be one of {self.CHOICES[name]}, got {value!r}")
            if kind in (str, list) and type(value) is not kind:
                raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Build from a JSON object, nested records included; bad input is a ConfigError."""
        what = " ".join(re.findall("[A-Z][a-z]*", cls.__name__)).lower()
        try:
            return _build(cls, d, what)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {what}: {exc}") from exc


def _build(cls, d, what: str):
    if not isinstance(d, dict):
        raise TypeError(f"{what} must be a JSON object, got {type(d).__name__}")
    hints = _type_hints(cls)
    return cls(**{k: _build(hints[k], v, k) if dataclasses.is_dataclass(hints.get(k)) else v
                  for k, v in d.items()})
