"""The value-class contract that frozen.Frozen gives every class built on it."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import lossy_ring_sfwm
from lossy_ring_sfwm.attenuation import RingField
from lossy_ring_sfwm.config import RunConfig, parse_config
from lossy_ring_sfwm.frozen import Frozen
from lossy_ring_sfwm.jsa import JsaGrid
from lossy_ring_sfwm.model import (Band, BandParams, ChannelCoupling, ChannelKind, CwPump,
                                   PulsedPump, RingSpec, SystemSpec)
from lossy_ring_sfwm.numerics import QuadratureResult
from lossy_ring_sfwm.sweeps import Column, SweepResult
from conftest import bundled

_CONFIG = parse_config(bundled())
_SYSTEM = _CONFIG.system
_GAMMAS = dict.fromkeys(Band, 1e9)

# (class, every field in order with a value, the fields with a default and
# that default, a change that fails a check and its message (or None),
# whether the fields are hashable)
CASES = [
    (BandParams, {"omega": 1.2e15, "v": 1e8, "m": 97}, {},
     ("v", 0.0, "group velocity must be positive, got 0.0"), True),
    (RingSpec, {"radius": 1e-5, "loss_db_per_cm": 2.6, "gamma_nl": 100.0,
                "delta_kappa": 0.0}, {"delta_kappa": 0.0},
     ("radius", -1, "ring radius must be positive, got -1"), True),
    (ChannelCoupling, {"channel_id": "O", "gammas": _GAMMAS,
                       "kind": ChannelKind.PHYSICAL}, {"kind": ChannelKind.PHYSICAL},
     ("channel_id", "", "channel id must be non-empty"), False),
    (CwPump, {"power": 1e-3, "detuning": 0.0}, {"detuning": 0.0},
     ("power", 0, "pump power must be positive, got 0"), True),
    (PulsedPump, {"duration_fwhm": 1e-11, "alpha": 1.0, "detuning": 0.0},
     {"alpha": 1.0, "detuning": 0.0},
     ("duration_fwhm", 0.0, "pulse duration must be positive, got 0.0"), True),
    (SystemSpec, {"ring": _SYSTEM.ring, "bands": _SYSTEM.bands, "channels": _SYSTEM.channels,
                  "pump_input_channel": _SYSTEM.pump_input_channel}, {},
     ("channels", (), "system needs at least one coupling channel"), False),
    (RunConfig, {"system": _CONFIG.system, "pump": _CONFIG.pump,
                 "strategy": _CONFIG.strategy, "options": _CONFIG.options,
                 "normalized": _CONFIG.normalized, "sources": _CONFIG.sources}, {}, None,
     False),
    (QuadratureResult, {"value": 1.5, "abs_error_estimate": 1e-9, "evaluations": 24}, {},
     None, True),
    (RingField, {"k_prop": 1.0 + 2.0j, "arc": 3e-5, "amps": (0.5j, 0.25 + 0j)}, {}, None,
     True),
    (SweepResult, {"axes": {"sigma": Column([0.9, 0.95])},
                   "values": {"rate_pairs_per_s": Column([1.0, 2.0])},
                   "metadata": {"argmax_sigma": 0.95}}, {}, None, False),
    (JsaGrid, {"kappa": np.linspace(-1.0, 1.0, 3), "reference_pair": ("O", "O"),
               "weights": {("O", "O"): 1.0}, "beta2": 1e-3, "normalization_residual": 0.0,
               "rows": np.zeros}, {}, None, False),
]


@pytest.mark.parametrize("cls, fields, defaults, invalid, hashable", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_class_contract(cls, fields, defaults, invalid, hashable):
    assert issubclass(cls, Frozen) and cls.__slots__ == tuple(fields)
    value = cls(*fields.values())
    # keyword construction, the defaulted fields left out, gives the same value
    required = {name: v for name, v in fields.items() if name not in defaults}
    assert cls(**required) == value
    assert {name: getattr(cls(**required), name) for name in defaults} == defaults
    assert [getattr(value, name) for name in fields] == list(fields.values())
    assert not hasattr(value, "__dict__")

    # equality and hash over (class, fields)
    twin = cls(**fields)
    assert twin == value and not twin != value
    assert value.__eq__(tuple(fields.values())) is NotImplemented
    if hashable:
        assert hash(twin) == hash(value)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)

    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, fields[name])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.undeclared = 1

    copy = value.replace()
    assert copy == value and copy is not value
    if invalid is not None:
        name, bad, message = invalid
        with pytest.raises(ValueError, match=re.escape(message)):
            value.replace(**{name: bad})
    with pytest.raises(TypeError):
        value.replace(undeclared=1)

    listed = ", ".join(f"{name}={v!r}" for name, v in fields.items())
    assert repr(value) == f"{cls.__name__}({listed})"


def test_replace_changes_only_the_copy():
    pump = CwPump(1e-3)
    assert pump.replace(detuning=2e9) == CwPump(1e-3, 2e9) and pump.detuning == 0.0


def test_equal_fields_of_two_classes_are_not_equal():
    assert QuadratureResult(1.0, 2.0, 3) != RingField(1.0, 2.0, 3)


def test_no_module_imports_dataclasses():
    # the import-time tests cannot see the package's own share where argparse
    # loads dataclasses itself; this holds on every Python version
    for path in sorted(Path(lossy_ring_sfwm.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imported = {alias.name for node in nodes if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
        assert not imported & {"dataclasses", "inspect"}, path.name
