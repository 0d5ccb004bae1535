"""The bundled configurations, loaded for tests as decoded JSON or as systems.

Tests import these helpers (`from conftest import bundled, bundled_system`):
every ring system a test needs is a bundled configuration, or an edit of
its JSON, run through parse_config, as the commands build theirs.
"""

import json
from importlib import resources

from lossy_ring_sfwm.config import parse_config
from lossy_ring_sfwm.model import SystemSpec


def bundled(name: str = "ring_channel.json") -> dict:
    """A fresh decoded copy of a bundled configuration, free to edit."""
    return json.loads((resources.files("lossy_ring_sfwm") / "configs" / name).read_text())


def bundled_system(name: str = "ring_channel.json", couplings: dict | None = None,
                   **ring) -> SystemSpec:
    """The parsed system of a bundled configuration, with the `couplings`
    blocks, keyed by channel id, and the `ring` fields replaced."""
    doc, couplings = bundled(name), couplings or {}
    doc["system"]["ring"].update(ring)
    for channel in doc["system"]["channels"]:
        channel["coupling"] = couplings.get(channel["id"], channel["coupling"])
    return parse_config(doc).system
