"""Run configuration: JSON ingestion, validation, and normalization.

Boundary units are declarative (wavelengths in nm, loss in dB/cm, power
in mW, durations in ps, lengths in m); everything behind parse_config is
SI. Channel couplings may be given in any one representation (sigma,
Gamma, Q, eta, or from_loss for the phantom); they are normalized to
decay rates internally and echoed back as derived quantities.

parse_config is the only constructor of a SystemSpec from physical
parameters; model.py holds the conversions it applies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

try:  # CPython's own SHA-256, the one hashlib falls back on; hashlib loads OpenSSL
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256

from .constants import C_VACUUM
from .model import (Band, BandParams, ChannelCoupling, ChannelKind, CwPump,
                    PulsedPump, RingSpec, SystemSpec, band_from_wavelength,
                    finesse, gamma_from_sigma, phantom_gamma_from_xi)

_BAND_KEYS = {"pump": Band.PUMP, "signal": Band.SIGNAL, "idler": Band.IDLER}
_COUPLING_KEYS = ("sigma", "gamma_rad_per_s", "q_factor", "eta", "from_loss")


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(d: Mapping, key: str, path: str) -> Any:
    if key not in d:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return d[key]


def _number(d: Mapping, key: str, path: str, *, default=None,
            minimum=None, positive=False, integer=False, unit=1.0) -> float:
    """A finite number from d[key] (or the default), as an int when integer,
    else times `unit` into SI, where a positive number must stay positive."""
    if key not in d:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return int(default) if integer else float(default) * unit
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:  # an integer literal beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{path}.{key}", f"must be finite, got {v}")
    if positive and v <= 0:
        raise ConfigError(f"{path}.{key}", f"must be positive, got {v}")
    if positive and v * unit == 0.0:
        raise ConfigError(f"{path}.{key}", f"underflows to 0 in SI units, got {v}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {v}")
    if integer and not v.is_integer():
        raise ConfigError(f"{path}.{key}", f"must be an integer, got {v}")
    return int(v) if integer else v * unit


def _check_keys(d: Mapping, allowed: set[str], path: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}",
                          f"unknown field; expected one of {sorted(allowed)}")


@dataclass(frozen=True)
class RunConfig:
    system: SystemSpec
    pump: CwPump | PulsedPump
    strategy: str  # attenuation | phantom | both
    options: Mapping[str, Any]  # per-command blocks, normalized
    normalized: Mapping[str, Any]  # canonical dict for hashing / round-trips

    @property
    def config_hash(self) -> str:
        """SHA-256 of the canonical JSON, the same digest as hashlib.sha256.

        The built-in hash spares every command the 3.5 MB of OpenSSL that
        importing hashlib loads to hash about 1 KB."""
        blob = json.dumps(self.normalized, sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode()).hexdigest()


_BAND_BLOCK_KEYS = {"wavelength_nm", "effective_index", "group_velocity_m_per_s", "group_index"}


def _parse_band_block(block: Mapping, path: str, shared: Mapping, shared_path: str):
    """A band's own block, over the keys of the shared one; an error names
    the block its key came from."""
    _check_keys(block, _BAND_BLOCK_KEYS, path)
    base = {**shared, **block}

    def owner(*keys: str) -> str:
        return shared_path if not block.keys() & set(keys) and shared.keys() & set(keys) \
            else path

    wavelength = _number(base, "wavelength_nm", owner("wavelength_nm"), positive=True,
                         unit=1e-9)
    n_eff = _number(base, "effective_index", owner("effective_index"), positive=True)
    if "group_velocity_m_per_s" in base and "group_index" in base:
        raise ConfigError(owner("group_velocity_m_per_s", "group_index"),
                          "give either group_velocity_m_per_s or group_index")
    if "group_index" in base:
        v = C_VACUUM / _number(base, "group_index", owner("group_index"), positive=True)
    else:
        v = _number(base, "group_velocity_m_per_s", owner("group_velocity_m_per_s"),
                    positive=True)
    return wavelength, v, n_eff


def _parse_bands(block: Mapping, ring: RingSpec, path: str) -> dict[Band, BandParams]:
    if not isinstance(block, Mapping):
        raise ConfigError(path, "expected an object")
    _check_keys(block, _BAND_BLOCK_KEYS | set(_BAND_KEYS), path)
    shared_keys = {k: v for k, v in block.items() if k not in _BAND_KEYS}
    bands: dict[Band, BandParams] = {}
    for name, band in _BAND_KEYS.items():
        sub = block.get(name, {})
        if not isinstance(sub, Mapping):
            raise ConfigError(f"{path}.{name}", "expected an object")
        wavelength, v, n_eff = _parse_band_block(sub, f"{path}.{name}", shared_keys, path)
        try:
            bands[band] = band_from_wavelength(wavelength, v, n_eff, ring.circumference)
        except ValueError as e:  # no resonance order m >= 1 fits the ring
            owner = f"{path}.{name}" if "effective_index" in sub else path
            raise ConfigError(f"{owner}.effective_index", str(e)) from e
    return bands


def _parse_channels(entries, ring: RingSpec, bands: Mapping[Band, BandParams],
                    path: str) -> tuple[ChannelCoupling, ...]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError(path, "expected a non-empty list of channels")
    parsed = []
    for i, entry in enumerate(entries):
        epath = f"{path}[{i}]"
        if not isinstance(entry, Mapping):
            raise ConfigError(epath, "expected an object")
        _check_keys(entry, {"id", "kind", "coupling"}, epath)
        cid = _require(entry, "id", epath)
        if not isinstance(cid, str) or not cid:
            raise ConfigError(f"{epath}.id", "expected a non-empty string")
        kind_str = entry.get("kind", "physical")
        try:
            kind = ChannelKind(kind_str)
        except ValueError:
            raise ConfigError(f"{epath}.kind",
                              f"expected 'physical' or 'phantom', got {kind_str!r}")
        coupling = _require(entry, "coupling", epath)
        if not isinstance(coupling, Mapping):
            raise ConfigError(f"{epath}.coupling", "expected an object")
        _check_keys(coupling, set(_COUPLING_KEYS), f"{epath}.coupling")
        given = [k for k in _COUPLING_KEYS if k in coupling]
        if len(given) == 0:
            raise ConfigError(f"{epath}.coupling",
                              f"give one of {list(_COUPLING_KEYS)}")
        if len(given) > 1:
            raise ConfigError(f"{epath}.coupling",
                              f"over-specified coupling: got {given}, give exactly one")
        parsed.append((cid, kind, given[0], coupling, epath))

    # absolute representations first, escape efficiencies afterwards
    gammas: dict[str, dict[Band, float]] = {}
    eta_requests = []
    for cid, kind, rep, coupling, epath in parsed:
        base = f"{epath}.coupling"
        cpath = f"{base}.{rep}"
        if rep == "sigma":
            sigma = _number(coupling, rep, base, positive=True)
            if sigma > 1.0:
                raise ConfigError(cpath, f"must be <= 1, got {sigma}")
            gammas[cid] = {b: gamma_from_sigma(sigma, bands[b].v, ring.circumference)
                           for b in Band}
        elif rep == "gamma_rad_per_s":
            gamma = _number(coupling, rep, base, minimum=0.0)
            gammas[cid] = {b: gamma for b in Band}
        elif rep == "q_factor":
            q = _number(coupling, rep, base, positive=True)
            gammas[cid] = {b: bands[b].omega / (2.0 * q) for b in Band}
        elif rep == "from_loss":
            if coupling[rep] is not True:
                raise ConfigError(cpath, "from_loss must be true when present")
            if kind is not ChannelKind.PHANTOM:
                raise ConfigError(cpath, "from_loss is reserved for the phantom channel")
            gammas[cid] = {b: phantom_gamma_from_xi(ring.xi, bands[b].v) for b in Band}
        else:  # eta
            eta = _number(coupling, rep, base, positive=True)
            if eta >= 1.0:
                raise ConfigError(cpath, f"must be < 1, got {eta}")
            eta_requests.append((cid, eta))

    if eta_requests:
        eta_sum = sum(e for _, e in eta_requests)
        if eta_sum >= 1.0:
            raise ConfigError(path, f"escape efficiencies sum to {eta_sum}, need < 1")
        if not gammas:
            raise ConfigError(path, "at least one channel needs an absolute coupling "
                                    "(sigma, gamma, Q, or from_loss) to anchor eta values")
        anchored = list(gammas.values())
        for b in Band:
            gbar = sum(g[b] for g in anchored) / (1.0 - eta_sum)
            for cid, eta in eta_requests:
                gammas.setdefault(cid, {})[b] = eta * gbar

    return tuple(ChannelCoupling(cid, gammas[cid], kind)
                 for cid, kind, _, _, _ in parsed)


def _parse_pump(block: Mapping, path: str, omega_p: float) -> CwPump | PulsedPump:
    if not isinstance(block, Mapping):
        raise ConfigError(path, "expected an object")
    kind = block.get("kind", "cw")
    if kind not in ("cw", "pulsed"):
        raise ConfigError(f"{path}.kind", f"expected 'cw' or 'pulsed', got {kind!r}")
    own = {"power_mw"} if kind == "cw" else {"duration_fwhm_ps", "alpha"}
    _check_keys(block, own | {"kind", "detuning_rad_per_s"}, path)
    detuning = _number(block, "detuning_rad_per_s", path, default=0.0)
    if abs(detuning) >= omega_p:  # the carrier omega_P + detuning must lie in (0, 2 omega_P)
        raise ConfigError(f"{path}.detuning_rad_per_s", "must be smaller in magnitude than "
                          f"the pump band's omega_P = {omega_p} rad/s; got {detuning}")
    if kind == "cw":
        return CwPump(power=_number(block, "power_mw", path, positive=True, unit=1e-3),
                      detuning=detuning)
    return PulsedPump(
        duration_fwhm=_number(block, "duration_fwhm_ps", path, positive=True, unit=1e-12),
        alpha=_number(block, "alpha", path, default=1.0, positive=True), detuning=detuning)


def parse_config(source: str | Mapping) -> RunConfig:
    """Parse a JSON document (text or already-decoded mapping)."""
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as e:
            raise ConfigError("$", f"invalid JSON: {e}") from e
    else:
        doc = source
    if not isinstance(doc, Mapping):
        raise ConfigError("$", "top level must be an object")
    _check_keys(doc, {"system", "pump", "strategy", "options"}, "$")

    sys_block = _require(doc, "system", "$")
    if not isinstance(sys_block, Mapping):
        raise ConfigError("system", "expected an object")
    _check_keys(sys_block, {"ring", "bands", "channels", "pump_input_channel"}, "system")

    ring_block = _require(sys_block, "ring", "system")
    _check_keys(ring_block, {"radius_m", "loss_db_per_cm", "gamma_nl_per_w_m",
                             "delta_kappa_per_m"}, "system.ring")
    ring = RingSpec(
        radius=_number(ring_block, "radius_m", "system.ring", positive=True),
        loss_db_per_cm=_number(ring_block, "loss_db_per_cm", "system.ring", minimum=0.0),
        gamma_nl=_number(ring_block, "gamma_nl_per_w_m", "system.ring", positive=True),
        delta_kappa=_number(ring_block, "delta_kappa_per_m", "system.ring", default=0.0),
    )
    if math.isinf(ring.circumference):
        raise ConfigError("system.ring.radius_m", f"2 pi r overflows, got {ring.radius}")
    bands = _parse_bands(_require(sys_block, "bands", "system"), ring, "system.bands")
    channels = _parse_channels(_require(sys_block, "channels", "system"), ring, bands,
                               "system.channels")
    pump_in = _require(sys_block, "pump_input_channel", "system")
    try:
        system = SystemSpec(ring=ring, bands=bands, channels=channels,
                            pump_input_channel=pump_in)
    except (ValueError, KeyError) as e:
        raise ConfigError("system", str(e)) from e
    if system.channel(pump_in).gamma(Band.PUMP) == 0.0:  # no pump reaches the ring
        raise ConfigError("system.pump_input_channel", f"{pump_in!r} has no pump-band coupling")

    pump = _parse_pump(doc.get("pump", {"kind": "cw", "power_mw": 1.0}), "pump",
                       bands[Band.PUMP].omega)
    strategy = doc.get("strategy", "both")
    if strategy not in ("attenuation", "phantom", "both"):
        raise ConfigError("strategy",
                          f"expected attenuation, phantom, or both, got {strategy!r}")
    options = doc.get("options", {})
    if not isinstance(options, Mapping):
        raise ConfigError("options", "expected an object")
    for name, block in options.items():  # one block per command
        if not isinstance(block, Mapping):
            raise ConfigError(f"options.{name}", "expected an object")

    normalized = _normalize(doc)
    return RunConfig(system=system, pump=pump, strategy=strategy,
                     options=options, normalized=normalized)


def _normalize(doc: Mapping) -> dict:
    """Canonical plain-dict form of the configuration document."""
    return json.loads(json.dumps(doc, sort_keys=True))


def derived_echo(config: RunConfig) -> dict:
    """Derived quantities echoed into run metadata."""
    system = config.system
    ring = system.ring
    pump_band = system.bands[Band.PUMP]
    echo: dict[str, Any] = {
        "xi_per_m": ring.xi,
        "roundtrip_amplitude": ring.roundtrip_amplitude,
        "q_intrinsic": (pump_band.omega / (ring.xi * pump_band.v)
                        if ring.xi > 0 else math.inf),
        "finesse": finesse(system),
    }
    for name, band in _BAND_KEYS.items():
        echo[f"q_load_{name}"] = system.bands[band].omega / (2.0 * system.gamma_bar(band))
        echo[f"gamma_bar_{name}_rad_per_s"] = system.gamma_bar(band)
    for c in system.channels:
        echo[f"eta_{c.channel_id}"] = system.escape_efficiency(c.channel_id, Band.PUMP)
        echo[f"gamma_{c.channel_id}_rad_per_s"] = c.gamma(Band.PUMP)
        try:
            echo[f"sigma_{c.channel_id}"] = system.sigma_view(c.channel_id, Band.PUMP)
        except ValueError:
            pass  # outside the point-coupling regime; no sigma view
    # every value is a float; JSON has no inf, so a lossless ring's Q reads "inf"
    return {k: v if math.isfinite(v) else repr(v) for k, v in echo.items()}
