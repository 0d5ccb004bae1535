"""Configuration ingestion and the command-line interface."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lossy_ring_sfwm
from lossy_ring_sfwm import cli, jsa, phantom, sweeps
from lossy_ring_sfwm.cli import main
from lossy_ring_sfwm.config import ConfigError, derived_echo, parse_config
from lossy_ring_sfwm.model import Band, PulsedPump
from lossy_ring_sfwm.numerics import QuadratureError
from conftest import bundled


def _hashlib_sha256(normalized) -> str:
    """hashlib's SHA-256 of a config's canonical JSON, an oracle for config_hash."""
    blob = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def eta_config(eta=0.6, pump=None) -> dict:
    """ring_channel.json with the bus at escape efficiency eta, under strategy 2."""
    doc = bundled()
    doc["system"]["channels"][0]["coupling"] = {"eta": eta}
    doc["pump"] = pump or doc["pump"]
    doc["strategy"] = "phantom"
    return doc


_DROP = object()  # a _CONFIG_ERRORS value that deletes its key

# (keys into bundled(), the value set there, the ConfigError's path, a part
# of its message): one row per check of config.py that the rest of the
# suite reaches by no other input
_CONFIG_ERRORS = [
    (("system", "ring"), _DROP, "system.ring", "missing required field"),
    (("system", "ring"), 5, "system.ring", "expected an object"),
    (("system", "ring"), [], "system.ring", "expected an object"),
    (("system", "ring", "radius_m"), _DROP, "system.ring.radius_m", "missing required field"),
    # a band key is named under the block it came from: the shared one, or
    # the band's own, which overrides it
    (("system", "bands", "group_index"), 3.0, "system.bands",
     "either group_velocity_m_per_s or group_index"),
    (("system", "bands", "pump"), {"group_index": 3.0}, "system.bands.pump",
     "either group_velocity_m_per_s or group_index"),
    (("system", "bands", "signal"), 5, "system.bands.signal", "expected an object"),
    (("system", "bands"), [], "system.bands", "expected an object"),
    (("system", "bands", "wavelength"), 1550.0, "system.bands.wavelength", "unknown field"),
    (("system", "channels", 1), "P", "system.channels[1]", "expected an object"),
    (("system", "channels", 0, "id"), 7, "system.channels[0].id", "non-empty string"),
    (("system", "channels", 1, "kind"), "ghost", "system.channels[1].kind",
     "expected 'physical' or 'phantom'"),
    (("system", "channels", 0, "coupling"), 0.9814, "system.channels[0].coupling",
     "expected an object"),
    (("system", "channels", 1, "coupling", "from_loss"), False,
     "system.channels[1].coupling.from_loss", "from_loss must be true"),
    (("system", "channels", 0, "coupling"), {"from_loss": True},
     "system.channels[0].coupling.from_loss", "reserved for the phantom channel"),
    (("system", "channels", 0, "coupling"), {"eta": 1.0}, "system.channels[0].coupling.eta",
     "must be < 1"),
    (("system", "channels"), [{"id": "O", "coupling": {"eta": 0.6}},
                              {"id": "P", "kind": "phantom", "coupling": {"eta": 0.6}}],
     "system.channels", "escape efficiencies sum to 1.2"),
    (("system", "channels"), [{"id": "O", "coupling": {"sigma": 0.9814}},
                              {"id": "P", "kind": "phantom", "coupling": {"from_loss": True}},
                              {"id": "Q", "kind": "phantom", "coupling": {"from_loss": True}}],
     "system", "at most one phantom channel"),
    # the pump input channel is named, with no KeyError's quotes around the message
    (("system", "pump_input_channel"), "X", "system.pump_input_channel",
     "unknown channel id 'X'$"),
    (("system", "pump_input_channel"), 5, "system.pump_input_channel",
     "unknown channel id 5$"),
    (("system", "pump_input_channel"), "P", "system.pump_input_channel",
     "pump input channel 'P' must be a physical channel"),
    (("system", "ring", "radius_m"), 1e308, "system.ring.radius_m", "2 pi r overflows"),
    (("system", "ring", "radius_m"), 1e303, "system.ring.radius_m",
     "resonance order n_eff L / wavelength overflows"),
    (("system", "bands", "effective_index"), 1e308, "system.bands.effective_index",
     "resonance order n_eff L / wavelength overflows"),
    (("system", "bands", "wavelength_nm"), 5e-324, "system.bands.wavelength_nm",
     "underflows to 0 in SI units"),
    (("system", "bands", "wavelength_nm"), 1e-300, "system.bands.wavelength_nm",
     "the band frequency 2 pi c / wavelength overflows"),
    (("system", "bands", "idler"), {"wavelength_nm": 5e-324},
     "system.bands.idler.wavelength_nm", "underflows to 0 in SI units"),
    (("pump", "power_mw"), 5e-324, "pump.power_mw", "underflows to 0 in SI units"),
    (("pump",), {"kind": "pulsed", "duration_fwhm_ps": 5e-324}, "pump.duration_fwhm_ps",
     "underflows to 0 in SI units"),
    (("pump",), 3, "pump", "expected an object"),
    (("pump", "kind"), "laser", "pump.kind", "expected 'cw' or 'pulsed'"),
    ((), ["system"], "$", "top level must be an object"),
    (("system",), [], "system", "expected an object"),
    (("strategy",), "neither", "strategy", "expected attenuation, phantom, or both"),
    (("options",), [], "options", "expected an object"),
]


_SHARED_BAND = {"wavelength_nm": 1550.0, "effective_index": 2.4}


class TestParseConfig:
    def test_bundled_reference_echo(self):
        cfg = parse_config(bundled())
        echo = derived_echo(cfg)
        assert echo["roundtrip_amplitude"] == pytest.approx(0.9814, rel=1e-3)
        assert echo["q_intrinsic"] == pytest.approx(2.0e4, rel=0.03)
        assert echo["q_load_pump"] == pytest.approx(1.0e4, rel=0.03)
        assert echo["eta_O"] == pytest.approx(0.5, abs=0.01)
        assert echo["finesse"] == pytest.approx(84.0, rel=1e-3)

    def test_round_trip(self):
        cfg = parse_config(bundled())
        again = parse_config(json.dumps(cfg.normalized))
        assert again.system == cfg.system
        assert again.pump == cfg.pump
        assert again.strategy == cfg.strategy
        assert again.config_hash == cfg.config_hash

    @pytest.mark.parametrize("name, digest", [
        ("ring_channel.json", "23c1018babbc4f2a2bb2dd722afb775fd0eeeba0b4e3d02a2a1dd1ded1c4ece7"),
        ("add_drop.json", "c8955c15982d816424022b405115fc4a065e7d52edaa586cbe8534a9c2427bc5")])
    def test_config_hash_of_bundled_configs(self, name, digest):
        # every *_meta.json carries this digest, so it must not change
        cfg = parse_config(bundled(name))
        assert cfg.config_hash == _hashlib_sha256(cfg.normalized) == digest

    @given(power_mw=st.floats(1e-6, 1e3), radius_m=st.floats(1e-6, 1e-3),
           sigma=st.floats(0.5, 0.999), strategy=st.sampled_from(["attenuation", "phantom",
                                                                  "both"]))
    @settings(max_examples=50, deadline=None)
    def test_config_hash_is_sha256_of_canonical_json(self, power_mw, radius_m, sigma,
                                                     strategy):
        doc = bundled()
        doc["pump"]["power_mw"] = power_mw
        doc["system"]["ring"]["radius_m"] = radius_m
        doc["system"]["channels"][0]["coupling"] = {"sigma": sigma}
        doc["strategy"] = strategy
        cfg = parse_config(doc)
        assert cfg.config_hash == _hashlib_sha256(cfg.normalized)

    @pytest.mark.parametrize("bands, couplings, sources", [
        # the shared velocity, or a band's own over it; a bus by sigma, the
        # phantom from the ring loss
        ({**_SHARED_BAND, "group_velocity_m_per_s": 1e8,
          "idler": {"group_velocity_m_per_s": 1.5e8}}, [{"sigma": 0.98}, {"from_loss": True}],
         {"O": "system.channels[0].coupling.sigma", "P": "system.ring.loss_db_per_cm",
          Band.PUMP: "system.bands.group_velocity_m_per_s",
          Band.SIGNAL: "system.bands.group_velocity_m_per_s",
          Band.IDLER: "system.bands.idler.group_velocity_m_per_s"}),
        ({**_SHARED_BAND, "group_index": 3.0, "signal": {"group_index": 2.5}},
         [{"gamma_rad_per_s": 1e9}, {"q_factor": 2e4}],
         {"O": "system.channels[0].coupling.gamma_rad_per_s",
          "P": "system.channels[1].coupling.q_factor",
          Band.PUMP: "system.bands.group_index",
          Band.SIGNAL: "system.bands.signal.group_index",
          Band.IDLER: "system.bands.group_index"}),
        ({**_SHARED_BAND, "pump": {"group_index": 3.0}, "signal": {"group_index": 3.0},
          "idler": {"group_velocity_m_per_s": 1e8}}, [{"q_factor": 2e4}, {"eta": 0.3}],
         {"O": "system.channels[0].coupling.q_factor",
          "P": "system.channels[1].coupling.eta",
          Band.PUMP: "system.bands.pump.group_index",
          Band.SIGNAL: "system.bands.signal.group_index",
          Band.IDLER: "system.bands.idler.group_velocity_m_per_s"})],
        ids=["velocity", "group_index", "own_blocks"])
    def test_sources_name_each_coupling_and_velocity_field(self, bands, couplings, sources):
        # the field that set each channel's decay rates, by id, and each
        # band's group velocity, by Band: the fields the commands' errors name
        doc = bundled()
        doc["system"]["bands"] = bands
        for channel, coupling in zip(doc["system"]["channels"], couplings):
            channel["coupling"] = coupling
        assert parse_config(doc).sources == sources

    def test_eta_coupling_resolution(self):
        cfg = parse_config(eta_config(eta=0.6))
        assert cfg.system.escape_efficiency("O", Band.PUMP) == pytest.approx(
            0.6, rel=1e-12)

    def test_group_index_alternative(self):
        doc = eta_config()
        doc["system"]["bands"] = {"wavelength_nm": 1550.0, "effective_index": 2.4,
                                  "group_index": 2.99792458}
        cfg = parse_config(doc)
        assert cfg.system.bands[Band.PUMP].v == pytest.approx(1e8, rel=1e-9)

    def test_pulsed_pump(self):
        doc = eta_config(pump={"kind": "pulsed", "duration_fwhm_ps": 10.0,
                               "alpha": 2.0})
        cfg = parse_config(doc)
        assert isinstance(cfg.pump, PulsedPump)
        assert cfg.pump.duration_fwhm == pytest.approx(10e-12)

    def test_q_factor_coupling(self):
        doc = eta_config()
        doc["system"]["channels"][0]["coupling"] = {"q_factor": 2e4}
        cfg = parse_config(doc)
        omega = cfg.system.bands[Band.PUMP].omega
        assert cfg.system.channel("O").gamma(Band.PUMP) == pytest.approx(
            omega / 4e4, rel=1e-12)

    def test_empty_channels_error_names_field(self):
        doc = eta_config()
        doc["system"]["channels"] = []
        with pytest.raises(ConfigError, match="system.channels"):
            parse_config(doc)

    def test_over_specified_coupling(self):
        doc = eta_config()
        doc["system"]["channels"][0]["coupling"] = {"sigma": 0.98, "q_factor": 1e4}
        with pytest.raises(ConfigError, match="over-specified coupling"):
            parse_config(doc)

    def test_missing_coupling(self):
        doc = eta_config()
        doc["system"]["channels"][0]["coupling"] = {}
        with pytest.raises(ConfigError, match="coupling"):
            parse_config(doc)

    def test_eta_needs_an_anchor(self):
        doc = eta_config()
        doc["system"]["channels"][1]["coupling"] = {"eta": 0.3}
        with pytest.raises(ConfigError, match="absolute"):
            parse_config(doc)

    def test_unknown_field_rejected(self):
        doc = eta_config()
        doc["system"]["ring"]["radius_um"] = 10.0
        with pytest.raises(ConfigError, match="radius_um"):
            parse_config(doc)

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    @pytest.mark.parametrize("coupling", [
        {"sigma": math.nan}, {"gamma_rad_per_s": math.inf}, {"q_factor": math.inf},
        {"eta": math.nan}, {"gamma_rad_per_s": 10 ** 400}])
    def test_non_finite_coupling_names_field(self, coupling):
        doc = eta_config()
        doc["system"]["channels"][0]["coupling"] = coupling
        (rep,) = coupling
        with pytest.raises(ConfigError, match=rf"system\.channels\[0\]\.coupling\.{rep}: "
                                              "must be finite"):
            parse_config(doc)

    def test_sigma_outside_unit_interval_names_field(self):
        doc = eta_config()
        doc["system"]["channels"][0]["coupling"] = {"sigma": 1.5}
        with pytest.raises(ConfigError, match=r"coupling\.sigma: must be <= 1"):
            parse_config(doc)

    @pytest.mark.parametrize("keys, value, path, message", [
        pytest.param(*row, id=row[2] + ": " + row[3]) for row in _CONFIG_ERRORS])
    def test_error_names_its_field(self, keys, value, path, message):
        # bundled() with the value at `keys` (_DROP deletes the key; no keys
        # replace the whole document) fails with a ConfigError at `path`
        doc = bundled()
        if keys:
            *parents, last = keys
            target = doc
            for key in parents:
                target = target[key]
            if value is _DROP:
                del target[last]
            else:
                target[last] = value
        else:
            doc = value
        with pytest.raises(ConfigError, match=message) as caught:
            parse_config(doc)
        assert caught.value.path == path


_COMMANDS = tuple(cli._HANDLERS)

# the (0, 1] of a self-coupling axis, subnormal bounds among them
_SELF_COUPLINGS = st.floats(0.0, 1.0, exclude_min=True) | st.integers(1, 2**52 - 1).map(
    lambda k: k * 5e-324)


def _expect(code, line, *commands):
    """Each command's exit code and the start of its one stderr line, in
    which {} stands for the command (None: any line)."""
    return dict.fromkeys(commands, (code, line))


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCommands:
    def test_rate_both_strategies(self, tmp_path):
        cfg = _write_config(tmp_path, bundled())
        out = tmp_path / "out"
        assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
        rows = _read_csv(out / "rate.csv")
        assert rows[0] == ["strategy", "signal_exit", "idler_exit", "rate_pairs_per_s"]
        assert len(rows) == 6  # four phantom pairs + one attenuation pair
        meta = json.loads((out / "rate_meta.json").read_text())
        assert meta["rel_difference"] < 0.15
        assert "config_hash" in meta

    @pytest.mark.parametrize("name", ["ring_channel.json", "add_drop.json"])
    def test_rate_meta_vacuum_power(self, tmp_path, name):
        doc = bundled(name)
        doc["pump"]["detuning_rad_per_s"] = 3e10  # so the offset term counts
        out = tmp_path / "out"
        assert main(["rate", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
        system = parse_config(doc).system
        sb, ib = system.bands[Band.SIGNAL], system.bands[Band.IDLER]
        omega_o = system.bands[Band.PUMP].omega + 3e10
        p_vac = phantom.vacuum_power(system.gamma_bar(Band.SIGNAL), system.gamma_bar(Band.IDLER),
                                     sb.omega, ib.omega, 2.0 * omega_o - sb.omega - ib.omega)
        meta = json.loads((out / "rate_meta.json").read_text())
        assert meta["p_vac_w"] == pytest.approx(p_vac, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["ring_channel.json", "add_drop.json"])
    def test_ratios_rows_are_pair_rate_quotients(self, tmp_path, name):
        cfg = _write_config(tmp_path, bundled(name))
        out = tmp_path / "out"
        assert main(["ratios", "--config", cfg, "--out", str(out)]) == 0
        config = parse_config(bundled(name))
        rates = phantom.pair_rates(config.system, config.pump)
        rows = _read_csv(out / "ratios.csv")[1:]
        assert [(r[0], r[1]) for r in rows] == list(rates)
        for x, y, rx, ry, ratio in rows:
            assert (rx, ry) == (config.system.physical_channels[0].channel_id,) * 2
            assert float(ratio) == pytest.approx(rates[(x, y)] / rates[(rx, ry)], rel=1e-12,
                                                 abs=0.0)

    def test_ratios_values(self, tmp_path):
        cfg = _write_config(tmp_path, eta_config(eta=0.6))
        out = tmp_path / "out"
        assert main(["ratios", "--config", cfg, "--out", str(out)]) == 0
        rows = _read_csv(out / "ratios.csv")
        by_pair = {(r[0], r[1]): float(r[4]) for r in rows[1:]}
        assert by_pair[("O", "P")] == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert by_pair[("P", "P")] == pytest.approx(4.0 / 9.0, rel=1e-9)

    def test_oracle_check_passes(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, eta_config(eta=0.55))
        out = tmp_path / "out"
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "oracle_check_meta.json").read_text())
        assert meta["max_rel_deviation"] <= 1e-6
        assert "max relative deviation" in capsys.readouterr().out

    def test_oracle_check_passes_with_detuned_pump(self, tmp_path):
        doc = bundled()
        doc["pump"]["detuning_rad_per_s"] = 5e12  # 84 linewidths
        out = tmp_path / "out"
        assert main(["oracle-check", "--config", _write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        meta = json.loads((out / "oracle_check_meta.json").read_text())
        assert meta["max_rel_deviation"] <= 1e-9

    @pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3, 1e6, 1e7, 1e8])
    def test_oracle_check_passes_at_any_loaded_q(self, tmp_path, gamma):
        # a lossless ring whose linewidth is the bus's alone, loaded Q from
        # 6e17 down to 6e6: the golden-rule integral runs in detunings, so
        # no absolute frequency's ulp (0.25 rad/s) blurs the narrow lines
        doc = bundled()
        doc["system"]["ring"]["loss_db_per_cm"] = 0
        doc["system"]["channels"][0]["coupling"] = {"gamma_rad_per_s": gamma}
        out = tmp_path / "out"
        assert main(["oracle-check", "--config", _write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        meta = json.loads((out / "oracle_check_meta.json").read_text())
        assert meta["max_rel_deviation"] <= 1e-12

    def test_oracle_check_gate_can_fail(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, eta_config(eta=0.55))
        out = tmp_path / "out"
        # an absurdly tight gate must flip the exit status; the table, the
        # sidecar and the summary line are still written, and main reports
        # the failure in one line
        assert main(["oracle-check", "--config", cfg, "--out", str(out),
                     "--tol", "1e-16"]) == 1
        stdout, stderr = capsys.readouterr()
        assert stderr == "oracle-check: deviation exceeds tolerance\n"
        assert stdout.startswith("oracle-check: max relative deviation ")
        assert stdout.endswith(" (tolerance 1.0e-16)\n") and stdout.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == ["oracle_check.csv",
                                                         "oracle_check_meta.json"]
        meta = json.loads((out / "oracle_check_meta.json").read_text())
        assert meta["tolerance"] == 1e-16 < meta["max_rel_deviation"]

    def test_sweep_eta_deterministic(self, tmp_path):
        doc = eta_config(eta=0.5)
        doc["options"] = {"sweep_eta": {"min": 0.2, "max": 0.8, "points": 7}}
        cfg = _write_config(tmp_path, doc)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["sweep-eta", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "sweep_eta.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_sweep_sigma_metadata(self, tmp_path):
        doc = bundled()
        doc["options"] = {"sweep_sigma": {"min": 0.96, "max": 0.99, "points": 13}}
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sweep-sigma", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "sweep_sigma_meta.json").read_text())
        assert meta["argmax_sigma"] < meta["sigma_critical"]

    def test_compare_finesse_single_bus(self, tmp_path):
        doc = bundled()
        doc["options"] = {"compare_finesse": {"min": 80.0, "max": 1200.0, "points": 5}}
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["compare-finesse", "--config", cfg, "--out", str(out)]) == 0
        rows = _read_csv(out / "compare_finesse.csv")
        assert rows[0][0] == "finesse"
        rel = [float(r[3]) for r in rows[1:]]
        assert rel[-1] < rel[0] < 0.15

    def test_compare_finesse_add_drop(self, tmp_path):
        out = tmp_path / "out"
        doc = bundled("add_drop.json")
        doc["options"] = {"compare_finesse": {"points": 5}}
        cfg = _write_config(tmp_path, doc)
        assert main(["compare-finesse", "--config", cfg, "--out", str(out)]) == 0
        rows = _read_csv(out / "compare_finesse.csv")
        assert rows[0][0] == "sigma2"

    def test_add_drop_grid(self, tmp_path):
        doc = bundled("add_drop.json")
        doc["options"] = {"add_drop_grid": {"min_ratio": 0.2, "max_ratio": 2.0,
                                            "points": 9}}
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["add-drop-grid", "--config", cfg, "--out", str(out)]) == 0
        rows = _read_csv(out / "add_drop_grid.csv")
        assert len(rows) == 1 + 81
        meta = json.loads((out / "add_drop_grid_meta.json").read_text())
        assert "R_DD" in meta["argmax"]

    def test_jsa_writes_grids(self, tmp_path):
        doc = eta_config(pump={"kind": "pulsed", "duration_fwhm_ps": 10.0})
        doc["options"] = {"jsa": {"grid_points": 64}}
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["jsa", "--config", cfg, "--out", str(out)]) == 0
        abs2 = _read_csv(out / "jsa_abs2.csv")
        assert len(abs2) == 65 and len(abs2[1]) == 65
        meta = json.loads((out / "jsa_meta.json").read_text())
        assert meta["normalization_residual"] < 2.5e-3
        weights = _read_csv(out / "jsa_weights.csv")
        assert len(weights) == 5

    @pytest.mark.parametrize("name", ["ring_channel.json", "add_drop.json"])
    def test_jsa_weights_are_real(self, tmp_path, name):
        # every weight is real: weight_im reads 0.0 on every row, and
        # weight_abs2 is the square of weight_re to the bit
        doc = bundled(name)
        doc["pump"] = {"kind": "pulsed", "duration_fwhm_ps": 10.0}
        doc["options"] = {"jsa": {"grid_points": 64}}
        out = tmp_path / "out"
        assert main(["jsa", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
        header, *rows = _read_csv(out / "jsa_weights.csv")
        assert header == ["signal_exit", "idler_exit", "weight_re", "weight_im", "weight_abs2"]
        ids = parse_config(doc).system.channel_ids
        assert [row[:2] for row in rows] == [[x, y] for x in ids for y in ids]
        for _, _, re, im, abs2 in rows:
            assert im == "0.0"
            assert float(abs2) == float(re) ** 2

    def test_jsa_residual_gate(self, tmp_path, capsys):
        doc = eta_config(pump={"kind": "pulsed", "duration_fwhm_ps": 10.0})
        doc["options"] = {"jsa": {"grid_points": 128}}
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["jsa", "--config", cfg, "--out", str(out),
                     "--tol", "1e-5"]) == 1
        # the gate fails before any file is written, and main reports it
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("jsa: JSA grid normalization residual ")
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
        assert list(out.glob("jsa_*")) == []

    def test_jsa_needs_pulsed_pump(self, tmp_path):
        cfg = _write_config(tmp_path, eta_config())
        assert main(["jsa", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_quadrature_error_maps_to_exit_1(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise QuadratureError("quadrature did not converge: estimate 1e-3")

        monkeypatch.setitem(cli._HANDLERS, "rate", fail)
        cfg = _write_config(tmp_path, eta_config())
        assert main(["rate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "rate: quadrature did not converge: estimate 1e-3\n"

    @pytest.mark.parametrize("name, options, point, bus", [
        ("ring_channel.json", {"sweep_sigma": {"min": 0.97, "max": 0.99, "points": 5}},
         "sigma = 0.98", "O"),
        ("ring_channel.json", {"compare_finesse": {"min": 100.0, "max": 200.0, "points": 5}},
         "finesse = 141.421", "O"),
        ("add_drop.json",
         {"compare_finesse": {"sigma2_min": 0.5, "sigma2_max": 0.9, "points": 5}},
         "sigma2 = 0.7", "T")], ids=["sweep-sigma", "compare-finesse", "add-drop"])
    def test_sweep_quadrature_failure_names_its_point(self, tmp_path, capsys, monkeypatch,
                                                      name, options, point, bus):
        # each point is one strategy-1 quadrature, in axis order; the third fails
        from lossy_ring_sfwm import attenuation

        integrate = attenuation.integrate_adaptive
        calls = []

        def fail_third(*args, **kwargs):
            result = integrate(*args, **kwargs)
            calls.append(result)
            if len(calls) == 3:
                raise QuadratureError("quadrature did not converge", value=result.value,
                                      error_estimate=1e-3 * result.value,
                                      rel_tol=kwargs["rel_tol"])
            return result

        monkeypatch.setattr(attenuation, "integrate_adaptive", fail_third)
        doc = bundled(name)
        doc["options"] = options
        command = next(iter(options)).replace("_", "-")
        cfg = _write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(calls) == 3
        assert len(err.splitlines()) == 1
        assert err.startswith(f"{command}: at {point}: strategy-1 rate R[{bus},{bus}]: "
                              "quadrature did not converge: estimate "), err
        assert err.endswith(" pairs/s\n"), err

    def test_jsa_mass_failure_quoted_as_pair_probability(self, tmp_path, capsys,
                                                         monkeypatch):
        # a failed pair-mass quadrature quotes the pair probability at alpha =
        # 1 it reached, not the bare energy integral
        doc = eta_config(pump={"kind": "pulsed", "duration_fwhm_ps": 10.0})
        doc["options"] = {"jsa": {"grid_points": 64}}
        config = parse_config(doc)
        mass = jsa.total_mass(config.system, config.pump)
        integrate = jsa.integrate_adaptive

        def fail(*args, **kwargs):
            value = integrate(*args, **kwargs).value
            raise QuadratureError("quadrature did not converge", value=value,
                                  error_estimate=1e-3 * value, rel_tol=kwargs["rel_tol"])

        monkeypatch.setattr(jsa, "integrate_adaptive", fail)
        cfg = _write_config(tmp_path, doc)
        assert main(["jsa", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("jsa: pair probability at alpha = 1: quadrature did not "
                              f"converge: estimate {1e-3 * mass:.3e} vs requested "), err
        assert err.endswith(f"1.0e-07 relative on value {mass:.6e}\n"), err
        assert len(err.splitlines()) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["rate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_invalid_config_reports_path(self, tmp_path, capsys):
        doc = eta_config()
        doc["system"]["channels"] = []
        cfg = _write_config(tmp_path, doc)
        assert main(["rate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "system.channels" in capsys.readouterr().err

    @pytest.mark.parametrize("block, key, value", [
        ("pump", "power_mw", math.nan),
        ("ring", "loss_db_per_cm", math.nan),
        ("ring", "radius_m", math.inf)])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, block, key, value):
        doc = eta_config()
        target = doc["pump"] if block == "pump" else doc["system"]["ring"]
        target[key] = value
        cfg = _write_config(tmp_path, doc)  # json writes NaN and Infinity literals
        assert main(["rate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f".{key}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, options, field", [
        ("sweep-eta", '{"sweep_eta": {"points": "abc"}}', "options.sweep_eta.points"),
        ("sweep-eta", '{"sweep_eta": {"max": 1e309}}', "options.sweep_eta.max"),
        ("oracle-check", '{"oracle_check": {"max_rel_dev": "x"}}',
         "options.oracle_check.max_rel_dev"),
        ("jsa", '{"jsa": {"grid_points": 64.5}}', "options.jsa.grid_points"),
        ("jsa", '{"jsa": {"kappa_max": 4}}', "options.jsa.kappa_max"),
        ("add-drop-grid", '{"add_drop_grid": []}', "options.add_drop_grid"),
        ("sweep-sigma", '{"sweep_sigma": {"pionts": 5}}', "options.sweep_sigma.pionts"),
        ("sweep-sigma", '{"sweepsigma": {"points": 5}}', "options.sweepsigma"),
        ("rate", '{"rate": {}}', "options.rate"),
        ("compare-finesse", '{"compare_finesse": {"sigma2_min": 0.5}}',
         "options.compare_finesse.sigma2_min"),
        ("jsa", '{"jsa": {"grid_point": 64}}', "options.jsa.grid_point"),
        ("oracle-check", '{"oracle_check": {"tol": 1e-3}}', "options.oracle_check.tol")],
        ids=["points", "max", "max_rel_dev", "grid_points", "kappa_max", "block",
             "unknown_key", "unknown_block", "block_of_no_command", "key_of_other_geometry",
             "jsa_key", "oracle_check_key"])
    def test_bad_option_exits_2(self, tmp_path, capsys, command, options, field):
        pump = {"kind": "pulsed", "duration_fwhm_ps": 10.0} if command == "jsa" else None
        text = json.dumps(eta_config(pump=pump))[:-1] + f', "options": {options}}}'
        cfg = _write_config(tmp_path, text)  # raw text: 1e309 stays a literal
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"invalid config: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, options, field", [
        ("sweep-eta", "ring_channel.json", {"sweep_eta": {"min": 0}},
         "options.sweep_eta.min: must lie in (0, 1)"),
        ("sweep-sigma", "ring_channel.json", {"sweep_sigma": {"max": 1.5}},
         "options.sweep_sigma.max: must lie in (0, 1]"),
        ("compare-finesse", "add_drop.json", {"compare_finesse": {"sigma2_max": 1.5}},
         "options.compare_finesse.sigma2_max: must lie in (0, 1]"),
        ("compare-finesse", "add_drop.json", {"compare_finesse": {"sigma2_min": -0.5}},
         "options.compare_finesse.sigma2_min: must lie in (0, 1]"),
        # bounds an ulp apart leave no room for n distinct points between them
        ("sweep-eta", "ring_channel.json",
         {"sweep_eta": {"min": 0.5, "max": 0.5000000000000001, "points": 5}},
         "options.sweep_eta.max: "),
        ("sweep-sigma", "ring_channel.json",
         {"sweep_sigma": {"min": 0.95, "max": 0.9500000000000001}}, "options.sweep_sigma.max: "),
        ("add-drop-grid", "add_drop.json",
         {"add_drop_grid": {"min_ratio": 1.0, "max_ratio": 1.0000000000000002}},
         "options.add_drop_grid.max_ratio: "),
        ("compare-finesse", "ring_channel.json",
         {"compare_finesse": {"min": 100.0, "max": 100.00000000000001}},
         "options.compare_finesse.max: "),
        ("compare-finesse", "add_drop.json",
         {"compare_finesse": {"sigma2_min": 0.5, "sigma2_max": 0.5000000000000001}},
         "options.compare_finesse.sigma2_max: "),
        ("sweep-sigma", "ring_channel.json", {"sweep_sigma": {"min": 0.99, "max": 0.98}},
         "options.sweep_sigma.max: "),
        # libm's 10 ** log10(hi) rounds past the largest float and raises
        ("compare-finesse", "ring_channel.json",
         {"compare_finesse": {"min": 100.0, "max": 1.7976931348623157e308}},
         "options.compare_finesse.max: 10 ** log10(1.7976931348623157e+308) overflows"),
        ("add-drop-grid", "add_drop.json",
         {"add_drop_grid": {"min_ratio": 1.0, "max_ratio": 1.7976931348623157e308}},
         "options.add_drop_grid.max_ratio: 10 ** log10(1.7976931348623157e+308) overflows")],
        ids=["eta_min", "sigma_max", "sigma2_max", "sigma2_min", "eta_ulp", "sigma_ulp",
             "ratio_ulp", "finesse_ulp", "sigma2_ulp", "sigma_reversed", "finesse_max_float",
             "ratio_max_float"])
    def test_axis_outside_model_range_exits_2(self, tmp_path, capsys, command, name,
                                              options, field):
        doc = bundled(name)
        doc["options"] = options
        cfg = _write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"invalid config: {field}")

    @given(lo=_SELF_COUPLINGS, hi=_SELF_COUPLINGS, ulps=st.none() | st.integers(-4, 16),
           n=st.integers(2, 3000))
    @example(lo=5e-324, hi=1e-323, ulps=None, n=5)  # a span of one ulp: the step underflows
    @example(lo=0.5, hi=0.5, ulps=None, n=2)
    @settings(max_examples=300, deadline=None)
    def test_linear_axis_is_np_linspace(self, lo, hi, ulps, n):
        # the linear axes are built without numpy, at np.linspace's bits, and
        # fail the strictly-increasing check exactly where its axis would
        if ulps is not None:  # hi a few ulps from lo
            hi = lo
            for _ in range(abs(ulps)):
                hi = math.nextafter(hi, math.copysign(math.inf, ulps))
            assume(0.0 < hi <= 1.0)
        want = np.linspace(lo, hi, n)
        assert [x.hex() for x in cli._linspace(lo, hi, n)] == [x.hex() for x in want.tolist()]
        config = SimpleNamespace(options={"sweep_sigma": {"min": lo, "max": hi, "points": n}})
        increasing = bool(np.all(np.diff(want) > 0.0))
        try:
            axis = cli._axis(config, "sweep_sigma", "min", "max", "points", (0.9, 0.99, 3),
                             unit="(0, 1]")
        except ConfigError as e:
            assert not increasing and e.path == "options.sweep_sigma.max"
        else:
            assert increasing and axis == want.tolist()

    @given(bounds=st.tuples(st.floats(0.04, 0.06), st.floats(4.0, 6.0))
           | st.tuples(st.floats(40.0, 60.0), st.floats(1500.0, 2500.0)),
           n=st.integers(2, 101))
    @example(bounds=(50.0, 2000.0), n=25)  # the defaults of compare-finesse
    @example(bounds=(0.05, 5.0), n=81)  # and of add-drop-grid
    @settings(max_examples=200, deadline=None)
    def test_log_axis_is_near_exact_logspace(self, bounds, n):
        # a log axis is libm's 10 ** u over the float exponents u_i = log10 lo
        # + i (log10 hi - log10 lo) / (n - 1). Their rounding, times ln 10 |u|,
        # dominates its error, as it does np.logspace's; on the benchmark's
        # ranges, the finesse's and the coupling ratio's, the worst of 36,000
        # random axes is 13.2 ulp from the exact point
        lo, hi = bounds
        config = SimpleNamespace(options={"add_drop_grid": {
            "min_ratio": lo, "max_ratio": hi, "points": n}})
        axis = cli._axis(config, "add_drop_grid", "min_ratio", "max_ratio", "points",
                         (0.05, 5.0, 81), log=True)
        assert len(axis) == n and all(a < b for a, b in zip(axis, axis[1:]))
        assert all(type(x) is float for x in axis)
        with mp.workprec(200):
            u_lo, u_hi = mp.log10(lo), mp.log10(hi)
            for i, x in enumerate(axis):
                exact = mp.power(10, u_lo + i * (u_hi - u_lo) / (n - 1))
                assert abs(x - exact) <= 16 * math.ulp(float(exact)), (i, x, exact)

    @pytest.mark.parametrize("command, name, change, field", [
        ("add-drop-grid", "ring_channel.json", None,
         "system.channels: an add-drop ring needs two physical channels, got 1"),
        ("sweep-sigma", "add_drop.json", None,
         "system.channels: a single-bus ring needs one physical channel, got 2"),
        ("sweep-eta", "add_drop.json", None,
         "system.channels: a single-bus ring needs one physical channel, got 2"),
        # the sigma = 1 check finds the one bus to decouple by the same rule,
        # and blames the geometry, not the option
        ("sweep-sigma", "add_drop.json", "sigma_to_1",
         "system.channels: a single-bus ring needs one physical channel, got 2"),
        ("compare-finesse", "add_drop.json", "third_bus",
         "system.channels: a single-bus ring needs one physical channel, got 3"),
        ("sweep-eta", "ring_channel.json", "loss_free", "system.ring.loss_db_per_cm"),
        ("add-drop-grid", "add_drop.json", "loss_free", "system.ring.loss_db_per_cm"),
        # a phantom given as a zero decay rate is named, not the ring loss
        ("sweep-eta", "ring_channel.json", "phantom_zero",
         "system.channels[1].coupling.gamma_rad_per_s"),
        ("add-drop-grid", "add_drop.json", "phantom_zero",
         "system.channels[2].coupling.gamma_rad_per_s"),
        ("sweep-eta", "ring_channel.json", "no_phantom",
         "system.channels: this sweep needs the phantom channel")],
        ids=["grid_on_ring", "sigma_on_add_drop", "eta_on_add_drop", "sigma_to_1_on_add_drop",
             "finesse_three_bus", "eta_loss_free", "grid_loss_free", "eta_zero_phantom",
             "grid_zero_phantom", "eta_no_phantom"])
    def test_geometry_mismatch_exits_2(self, tmp_path, capsys, command, name, change,
                                       field):
        doc = bundled(name)
        channels = doc["system"]["channels"]
        if change == "third_bus":
            channels.insert(2, {"id": "X", "coupling": {"sigma": 0.99}})
        elif change == "sigma_to_1":
            doc["options"] = {"sweep_sigma": {"max": 1.0}}
        elif change == "loss_free":
            doc["system"]["ring"]["loss_db_per_cm"] = 0.0
        elif change == "no_phantom":
            channels.pop()
        elif change == "phantom_zero":
            channels[-1]["coupling"] = {"gamma_rad_per_s": 0}
        cfg = _write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"invalid config: {field}" in capsys.readouterr().err

    def test_rate_takes_any_bus_count(self, tmp_path):
        # only the sweeps fix a ring's bus count: strategy 1 puts a third
        # bus's coupler at 2 L / 3 and rate writes all nine of its exit pairs
        doc = bundled("add_drop.json")
        doc["system"]["channels"].insert(2, {"id": "X", "coupling": {"sigma": 0.99}})
        out = tmp_path / "o"
        assert main(["rate", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
        rows = _read_csv(out / "rate.csv")[1:]
        assert [(x, y) for s, x, y, _ in rows if s == "attenuation"] \
            == [(x, y) for x in "TDX" for y in "TDX"]
        assert sum(s == "phantom" for s, *_ in rows) == 16

    @pytest.mark.parametrize("command, csv_name", [("rate", "rate.csv"),
                                                   ("sweep-sigma", "sweep_sigma.csv")])
    def test_strategy1_ignores_the_phantom_entry(self, tmp_path, command, csv_name):
        # strategy 1 carries the loss in the ring wavevector and never reads
        # a phantom channel, so its rates are the same bits without one
        doc = bundled()
        doc["strategy"] = "attenuation"
        doc["options"] = {"sweep_sigma": {"min": 0.97, "max": 0.99, "points": 5}}
        outputs = []
        for name in ("with", "without"):
            if name == "without":
                doc["system"]["channels"].pop()
            cfg = _write_config(tmp_path, doc, f"{name}.json")
            out = tmp_path / name
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            outputs.append((out / csv_name).read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("coupling", [{"sigma": 1.0}, {"gamma_rad_per_s": 0}])
    @pytest.mark.parametrize("command", ["rate", "ratios", "compare-finesse"])
    def test_uncoupled_pump_channel_exits_2(self, tmp_path, capsys, command, coupling):
        # every rate scales with the pump channel's coupling, so all would be zero
        doc = bundled()
        doc["system"]["channels"][0]["coupling"] = coupling
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "invalid config: system.pump_input_channel" in capsys.readouterr().err
        assert not out.exists()  # no CSV, so no NaN in one

    def test_effective_index_without_resonance_exits_2(self, tmp_path, capsys):
        doc = eta_config()
        doc["system"]["bands"]["effective_index"] = 1e-9
        cfg = _write_config(tmp_path, doc)
        assert main(["rate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "system.bands.effective_index: no ring resonance" in capsys.readouterr().err

    @pytest.mark.parametrize("ref", [["Z", "Z"], ["O", "Z"], ["O", "Q"], "OO", ["O"],
                                     [], ["O", "O", "O"]])
    def test_jsa_reference_pair_rejected(self, tmp_path, capsys, ref):
        cfg = _write_config(tmp_path, self._jsa_three_channel_config(ref))
        assert main(["jsa", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "options.jsa.reference_pair" in capsys.readouterr().err

    def test_jsa_uncoupled_default_reference_pair_exits_2(self, tmp_path, capsys):
        doc = self._jsa_three_channel_config(["O", "O"])
        doc["system"]["channels"].insert(0, doc["system"]["channels"].pop(1))  # Z first
        del doc["options"]["jsa"]["reference_pair"]
        cfg = _write_config(tmp_path, doc)
        assert main(["jsa", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "options.jsa.reference_pair" in capsys.readouterr().err

    def test_jsa_reference_pair_accepted(self, tmp_path):
        cfg = _write_config(tmp_path, self._jsa_three_channel_config(["P", "O"]))
        out = tmp_path / "o"
        assert main(["jsa", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "jsa_meta.json").read_text())
        assert meta["reference_pair"] == ["P", "O"]

    @staticmethod
    def _jsa_three_channel_config(ref) -> dict:
        # channel Z is present but uncoupled, so pairs scaled by it are all zero
        doc = eta_config(pump={"kind": "pulsed", "duration_fwhm_ps": 10.0})
        doc["system"]["channels"].insert(1, {"id": "Z", "coupling": {"gamma_rad_per_s": 0}})
        doc["options"] = {"jsa": {"grid_points": 64, "reference_pair": ref}}
        return doc

    @pytest.mark.parametrize("name, edits, expected", [
        ("ring_channel.json", {"system.ring.gamma_nl_per_w_m": 0}, _expect(
            2, "invalid config: system.ring.gamma_nl_per_w_m: must be positive, got 0.0",
            *_COMMANDS)),
        ("ring_channel.json", {"pump.power_mw": 1e-300}, _expect(
            1, None, "rate", "ratios", "sweep-sigma", "sweep-eta", "compare-finesse")),
        ("add_drop.json", {"pump.power_mw": 1e-300}, _expect(
            1, None, "rate", "compare-finesse", "add-drop-grid")),
        # strategy 1 has no signal window to integrate; the phantom commands need none
        ("ring_channel.json", {"pump.detuning_rad_per_s": -1.2e15}, {
            **_expect(2, "invalid config: pump.detuning_rad_per_s: puts the idler of a "
                      "resonant signal below 1e-3 omega_I, so strategy 1 has no signal "
                      "window", "rate", "sweep-sigma", "compare-finesse"),
            **_expect(0, None, "ratios", "sweep-eta", "oracle-check")}),
        # the carrier omega_P + detuning would leave (0, 2 omega_P)
        *[("ring_channel.json", {"pump.detuning_rad_per_s": d}, _expect(
            2, "invalid config: pump.detuning_rad_per_s: must be smaller in magnitude than "
            "the pump band's omega_P", *_COMMANDS)) for d in (1e200, -1e200)],
        ("ring_channel.json", {"pump.power_mw": 1e160}, {
            **_expect(1, "{}: a result overflows the float range", "rate", "ratios",
                      "sweep-eta", "oracle-check"),
            **_expect(1, "{}: the strategy-1 pair rate is inf", "sweep-sigma",
                      "compare-finesse")}),
        # the closed-form rate falls as 1/L^2, but an intermediate product of
        # (gamma_nl L)^2 overflows before the 1/L enhancement factors bring it
        # down, so the radius is not blamed; the free spectral range, which
        # caps strategy 1's window, is below an ulp
        *[("ring_channel.json", {"system.ring.radius_m": radius}, {
            **_expect(1, "{}: a result overflows the float range", "rate", "ratios",
                      "sweep-eta", "oracle-check"),
            **_expect(2, "invalid config: system.ring.radius_m: makes the free spectral "
                      "range", "sweep-sigma", "compare-finesse")})
          for radius in (1e200, 1e300)],
        ("ring_channel.json", {"pump": {"kind": "pulsed", "duration_fwhm_ps": 10.0},
                               "system.ring.radius_m": 1e200}, _expect(
            1, "{}: a result overflows the float range", "jsa")),
        # L / wavelength alone overflows the resonance order
        ("ring_channel.json", {"system.ring.radius_m": 1e303}, _expect(
            2, "invalid config: system.ring.radius_m: the resonance order n_eff L / wavelength "
            "overflows", *_COMMANDS)),
        # the pair probability beta2 = alpha^4 mass overflows from alpha ~ 1e78,
        # where alpha^4 alone leaves the float range; just below, it is finite
        *[("ring_channel.json",
           {"pump": {"kind": "pulsed", "duration_fwhm_ps": 10.0, "alpha": alpha}}, {
               **_expect(2, "invalid config: pump.alpha: the pair probability beta2 = "
                         "alpha^4 mass overflows", "jsa"),
               **_expect(2, "invalid config: pump.kind", *(c for c in _COMMANDS if c != "jsa"))})
          for alpha in (1e78, 1e100)],
        ("ring_channel.json",
         {"pump": {"kind": "pulsed", "duration_fwhm_ps": 10.0, "alpha": 1e77}}, {
             **_expect(0, None, "jsa"),
             **_expect(2, "invalid config: pump.kind", *(c for c in _COMMANDS if c != "jsa"))}),
        # the pair probability beta2 = alpha^4 mass underflows to 0
        *[("ring_channel.json",
           {"pump": {"kind": "pulsed", "duration_fwhm_ps": 10.0, "alpha": alpha}}, {
               **_expect(2, "invalid config: pump.alpha: the pair probability beta2 = "
                         "alpha^4 mass underflows to 0", "jsa"),
               **_expect(2, "invalid config: pump.kind", *(c for c in _COMMANDS if c != "jsa"))})
          for alpha in (1e-77, 1e-160, 1e-300)],
        # the pair-mass integrand leaves the float range: 1 / tau overflows the
        # window, tau b the Faddeeva function, or the linewidths are inf
        *[("ring_channel.json", {"pump": {"kind": "pulsed", "duration_fwhm_ps": ps}}, {
            **_expect(2, "invalid config: pump.duration_fwhm_ps: the pair-mass integrand "
                      "leaves the float range", "jsa"),
            **_expect(2, "invalid config: pump.kind", *(c for c in _COMMANDS if c != "jsa"))})
          for ps in (1e-300, 1e300)],
        ("ring_channel.json", {"pump": {"kind": "pulsed", "duration_fwhm_ps": 10.0},
                               "system.ring.loss_db_per_cm": 1e300}, _expect(
            2, "invalid config: system.ring.loss_db_per_cm: the pair-mass integrand leaves "
            "the float range", "jsa")),
        # the mass itself underflows, which no single field does
        ("ring_channel.json", {"pump": {"kind": "pulsed", "duration_fwhm_ps": 10.0},
                               "system.ring.gamma_nl_per_w_m": 1e-300}, _expect(
            1, "jsa: the pair mass underflows to 0", "jsa")),
        # every pair rate and the pair mass square a factor that carries gamma_nl;
        # an overflow names it when gamma_nl^2 alone leaves the float range. At
        # 1e160 strategy 1's rate is inf without an overflow. At 1e155 the
        # closed form's rate overflows in a product, not in a square, and no
        # linewidth underflows, so none is blamed
        ("ring_channel.json", {"system.ring.gamma_nl_per_w_m": 1e155}, {
            **_expect(1, "{}: a pair rate overflows the float range", "rate", "ratios",
                      "sweep-eta", "oracle-check"),
            **_expect(1, "{}: the strategy-1 pair rate is inf", "sweep-sigma",
                      "compare-finesse")}),
        ("ring_channel.json", {"system.ring.gamma_nl_per_w_m": 1e160}, {
            **_expect(2, "invalid config: system.ring.gamma_nl_per_w_m: its square", "rate",
                      "ratios", "sweep-eta", "oracle-check"),
            **_expect(1, "{}: the strategy-1 pair rate is inf", "sweep-sigma",
                      "compare-finesse")}),
        ("ring_channel.json", {"system.ring.gamma_nl_per_w_m": 1e300}, _expect(
            2, "invalid config: system.ring.gamma_nl_per_w_m: its square", "rate", "ratios",
            "sweep-sigma", "sweep-eta", "compare-finesse", "oracle-check")),
        *[("ring_channel.json", {"pump": {"kind": "pulsed", "duration_fwhm_ps": 10.0},
                                 "system.ring.gamma_nl_per_w_m": gamma_nl}, {
            **_expect(2, "invalid config: system.ring.gamma_nl_per_w_m: its square", "jsa"),
            **_expect(2, "invalid config: pump.kind", *(c for c in _COMMANDS if c != "jsa"))})
          for gamma_nl in (1e200, 1e300)],
        # the finest ring rounds its self-couplings to 1, a lossless resonance
        ("ring_channel.json", {"options": {"compare_finesse": {"min": 1e5, "max": 1e300}}}, {
            **_expect(1, "compare-finesse: resonance denominator vanished",
                      "compare-finesse"),
            **_expect(0, None, "rate", "ratios", "sweep-sigma", "sweep-eta",
                      "oracle-check")}),
        # the swept linewidth, a few phantom decay rates of 1e-285, squares to 0
        ("ring_channel.json", {"system.channels.1.coupling": {"q_factor": 1e300}}, {
            **_expect(1, "sweep-eta: a linewidth squared underflows to 0", "sweep-eta"),
            **_expect(0, None, "rate", "ratios", "sweep-sigma", "compare-finesse")}),
        ("add_drop.json",
         {"options": {"add_drop_grid": {"min_ratio": 1e-300, "max_ratio": 1e300}}}, {
             **_expect(1, "add-drop-grid: a pair rate overflows the float range",
                       "add-drop-grid"),
             **_expect(0, None, "rate", "ratios", "compare-finesse", "oracle-check")}),
        ("ring_channel.json",
         {"system.ring.loss_db_per_cm": 0, "options": {"sweep_sigma": {"max": 1.0}}}, {
             **_expect(2, "invalid config: options.sweep_sigma.max: sigma = 1 decouples the "
                       "bus", "sweep-sigma"),
             **_expect(0, None, "rate", "ratios", "compare-finesse", "oracle-check")}),
        # a lossless line 1e-3 rad/s wide: its resonance is singular to double
        # precision, which sweep-sigma, setting its own couplings, never meets
        ("ring_channel.json", {"system.ring.loss_db_per_cm": 0,
                               "system.channels.0.coupling": {"gamma_rad_per_s": 1e-3}}, {
            **_expect(1, "rate: resonance denominator vanished", "rate"),
            **_expect(0, None, "sweep-sigma")}),
        # the lowest sigma sets the largest bus decay rate sweep-sigma sets:
        # (1 - sigma) v / L overflows, or leaves no self-coupling above 0
        # every pair rate squares v_P, which the others name
        ("ring_channel.json", {"system.bands.group_velocity_m_per_s": 1e308}, {
            **_expect(2, "invalid config: system.bands.group_velocity_m_per_s: the bus decay "
                      "rate", "sweep-sigma"),
            **_expect(2, "invalid config: system.bands.group_velocity_m_per_s: its square",
                      "rate", "ratios", "sweep-eta", "compare-finesse", "oracle-check")}),
        ("ring_channel.json", {"system.bands.pump": {"group_velocity_m_per_s": 1e200}},
         _expect(2, "invalid config: system.bands.pump.group_velocity_m_per_s: its square",
                 "rate", "ratios", "sweep-eta", "compare-finesse", "oracle-check")),
        # the band frequency 2 pi c / wavelength overflows; the error names the
        # band's own wavelength, or the shared one
        ("ring_channel.json", {"system.bands.pump": {"wavelength_nm": 1e-300}}, _expect(
            2, "invalid config: system.bands.pump.wavelength_nm: the band frequency 2 pi c / "
            "wavelength overflows", *_COMMANDS)),
        ("ring_channel.json", {"system.bands.wavelength_nm": 1e-300}, _expect(
            2, "invalid config: system.bands.wavelength_nm: the band frequency 2 pi c / "
            "wavelength overflows", *_COMMANDS)),
        ("ring_channel.json", {"options": {"sweep_sigma": {"min": 1e-20, "max": 0.5}}}, {
            **_expect(2, "invalid config: options.sweep_sigma.min: decay rate", "sweep-sigma"),
            **_expect(0, None, "rate", "ratios", "compare-finesse", "oracle-check")}),
        # the oracle's kernel, which goes as v_P^2, underflows to 0 as its
        # prefactor, 1 / (v_S v_I v_P^2), overflows: 0 inf is NaN
        *[("ring_channel.json", {"system.bands.group_velocity_m_per_s": v}, {
            **_expect(1, "oracle-check: the oracle rate R[O,O] is nan", "oracle-check"),
            **_expect(0, None, "ratios", "sweep-eta")}) for v in (1e-78, 1e-50)],
        # a lossless bus 1 rad/s wide, the idler line far detuned: theta(e)
        # lies so near pi / 2 that the line's half-width in theta rounds to 0
        *[("ring_channel.json", {"system.ring.loss_db_per_cm": 0, "strategy": strategy,
                                 "system.channels.0.coupling": {"gamma_rad_per_s": 1.0},
                                 "pump.detuning_rad_per_s": 1e11}, {
            "rate": (1, "rate: strategy-1 rate R[O,O]: the idler line is narrower than the "
                     "theta map resolves") if strategy == "both" else (0, None),
            # the golden-rule oracle's tan map meets the same line
            **_expect(1, "oracle-check: oracle rate R[O,O]: the idler line is narrower than "
                      "the theta map resolves", "oracle-check"),
            **_expect(0, None, "ratios", "sweep-sigma", "compare-finesse")})
          for strategy in ("both", "phantom")],
        # the pair-mass window, 16 / tau + 8 Gbar wide, is below one ulp of a
        # two-photon detuning of 1.6e247 rad/s
        ("ring_channel.json", {"system.bands.wavelength_nm": 1.1751866086797877e-229,
                               "system.bands.idler": {"wavelength_nm": 1.7338295872101532e-45},
                               "pump": {"kind": "pulsed", "duration_fwhm_ps": 10.0,
                                        "detuning_rad_per_s": -1e10},
                               "options": {"jsa": {"grid_points": 16}}}, _expect(
            1, "jsa: pair probability at alpha = 1: the window 3.62e+12 rad/s either side of "
            "the two-photon detuning 1.6e+247 rad/s rounds to one point", "jsa")),
        # the phantom's xi v / 2 overflows, so the finesse is 0 and every
        # coupling of the finesse axis is 0 inf: r and theta are NaN
        ("ring_channel.json", {"system.ring.radius_m": 4.2158012248488365e+94,
                               "system.ring.loss_db_per_cm": 5.446654973481088e+215,
                               "system.ring.gamma_nl_per_w_m": 6.633405713499484e+154,
                               "system.bands.effective_index": 1.003198424347003e-18,
                               "system.bands.idler": {"effective_index": 1.003198424347003e-18},
                               "system.bands.group_velocity_m_per_s": 2.6543129733156517e+132,
                               "system.channels.0.coupling": {"eta": 3.748864735372897e-283}},
         _expect(1, "compare-finesse: at finesse = 50: strategy-1 rate R[O,O]: the signal "
                 "window maps to [nan, nan] in theta", "compare-finesse"))],
        ids=["zero_nonlinearity", "underflowing_power", "underflowing_power_add_drop",
             "far_detuned_pump", "huge_detuning", "huge_negative_detuning",
             "overflowing_power", "overflowing_radius_1e200", "overflowing_radius",
             "overflowing_radius_jsa", "overflowing_resonance_order", "first_overflowing_alpha",
             "overflowing_alpha", "largest_alpha", "underflowing_beta2", "underflowing_alpha",
             "vanishing_alpha", "vanishing_pulse", "endless_pulse", "overflowing_loss_jsa",
             "vanishing_nonlinearity_jsa", "overflowing_rate_product", "overflowing_nonlinearity",
             "huge_nonlinearity", "overflowing_nonlinearity_jsa", "huge_nonlinearity_jsa",
             "finesse_past_float_range", "negligible_phantom",
             "ratios_past_float_range", "lossless_sigma_one", "narrow_lossless_line",
             "overflowing_bus_rate", "overflowing_pump_velocity", "overflowing_pump_frequency",
             "overflowing_frequency", "vanishing_sigma_min", "oracle_nan_1e-78",
             "oracle_nan_1e-50", "unresolved_idler_line", "unresolved_idler_line_phantom",
             "jsa_window_below_one_ulp", "finesse_axis_of_nan_couplings"])
    def test_zero_reference_rate_gives_no_traceback_and_no_nan(self, tmp_path, capsys,
                                                               name, edits, expected):
        # a rate that underflows to 0 leaves the strategies' relative
        # difference undefined, and an all-zero sweep its optimum; a rate that
        # overflows or is 0/0 has no value. Those commands stop with one line
        # instead of writing NaN, inf or a meaningless argmax
        doc = bundled(name)
        for path, value in edits.items():  # dotted paths, list indices as digits
            *keys, last = (int(k) if k.isdigit() else k for k in path.split("."))
            target = doc
            for k in keys:
                target = target[k]
            target[last] = value
        cfg = _write_config(tmp_path, doc)
        for command in cli._HANDLERS:
            out = tmp_path / command
            code = main([command, "--config", cfg, "--out", str(out)])
            err = capsys.readouterr().err
            if code == 0:
                assert err == ""
                for path in out.iterdir():
                    _assert_finite_numbers(path)
            else:
                assert code in (1, 2)
                assert len(err.splitlines()) == 1 and "Traceback" not in err
            # only a config that sets the pump detuning is told it is wrong
            assert "pump.detuning_rad_per_s" in edits or "pump.detuning_rad_per_s" not in err
            if command in expected:
                want, line = expected[command]
                assert code == want, (command, err)
                assert line is None or err.startswith(line.format(command)), (command, err)

    def test_jsa_holds_no_grid(self, tmp_path):
        # the normalization and both tables walk blocks of rows formed from
        # the JSA's factors, so no array the size of the 512^2 grid exists
        doc = bundled()
        doc["pump"] = {"kind": "pulsed", "duration_fwhm_ps": 10.0}
        argv = ["jsa", "--config", _write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        assert main(argv) == 0  # the lazy imports and caches, which are not the grid's
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        values_nbytes = 512 * 512 * np.dtype(complex).itemsize
        assert peak <= values_nbytes / 6, peak / values_nbytes

    def test_add_drop_grid_holds_only_its_values(self, tmp_path):
        # the grid is computed and written a block of t-rows at a time, so of
        # the default 81^2 grid only the nine value Columns, about 1.9 MB, are
        # held whole; one pair_rates call on every cell peaks at 6.5 MB
        argv = ["add-drop-grid", "--config", _write_config(tmp_path, bundled("add_drop.json")),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 0  # the lazy imports and caches, which are not the grid's
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6, peak

    @pytest.mark.parametrize("detuning", [1.2e15, -1.2e15])
    def test_jsa_far_detuned_pump_names_the_offset(self, tmp_path, capsys, detuning):
        # the pairs sit near 2 omega_o, 2e4 summed linewidths from the grid's
        # centre omega_S + omega_I, so no grid extent or resolution helps
        doc = bundled()
        doc["pump"] = {"kind": "pulsed", "duration_fwhm_ps": 10.0,
                       "detuning_rad_per_s": detuning}
        doc["options"] = {"jsa": {"grid_points": 64}}
        out = tmp_path / "o"
        assert main(["jsa", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("jsa: JSA grid normalization residual 1.000e+00 exceeds "
                              "tolerance 2.5e-03; the pairs' energy 2 omega_o lies 2.02e+04 "
                              "linewidths (Gbar_S + Gbar_I) from the grid centre")
        assert err.endswith("raise kappa_max (now 8) past that or detune the pump less")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("detuning", [1e200, -1e200, 1.3e15])
    def test_pulsed_carrier_outside_band_exits_2(self, tmp_path, capsys, detuning):
        doc = eta_config(pump={"kind": "pulsed", "duration_fwhm_ps": 10.0,
                               "detuning_rad_per_s": detuning})
        out = tmp_path / "o"
        assert main(["jsa", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid config: pump.detuning_rad_per_s: ")
        assert len(err.splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize("command, edit, field", [
        ("rate", {"channels": {"gamma_rad_per_s": 5e12}},
         "system.channels[0].coupling.gamma_rad_per_s"),
        ("compare-finesse", {"options": {"compare_finesse": {"min": 0.01}}},
         "options.compare_finesse.min")], ids=["bus", "finesse_axis"])
    def test_outside_point_coupling_regime_exits_2(self, tmp_path, capsys, command, edit,
                                                   field):
        # strategy 1 needs a self-coupling above 0; the phantom model does not
        doc = bundled()
        if "channels" in edit:
            doc["system"]["channels"][0]["coupling"] = edit["channels"]
        doc["options"] = edit.get("options", {})
        cfg = _write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid config: {field}: ") and len(err.splitlines()) == 1
        if command == "rate":
            doc["strategy"] = "phantom"
            cfg = _write_config(tmp_path, doc)
            assert main([command, "--config", cfg, "--out", str(tmp_path / "p")]) == 0

    @pytest.mark.parametrize("command", ["rate", "sweep-sigma"])
    def test_overflowing_outgoing_field_exits_2(self, tmp_path, capsys, command):
        # at radius 1 m and 26 dB/cm the outgoing fields of strategy 1 would
        # grow as e^{xi L / 2} = e^{942}, beyond double precision; the phantom
        # model has no such field
        doc = bundled()
        doc["system"]["ring"]["radius_m"] = 1.0
        cfg = _write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid config: system.ring.loss_db_per_cm: ")
        assert len(err.splitlines()) == 1
        if command == "rate":
            doc["strategy"] = "phantom"
            cfg = _write_config(tmp_path, doc)
            assert main([command, "--config", cfg, "--out", str(tmp_path / "p")]) == 0

    @pytest.mark.parametrize("command", ["rate", "ratios", "sweep-sigma", "sweep-eta",
                                         "compare-finesse", "add-drop-grid"])
    def test_tol_rejected_where_ignored(self, tmp_path, capsys, command):
        cfg = _write_config(tmp_path, bundled())
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--tol", "1e-3"]) == 2
        err = capsys.readouterr().err
        assert err == f"{command}: --tol applies only to jsa and oracle-check\n"
        assert not out.exists()

    def test_help_names_the_commands_that_read_tol(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "gate of jsa (normalization residual) or oracle-check" in help_text

    def test_unknown_command_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", "x.json"])

    def test_threads_option_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-sigma", "--config", "x.json", "--threads", "2"])
        assert exc.value.code == 2


def _assert_finite_numbers(path: Path) -> None:
    """Every number in a CSV cell or a JSON value is finite (JSON's NaN and
    Infinity literals included)."""
    if path.suffix == ".json":
        def reject(literal):
            raise AssertionError(f"{path.name}: {literal}")
        values = [json.loads(path.read_text(), parse_constant=reject)]
        while values:
            v = values.pop()
            if isinstance(v, dict):
                values.extend(v.values())
            elif isinstance(v, list):
                values.extend(v)
            elif isinstance(v, float):
                assert math.isfinite(v), path.name
        return
    for row in _read_csv(path)[1:]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue  # a channel id or a strategy name
            assert math.isfinite(value), f"{path.name}: {cell}"


def _csv_writer_bytes(header: list, rows) -> bytes:
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode()


# each power of ten where repr or orjson may change layout, its neighbouring
# doubles, 0.9x and 1.1x of it, and the negatives of all of these
_DECADE_EDGES = [sign * x for k in range(-12, 21) for v in (float(f"1e{k}"),)
                 for x in (v, math.nextafter(v, 0.0), math.nextafter(v, math.inf),
                           0.9 * v, 1.1 * v)
                 for sign in (1.0, -1.0)] + [0.0, -0.0]
_CELLS = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                   st.sampled_from(_DECADE_EDGES))
_BLOCKS = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(_CELLS, min_size=n, max_size=n), min_size=1, max_size=8))


def test_write_csv_formatting(tmp_path):
    # the shortest round-trip repr of each float, as str() of ints and ids
    path = tmp_path / "t.csv"
    cli._write_csv(path, ["x", "kappa1\\kappa2"],
                   [[0.1, 1e-05, 1e+16, -0.0, 5e-324, 3, "T"], ["P", -2.5, 0]])
    assert path.read_bytes() == (b"x,kappa1\\kappa2\r\n0.1,1e-05,1e+16,-0.0,5e-324,3,T\r\n"
                                 b"P,-2.5,0\r\n")
    # the row-wise float writer gives csv.writer's bytes, on numpy blocks and
    # on lists of Python-float rows alike
    header, rows = ["kappa1\\kappa2", "x"], [[0.1, 1e-05, 1e+16], [-0.0, 5e-324, -2.5]]
    for block in (np.array, list):
        _write_float_rows(path, header, rows, block)
        assert path.read_bytes() == _csv_writer_bytes(header, rows) == (
            b"kappa1\\kappa2,x\r\n0.1,1e-05,1e+16\r\n-0.0,5e-324,-2.5\r\n")
    # every decade edge, then blocks of any doubles (NaN, inf, subnormals, -0.0)
    # and one block whose column holds a NaN between plain cells, which min
    # and max pass over
    for rows in ([_DECADE_EDGES[i:i + 2] for i in range(0, len(_DECADE_EDGES), 2)],
                 [[1.0, 2.0], [math.nan, 3.0], [4.0, 5.0]]):
        for block in (np.array, list):
            _write_float_rows(path, header, rows, block)
            assert path.read_bytes() == _csv_writer_bytes(header, rows)

    @given(_BLOCKS)
    @settings(max_examples=300, deadline=None)
    def writes_csv_writer_bytes(rows):
        for block in (np.array, list):
            _write_float_rows(path, header, rows, block)
            assert path.read_bytes() == _csv_writer_bytes(header, rows), block

    writes_csv_writer_bytes()
    # and so do the jsa grids, checked against csv.writer on the same arrays;
    # 97 rows leave a last block shorter than the others
    doc = eta_config(pump={"kind": "pulsed", "duration_fwhm_ps": 10.0})
    doc["options"] = {"jsa": {"grid_points": 97}}
    out = tmp_path / "jsa"
    assert main(["jsa", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    config = parse_config(doc)
    grid = jsa.build_jsa(config.system, config.pump, n=97)
    header = ["kappa1\\kappa2"] + grid.kappa.tolist()
    for name, data in (("jsa_abs2.csv", jsa.abs2(grid.values)),
                       ("jsa_phase.csv", np.angle(grid.values))):
        rows = [[k] + row for k, row in zip(grid.kappa.tolist(), data.tolist())]
        assert (out / name).read_bytes() == _csv_writer_bytes(header, rows), name


def _write_float_rows(path: Path, header: list, rows: list, block=np.array) -> None:
    """Rows through cli._write_float_csv, appended in blocks of up to 3, so
    that a table split into blocks is checked too; block makes each a numpy
    array (np.array) or a list of Python-float rows (list)."""
    with cli._write_float_csv(path, header) as append:
        for start in range(0, len(rows), 3):
            append(block(rows[start:start + 3]))


def test_add_drop_grid_csv_is_csv_writer_bytes(tmp_path):
    # the grid's Python-float rows across every layout band of
    # _write_float_csv: R scales as the pump power squared, so these powers
    # put cells below 0.9e-9, in 1.1e-9..0.9e-5, in 1e-5..1e-4 and at
    # 0.9e16 and above. 21^2 = 441 rows of 11 cells span two orjson blocks
    doc = bundled("add_drop.json")
    doc["options"] = {"add_drop_grid": {"points": 21}}
    bands = {"tiny": lambda a: a < 0.9e-9, "pad": lambda a: 1.1e-9 < a < 0.9e-5,
             "repr_only": lambda a: 1e-5 <= a <= 1e-4, "huge": lambda a: a >= 0.9e16}
    seen = set()
    for power_mw in (1e-8, 1e-6, 1e-5, 1e6):
        doc["pump"]["power_mw"] = power_mw
        config = parse_config(doc)
        out = tmp_path / f"p{power_mw:g}"
        assert main(["add-drop-grid", "--config", _write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        axis = cli._axis(config, "add_drop_grid", "min_ratio", "max_ratio", "points",
                         (0.05, 5.0, 81), log=True)
        result = sweeps.add_drop_grid(config.system, axis, axis, config.pump)
        keys = sorted(result.values)
        rows = [[t, d, *(result.values[k][i * len(axis) + j] for k in keys)]
                for i, t in enumerate(axis) for j, d in enumerate(axis)]
        header = ["gamma_t_ratio", "gamma_d_ratio"] + keys
        assert (out / "add_drop_grid.csv").read_bytes() == _csv_writer_bytes(header, rows)
        seen |= {band for row in rows for x in row for band, has in bands.items()
                 if has(abs(x))}
    assert seen == set(bands)


def _last_json_line(code: str):
    """The last line code prints in a fresh interpreter, decoded as JSON."""
    src = str(Path(lossy_ring_sfwm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _loaded_modules(code: str) -> list[str]:
    """The modules loaded after running code in a fresh interpreter."""
    return _last_json_line(code + "\nimport json\nprint(json.dumps(sorted(sys.modules)))\n")


def _stdlib_loaded(parser: bool) -> set[str]:
    """The modules that the standard modules the package imports load on their own.

    Where argparse's help formatter, which every add_argument builds, loads
    dataclasses and inspect (its colour themes are dataclasses on Python
    3.14), no command can keep them out; the package is asked only not to
    add them.
    """
    code = ("import argparse, contextlib, csv, enum, json, math, sys, warnings\n"
            "from importlib import resources\n"
            "from pathlib import Path\n"
            "from typing import Any, Mapping\n")
    if parser:
        code += "argparse.ArgumentParser().add_argument('--config')\n"
    return set(_loaded_modules(code))


def _layers(loaded: list[str]) -> set[str]:
    """The layers of the package among loaded modules."""
    return {m.rpartition(".")[2] for m in loaded if m.startswith("lossy_ring_sfwm.")} \
        & {"attenuation", "jsa", "phantom", "sweeps"}


def test_import_and_parse_load_no_numpy():
    # each handler imports the layers it runs, and parsing runs none of them;
    # config, model and constants compute in plain Python, so a bad config
    # or --help never waits for numpy. The config hash is CPython's built-in
    # SHA-256, so no command loads OpenSSL, which importing hashlib does. The
    # value classes are plain classes on frozen.Frozen, so the package loads
    # neither dataclasses nor the inspect module it imports
    code = ("import sys\n"
            "from importlib import resources\n"
            "import lossy_ring_sfwm.cli\n"
            "from lossy_ring_sfwm.config import parse_config\n"
            "for name in ('ring_channel.json', 'add_drop.json'):\n"
            "    parse_config((resources.files('lossy_ring_sfwm') / 'configs' / name)"
            ".read_text())\n")
    loaded = _loaded_modules(code)
    assert [m for m in loaded if m.split(".")[0] in ("numpy", "scipy")] == []
    assert "lossy_ring_sfwm.numerics" not in loaded
    assert "concurrent.futures" not in loaded  # the sweeps run in one thread
    assert _layers(loaded) == set()
    assert "_hashlib" not in loaded
    assert {"dataclasses", "inspect"} & set(loaded) <= _stdlib_loaded(parser=False)


def test_exits_before_a_handler_load_no_numpy(tmp_path):
    # every exit 2 that main takes before a handler runs prints one line and
    # loads no numpy; an argparse error too, without its usage lines. A
    # config that cannot be read as UTF-8 text, or an --out that cannot be
    # made a directory, names its path
    bad_json = _write_config(tmp_path, "{", name="bad.json")
    unknown_key = _write_config(tmp_path, {**bundled(), "extra": 1}, name="unknown.json")
    good = _write_config(tmp_path, bundled(), name="good.json")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"strategy": "\xe9"}'.encode("latin-1"))
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    out = str(tmp_path / "out")
    runs = {"missing file": (["rate", "--config", str(tmp_path / "nope.json")],
                             "config file not found: "),
            "invalid JSON": (["rate", "--config", bad_json], "invalid config: "),
            "unknown key": (["rate", "--config", unknown_key], "invalid config: $.extra: "),
            "--tol on rate": (["rate", "--config", good, "--tol", "1e-3"],
                              "rate: --tol applies only to jsa and oracle-check"),
            # as the config's max_rel_dev, --tol is finite and >= 0: a NaN or
            # an infinity would pass every run, a negative one fail it
            **{f"--tol {tol}": (["oracle-check", "--config", good, "--tol", tol],
                                "lossy-ring-sfwm: error: argument --tol: expected a finite "
                                f"number >= 0, got '{tol}'") for tol in ("nan", "inf", "-1")},
            "unknown command": (["bogus", "--config", good],
                                "lossy-ring-sfwm: error: argument command: invalid choice"),
            "no --config": (["rate"], "lossy-ring-sfwm: error: the following arguments are "
                                      "required: --config"),
            "config a directory": (["rate", "--config", str(tmp_path)],
                                   f"config file not readable: {tmp_path}: "),
            "config not UTF-8": (["rate", "--config", str(latin1)],
                                 f"config file not UTF-8: {latin1}: "),
            "--out a file": (["rate", "--config", good, "--out", str(taken)],
                             f"cannot create output directory: {taken}: "),
            "--out under a file": (["rate", "--config", good, "--out", str(taken / "out")],
                                   f"cannot create output directory: {taken / 'out'}: ")}
    argvs = {name: argv for name, (argv, _) in runs.items()}
    code = ("import contextlib, io, json, sys\n"
            "from lossy_ring_sfwm.cli import main\n"
            "results = {}\n"
            f"for name, argv in {argvs!r}.items():\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        try:\n"
            f"            code = main(argv if '--out' in argv else argv + ['--out', {out!r}])\n"
            "        except SystemExit as e:\n"
            "            code = e.code\n"
            "    results[name] = [code, err.getvalue(), 'numpy' in sys.modules]\n"
            "print(json.dumps(results))\n")
    results = _last_json_line(code)
    for name, (_, message) in runs.items():
        status, err, numpy_loaded = results[name]
        lines = err.splitlines()
        assert status == 2, name
        assert len(lines) == 1 and lines[0].startswith(message), (name, err)
        assert not numpy_loaded, name
    assert not (tmp_path / "out").exists()


def test_numpy_overflow_warnings_stay_off_stderr(tmp_path):
    # at this pulse length jsa's pair-mass integrand divides 0 by 0 in numpy,
    # and stderr holds main's one line and no warning: cmd_jsa ignores the
    # RuntimeWarnings numpy would print. pytest records warnings itself, so
    # only a fresh interpreter shows one
    doc = bundled()
    doc["pump"] = {"kind": "pulsed", "duration_fwhm_ps": 1e-300}
    doc["options"] = {"jsa": {"grid_points": 64}}
    cfg = _write_config(tmp_path, doc)
    out = str(tmp_path / "out")
    code = ("import contextlib, io, json\n"
            "from lossy_ring_sfwm.cli import main\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            f"    status = main(['jsa', '--config', {cfg!r}, '--out', {out!r}])\n"
            "print(json.dumps([status, err.getvalue()]))\n")
    assert _last_json_line(code) == [2, "invalid config: pump.duration_fwhm_ps: the pair-mass "
                                        "integrand leaves the float range at pulse length "
                                        "tau = 6.01e-313 s\n"]


# numpy packages no command needs: the quadrature and Faddeeva tables are constants
_TABLE_MODULES = ("numpy.polynomial", "numpy.fft")


def test_commands_load_only_their_layers(tmp_path):
    # the Gauss-Legendre and Weideman tables are constants, so no command,
    # jsa included, loads numpy.polynomial or numpy.fft. Only the 2-D grids
    # of jsa and add-drop-grid are written through orjson, so the sweeps,
    # rates and oracle checks must not pay for its import. Each command
    # loads only the layers it runs: phantom for the closed forms and the
    # strategies' difference, sweeps for a sweep, attenuation for strategy 1
    # and jsa for the JSA. None hashes its config through OpenSSL, and none
    # adds dataclasses to what its parser loads. Only jsa loads numpy: every
    # other command computes in Python floats, add-drop-grid's grid and the
    # log axis of the single-bus compare-finesse too
    closed_forms, maps = {"phantom"}, {"phantom", "sweeps"}
    strategy1 = {"attenuation", "phantom", "sweeps"}
    stdlib = _stdlib_loaded(parser=True)
    # (command, config, options, layers, whether numpy is loaded)
    runs = [("oracle-check", "ring_channel.json", {}, closed_forms, False),
            ("oracle-check", "add_drop.json", {}, closed_forms, False),
            ("ratios", "ring_channel.json", {}, closed_forms, False),
            ("sweep-eta", "ring_channel.json",
             {"sweep_eta": {"min": 0.3, "max": 0.7, "points": 3}}, maps, False),
            ("add-drop-grid", "add_drop.json",
             {"add_drop_grid": {"min_ratio": 0.5, "max_ratio": 2.0, "points": 3}}, maps, False),
            ("rate", "add_drop.json", {}, {"attenuation", "phantom"}, False),
            ("sweep-sigma", "ring_channel.json",
             {"sweep_sigma": {"min": 0.97, "max": 0.99, "points": 3}}, strategy1, False),
            ("compare-finesse", "ring_channel.json",
             {"compare_finesse": {"min": 100.0, "max": 200.0, "points": 2}}, strategy1, False),
            ("compare-finesse", "add_drop.json",
             {"compare_finesse": {"sigma2_min": 0.9, "sigma2_max": 0.99, "points": 2}},
             strategy1, False)]
    for i, (command, name, options, layers, numpy) in enumerate(runs):
        doc = bundled(name)
        doc["options"] = options
        cfg = _write_config(tmp_path, doc, name=f"cfg{i}.json")
        code = ("import sys\n"
                "from lossy_ring_sfwm.cli import main\n"
                f"assert main([{command!r}, '--config', {cfg!r}, "
                f"'--out', {str(tmp_path / f'o{i}')!r}]) == 0\n")
        loaded = _loaded_modules(code)
        assert "lossy_ring_sfwm.numerics" in loaded, command
        assert ("numpy" in loaded) == numpy, (command, name)
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == [], command
        assert not [m for m in loaded if m.startswith(_TABLE_MODULES)], command
        assert ("orjson" in loaded) == (command == "add-drop-grid"), command
        assert _layers(loaded) == layers, command
        assert "_hashlib" not in loaded, command
        assert "dataclasses" not in set(loaded) - stdlib, command
    doc = bundled()
    doc["pump"] = {"kind": "pulsed", "duration_fwhm_ps": 10.0}
    doc["options"] = {"jsa": {"grid_points": 64}}
    cfg = _write_config(tmp_path, doc, name="pulsed.json")
    loaded = _loaded_modules("import sys\n"
                             "from lossy_ring_sfwm.cli import main\n"
                             f"assert main(['jsa', '--config', {cfg!r}, "
                             f"'--out', {str(tmp_path / 'jsa')!r}]) == 0\n")
    assert {"numpy", "lossy_ring_sfwm.numerics"} <= set(loaded)
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    assert not [m for m in loaded if m.startswith(_TABLE_MODULES)]
    assert "orjson" in loaded
    assert _layers(loaded) == {"jsa", "phantom"}
    assert "_hashlib" not in loaded
    assert "dataclasses" not in set(loaded) - stdlib
