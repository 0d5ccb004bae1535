"""Configuration ingestion and the command-line interface."""

import csv
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import lossy_ring_sfwm
from lossy_ring_sfwm import cli
from lossy_ring_sfwm.cli import main
from lossy_ring_sfwm.config import (ConfigError, derived_echo, parse_config,
                                    serialize_config)
from lossy_ring_sfwm.model import Band, CwPump, PulsedPump
from lossy_ring_sfwm.numerics import QuadratureError


def bundled_config_text(name="ring_channel.json") -> str:
    return (resources.files("lossy_ring_sfwm") / f"configs/{name}").read_text()


def eta_config(eta=0.6, pump=None) -> dict:
    return {
        "system": {
            "ring": {"radius_m": 1e-5, "loss_db_per_cm": 26.0,
                     "gamma_nl_per_w_m": 100.0},
            "bands": {"wavelength_nm": 1550.0, "effective_index": 2.4,
                      "group_velocity_m_per_s": 1e8},
            "channels": [
                {"id": "O", "coupling": {"eta": eta}},
                {"id": "P", "kind": "phantom", "coupling": {"from_loss": True}},
            ],
            "pump_input_channel": "O",
        },
        "pump": pump or {"kind": "cw", "power_mw": 1.0},
        "strategy": "phantom",
    }


class TestParseConfig:
    def test_bundled_reference_echo(self):
        cfg = parse_config(bundled_config_text())
        echo = derived_echo(cfg)
        assert echo["roundtrip_amplitude"] == pytest.approx(0.9814, rel=1e-3)
        assert echo["q_intrinsic"] == pytest.approx(2.0e4, rel=0.03)
        assert echo["q_load_pump"] == pytest.approx(1.0e4, rel=0.03)
        assert echo["eta_O"] == pytest.approx(0.5, abs=0.01)
        assert echo["finesse"] == pytest.approx(84.0, rel=1e-3)

    def test_round_trip(self):
        cfg = parse_config(bundled_config_text())
        again = parse_config(serialize_config(cfg))
        assert again.system == cfg.system
        assert again.pump == cfg.pump
        assert again.strategy == cfg.strategy
        assert again.config_hash == cfg.config_hash

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


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCommands:
    def test_rate_both_strategies(self, tmp_path):
        cfg = _write_config(tmp_path, bundled_config_text())
        out = tmp_path / "out"
        assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
        rows = _read_csv(out / "rate.csv")
        assert rows[0] == ["strategy", "signal_exit", "idler_exit", "rate_pairs_per_s"]
        assert len(rows) == 6  # four phantom pairs + one attenuation pair
        meta = json.loads((out / "rate_meta.json").read_text())
        assert meta["rel_difference"] < 0.15
        assert "config_hash" in meta

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

    def test_oracle_check_gate_can_fail(self, tmp_path):
        cfg = _write_config(tmp_path, eta_config(eta=0.55))
        out = tmp_path / "out"
        # an absurdly tight gate must flip the exit status
        assert main(["oracle-check", "--config", cfg, "--out", str(out),
                     "--tol", "1e-16"]) == 1

    def test_sweep_eta_deterministic_and_thread_independent(self, tmp_path):
        doc = eta_config(eta=0.5)
        doc["options"] = {"sweep_eta": {"min": 0.2, "max": 0.8, "points": 7}}
        cfg = _write_config(tmp_path, doc)
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / name
            assert main(["sweep-eta", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == 0
            outs.append((out / "sweep_eta.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_sweep_sigma_metadata(self, tmp_path):
        doc = json.loads(bundled_config_text())
        doc["options"] = {"sweep_sigma": {"min": 0.96, "max": 0.99, "points": 13}}
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sweep-sigma", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "sweep_sigma_meta.json").read_text())
        assert meta["argmax_sigma"] < meta["sigma_critical"]

    def test_compare_finesse_single_bus(self, tmp_path):
        doc = json.loads(bundled_config_text())
        doc["options"] = {"compare_finesse": {"min": 80.0, "max": 1200.0, "points": 5}}
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["compare-finesse", "--config", cfg, "--out", str(out)]) == 0
        rows = _read_csv(out / "compare_finesse.csv")
        assert rows[0][0] == "finesse"
        rel = [float(r[3]) for r in rows[1:]]
        assert rel[-1] < rel[0] < 0.15

    def test_compare_finesse_add_drop(self, tmp_path):
        cfg = _write_config(tmp_path, bundled_config_text("add_drop.json"))
        out = tmp_path / "out"
        doc = json.loads(bundled_config_text("add_drop.json"))
        doc["options"] = {"compare_finesse": {"points": 5}}
        cfg = _write_config(tmp_path, doc)
        assert main(["compare-finesse", "--config", cfg, "--out", str(out)]) == 0
        rows = _read_csv(out / "compare_finesse.csv")
        assert rows[0][0] == "sigma2"

    def test_add_drop_grid(self, tmp_path):
        doc = json.loads(bundled_config_text("add_drop.json"))
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

    def test_jsa_residual_gate(self, tmp_path):
        doc = eta_config(pump={"kind": "pulsed", "duration_fwhm_ps": 10.0})
        doc["options"] = {"jsa": {"grid_points": 128}}
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["jsa", "--config", cfg, "--out", str(out),
                     "--tol", "1e-5"]) == 1

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

    @pytest.mark.parametrize("ref", [["Z", "Z"], ["O", "Z"], ["O", "Q"], "OO", ["O"],
                                     [], ["O", "O", "O"]])
    def test_jsa_reference_pair_rejected(self, tmp_path, capsys, ref):
        cfg = _write_config(tmp_path, self._jsa_three_channel_config(ref))
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

    def test_unknown_command_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", "x.json"])


def test_write_csv_formatting(tmp_path):
    # the shortest round-trip repr of each float, as str() of ints and ids
    path = tmp_path / "t.csv"
    cli._write_csv(path, ["x", "kappa1\\kappa2"],
                   [[0.1, 1e-05, 1e+16, -0.0, 5e-324, 3, "T"], ["P", -2.5, 0]])
    assert path.read_bytes() == (b"x,kappa1\\kappa2\r\n0.1,1e-05,1e+16,-0.0,5e-324,3,T\r\n"
                                 b"P,-2.5,0\r\n")


def test_import_and_parse_leave_scipy_unloaded():
    # the closed-form commands never integrate, so they must not pay for scipy
    code = ("import sys\n"
            "from importlib import resources\n"
            "import lossy_ring_sfwm.cli\n"
            "from lossy_ring_sfwm.config import parse_config\n"
            "for name in ('ring_channel.json', 'add_drop.json'):\n"
            "    parse_config((resources.files('lossy_ring_sfwm') / 'configs' / name)"
            ".read_text())\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(lossy_ring_sfwm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
