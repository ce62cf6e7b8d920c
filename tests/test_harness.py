"""Harness plumbing: seeded data, snapshots, configs, CSV, CLI exit codes."""

import csv
import json
import warnings

import numpy as np
import pytest

from ekwave import cli, scenarios
from ekwave.diagnostics import NormSpec, norm
from ekwave.errors import ConfigError, SnapshotError
from ekwave.grid import Field, FourierGrid
from ekwave.initial_data import InitialDataSpec, generate_initial_data
from ekwave.laws import ConstitutiveLaws
from ekwave.snapshots import load_snapshot, save_snapshot
from ekwave.spectral import proj_p_spec

QUANTUM = ConstitutiveLaws.quantum()


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_delta_zero_gives_potential_velocity():
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    s = generate_initial_data(InitialDataSpec(amplitude=0.05), g, QUANTUM, 9)
    pu = Field.from_spectral(g, proj_p_spec(g, s.u.spectral))
    assert pu.l2norm() <= 1e-12


def test_same_seed_bit_identical():
    g = FourierGrid((32, 32), (2 * np.pi, 2 * np.pi))
    spec = InitialDataSpec(amplitude=0.05, solenoidal=0.02)
    a = generate_initial_data(spec, g, QUANTUM, 1234)
    b = generate_initial_data(spec, g, QUANTUM, 1234)
    assert a.rho.values.tobytes() == b.rho.values.tobytes()
    assert a.u.data.tobytes() == b.u.data.tobytes()
    c = generate_initial_data(spec, g, QUANTUM, 1235)
    assert c.u.data.tobytes() != a.u.data.tobytes()


def test_solenoidal_norm_is_renormalized():
    g = FourierGrid((64, 64), (2 * np.pi, 2 * np.pi))
    spec = InitialDataSpec(amplitude=0.05, solenoidal=0.03)
    s = generate_initial_data(spec, g, QUANTUM, 5)
    assert abs(norm(g, proj_p_spec(g, s.u.spectral), NormSpec(0, 2.0)) - 0.03) <= 1e-10


def test_solenoidal_rejected_in_one_dimension():
    g = FourierGrid(64, 2 * np.pi)
    with pytest.raises(ConfigError):
        generate_initial_data(InitialDataSpec(solenoidal=0.01), g, QUANTUM, 0)


def test_band_limit_capped_by_dealiasing():
    g = FourierGrid(32, 2 * np.pi)
    with pytest.raises(ConfigError):
        generate_initial_data(InitialDataSpec(band_limit=100.0), g, QUANTUM, 0)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def sample_fields(grid, seed=3):
    r = np.random.default_rng(seed)
    return {
        "l": Field.scalar(grid, r.standard_normal(grid.shape)),
        "u": Field.vector(grid, r.standard_normal((grid.dim,) + grid.shape)),
        "psi": Field.scalar(grid, r.standard_normal(grid.shape)
                            + 1j * r.standard_normal(grid.shape)),
    }


def test_snapshot_round_trip_bit_exact(tmp_path):
    g = FourierGrid((32, 16), (2 * np.pi, 4 * np.pi))
    fields = sample_fields(g)
    path = tmp_path / "state.eksnap"
    save_snapshot(path, fields, time=0.375)
    loaded, t, lg = load_snapshot(path, g)
    assert t == 0.375 and lg == g
    for name, f in fields.items():
        assert loaded[name].data.tobytes() == f.data.tobytes()


def test_snapshot_header_byte_count(tmp_path):
    g = FourierGrid((64, 64), (2 * np.pi, 2 * np.pi))
    f = {"l": Field.scalar(g, np.zeros(g.shape))}
    path = tmp_path / "h.eksnap"
    save_snapshot(path, f)
    # the documented layout: magic, version, d, N_i, L_i, time, nfields,
    # then name_len, name, ncomp and kind per field, then the f64 samples
    header = 8 + 4 + 4 + 4 * 2 + 8 * 2 + 8 + 4 + (4 + len("l") + 4 + 4)
    expected = header + 8 * 64 * 64
    assert path.stat().st_size == expected


def test_snapshot_corrupted_magic(tmp_path):
    g = FourierGrid(16, 2 * np.pi)
    path = tmp_path / "bad.eksnap"
    save_snapshot(path, {"l": Field.scalar(g, np.zeros(g.shape))})
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError):
        load_snapshot(path)


def test_snapshot_truncation(tmp_path):
    g = FourierGrid(16, 2 * np.pi)
    path = tmp_path / "short.eksnap"
    save_snapshot(path, {"l": Field.scalar(g, np.ones(g.shape))})
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 8])
    with pytest.raises(SnapshotError):
        load_snapshot(path)


def test_snapshot_grid_mismatch(tmp_path):
    g = FourierGrid(16, 2 * np.pi)
    path = tmp_path / "g.eksnap"
    save_snapshot(path, {"l": Field.scalar(g, np.zeros(g.shape))})
    with pytest.raises(SnapshotError):
        load_snapshot(path, FourierGrid(32, 2 * np.pi))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_round_trip_byte_identical(tmp_path):
    cfg = scenarios.default_config("lifespan")
    text = cfg.to_json()
    back = scenarios.ScenarioConfig.from_dict(json.loads(text))
    assert back.to_json() == text
    assert back.digest() == cfg.digest()
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert scenarios.load_config(path).to_json() == text


def test_config_rejects_unknown_keys():
    d = scenarios.default_config("ode").to_dict()
    d["grid"]["spacing"] = 0.1
    with pytest.raises(ConfigError):
        scenarios.ScenarioConfig.from_dict(d)
    with pytest.raises(ConfigError):
        scenarios.ScenarioConfig.from_dict({"scenario": "warp"})
    d = scenarios.default_config("normalform").to_dict()
    d["params"]["eps_lst"] = [0.1]
    with pytest.raises(ConfigError):
        scenarios.ScenarioConfig.from_dict(d)


def test_config_override_paths():
    cfg = scenarios.default_config("simulate")
    cfg.apply_override("solver.dt", "0.005")
    cfg.apply_override("seed", "7")
    cfg.apply_override("initial_data.amplitude", "0.02")
    assert cfg.solver["dt"] == 0.005
    assert cfg.seed == 7
    assert cfg.initial_data["amplitude"] == 0.02
    with pytest.raises(ConfigError):
        cfg.apply_override("nonsense", "1")


def test_digest_tracks_content():
    a = scenarios.default_config("ode")
    b = scenarios.default_config("ode")
    b.seed += 1
    assert a.digest() != b.digest()


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_csv_rfc4180_and_float_fidelity(tmp_path):
    rows = [{"t": np.pi, "name": "a,b", "ok": True},
            {"t": 1.0 / 3.0, "name": 'say "hi"', "ok": False}]
    path = tmp_path / "table.csv"
    scenarios.write_csv(path, rows)
    raw = path.read_bytes()
    assert b"\r\n" in raw
    assert b'"a,b"' in raw
    with open(path, newline="", encoding="utf-8") as fh:
        got = list(csv.DictReader(fh))
    assert float(got[0]["t"]) == np.pi          # 17 significant digits
    assert float(got[1]["t"]) == 1.0 / 3.0
    assert got[1]["name"] == 'say "hi"'
    assert [r["ok"] for r in got] == ["true", "false"]


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------

def test_run_scenario_resonance_defaults(tmp_path):
    report = scenarios.run_scenario(scenarios.default_config("resonance"),
                                    out_dir=tmp_path)
    assert report.all_passed
    assert (tmp_path / "resonance_report.json").exists()
    assert (tmp_path / "resonance_asymptotic.csv").exists()
    data = json.loads((tmp_path / "resonance_report.json").read_text())
    assert data["all_passed"]


def test_run_scenario_captures_module_errors():
    cfg = scenarios.default_config("simulate")
    cfg.grid = {"shape": [32], "lengths": [2.0 * np.pi]}
    cfg.initial_data["amplitude"] = 2.0     # density dips below the floor
    report = scenarios.run_scenario(cfg)
    assert report.errors and not report.all_passed


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_pass_exit_code(capsys):
    assert cli.main(["resonance"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_cli_config_error_exit_code(tmp_path):
    path = tmp_path / "ode.json"
    path.write_text(scenarios.default_config("ode").to_json())
    # config declared for a different scenario than the subcommand
    assert cli.main(["resonance", "--config", str(path)]) == 2
    assert cli.main(["resonance", "--override", "notkeyvalue"]) == 2


@pytest.mark.parametrize("command, overrides", [
    ("simulate", ["solver.typo=1"]),
    ("simulate", ['laws.params={"K_coefs":[1,0.5]}', "laws.name=polynomial"]),
    ("simulate", ["grid.shape.x=1"]),
    ("simulate", ["seed=abc"]),
    ("simulate", ['solver.dt="abc"']),
    ("simulate", ['solver.snapshot_stride="x"']),
    ("simulate", ['solver.rho_min_stop="x"']),
    ("simulate", ['initial_data.amplitude="x"']),
    ("simulate", ["solver.dealias=false"]),
    ("simulate", ["solver.check_stability=false"]),
    ("simulate", ["params.eps_lst=[0.1]"]),
    ("lifespan", ['params.eps="x"']),
    ("normalform", ["params.eps_list=0.1"]),
    ("lifespan", ['params.deltas=[0.04,"a"]']),
    ("resonance", ["params.eps_list=[]"]),
    ("normalform", ["params.eps_list=[]"]),
    ("lifespan", ["params.deltas=[]"]),
    ("dispersion", ["params.n_samples=-1"]),
    ("blowup", ["params.width=0"]),
    ("ode", ["params.y0_comparison=0"]),
    ("lifespan", ["params.T_max=-1"]),
    ("lifespan", ["params.T_max=Infinity"]),
    ("lifespan", ["params.deltas=[0.04,-0.01]"]),
    ("blowup", ["params.dt=0"]),
], ids=["unknown-key", "law-param-typo", "path-into-list", "non-integer-seed",
        "string-dt", "string-snapshot-stride", "string-rho-min-stop",
        "string-amplitude", "removed-dealias-key", "removed-check-stability-key",
        "params-typo", "string-param", "scalar-for-list-param", "string-in-list-param",
        "empty-resonance-eps-list", "empty-normalform-eps-list", "empty-lifespan-deltas",
        "negative-dispersion-n-samples", "zero-blowup-width", "zero-ode-y0-comparison",
        "negative-lifespan-T-max", "infinite-lifespan-T-max", "negative-lifespan-delta",
        "blowup-zero-dt"])
def test_cli_bad_override_exit_code(command, overrides, capsys):
    argv = [command]
    for ov in overrides:
        argv += ["--override", ov]
    assert cli.main(argv) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_zero_step_simulate_is_inconclusive(tmp_path, capsys):
    # dt > t_end: no step is taken, so neither verdict has any evidence
    assert cli.main(["simulate", "--out", str(tmp_path), "--override", "solver.dt=0.5"]) == 1
    report = json.loads((tmp_path / "simulate_report.json").read_text())
    assert report["fitted"]["steps"] == 0
    verdicts = {v["name"]: v for v in report["verdicts"]}
    for name in ("mass_drift", "terminated_normally"):
        assert not verdicts[name]["passed"]
        assert verdicts[name]["provenance"] == "inconclusive"
    assert "(inconclusive)" in capsys.readouterr().out


def test_cli_zero_step_lifespan_is_inconclusive(tmp_path, capsys):
    # dt = 0: no delta run takes a step, so neither verdict has any evidence
    assert cli.main(["lifespan", "--out", str(tmp_path), "--override", "grid.shape=[16,16]",
                     "--override", "solver.dt=0", "--override", "params.T_max=1"]) == 1
    report = json.loads((tmp_path / "lifespan_report.json").read_text())
    assert report["fitted"]["steps"] == [0, 0, 0, 0]
    assert not report["errors"]
    for verdict in report["verdicts"]:
        assert not verdict["passed"] and verdict["provenance"] == "inconclusive"
    assert "(inconclusive)" in capsys.readouterr().out


def test_cli_unresolved_normalform_is_inconclusive(tmp_path, capsys):
    # on 16^2 the products of band-4 data reach mode 8, past the 2/3 cutoff
    # at 5, so the slope is no evidence for or against the cubic order
    assert cli.main(["normalform", "--out", str(tmp_path),
                     "--override", "grid.shape=[16,16]",
                     "--override", "grid.lengths=[6.283185307179586,6.283185307179586]"]) == 1
    report = json.loads((tmp_path / "normalform_report.json").read_text())
    assert report["fitted"]["resolved"] is False
    (verdict,) = report["verdicts"]
    assert verdict["name"] == "cubic_residual_slope"
    assert not verdict["passed"] and verdict["provenance"] == "inconclusive"


@pytest.mark.parametrize("command, overrides, error", [
    ("dispersion", ["params.n_samples=3"], "FitError"),
    ("dispersion", ["params.t_min=200"], "FitError"),
    ("lifespan", ["grid.shape=[16,16]", "solver.dt=3.0", "params.T_max=30"],
     "StabilityError"),
], ids=["dispersion-three-samples", "dispersion-empty-window", "lifespan-unstable-dt"])
def test_cli_numerical_error_is_reported(command, overrides, error, tmp_path, capsys):
    # a value of the right kind that the computation cannot use ends the
    # run with exit 1 and the typed error in the report, not a traceback
    argv = [command, "--out", str(tmp_path)]
    for override in overrides:
        argv += ["--override", override]
    assert cli.main(argv) == 1
    report = json.loads((tmp_path / f"{command}_report.json").read_text())
    assert len(report["errors"]) == 1 and report["errors"][0].startswith(error)
    assert f"[FAIL] {command}: {error}" in capsys.readouterr().out


def test_cli_one_eps_normalform_is_inconclusive(tmp_path, capsys):
    # one amplitude fixes no slope: the verdict is no evidence either way
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.RankWarning)
        assert cli.main(["normalform", "--out", str(tmp_path),
                         "--override", "params.eps_list=[0.01]"]) == 1
    report = json.loads((tmp_path / "normalform_report.json").read_text())
    assert len(report["tables"]["residual"]) == 1
    assert report["fitted"]["resolved"] is True
    (verdict,) = report["verdicts"]
    assert not verdict["passed"] and verdict["provenance"] == "inconclusive"
    assert np.isnan(report["fitted"]["slope"])


def test_cli_verify_rejects_config_and_override(capsys):
    # verify runs the default configs only, so argparse refuses these
    for argv in (["verify", "--override", "solver.dt=1"], ["verify", "--config", "x.json"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_cli_override_and_out(tmp_path, capsys):
    code = cli.main(["resonance", "--out", str(tmp_path),
                     "--override", "params.eta=0.02"])
    assert code == 0
    report = json.loads((tmp_path / "resonance_report.json").read_text())
    assert report["all_passed"]
