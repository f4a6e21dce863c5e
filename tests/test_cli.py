import importlib
import json
import math
import pkgutil
import subprocess
import sys

import pytest

import fracsphere
from fracsphere.cli import main


def run_cli(*args):
    """Invoke the CLI in-process, returning (exit_code, stdout)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


def test_ml_value():
    code, out = run_cli("ml", "--alpha", "1", "--beta", "1", "--x", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.3678794412, abs=1e-9)


def test_ml_multiple_x():
    code, out = run_cli("ml", "--alpha", "0.5", "--x", "0", "1", "4")
    assert code == 0
    vals = json.loads(out)["values"]
    assert vals[0] == 1.0
    assert vals[1] == pytest.approx(0.4275835761558070, rel=1e-10)


def test_sigma_value_and_bound():
    code, out = run_cli("sigma", "--ell", "1", "--t", "1", "--alpha", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma_squared"] == pytest.approx((1 - math.exp(-4)) / 4, rel=1e-9)
    assert payload["bound"] == pytest.approx(1.0, rel=1e-12)


def test_sigma_bound_outside_regime():
    # alpha = 1/2 bound undefined when lambda^2 t <= 1: reported as null
    code, out = run_cli("sigma", "--ell", "1", "--t", "1e-3", "--alpha", "0.5")
    assert code == 0
    assert json.loads(out)["bound"] is None


def test_bounds_keys():
    code, out = run_cli("bounds", "--alpha", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"c_tail_C", "c_tail_A", "m_alpha", "gamma_alpha",
                            "increment_c"}
    assert payload["m_alpha"] == pytest.approx(math.pi / 4)


def test_missing_config_exit_code():
    code, out = run_cli("truncation", "--config", "/no/such/config.json")
    assert code == 4


def test_bad_config_key(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"no_such_key": 1}')
    assert run_cli("bounds", "--config", str(cfg))[0] == 2


def test_invalid_json_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{")
    assert run_cli("bounds", "--config", str(cfg))[0] == 2


def test_domain_error_exit_code():
    assert run_cli("ml", "--alpha", "2", "--x", "1")[0] == 2
    assert run_cli("bounds", "--alpha", "0.5", "--tau", "-1")[0] == 2


def test_unknown_subcommand_usage_error():
    # bounds reads no seed and writes nothing: --seed and --out used to be
    # accepted and ignored, exit 0
    for argv in (["frobnicate"], ["bounds", "--alpha", "0.5", "--seed", "5"],
                 ["bounds", "--alpha", "0.5", "--out", "/nonexistent/zzz"]):
        res = subprocess.run([sys.executable, "-m", "fracsphere", *argv],
                             capture_output=True)
        assert res.returncode == 2


def test_help_lists_flags():
    res = subprocess.run([sys.executable, "-m", "fracsphere", "truncation", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    for flag in ("--config", "--alpha", "--tau", "--seed", "--out", "--t",
                 "--l-tilde", "--n-real", "--workers"):
        assert flag in res.stdout


@pytest.mark.parametrize("module", sorted(
    name for _, name, _ in pkgutil.iter_modules(fracsphere.__path__) if name != "__main__"))
def test_module_exports_resolve(module):
    # a deleted function must not stay listed as an export
    mod = importlib.import_module(f"fracsphere.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def test_truncation_run_writes_artifacts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "l_tilde": 32, "l_grid": [8, 16, 24], "n_real": 4, "t": 1e-4,
        "seed": 7, "out": str(tmp_path / "run")}))
    code, out = run_cli("truncation", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["slope"] < 0.0
    assert (tmp_path / "run" / "trunc_0.5.csv").exists()
    assert (tmp_path / "run" / "trunc_0.5.json").exists()
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["experiment"] == "truncation"
    assert manifest["version"] and manifest["rng_scheme"] == 7


def test_increments_run(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "L": 16, "h_grid": [1e-6, 2e-6, 4e-6], "n_real": 4, "t": 2e-5,
        "seed": 3, "out": str(tmp_path / "run")}))
    code, out = run_cli("increments", "--config", str(cfg))
    assert code == 0
    assert (tmp_path / "run" / "inc_0.5.csv").exists()
    payload = json.loads(out)
    assert 0.0 < payload["slope"] < 1.0


def test_increments_small_h_run(tmp_path):
    # h/t of about 1e-4 used to fail cross_sigma's accuracy guard (exit 3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "L": 16, "h_grid": [9e-9, 2e-8], "n_real": 2, "seed": 3,
        "out": str(tmp_path / "run")}))
    code, _ = run_cli("increments", "--config", str(cfg))
    assert code == 0


def test_simulate_run(tmp_path):
    code, _ = run_cli("simulate", "--out", str(tmp_path), "--L", "8",
                      "--times", "1e-5", "1e-4", "--n-lat", "6", "--n-lon", "8")
    assert code == 0
    assert (tmp_path / "map_t1e-05.ppm").exists()
    assert (tmp_path / "map_t0.0001.csv").exists()
    sidecar = json.loads((tmp_path / "map_t0.0001.json").read_text())
    assert sidecar["colormap"] == "coolwarm"


def test_simulate_colliding_snapshot_names_refused(tmp_path, record_calls):
    # f"{t:g}" keeps 6 digits, so both times name map_t0.0001: the run used
    # to exit 0 and report two snapshots after writing one over the other
    from fracsphere import experiments

    calls = record_calls(experiments, "sample_combined_times")
    out = tmp_path / "maps"
    code, _ = run_cli("simulate", "--out", str(out), "--L", "8",
                      "--times", "1.0000001e-4", "1.0000002e-4", "--n-lat", "6",
                      "--n-lon", "8")
    assert code == 2
    assert not calls
    assert not out.exists()


def test_simulate_fractional_grid_refused(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "maps"
    cfg.write_text(json.dumps({"L": 8, "n_lat": 6.5, "n_lon": 8, "times": [1e-4],
                               "out": str(out)}))
    code, _ = run_cli("simulate", "--config", str(cfg))
    assert code == 2
    assert not out.exists()


def test_full_scale_flags_win(tmp_path):
    # the preset sets L 1500 and n_real 100 (hours); explicit flags replace it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h_grid": [1e-6, 2e-6], "t": 2e-5, "seed": 5,
                               "out": str(tmp_path / "run")}))
    code, _ = run_cli("increments", "--config", str(cfg), "--full-scale",
                      "--L", "8", "--n-real", "2")
    assert code == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["L"] == 8 and manifest["n_real"] == 2
    assert manifest["l_tilde"] == 1500  # unflagged preset keys still apply


SMALL_RUNS = {
    "simulate": {"L": 8, "n_lat": 6, "n_lon": 8, "times": [1e-4]},
    "increments": {"L": 8, "h_grid": [1e-6, 2e-6], "n_real": 2, "t": 2e-5},
    "truncation": {"l_tilde": 16, "l_grid": [4, 8, 12], "n_real": 2},
    "bounds": {},
}


@pytest.mark.parametrize("command,bad", [
    ("simulate", {"times": "abc"}),
    ("simulate", {"times": []}),
    ("simulate", {"times": ["1e-4"]}),
    ("simulate", {"L": True}),
    ("increments", {"L": True}),
    ("increments", {"h_grid": ["x", 2e-6]}),
    ("increments", {"h_grid": "abc"}),
    ("truncation", {"l_grid": [5.5, 8]}),
    ("truncation", {"l_grid": [-4, 8]}),
    ("truncation", {"l_grid": "abc"}),
    ("bounds", {"alpha": "0.5"}),
    ("truncation", {"alpha": "0.5"}),
    ("truncation", {"tau": "x"}),
    ("truncation", {"t": "1e-4"}),
    ("increments", {"t": "1e-4"}),
    ("simulate", {"kappa1": None}),
    ("truncation", {"c_head": "x"}),
    ("bounds", {"increment_c": "x"}),
    ("increments", {"increment_c": "x"}),
    ("truncation", {"workers": 1.7}),
    ("increments", {"workers": True}),
    ("truncation", {"seed": "x"}),
])
def test_bad_grid_values_refused(tmp_path, command, bad):
    # each value used to run on (truncated, as L = 1, with a negative
    # degree indexing the tail from its end, or with 1.7 workers recorded
    # in the manifest), write nothing, or end in a traceback with exit 1;
    # none may leave an empty output directory behind
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "run"
    cfg.write_text(json.dumps({**SMALL_RUNS[command], **bad, "out": str(out)}))
    code, _ = run_cli(command, "--config", str(cfg))
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["truncation", "simulate"])
@pytest.mark.parametrize("bad_out", [5, "", None])
def test_bad_out_refused_before_drawing(tmp_path, record_calls, command, bad_out):
    # a number used to reach os.makedirs and end in a TypeError traceback,
    # in simulate only after the whole draw and synthesis
    from fracsphere import experiments

    calls = record_calls(experiments, "sample_combined", "sample_combined_times")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_RUNS[command], "out": bad_out}))
    code, _ = run_cli(command, "--config", str(cfg))
    assert code == 2
    assert not calls


def test_unknown_colormap_refused_before_drawing(tmp_path, record_calls):
    # an unknown colormap used to exit 2 only after sampling and synthesis,
    # leaving an empty output directory behind
    from fracsphere import experiments

    calls = record_calls(experiments, "sample_combined_times")
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "maps"
    cfg.write_text(json.dumps({**SMALL_RUNS["simulate"], "colormap": "jet",
                               "out": str(out)}))
    code, _ = run_cli("simulate", "--config", str(cfg))
    assert code == 2
    assert not calls
    assert not out.exists()
