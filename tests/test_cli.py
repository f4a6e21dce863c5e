import argparse
import ast
import importlib
import json
import math
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fracsphere
from fracsphere.cli import DEFAULT_CONFIG, FULLSCALE_PRESET, build_parser, main


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
    assert payload["c_tail_C"] == pytest.approx(math.sqrt(2.0 / 0.3 + 1.0 / 1.3))
    assert payload["c_tail_A"] == pytest.approx(math.sqrt(1e4 * (4.0 + 2.0 / 3.0)))
    assert payload["m_alpha"] == pytest.approx(math.pi / 4)
    assert payload["gamma_alpha"] == 2.5
    assert payload["increment_c"] > 0.0


def test_small_alpha_increment_constant(tmp_path):
    # increment_c used to be measured from E_{alpha,alpha} on a grid through
    # x = 1.12, which ml_neg refuses at alpha <= 0.07: both exited 3
    code, out = run_cli("bounds", "--alpha", "0.05")
    assert code == 0
    assert json.loads(out)["increment_c"] == 1.0 / math.gamma(0.05)
    code, _ = run_cli("increments", "--alpha", "0.05", "--L", "64", "--n-real", "4",
                      "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "inc_0.05.csv").exists()


def test_missing_config_exit_code():
    code, out = run_cli("truncation", "--config", "/no/such/config.json")
    assert code == 4


def test_bad_config_key(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"no_such_key": 1}')
    assert run_cli("bounds", "--config", str(cfg))[0] == 2


def test_invalid_json_config(tmp_path, capsys):
    # valid JSON that is no object is refused before any key is read
    cfg = tmp_path / "c.json"
    out = tmp_path / "out"
    for body in ("{", "null", "5", '"abc"', "[]"):
        cfg.write_text(body)
        for command in ("bounds", "simulate", "truncation", "increments", "selftest"):
            argv = [command, "--config", str(cfg)]
            if command != "bounds":
                argv += ["--out", str(out)]
            assert run_cli(*argv) == (2, ""), (body, command)
            assert f"config file {cfg}" in capsys.readouterr().err
            assert not out.exists()


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
                 "--l-tilde", "--n-real", "--full-scale"):
        assert flag in res.stdout
    assert "--workers" not in res.stdout  # the curve is one row
    # every curve runs its rows in one process: no subcommand takes a
    # worker count
    for command in ("increments", "selftest"):
        res = subprocess.run([sys.executable, "-m", "fracsphere", command, "--help"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "--workers" not in res.stdout
    res = subprocess.run([sys.executable, "-m", "fracsphere", "increments",
                          "--workers", "2"], capture_output=True, text=True)
    assert res.returncode == 2 and "--workers" in res.stderr


@pytest.mark.parametrize("module", sorted(
    name for _, name, _ in pkgutil.iter_modules(fracsphere.__path__) if name != "__main__"))
def test_module_exports_resolve(module):
    # a deleted function must not stay listed as an export
    mod = importlib.import_module(f"fracsphere.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def test_src_imports_only_declared_packages():
    # every import under src/fracsphere, those inside functions included,
    # names the standard library, the package or a [project].dependencies
    # entry: an optional import of an undeclared package used to change
    # what a run wrote depending on what the host had installed
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    deps = tomllib.loads((root / "pyproject.toml").read_text())["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_") for dep in deps}
    allowed = set(sys.stdlib_module_names) | declared | {"fracsphere"}
    undeclared = []
    for path in sorted((root / "src" / "fracsphere").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared += [f"{path.name}:{node.lineno} {name}" for name in names
                           if name.split(".")[0] not in allowed]
    assert undeclared == []


def test_truncation_run_writes_artifacts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "l_tilde": 32, "l_grid": [16, 20, 24], "n_real": 4, "t": 1e-4,
        "seed": 7, "out": str(tmp_path / "run")}))
    code, out = run_cli("truncation", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["slope"] < 0.0
    assert (tmp_path / "run" / "trunc_0.5.csv").exists()
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["experiment"] == "truncation"
    assert manifest["version"] and manifest["rng_scheme"] == 7


def test_slope_null_when_fewer_than_three_unflagged_rows(tmp_path):
    # the bound has no valid case at L = 8 here, so two rows are unflagged:
    # the slope used to be refitted over every row, the flagged one
    # included, and reported as if the bound's rows had been fitted
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "l_tilde": 32, "l_grid": [8, 16, 24], "n_real": 4, "t": 1e-4,
        "seed": 7, "out": str(tmp_path / "run")}))
    code, out = run_cli("truncation", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["slope"] is None and payload["r2"] is None
    assert payload["window"] is None
    rows = (tmp_path / "run" / "trunc_0.5.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["1", "0", "0"]


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


def test_simulate_writes_exactly_its_files(tmp_path, monkeypatch):
    # with an image library importable, simulate used to write a PNG beside
    # each PPM, and each sidecar repeated L, seed and time from the manifest
    def fromarray(pixels, mode=None):
        return types.SimpleNamespace(save=lambda path: Path(path).touch())

    pil = types.ModuleType("PIL")
    pil.Image = types.SimpleNamespace(fromarray=fromarray)
    monkeypatch.setitem(sys.modules, "PIL", pil)
    monkeypatch.setitem(sys.modules, "PIL.Image", pil.Image)
    code, _ = run_cli("simulate", "--out", str(tmp_path), "--L", "4",
                      "--times", "1e-5", "1e-4", "--n-lat", "4", "--n-lon", "4")
    assert code == 0
    stems = ["map_t1e-05", "map_t0.0001"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["manifest.json"] + [stem + ext for stem in stems for ext in (".csv", ".ppm", ".json")])
    for stem in stems:
        sidecar = json.loads((tmp_path / f"{stem}.json").read_text())
        assert set(sidecar) == {"colormap", "vmax", "vmin"}


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


@pytest.mark.filterwarnings("error")
def test_simulate_past_kernel_table_is_accuracy_error(tmp_path):
    # the sigma^2 table's knots used to overflow to inf here: exit 2 from
    # ml_neg on NaN nodes after three RuntimeWarnings
    code, _ = run_cli("simulate", "--out", str(tmp_path / "maps"), "--L", "4",
                      "--times", "1e300", "--n-lat", "4", "--n-lon", "4")
    assert code == 3
    assert not (tmp_path / "maps").exists()


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
    # unflagged preset keys still apply (increments reads none of the others)
    code, _ = run_cli("truncation", "--config", str(cfg), "--full-scale", "--n-real", "2")
    assert code == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["n_real"] == 2 and manifest["l_tilde"] == 1500
    assert manifest["l_grid"] == FULLSCALE_PRESET["l_grid"]


def _subcommand_parsers():
    from fracsphere.cli import build_parser

    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return {name: sp for name, sp in sub.choices.items()
            if name in ("bounds", "simulate", "truncation", "increments", "selftest")}


@pytest.mark.parametrize("command", sorted(_subcommand_parsers()))
def test_every_flag_sets_its_config_key(command):
    # the parser is the only record of which keys a subcommand takes: each
    # option's dest is a config key, and a value given lands in cfg[dest]
    from fracsphere.cli import _config

    parser = _subcommand_parsers()[command]
    argv, expect = [], {}
    for action in parser._actions:
        if not action.option_strings or action.dest == "help":
            continue
        assert action.dest in DEFAULT_CONFIG or action.dest in ("config", "full_scale")
        if action.dest in ("config", "full_scale"):
            continue
        if action.choices:
            value = list(action.choices)[-1]
        else:
            value = {int: 7, float: 0.375, None: "somewhere"}[action.type]
        if action.nargs == "+":
            value = [value, value * 2]
        assert value != DEFAULT_CONFIG[action.dest]
        expect[action.dest] = value
        argv += [action.option_strings[0],
                 *map(str, value if isinstance(value, list) else [value])]
    assert command != "simulate" or "times" in expect
    cfg = _config(parser.parse_args(argv))
    assert {key: cfg[key] for key in expect} == expect


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
    ("truncation", {"l_grid": [8, 4, 12]}),
    ("simulate", {"times": [1e-4, 1e-5]}),
    ("truncation", {"seed": "x"}),
    ("truncation", {"l_grid": [4, 4, 8]}),
    ("increments", {"h_grid": [1e-6, 1e-6, 2e-6]}),
])
def test_bad_grid_values_refused(tmp_path, command, bad):
    # each value used to run on (truncated, as L = 1, with a negative
    # degree indexing the tail from its end, or with a repeated grid entry
    # giving duplicate rows and a slope fitted through two points), write
    # nothing, or end in a traceback with exit 1; none may leave an empty
    # output directory behind.  A descending grid or time list is refused
    # by the same increasing-entries check as a repeated one
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


# the manifest is the experiment's run record: the model, the parameters
# the run used (as used), and the tool, version and RNG scheme
RECORD_KEYS = {"alpha", "tau", "spec_c", "spec_a", "experiment", "tool", "version",
               "rng_scheme"}
RUN_KEYS = {
    "truncation": {"t", "l_tilde", "l_grid", "n_real", "seed"},
    "increments": {"t", "L", "h_grid", "n_real", "seed", "increment_c"},
    "simulate": {"L", "times", "seed", "n_lat", "n_lon", "colormap"},
    "selftest": {"seed", "t"},
}


@pytest.mark.parametrize("command", sorted(RUN_KEYS))
def test_manifest_is_the_run_record(tmp_path, command):
    # the curve and selftest manifests used to dump the whole config, keys
    # the run never read included, with the seed as given and the measured
    # increment constant as null; the curves also wrote a JSON copy
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "run"
    small = SMALL_RUNS.get(command, {})
    cfg.write_text(json.dumps({**small, "seed": 7.0, "out": str(out)}))
    code, _ = run_cli(command, "--config", str(cfg))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == RECORD_KEYS | RUN_KEYS[command]
    assert manifest["experiment"] == command
    assert {key: manifest[key] for key in small} == small
    assert manifest["spec_a"] == {"head": 1e4, "coeff": 1e4, "kappa": 2.5}
    assert manifest["seed"] == 7 and isinstance(manifest["seed"], int)
    if command != "simulate":  # simulate's JSON files are its maps' sidecars
        assert [p.name for p in out.glob("*.json")] == ["manifest.json"]
    if command == "increments":
        code, bounds = run_cli("bounds", "--alpha", str(manifest["alpha"]))
        assert code == 0
        assert isinstance(manifest["increment_c"], float)
        assert manifest["increment_c"] == json.loads(bounds)["increment_c"]


def test_unread_config_keys_not_recorded(tmp_path):
    # truncation reads none of these keys: the run used to exit 0 and write
    # all four values into its manifest as if they had had an effect
    unread = {"workers": "x", "colormap": "jet", "n_lat": "q", "times": "abc"}
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "run"
    cfg.write_text(json.dumps({**SMALL_RUNS["truncation"], **unread, "out": str(out)}))
    code, _ = run_cli("truncation", "--config", str(cfg))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert not set(unread) & set(manifest)
    # no subcommand reads workers, so a count of 4 changes nothing
    cfg.write_text(json.dumps({**SMALL_RUNS["increments"], "workers": 4, "out": str(out)}))
    code, _ = run_cli("increments", "--config", str(cfg))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "increments" and "workers" not in manifest


def test_readme_matches_config_and_parser():
    # the README's key list and command-line block name exactly the
    # config's keys and the parser's subcommands
    import re
    from pathlib import Path

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    [keys] = re.findall(r"^Keys: `([^`]*)`", text, re.M)
    assert keys.replace(",", " ").split() == list(DEFAULT_CONFIG)
    [block] = re.findall(r"## Command line\n\n```sh\n(.*?)```", text, re.S)
    named = {line.split()[1] for line in block.splitlines()}
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert named == set(sub.choices)
