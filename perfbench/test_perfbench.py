"""Tests of the benchmark itself (not part of the package's test suite):

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from fracsphere.cli import main as cli_main  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny_config(workload):
    wl = run.WORKLOADS[workload]
    return {**run.MODEL, **wl["config"], **wl["tiny"]}


def run_cli(workload, out):
    cfg = tiny_config(workload)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main([run.WORKLOADS[workload]["command"], "--config", str(cfg_path),
                   "--seed", "5", "--out", str(out / "out")])
    assert rc == 0
    return cfg, out / "out"


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    p = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
              "--size", "tiny")
    assert p.returncode == 0, p.stdout + p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("error_rate 0 ratio") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    p = bench("--workload", "trunc-a075", "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""


@pytest.mark.parametrize("workload", ["trunc-a075", "increments-a050"])
def test_gate_rejects_a_scaled_curve(workload, tmp_path):
    cfg, out = run_cli(workload, tmp_path)
    text = next(out.glob("*_*.csv")).read_text()
    command = run.WORKLOADS[workload]["command"]
    expectation = gate.curve_expectation(command, cfg)
    assert gate.check_curve(command, text, expectation) == []

    header, *rows = text.strip().split("\n")
    scaled = [header] + [",".join([x, repr(1.5 * float(emp)), bound, flag])
                         for x, emp, bound, flag in (row.split(",") for row in rows)]
    problems = gate.check_curve(command, "\n".join(scaled) + "\n", expectation)
    assert problems
    runs = [{"rc": 0, "digest": "d"}, {"rc": 0, "digest": "d"}]
    assert run.tally(runs, {"d": problems}) == 2


def test_gate_rejects_a_corrupted_ppm(tmp_path):
    cfg, out = run_cli("simulate-L400", tmp_path)
    assert gate.check_maps(out, cfg) == []

    ppm = out / f"map_t{cfg['times'][-1]:g}.ppm"
    data = bytearray(ppm.read_bytes())
    data[-1] ^= 0xFF
    ppm.write_bytes(bytes(data))
    problems = gate.check_maps(out, cfg)
    assert len(problems) == 1 and "1 bytes differ" in problems[0]
    assert run.tally([{"rc": 0, "digest": "d"}], {"d": problems}) == 1


def test_differing_csv_bytes_count_as_a_failure():
    runs = [{"rc": 0, "digest": "a"}, {"rc": 0, "digest": "a"}, {"rc": 0, "digest": "b"}]
    assert run.tally(runs, {}) == 1
    assert "differs from the first run" in runs[2]["problems"][0]


def test_fastest_segments_combine_the_least_slowed_stretches():
    runs = [{"seg_wall": [1.0, 5.0, 1.0]}, {"seg_wall": [3.0, 2.0, 1.5]}]
    assert run.fastest_segments(runs, "seg_wall") == 4.0


def test_another_number_of_progress_marks_counts_as_a_failure():
    runs = [{"rc": 0, "digest": "a", "seg_wall": [1.0, 2.0]},
            {"rc": 0, "digest": "a", "seg_wall": [3.0]}]
    assert run.tally(runs, {}) == 1
    assert "progress marks" in runs[1]["problems"][0]
