"""fracsphere benchmark: cold-process CLI workloads behind an output gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every timed run is a fresh Python
process calling ``fracsphere.cli.main`` (``child.py``), so each pays cold
imports and cold ``lru_cache``s exactly as a CLI user does.  Runs repeat
back to back, one at a time (a closed loop with one client), until S
seconds have passed and at least three times; every run with one seed must
write the same CSV bytes.  ``--trace 1`` alternates untraced and
traced runs and reports per-layer metrics instead of end-to-end ones.

After the timed runs, and untimed: ``fracsphere selftest`` must print only
PASS lines, and every distinct output is gated (``gate.py``).  A run fails
if it exits nonzero, fails the gate or writes other CSV bytes than the
first run.  The last stdout line is the JSON result; the lines before it
record the machine, each run and the CSV digest.  The exit code is 0 only
if nothing failed.  ``--size tiny`` shrinks every workload for the
benchmark's own tests.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the reference parameter study (kappa1 = 2.3, kappa2 = 2.5, tau = 1e-5),
# pinned here so that the workloads do not follow changes to the CLI defaults
MODEL = {"alpha": 0.5, "tau": 1e-5, "c_head": 1.0, "c_coeff": 1.0, "kappa1": 2.3,
         "a_head": 1e4, "a_coeff": 1e4, "kappa2": 2.5, "t": 1e-4, "workers": 1}

# "uses": layers that must record calls in a traced run of the workload
WORKLOADS = {
    "trunc-a075": {
        "command": "truncation",
        "config": {"alpha": 0.75, "l_tilde": 400,
                   "l_grid": [25, 50, 75, 100, 150, 200, 300], "n_real": 50},
        "tiny": {"l_tilde": 40, "l_grid": [5, 10, 20], "n_real": 4},
        "uses": ["specfun.ml_neg", "stochastic.sigma_squared", "stochastic.rng",
                 "stochastic.sampler", "stochastic.degree_power", "spectra.bounds"],
    },
    "increments-a050": {
        "command": "increments",
        # n_real 10 instead of the CLI's 50: see README.md, "Workloads"
        "config": {"alpha": 0.5, "L": 400,
                   "h_grid": [1e-6 * k for k in range(1, 12)], "n_real": 10},
        "tiny": {"L": 24, "h_grid": [1e-6, 2e-6, 3e-6], "n_real": 4},
        "uses": ["specfun.ml_neg", "stochastic.sigma_squared", "stochastic.cross_sigma",
                 "stochastic.rng", "stochastic.sampler", "spectra.bounds"],
    },
    "simulate-L400": {
        "command": "simulate",
        "config": {"L": 400, "n_lat": 512, "n_lon": 1024, "times": [1e-12, 1e-5, 1e-4],
                   "colormap": "coolwarm"},
        "tiny": {"L": 16, "n_lat": 16, "n_lon": 32},
        "uses": ["specfun.ml_neg", "specfun.legendre_rows", "stochastic.cross_sigma",
                 "stochastic.rng", "stochastic.sampler", "synthesis.synthesize",
                 "synthesis.write_map_csv", "synthesis.write_map_image"],
    },
}
ALWAYS_USED = ["experiments", "cli"]

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_RUNS = 3          # fastest segments of at least 3 runs: README.md, "Host noise"
SETUP_PROBES = 6      # import-only processes per invocation, one after each run first
DEADLINE_S = 170.0    # every process this script starts ends before this
WORK = ROOT / ".perfbench_work"
CACHE = WORK / "cache"


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(cmd, deadline):
    """Run cmd to completion; subprocess.run kills and reaps it on timeout."""
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def files_digest(paths, prefix=b""):
    """SHA-256 over prefix and each file's name and bytes, in name order."""
    h = hashlib.sha256(prefix)
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cli_run(wl, cfg_path, seed, out, deadline, trace=False, probe=False):
    """One child process; returns its report with setup_s added."""
    report_path = out.parent / (out.name + ".report.json")
    flags = (["--trace"] if trace else []) + (["--probe"] if probe else [])
    cli = [wl["command"], "--config", str(cfg_path), "--seed", str(seed), "--out", str(out)]
    spawned = time.monotonic()
    proc = run_process([sys.executable, str(HERE / "child.py"), str(ROOT), str(report_path),
                        *flags, "--", *cli], deadline)
    report = {"rc": proc.returncode, "traced": trace, "stderr": proc.stderr[-2000:]}
    if report_path.exists():
        report.update(json.loads(report_path.read_text()))
        report_path.unlink()
        report["setup_s"] = report.pop("imported") - spawned
    return report


def selftest(work, deadline):
    proc = run_process([sys.executable, "-m", "fracsphere", "selftest",
                        "--out", str(work / "selftest")], deadline)
    lines = proc.stdout.strip().splitlines()
    ok = proc.returncode == 0 and bool(lines) and all(ln.startswith("PASS ") for ln in lines)
    return ok, lines or [proc.stderr.strip()[-500:]]


def gate_curves(wl, cfg_path, texts, deadline):
    """Verdict per digest for truncation/increments curves.

    The expectation depends only on the config and the program's analytic
    functions, so it is computed once per checkout and source state and kept
    under CACHE; that saves ~5 s of quadrature in every later invocation.
    """
    key = files_digest((ROOT / "src" / "fracsphere").glob("*.py"),
                       cfg_path.read_bytes() + (HERE / "gate.py").read_bytes())
    exp_path = CACHE / f"expectation-{wl['command']}-{key[:32]}.json"
    if not exp_path.exists():
        CACHE.mkdir(parents=True, exist_ok=True)
        tmp_path = cfg_path.with_name("expectation.json")
        proc = run_process([sys.executable, str(HERE / "gate.py"), str(ROOT), wl["command"],
                            str(cfg_path), str(tmp_path)], deadline)
        if proc.returncode != 0:
            msg = "expectation failed: " + proc.stderr.strip()[-500:]
            return {digest: [msg] for digest in texts}
        tmp_path.replace(exp_path)
    expectation = json.loads(exp_path.read_text())
    return {digest: gate.check_curve(wl["command"], text, expectation)
            for digest, text in texts.items()}


def layer_metrics(layers):
    """Per-layer metrics of one traced run, named as in BENCHMARK.json."""
    out = {}
    for m in SPEC["per_layer"]:
        layer, stat = m["name"].rsplit(".", 1)
        if layer == "trace":
            continue
        rec = layers.get(layer, {"calls": 0, "self_s": 0.0, "units": 0, "under": {}})
        if stat == "ml_per_call":
            calls = rec["calls"]
            out[m["name"]] = rec["under"].get("specfun.ml_neg", 0) / calls if calls else 0.0
        elif stat in ("calls", "self_s"):
            out[m["name"]] = rec[stat]
        else:  # variates, bytes: the layer's unit count
            out[m["name"]] = rec["units"]
    return out


def trace_problems(wl, report):
    layers = report.get("layers", {})
    problems = [f"layer {name} recorded no calls" for name in wl["uses"] + ALWAYS_USED
                if layers.get(name, {}).get("calls", 0) == 0]
    total = sum(rec["self_s"] for rec in layers.values())
    if abs(total - report["wall_s"]) > 0.01 * report["wall_s"] + 0.01:
        problems.append(f"self times sum to {total:.3f} s of {report['wall_s']:.3f} s wall")
    return problems


def tally(runs, verdicts):
    """Attach each run's problems; a run fails on a nonzero exit, a gate
    problem, CSV bytes that differ from the first run's, or another number
    of progress marks than the first untraced run's."""
    reference = runs[0].get("digest")
    marks = next((len(r["seg_wall"]) for r in runs if "seg_wall" in r), None)
    failed = 0
    for run in runs:
        problems = run.setdefault("problems", [])
        if run["rc"] != 0:
            problems.append(f"exit code {run['rc']}: {run.get('stderr', '')[-300:]}")
        else:
            problems.extend(verdicts.get(run["digest"], []))
            if run["digest"] != reference:
                problems.append(f"CSV digest {run['digest'][:16]} differs from the "
                                f"first run's {reference[:16]}")
            if "seg_wall" in run and len(run["seg_wall"]) != marks:
                problems.append(f"{len(run['seg_wall'])} progress marks, the first "
                                f"run had {marks}")
        failed += bool(problems)
    return failed


def fastest_segments(runs, key):
    """Sum over the segments between progress marks (``child.py``) of the
    least time any run took for that segment."""
    return sum(map(min, zip(*(r[key] for r in runs))))


def machine_record(work):
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = next((ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), "unknown")
    mounts = [ln.split() for ln in read("/proc/self/mounts").splitlines()]
    real = os.path.realpath(work)
    fs = max((m for m in mounts if len(m) > 2 and (real + "/").startswith(m[1].rstrip("/") + "/")),
             key=lambda m: len(m[1]), default=["?", "?", "unknown"])
    import numpy
    import scipy
    try:
        import PIL  # noqa: F401  (write_map_image also writes a PNG when present)
        pillow = True
    except ImportError:
        pillow = False
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": {v: "1" for v in THREAD_VARS},
            "output_fs": f"{fs[2]} at {fs[1]}", "pillow": pillow}


def measure(args, wl, cfg, work, deadline):
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    curve = wl["command"] != "simulate"
    runs, probes, texts, verdicts = [], [], {}, {}
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < args.seconds:
        traced = bool(args.trace) and len(runs) % 2 == 1
        out = work / f"run{len(runs)}"
        run = cli_run(wl, cfg_path, args.seed, out, deadline, trace=traced)
        if run["rc"] == 0:
            run["digest"] = digest = files_digest(out.glob("*.csv"))
            if curve:
                texts.setdefault(digest, next(out.glob("*_*.csv")).read_text())
            elif digest not in verdicts:
                verdicts[digest] = gate.check_maps(out, cfg)
            if traced:
                run["problems"] = trace_problems(wl, run)
        shutil.rmtree(out, ignore_errors=True)
        runs.append(run)
        if len(probes) < SETUP_PROBES:
            probes.append(cli_run(wl, cfg_path, args.seed, work / "probe", deadline, probe=True))
    while len(probes) < SETUP_PROBES:
        probes.append(cli_run(wl, cfg_path, args.seed, work / "probe", deadline, probe=True))
    if curve and texts:
        verdicts.update(gate_curves(wl, cfg_path, texts, deadline))
    selftest_ok, selftest_lines = selftest(work, deadline)
    failed = tally(runs, verdicts)

    print("machine " + json.dumps(machine_record(work), sort_keys=True))
    print(f"selftest {'PASS' if selftest_ok else 'FAIL'}: " + " | ".join(selftest_lines))
    for i, run in enumerate(runs):
        print(f"run {i} {'traced' if run['traced'] else 'untraced'} rc={run['rc']} "
              f"wall_s={run.get('wall_s', float('nan')):.4f} "
              f"setup_s={run.get('setup_s', float('nan')):.4f} "
              f"digest={run.get('digest', '-')} "
              + ("ok" if not run["problems"] else "FAIL: " + "; ".join(run["problems"])))
    print(f"error_rate {failed / len(runs):g} ratio ({failed} of {len(runs)} runs failed)")

    ok = [r for r in runs if not r["problems"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    values = {}
    if not args.trace and plain:
        setups = [r["setup_s"] for r in plain + probes if "setup_s" in r]
        # other tenants slow the host in episodes of seconds: README.md
        values = {"wall_s": fastest_segments(plain, "seg_wall"),
                  "cpu_s": fastest_segments(plain, "seg_cpu"),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                  "setup_s": statistics.median(setups)}
        metrics = SPEC["end_to_end"]
    elif args.trace and plain and traced:
        per_run = [layer_metrics(r["layers"]) for r in traced]
        # low median: counts stay whole numbers
        values = {name: statistics.median_low([m[name] for m in per_run])
                  for name in per_run[0]}
        values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - statistics.median(r["wall_s"] for r in plain))
        metrics = SPEC["per_layer"]
    correct = selftest_ok and failed == 0 and bool(values)
    result = {"correct": correct, "attempted": len(runs), "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in metrics} if values else {}}
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    # and the finally below removes the work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fracsphere" / "cli.py").is_file():
        print(f"perfbench: no fracsphere source under {ROOT / 'src'}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    args.seed %= 2 ** 64
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    cfg = {**MODEL, **wl["config"], **(wl["tiny"] if args.size == "tiny" else {})}
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, wl, cfg, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
