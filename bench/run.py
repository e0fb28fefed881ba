"""Benchmark of the `qgs` CLI: separation scans and Monte Carlo validation.

    python3 bench/run.py --workload scan-default --seed 1 --seconds 40 --trace 0
    python3 bench/run.py                      # every workload, one result line each

Each operation runs `qgs` as a fresh process, as a user's invocation does,
and every output is checked against the count generating function in
`oracle.py`.  With --trace 0 the last line of standard output is the JSON
result with the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of one traced invocation (see README.md).  Results and spans go to
bench/out/.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from tracing import load_spans, per_layer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SRC = ROOT / "src"

# The CLI's default pairs, written out again so that the row set is checked.
PAIRS = ((0, 0), (1, 1), (5, 5), (8, 8), (16, 16), (5, 1), (8, 1), (16, 1))
TAIL_TOL = 1e-6
SCAN_STEPS = 5  # separations 0, 1, 2, 3, 4: the default range, one g = 1 position
VALIDATE_SEPARATIONS = (0.0, 2.0, 4.0)
VALIDATE_SAMPLES = 6_000_000
SETUP_PROBES = 3
PERTURBATION = 1e-4
INVOCATION_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    kind: str  # "scan" or "validate"
    workers: int
    n_peak: float | None = None  # None: the CLI's default profile

    @property
    def operations(self) -> int:
        return SCAN_STEPS if self.kind == "scan" else len(VALIDATE_SEPARATIONS)


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {
    "scan-default": Workload("scan", workers=1),
    "scan-bright-pool": Workload("scan", workers=2, n_peak=1.5),
    "validate-pool": Workload("validate", workers=2),
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a child produced no measurements)."""


@dataclass
class Round:
    """One CLI invocation and the verdict on its output."""

    wall_s: float
    setup_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    output: Path
    errors: list = field(default_factory=list)


def mc_seed(seed: int) -> int:
    return seed % 2**63


def cli_args(wl: Workload, seed: int, output: Path, workers: int | None = None) -> list:
    workers = wl.workers if workers is None else workers
    if wl.kind == "scan":
        args = ["scan", "--steps", str(SCAN_STEPS), "--workers", str(workers), "--out", str(output)]
        if wl.n_peak is not None:
            args += ["--n-peak", repr(wl.n_peak)]
        return args
    return ["validate", "--workers", str(workers), "--samples", str(VALIDATE_SAMPLES),
            "--seed", str(mc_seed(seed)), "--report", str(output)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def invoke(mode: str, argv: list, tag: str) -> dict:
    """Run bench/invoke.py once; wall time from spawn to reaping, set-up to config loaded."""
    meta = OUT / f"{tag}.meta.json"
    for stale in (meta, meta.with_suffix(".spans.jsonl")):
        stale.unlink(missing_ok=True)
    workers = meta.with_suffix(".workers")
    if workers.exists():
        for part in workers.iterdir():
            part.unlink()
        workers.rmdir()
    cmd = [sys.executable, str(BENCH / "invoke.py"), mode, str(meta), *argv]
    with open(OUT / f"{tag}.log", "w", encoding="utf-8") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=OUT, start_new_session=True)
        try:
            proc.wait(timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{tag}: qgs did not finish in {INVOCATION_TIMEOUT_S} s")
        end = time.monotonic()
    if not meta.exists():
        raise BenchError(f"{tag}: exited {proc.returncode} without measurements, see {log.name}")
    info = json.loads(meta.read_text(encoding="utf-8"))
    if not Path(info["qgs_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"{tag}: imported qgs from {info['qgs_file']}, not from {SRC}")
    if info["config_loaded"] is None:
        raise BenchError(f"{tag}: the CLI never loaded its config, see {log.name}")
    return {"exit": proc.returncode, "wall_s": end - start,
            "setup_s": info["config_loaded"] - start, "peak_rss_mb": info["peak_rss_mb"]}


def scan_references(wl: Workload) -> dict:
    n_peak = oracle.default_n_peak() if wl.n_peak is None else wl.n_peak
    beam = oracle.Beam(n_peak)
    refs = {float(s): oracle.reference(beam, float(s)) for s in np.linspace(0.0, 4.0, SCAN_STEPS)}
    errors = [e for ref in refs.values() for e in oracle.self_check(ref)]
    if errors:
        raise BenchError("; ".join(errors))
    return refs


def perturbed(rows: list, refs: dict, rng: random.Random) -> list:
    """A copy of rows with one checkable g2_tilde moved by PERTURBATION relative."""
    checkable = [i for i, r in enumerate(rows)
                 if refs[float(r["separation"])].p[int(r["N"]), int(r["M"])] >= oracle.CELL_FLOOR]
    i = rng.choice(checkable)
    row = dict(rows[i])
    row["g2_tilde"] = repr(float(row["g2_tilde"]) * (1.0 + PERTURBATION))
    row["log2_g2_tilde"] = repr(float(row["log2_g2_tilde"]) + np.log2(1.0 + PERTURBATION))
    return rows[:i] + [row] + rows[i + 1:]


def check_scan_output(path: Path, exit_code: int, refs: dict, rng: random.Random):
    """(failed positions, errors) for one scan output."""
    if not path.exists():
        return len(refs), [] if exit_code != 0 else [f"{path.name}: exit 0 without output"]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    hard = {"truncation-unmet", "precision-loss"}
    failed_seps = {float(r["separation"]) for r in rows if hard & set(r["flags"].split(";"))}
    errors = []
    if exit_code != (3 if failed_seps else 0):
        errors.append(f"{path.name}: exit code {exit_code} with {len(failed_seps)} failed positions")
    kept = {s: ref for s, ref in refs.items() if s not in failed_seps}
    kept_rows = [r for r in rows if float(r["separation"]) not in failed_seps]
    errors += oracle.check_scan(kept_rows, kept, PAIRS, TAIL_TOL)
    if kept_rows and not oracle.check_scan(perturbed(kept_rows, kept, rng), kept, PAIRS, TAIL_TOL):
        errors.append(f"checker accepted a g2_tilde moved by {PERTURBATION:g} relative")
    return len(failed_seps), errors


def check_validate_output(path: Path, exit_code: int, seed: int):
    if exit_code not in (0, 1) or not path.exists():
        return len(VALIDATE_SEPARATIONS), []
    doc = json.loads(path.read_text(encoding="utf-8"))
    errors = oracle.check_validate(doc, VALIDATE_SEPARATIONS, VALIDATE_SAMPLES, mc_seed(seed))
    if exit_code != 0:
        errors.append(f"{path.name}: exit code {exit_code}")
    return 0, errors


def run_round(wl: Workload, seed: int, refs: dict, rng: random.Random, tag: str,
              mode: str = "run", workers: int | None = None) -> Round:
    output = OUT / f"{tag}.{'csv' if wl.kind == 'scan' else 'json'}"
    output.unlink(missing_ok=True)
    inv = invoke(mode, cli_args(wl, seed, output, workers), tag)
    if wl.kind == "scan":
        failed, errors = check_scan_output(output, inv["exit"], refs, rng)
    else:
        failed, errors = check_validate_output(output, inv["exit"], seed)
    return Round(inv["wall_s"], inv["setup_s"], inv["peak_rss_mb"],
                 wl.operations, failed, output, errors)


def import_times() -> dict:
    """Cumulative import time of qgs, and of the outermost scipy modules it pulls in."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qgs"],
                          capture_output=True, text=True, env=child_env(), cwd=OUT,
                          timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"python -X importtime -c 'import qgs' exited {proc.returncode}")
    entries = []  # (depth, name, cumulative seconds), children before parents
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line[13:]:
            continue
        _, cumulative, name = line[12:].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    qgs_s, scipy_s, ancestors = 0.0, 0.0, []
    for depth, name, cumulative in reversed(entries):
        ancestors = [a for a in ancestors if a[0] < depth]
        if name == "qgs":
            qgs_s = cumulative
        if name.split(".")[0] == "scipy" and not any(a[1].split(".")[0] == "scipy" for a in ancestors):
            scipy_s += cumulative
        ancestors.append((depth, name))
    return {"setup.import.qgs_s": {"value": qgs_s, "unit": "s"},
            "setup.import.scipy_s": {"value": scipy_s, "unit": "s"}}


def measure(wl: Workload, name: str, seed: int, seconds: int, refs: dict, rng: random.Random):
    """End-to-end metrics: whole rounds within `seconds` (at least one), medians over them."""
    argv = cli_args(wl, seed, OUT / f"{name}.setup.out")
    invoke("setup", argv, f"{name}.warmup")  # byte-compiles and warms the file cache
    setups = [invoke("setup", argv, f"{name}.setup{i}")["setup_s"] for i in range(SETUP_PROBES)]
    rounds = []
    start = time.monotonic()
    while True:  # stop before a round of average length would overrun `seconds`
        rounds.append(run_round(wl, seed, refs, rng, f"{name}.round{len(rounds)}"))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    setups += [r.setup_s for r in rounds]
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in rounds), "MB"),
        "positions_per_s": (
            statistics.median((r.attempted - r.failed) / (r.wall_s - r.setup_s) for r in rounds), "1/s"),
    }
    return rounds, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def trace(wl: Workload, name: str, seed: int, refs: dict, rng: random.Random):
    """Per-layer metrics of one traced invocation, its overhead against an untraced one."""
    argv = cli_args(wl, seed, OUT / f"{name}.setup.out")
    invoke("setup", argv, f"{name}.warmup")
    base = run_round(wl, seed, refs, rng, f"{name}.untraced")
    traced = run_round(wl, seed, refs, rng, f"{name}.traced", mode="trace")
    rounds = [base, traced]
    spans_path = OUT / f"{name}.traced.meta.spans.jsonl"
    spans = load_spans(spans_path)
    metrics = per_layer(spans)
    metrics["trace.overhead_s"] = {"value": traced.wall_s - base.wall_s, "unit": "s"}
    metrics.update(import_times())
    positions = sum(s["name"] == "scan.position" for s in spans)
    if wl.kind == "scan" and positions != wl.operations:
        traced.errors.append(f"{positions} scan.position spans gathered, expected {wl.operations}")
    if wl.kind == "validate":
        single = run_round(wl, seed, refs, rng, f"{name}.one-worker", workers=1)
        rounds.append(single)
        if single.output.read_bytes() != base.output.read_bytes():
            single.errors.append(
                f"validate report with 1 worker differs from {wl.workers} workers (same seed)")
    return rounds, metrics


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "machine": {"uname": list(platform.uname()), "cpus": os.cpu_count()},
        "python": sys.version,
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset (OpenBLAS default)"),
    }


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    wl = WORKLOADS[name]
    rng = random.Random(seed)
    refs = scan_references(wl) if wl.kind == "scan" else {}
    if traced:
        rounds, metrics = trace(wl, name, seed, refs, rng)
    else:
        rounds, metrics = measure(wl, name, seed, seconds, refs, rng)
    errors = [e for r in rounds for e in r.errors]
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": environment(),
        "inputs": {"kind": wl.kind, "workers": wl.workers, "n_peak": wl.n_peak,
                   "scan_steps": SCAN_STEPS, "validate_samples": VALIDATE_SAMPLES,
                   "validate_seed": mc_seed(seed)},
        "rounds": [{"wall_s": r.wall_s, "setup_s": r.setup_s, "peak_rss_mb": r.peak_rss_mb,
                    "attempted": r.attempted, "failed": r.failed, "output": r.output.name}
                   for r in rounds],
        "errors": errors[:50],
        "result": result,
    }
    path = OUT / f"result-{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qgs" / "cli.py").is_file():
        print(f"bench: no qgs sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for n, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{n:18s} {metric:40s} {m['value']:.6g} {m['unit']}")
        print(f"{n:18s} attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for n, result in results.items():
            print(n, json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
