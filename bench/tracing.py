"""Spans around the calls into each `qgs` layer, recorded from outside the program.

A span is (name, id, parent, start, end, pid) plus a few counts read off
the call's arguments or result.  The tracer replaces the module attributes
that callers resolve at call time (`qgs.scan.joint_pnd`,
`qgs.fock_stats.moment_ladder`, ...) with timing wrappers; no program file
changes.  `ddouble` is not wrapped: it is called once per scalar, and its
cost shows as the self time of `fock_stats.joint_pnd`.

Pool workers are forked from the traced process, so they inherit the
wrappers.  A worker appends its spans to `<worker_dir>/spans-<pid>.jsonl`
each time one of its root spans (a span whose parent lives in another
process) ends; `dump` gathers those files with the main process's spans.
Times are CLOCK_MONOTONIC, which all processes of the machine share.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import time
from pathlib import Path


def _ladder_order(args, kwargs, result):
    return {"order": int(args[2] if len(args) > 2 else kwargs["n_max"])}


def _emit_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[2] if len(args) > 2 else kwargs["path"])}


def _run_scan_workers(args, kwargs, result):
    return {"workers": int(args[1] if len(args) > 1 else kwargs["n_workers"])}


def _sampler_counts(args, kwargs, result):
    return {"samples": result.total, "overflow": result.overflow_count}


# (module, attribute its callers resolve, span name, counts taken from the call)
TARGETS = (
    ("qgs.cli", "run_scan", "scan.run_scan", _run_scan_workers),
    ("qgs.cli", "emit", "scan.emit", _emit_bytes),
    ("qgs.cli", "validate", "scan.validate", None),
    ("qgs.scan", "_scan_position", "scan.position", None),
    ("qgs.scan", "two_point_params", "source_model.two_point_params", None),
    ("qgs.scan", "joint_pnd", "fock_stats.joint_pnd", lambda a, k, r: {"n_eff": r.n_max}),
    ("qgs.scan", "classical_g2", "fock_stats.classical_g2", None),
    ("qgs.scan", "wavepacket_g2", "fock_stats.wavepacket_g2", None),
    ("qgs.scan", "empirical_pnd", "mc_oracle.empirical_pnd", _sampler_counts),
    ("qgs.scan", "compare", "mc_oracle.compare", None),
    ("qgs.fock_stats", "single_mode_pnd", "fock_stats.single_mode_pnd", None),
    ("qgs.fock_stats", "moment_ladder", "specfun.moment_ladder", _ladder_order),
)


class Tracer:
    """In-memory span recorder for one process tree."""

    def __init__(self, worker_dir: Path):
        self.main_pid = os.getpid()
        self.worker_dir = worker_dir
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._ids = itertools.count()

    def install(self) -> None:
        for module_name, attr, name, counts in TARGETS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name, counts))

    def _wrap(self, inner, name, counts):
        @functools.wraps(inner)
        def traced(*args, **kwargs):
            pid = os.getpid()
            span_id = f"{pid}:{next(self._ids)}"
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.monotonic()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = time.monotonic()
                self._stack.pop()
            span = {"name": name, "id": span_id, "parent": parent,
                    "start": start, "end": end, "pid": pid}
            if counts is not None:
                span.update(counts(args, kwargs, result))
            self.spans.append(span)
            if pid != self.main_pid and not (parent or "").startswith(f"{pid}:"):
                self._flush_worker(pid)
            return result

        return traced

    def _flush_worker(self, pid: int) -> None:
        mine = [s for s in self.spans if s["pid"] == pid]
        with open(self.worker_dir / f"spans-{pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in mine)
        self.spans.clear()

    def dump(self, path: Path) -> None:
        spans = list(self.spans)
        for part in sorted(self.worker_dir.glob("spans-*.jsonl")):
            spans += [json.loads(line) for line in part.read_text(encoding="utf-8").splitlines()]
        spans.sort(key=lambda s: s["start"])
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)


def load_spans(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def per_layer(spans: list[dict]) -> dict:
    """Per-layer metrics (value, unit) from one traced invocation's spans.

    A layer the workload never enters reads 0.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    child_time: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def durations(name, where=lambda s: True):
        return [s["end"] - s["start"] for s in by_name.get(name, []) if where(s)]

    def total(name, where=lambda s: True):
        return sum(durations(name, where))

    jp = by_name.get("fock_stats.joint_pnd", [])
    jp_ids = {s["id"] for s in jp}
    jp_times = durations("fock_stats.joint_pnd")
    cells = sum((s["n_eff"] + 1) ** 2 for s in jp)
    ladders = by_name.get("specfun.moment_ladder", [])
    sampler = by_name.get("mc_oracle.empirical_pnd", [])
    scans = by_name.get("scan.run_scan", [])
    emits = by_name.get("scan.emit", [])
    pool_overhead = 0.0
    for scan in scans:
        inside = [s for s in by_name.get("scan.position", [])
                  if scan["start"] <= s["start"] and s["end"] <= scan["end"]]
        position_time = sum(s["end"] - s["start"] for s in inside)
        pool_overhead += scan["end"] - scan["start"] - position_time / scan["workers"]

    def tail_search(span):  # the marginal tails joint_pnd sums to pick n_eff
        return span["parent"] in jp_ids

    metrics = {
        "fock_stats.joint_pnd.calls": (len(jp), "count"),
        "fock_stats.joint_pnd.total_s": (sum(jp_times), "s"),
        "fock_stats.joint_pnd.p50_s": (statistics.median(jp_times) if jp_times else 0.0, "s"),
        "fock_stats.joint_pnd.max_s": (max(jp_times, default=0.0), "s"),
        "fock_stats.joint_pnd.self_s": (
            sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in jp), "s"),
        "fock_stats.n_eff_max": (max((s["n_eff"] for s in jp), default=0), "count"),
        "fock_stats.cells": (cells, "count"),
        "fock_stats.cells_per_s": (cells / sum(jp_times) if jp_times else 0.0, "1/s"),
        "specfun.moment_ladder.calls": (len(ladders), "count"),
        "specfun.moment_ladder.total_s": (total("specfun.moment_ladder"), "s"),
        "specfun.moment_ladder.max_order": (max((s["order"] for s in ladders), default=0), "count"),
        "fock_stats.tail_search.calls": (
            len(durations("fock_stats.single_mode_pnd", tail_search)), "count"),
        "fock_stats.tail_search.total_s": (total("fock_stats.single_mode_pnd", tail_search), "s"),
        "fock_stats.wavepacket_g2.calls": (len(by_name.get("fock_stats.wavepacket_g2", [])), "count"),
        "fock_stats.wavepacket_g2.total_s": (total("fock_stats.wavepacket_g2"), "s"),
        "fock_stats.classical_g2.total_s": (total("fock_stats.classical_g2"), "s"),
        "mc_oracle.empirical_pnd.total_s": (total("mc_oracle.empirical_pnd"), "s"),
        "mc_oracle.empirical_pnd.samples_per_s": (
            sum(s["samples"] for s in sampler) / total("mc_oracle.empirical_pnd") if sampler else 0.0,
            "1/s"),
        "mc_oracle.compare.total_s": (total("mc_oracle.compare"), "s"),
        "mc_oracle.overflow_count": (sum(s["overflow"] for s in sampler), "count"),
        "scan.run_scan.total_s": (total("scan.run_scan"), "s"),
        "scan.pool_overhead_s": (pool_overhead, "s"),
        "scan.emit.total_s": (total("scan.emit"), "s"),
        "scan.emit.bytes": (sum(s["bytes"] for s in emits), "B"),
        "source_model.two_point_params.calls": (
            len(by_name.get("source_model.two_point_params", [])), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
