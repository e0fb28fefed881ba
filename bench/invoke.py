"""One `qgs` CLI invocation as a fresh process, with its set-up time and peak memory.

    python3 bench/invoke.py <mode> <meta.json> <qgs arguments...>

mode is `run` (call `qgs.cli.main`), `setup` (import `qgs` and load the
config, then stop) or `trace` (as `run`, with spans written next to
meta.json).  meta.json receives the exit code, the CLOCK_MONOTONIC time at
which the config was loaded (the end of set-up) and the peak resident set
of this process and of its reaped pool workers.  An exception escaping the
CLI is printed and exits with code 70.  The caller puts the checkout's `src`
on PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

EXIT_CRASH = 70


def main() -> int:
    mode, meta_path, *argv = sys.argv[1:]
    meta_path = Path(meta_path)
    import qgs.cli as cli

    loaded_at = []
    load_config = cli._load_config

    def timed_load_config(args):
        cfg = load_config(args)
        loaded_at.append(time.monotonic())
        return cfg

    cli._load_config = timed_load_config
    tracer = None
    if mode == "setup":
        code = 0
        cli._load_config(cli.build_parser().parse_args(argv))
    else:
        if mode == "trace":
            from tracing import Tracer

            worker_dir = meta_path.with_suffix(".workers")
            worker_dir.mkdir()
            tracer = Tracer(worker_dir)
            tracer.install()
        try:
            code = cli.main(argv)
        except Exception:  # a crash of the program is a failed operation, not a benchmark error
            traceback.print_exc()
            code = EXIT_CRASH
        if tracer is not None:
            tracer.dump(meta_path.with_suffix(".spans.jsonl"))
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    meta = {
        "exit": code,
        "config_loaded": loaded_at[0] if loaded_at else None,
        "peak_rss_mb": peak_kb / 1024.0,
        "qgs_file": cli.__file__,
    }
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
