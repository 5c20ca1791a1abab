"""Run ``repro`` under the benchmark's probes: ``traced.py MODE DUMP ARGS...``.

The traced twin of ``python -m repro ARGS...``.  It notes the wall-clock
time its first line runs (the interpreter's start-up ends there), times
``import repro.cli``, installs the probes and runs the CLI.  When the
process exits it writes those times, the wall-clock time of the exit hook
and every recorded span tree to DUMP as JSON.  MODE ``cli`` also spans
``repro.cli.main``; ``serve`` leaves it out (a daemon's ``main`` only
returns at shutdown); ``bare`` installs no probes and only reports the
start-up times.
"""

import time

STARTED = time.time()

import atexit  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from probes import Recorder, install  # noqa: E402


def main() -> int:
    mode, dump_path, arguments = sys.argv[1], sys.argv[2], sys.argv[3:]
    begin = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - begin
    recorder = Recorder()
    begin = time.perf_counter()
    if mode != "bare":
        install(recorder, cli_main=mode == "cli")
    install_s = time.perf_counter() - begin

    def dump() -> None:
        if not recorder.active:
            return
        with open(dump_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "started": STARTED,
                    "import_s": import_s,
                    "install_s": install_s,
                    "exiting": time.time(),
                    "trees": recorder.trees,
                },
                handle,
            )

    atexit.register(dump)
    return repro.cli.main(arguments)


if __name__ == "__main__":
    sys.exit(main())
