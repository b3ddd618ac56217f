"""One blochflow CLI process, timed from the inside.

Usage: python3 perfbench/child.py RESULT_JSON TRACE [blochflow arguments...]

Imports ``blochflow.cli`` from the checkout's ``src`` directory, runs
``blochflow.cli.main`` on the arguments (nothing when there are none: a
set-up probe) and writes the perf_counter stamps, the exit code and,
with TRACE = 1, the span summary to RESULT_JSON.  stdout and stderr
belong to the CLI alone.  Exits with the CLI's exit code.
"""

import os
import sys
import time


def _peak_rss_kb():
    """This process's own peak resident size.

    ru_maxrss from os.wait4 would include the resident size of the process
    that spawned this one, since the kernel carries it over at exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next((int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")), None)
    except OSError:
        return None


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)
    import blochflow.cli

    t_ready = time.perf_counter()
    if not os.path.abspath(blochflow.cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"child: blochflow imported from {blochflow.cli.__file__}, not {src}\n")
        return 70
    tracer = None
    if trace:
        sys.path.insert(0, here)
        import spans

        tracer = spans.install()
    t_main = time.perf_counter()
    try:
        rc = blochflow.cli.main(argv) if argv else 0
    except Exception:  # noqa: BLE001 - a crash is an exit code 1, as from the console script
        import traceback

        traceback.print_exc()
        rc = 1
    sys.stdout.flush()
    t_done = time.perf_counter()

    import json

    doc = {"ready": t_ready, "main": t_main, "done": t_done, "rc": rc, "hwm_kb": _peak_rss_kb()}
    if tracer is not None:
        doc["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
