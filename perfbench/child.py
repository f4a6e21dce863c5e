"""One cold fracsphere CLI run in its own process.

    python3 child.py ROOT REPORT [--probe] [--trace] -- <fracsphere CLI args>

Imports ``fracsphere`` from ROOT/src, records the CLOCK_MONOTONIC instant the
import finished (the parent subtracts its spawn instant to get set-up time),
then calls ``fracsphere.cli.main`` on the given arguments, as the
``fracsphere`` console script does.  ``--probe`` stops after the import;
``--trace`` installs the tracer first; otherwise progress marks
(``tracer.Marks``) split the call into segments, reported as ``seg_wall``
and ``seg_cpu``.  The measurements go to REPORT as JSON; the exit code is
the CLI's.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    sep = argv.index("--")
    root, report_path, *flags = argv[:sep]
    cli_args = argv[sep + 1:]
    sys.path.insert(0, os.path.join(root, "src"))
    import fracsphere.cli
    report = {"imported": time.monotonic()}
    rc = 0
    marks = None
    if "--probe" not in flags:
        import tracer as tracing
        run = fracsphere.cli.main
        tracer = None
        if "--trace" in flags:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            run = tracer.span(tracing.ROOT_LAYER, run)
        else:
            marks = tracing.Marks()
            tracing.install_marks(marks)
            marks.mark()
        t0 = time.perf_counter()
        rc = run(cli_args)
        report["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            report["layers"] = tracer.summary()
        else:
            marks.mark()
    if marks is not None:
        report["seg_wall"], report["seg_cpu"] = marks.segments()
    # ru_maxrss is in KiB on Linux
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(report_path, "w") as f:
        json.dump(report, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
