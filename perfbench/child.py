"""Run one nvflow step in a fresh process and report what it cost.

    python3 perfbench/child.py SPEC

SPEC is a JSON object with ``src`` (the directory holding the nvflow
package), ``result`` (the file the report is written to) and ``mode``:

- ``"setup"``: import ``nvflow.cli`` and load the packaged arm and obstacle
  fixtures; report the seconds that took.
- ``"op"``: call ``nvflow.cli.main(argv)`` once; report its exit code and
  wall time.  With ``trace`` set, the wrappers of ``tracing.py`` are
  installed first and their totals are added to the report.

Both report the process's peak resident memory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import nvflow.cli
    report: dict = {}
    if spec["mode"] == "setup":
        from importlib import resources

        from nvflow.kinematics import load_robot
        from nvflow.trajopt import obstacles_from_doc
        fixtures = resources.files("nvflow") / "fixtures"
        load_robot(fixtures / "arm7.json")
        obstacles_from_doc(json.loads((fixtures / "obstacles_demo.json").read_text())["obstacles"])
        report["setup_s"] = time.perf_counter() - start
    else:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        report["rc"] = nvflow.cli.main(spec["argv"])
        end = time.perf_counter()
        report["run_s"] = end - start
        if tracer is not None:
            report["trace"] = tracer.report(start, end)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
