"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 -I perfbench/sample.py SRC_DIR WORKLOAD MODE [SPANS_FILE]

MODE is ``setup`` (import ``sphomotopy.cli`` and stop), ``run`` (one
untraced ``cli.main`` call, checked) or ``trace`` (the same with the layer
tracer installed; the spans go to SPANS_FILE). The sample prints one JSON
record on stdout. ``t_ready`` is ``time.monotonic()`` right after the
import, so the parent can time interpreter start plus import.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import sphomotopy.cli  # noqa: E402  (timed as set-up)

T_READY = time.monotonic()


def main(argv) -> dict:
    import hashlib
    import io
    import json
    import os
    import resource
    import traceback

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    src, name, mode = argv[1:4]
    record = {"t_ready": T_READY, "backend": sphomotopy.BACKEND,
              "module_file": sphomotopy.cli.__file__, "failures": []}
    if mode == "setup":
        return record
    workload = WORKLOADS[name]
    tracer = None
    if mode == "trace":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    failures = record["failures"]
    captured = io.StringIO()
    real_stdout = sys.stdout
    t0 = time.perf_counter()
    c0 = time.process_time()
    sys.stdout = captured
    try:
        rc = sphomotopy.cli.main(list(workload.argv))
    except (Exception, SystemExit):
        rc = None
        failures.append("cli.main raised:\n" + traceback.format_exc())
    finally:
        sys.stdout = real_stdout
        if tracer is not None:
            tracer.uninstall()
    out = captured.getvalue()
    if rc != 0:
        failures.append(f"cli.main returned {rc}")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    if digest != workload.sha256:
        failures.append(f"stdout sha256 {digest} != recorded {workload.sha256}")
    try:
        dump = json.loads(out)
    except ValueError as exc:
        failures.append(f"stdout is not JSON: {exc}")
    else:
        root = os.path.dirname(os.path.abspath(src))
        failures.extend(workload.check(root, dump))
    record["wall_s"] = time.perf_counter() - t0
    record["cpu_s"] = time.process_time() - c0
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        record["layers"] = tracer.metrics(record["wall_s"])
        tracer.dump(argv[4])
    return record


if __name__ == "__main__":
    import json

    print(json.dumps(main(sys.argv)))
