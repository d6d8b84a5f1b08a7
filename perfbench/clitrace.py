"""Traced stand-in for ``python -m lieembed``.

Usage: python clitrace.py TRACE.json ARGS...

Runs ``lieembed.cli.main(ARGS)`` with the span tracer installed, passes its
output and exit code through, and writes the import time and the span
summary to TRACE.json.
"""

import json
import sys
import time

from tracer import Tracer, install

if __name__ == "__main__":
    t0 = time.perf_counter()
    import lieembed.cli
    import_ms = (time.perf_counter() - t0) * 1000
    tracer = Tracer()
    install(tracer)
    tracer.request = " ".join(sys.argv[2:])
    try:
        code = lieembed.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w") as fh:
            json.dump({"import_ms": import_ms, "trace": tracer.summary()}, fh)
    sys.exit(code)
