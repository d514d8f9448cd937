"""Run one reecurve CLI command with the tracer installed.

    python3 perfbench/traced.py TRACE_PREFIX -- verify --s 1

The command's report goes to stdout exactly as ``python -m reecurve``
writes it; spans go to TRACE_PREFIX.json and TRACE_PREFIX.spans.
"""

import sys
import time

from tracer import Tracer


def main() -> int:
    prefix, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py TRACE_PREFIX -- COMMAND ARGS...")
    t0 = time.perf_counter()
    import reecurve.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = reecurve.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
        raise
    finally:
        sys.stdout.flush()
        tracer.dump(prefix, {"import_s": import_s, "exit": code})
    return code


if __name__ == "__main__":
    raise SystemExit(main())
