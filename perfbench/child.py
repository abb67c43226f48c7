"""Run one concirc CLI command in this process and record spans around it.

    python3 perfbench/child.py OUT.json {stamps|full} -- <concirc arguments>

The command runs through ``concirc.cli.main``, as ``python -m concirc.cli``
runs it, so stdout and the exit code are the CLI's own.  ``stamps`` wraps the
four calls that setup_s and points_per_s need; ``full`` wraps every layer
(see spans.py).  OUT.json receives the import time of ``concirc.cli`` and the
spans, once the command has returned.  Import concirc from the source tree
by putting its ``src`` directory on PYTHONPATH.
"""

import json
import sys
import time

import spans


def main(argv) -> int:
    out_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("stamps", "full"):
        raise SystemExit("usage: child.py OUT.json {stamps|full} -- ARGS...")
    t0 = time.perf_counter()
    import concirc.cli
    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install(full=(mode == "full"))
    try:
        code = concirc.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.restore()
        with open(out_path, "w") as fh:
            json.dump(dict(tracer.dump(), import_s=import_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
