"""Traced `surflink` child: ``python3 perfbench/cli_child.py OUT ARGS...``.

Runs the CLI with ARGS under the span tracer and writes the spans, the
import and command times, and the child's own start and end timestamps to
OUT as JSON when the command ends.  The benchmark's traced cli pass runs
this in place of ``python3 -m surflink.cli``.
"""

import json
import sys
import time

T0 = time.perf_counter()

from tracer import Tracer  # noqa: E402  (sys.path[0] is this directory)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import") as rec:
        import surflink.cli
    import_s = rec[2] - rec[1]
    tracer.install()
    start = time.perf_counter()
    try:
        code = surflink.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        command_s = time.perf_counter() - start
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(
                {**tracer.export(), "import_s": import_s, "command_s": command_s, "t0": T0, "t1": time.perf_counter()},
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
