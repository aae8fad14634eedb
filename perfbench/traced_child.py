"""Run one talkover CLI command with span wrappers installed.

    python3 perfbench/traced_child.py SPANS_JSON COMMAND [ARGS...]

Imports the CLI (timing the import), wraps the module functions listed in
spans.TARGETS, calls talkover.cli.main(argv), writes the recorded spans to
SPANS_JSON and exits with main's return code. The talkover package must be
importable, e.g. through PYTHONPATH.
"""
import sys
import time

from spans import Tracer


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    import talkover.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    try:
        return talkover.cli.main(cli_argv)
    finally:
        tracer.dump(spans_path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
