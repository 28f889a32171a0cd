"""Traced stand-in for ``python -m balmap.cli`` in the cli-session workload.

Installs the same wrappers as the workload process, times the import of
``balmap.cli``, runs ``balmap.cli.main(argv)`` and writes this process's
spans and counts as JSON for the parent to merge.  Untraced runs use plain
``python -m balmap.cli``.

Usage: python3 perfbench/cli_child.py SPANS_PATH TASK -- CLI_ARGS...
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402


def main():
    spans_path, task = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = tracing.Tracer()
    tracer.task = task
    idx = tracer.open("cli.import")
    import balmap.cli
    tracer.close(idx)
    tracing.install(tracer)
    try:
        code = balmap.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
