"""Run ``repro serve`` or ``repro worker`` with the layer spans installed.

Usage::

    python3 perfbench/launch.py SPANS.json serve --backend distributed ...

The launcher installs the same wrappers as the benchmark process
(``spans.install``), enters ``repro.cli.main`` with the remaining
arguments, and writes its spans to ``SPANS.json`` when the command
returns (``SIGINT`` stops both commands cleanly).  ``src/`` of the
checkout must be on ``PYTHONPATH``, as ``run.py`` arranges.
"""

from __future__ import annotations

import sys


def main() -> int:
    from repro.cli import main as repro_main
    from spans import Tracer, install

    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        return repro_main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
