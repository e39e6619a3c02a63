"""``repro <args>`` with the benchmark's layer spans installed.

Usage: ``python3 bench/serve_traced.py SPOOL serve --port 0 ...``.  The
traced ``service-mix`` repetitions start the daemon through this file
so that its journal, runner, simulator and store calls are recorded
into ``SPOOL`` like every other process of the traced run.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402  (needs the path entry above)


def main() -> int:
    """Install the spans, then hand the remaining arguments to the CLI."""
    from repro import cli

    spans.install(spans.SpanLog(sys.argv[1]))
    return cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
