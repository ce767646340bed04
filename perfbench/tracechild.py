"""Run one droprec CLI command with tracing on, then save its spans.

Usage: python tracechild.py SPANS_OUT.npz <droprec arguments...>

The parent benchmark process merges SPANS_OUT under the span it opened
around this subprocess.
"""

import sys

from tracing import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import droprec.cli

    tracer = Tracer()
    with tracer.patched():
        code = droprec.cli.main(argv)
    tracer.save(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
