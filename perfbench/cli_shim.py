"""Run the watl command line with the span recorder installed.

Usage: python3 perfbench/cli_shim.py SPANS_FILE [watl arguments...]

Behaves like ``python -m watl.cli`` (same stdout, stderr and exit code)
and writes the recorder's totals to SPANS_FILE when the command ends.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import watl.cli  # noqa: E402


def main() -> int:
    spans_file, args = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)
    code = 0
    try:
        watl.cli.main.main(args=args, prog_name="watl")
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(recorder.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
