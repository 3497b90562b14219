"""Run the pvi command line with spans around each layer's entry points.

Used only by traced cli-session runs, in place of ``python -m pvi.cli``:
stdout and the exit code are the command's own; the spans follow on the last
line of stderr, after a marker the worker strips.
"""

import json
import sys

from spans import Tracer, instrument
from worker import SPAN_MARK


def main(argv) -> int:
    import pvi.cli

    tracer = Tracer()
    instrument(tracer)
    tracer.enter("cli.main")
    try:
        code = pvi.cli.main(argv)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.exit()
    sys.stdout.flush()
    sys.stderr.write(SPAN_MARK + json.dumps(tracer.export()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
