"""``repro`` CLI entry with the benchmark's span wrappers installed.

Usage: ``python perfbench/traced_server.py SPANS_OUT <repro CLI args>``.
Tracing is on from the start, so set-up is traced.  Each SIGUSR1
advances the phase; spans record the phase they started in, and
tracing is on in every phase except :data:`UNTRACED_PHASE`.  The spans
are written to SPANS_OUT after the CLI returns, i.e. after the
server's graceful drain.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

#: Phases: 0 set-up and warm-up, 1 untraced half, 2 traced half, 3 done.
UNTRACED_PHASE = 1
LAST_TRACED_PHASE = 2


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.tracing import Tracer, install
    from repro.cli import main as cli_main

    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(enabled=True)
    install(tracer)

    def advance(_signum, _frame) -> None:
        tracer.phase += 1
        tracer.enabled = tracer.phase != UNTRACED_PHASE and tracer.phase <= LAST_TRACED_PHASE

    signal.signal(signal.SIGUSR1, advance)
    code = cli_main(argv)
    tracer.enabled = False
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
