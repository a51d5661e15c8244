"""Run one `lpw` CLI invocation in this process through `lpw.cli.main`.

    python3 perfbench/invoke.py MODE STEM -- LPW_ARGS...

MODE is `plain` (only the end of set-up is marked), `trace` (every layer is
wrapped) or `setup` (the invocation stops once its first corpus is built).
Spans and stamps go to STEM.json and STEM.spans; the exit code is the CLI's.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODES = ("plain", "trace", "setup")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] not in MODES or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mode, stem, lpw_args = argv[0], Path(argv[1]), argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    import lpw.cli
    from tracer import SetupDone, Tracer

    tracer = Tracer(full=mode == "trace", stop_after_setup=mode == "setup")
    with tracer.installed():
        try:
            rc = lpw.cli.main(lpw_args)
        except SetupDone:
            rc = 0
    sys.stdout.flush()
    tracer.write(stem)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
