"""``python -m repro <verb>`` — the one module entry point.

Verbs map onto the per-package CLIs:

- ``run``         a single benchmark run (:mod:`repro.system.cli`, also
                  installed as ``hdpat-run``)
- ``experiments`` figure/table sweeps (:mod:`repro.experiments.cli`, also
                  installed as ``hdpat-experiments``)
- ``lint``        the determinism lint (:mod:`repro.analysis.cli`)
- ``races``       the static same-cycle race pass

Everything after the verb is forwarded to the sub-CLI untouched, so
``python -m repro run fir --profile`` works as expected.
"""

from __future__ import annotations

import sys
from typing import List, Optional

_USAGE = """\
usage: python -m repro <verb> [args...]

verbs:
  run          run one benchmark on one configuration
  experiments  run figure/table experiment sweeps
  lint         determinism lint over the source tree
  races        static same-cycle race pass over the simulation trees

``python -m repro <verb> --help`` shows each verb's options.
"""


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0
    verb, rest = argv[0], argv[1:]
    if verb == "run":
        from repro.system.cli import main as run_main
        return run_main(rest)
    if verb == "experiments":
        from repro.experiments.cli import main as experiments_main
        return experiments_main(rest)
    if verb in ("lint", "races"):
        from repro.analysis.cli import main as analysis_main
        return analysis_main([verb] + rest)
    print(f"python -m repro: unknown verb {verb!r}\n\n{_USAGE}",
          end="", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
