"""The process entry point of a traced round.

    entry.py --spans DIR cli ARGS...
        moduli_census.cli.main(ARGS), as `moduli-census ARGS` runs it, with
        the package's public functions traced (see tracing.py): the import
        of moduli_census.cli is timed as cli.import_s, and every process,
        forked pool workers included, writes its spans under DIR.
"""

from __future__ import annotations

import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    if argv[:1] != ["--spans"] or argv[2:3] != ["cli"]:
        print(f"usage: {__doc__}", file=sys.stderr)
        return 2
    t0 = perf_counter()
    import moduli_census.cli  # (timed: the package's import cost)
    import_s = perf_counter() - t0
    import tracing

    tracer = tracing.install(argv[1])
    tracer.count("cli.import_s", import_s)
    try:
        return moduli_census.cli.main(argv[3:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
