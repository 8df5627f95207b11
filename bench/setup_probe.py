"""Set-up probe, run in a fresh process by run.py.

Times ``import mixbounds`` plus ``load_chain`` of every file given on the
command line (the JSON parse, validation and stationary solve), and prints
the seconds taken.

    python3 bench/setup_probe.py chain1.json chain2.json ...
"""

import sys
import time

from program import import_program


def main() -> None:
    start = time.perf_counter()
    mb = import_program()
    for path in sys.argv[1:]:
        mb.load_chain(path)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
