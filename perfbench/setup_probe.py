"""One set-up sample in a fresh interpreter: import motorflux, parse and validate configs.

Usage: python3 setup_probe.py SRC_DIR CONFIG...

Prints the elapsed seconds as one JSON number.  The benchmark runs this
several times per run and reports the median as ``setup_s``.
"""

import sys
import time


def main(argv: list[str]) -> int:
    src, configs = argv[0], argv[1:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import motorflux.cli

    for path in configs:
        motorflux.cli.parse_config(path)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
