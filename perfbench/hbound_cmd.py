"""Evaluate the public ``h_bound`` for three targets over a grid of levels.

Usage:  python hbound_cmd.py --p2alpha A

No ``ppp`` subcommand reaches ``h_bound``, so the benchmark calls it here.
Prints one JSON object: ``{"p2alpha": A, "rows": [[target, alpha, h], ...]}``.
"""

from __future__ import annotations

import argparse
import json
import sys

ALPHAS = (0.01, 0.1, 0.3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hbound_cmd")
    parser.add_argument("--p2alpha", type=float, required=True,
                        help="parameter of the extremal target p2alpha(A)")
    args = parser.parse_args(argv)
    import subuniform

    targets = (("uniform", subuniform.uniform_idf()),
               ("beta22", subuniform.beta22_idf()),
               ("p2alpha", subuniform.p2alpha(args.p2alpha).idf()))
    rows = [[name, alpha, subuniform.h_bound(alpha, idf)]
            for name, idf in targets for alpha in ALPHAS]
    sys.stdout.write(json.dumps({"p2alpha": args.p2alpha, "rows": rows}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
