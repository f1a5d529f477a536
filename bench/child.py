"""Fresh-interpreter helper of the benchmark (run.py starts it).

    python3 bench/child.py setup ARGV...   import liouspace.cli and parse ARGV
    python3 bench/child.py rss ARGV...     run one invocation, then print
                                           {"rc": exit code, "peak_rss_kb": VmHWM}

The parent sets the BLAS/OpenMP thread variables in the environment.
Peak memory is read as VmHWM, the high-water mark of this image alone.
``ru_maxrss`` would not do: Linux carries the parent's resident size over
fork and exec into it, so a large parent would be reported instead.
"""

import json
import sys
from pathlib import Path


def _peak_rss_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from liouspace import cli

    if mode == "setup":
        cli._build_parser().parse_args(argv)
        return 0
    if mode == "rss":
        rc = cli.run(argv)
        print(json.dumps({"rc": rc, "peak_rss_kb": _peak_rss_kb()}))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main())
