"""Command-line entry point: run the simulation daemon.

Usage::

    python -m repro.serve                        # 127.0.0.1:8642
    python -m repro.serve --port 0 --workers 4   # ephemeral port, printed
    python -m repro.serve --no-cache --quota 2

The daemon prints one discovery line on startup::

    repro.serve listening on http://127.0.0.1:8642

and serves until ``POST /shutdown`` (or SIGINT).  See ``docs/serving.md``
for the endpoint reference and a client quickstart.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from .jobs import (
    DEFAULT_SERVE_CHECKPOINT_DIR,
    DEFAULT_SERVE_CHECKPOINT_EVERY,
    ServeConfig,
)
from ..exec import DEFAULT_CACHE_DIR
from .server import run_server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve simulation jobs over HTTP/JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8642,
                        help="bind port (0: ephemeral, printed on startup)")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent simulation processes")
    parser.add_argument("--quota", type=int, default=8,
                        help="max non-terminal jobs per client name")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="shared result cache directory")
    parser.add_argument("--no-cache", dest="cache", action="store_false",
                        help="disable the shared result cache")
    parser.add_argument("--checkpoint-every", type=int,
                        default=DEFAULT_SERVE_CHECKPOINT_EVERY,
                        help="checkpoint interval stamped onto specs "
                             "without a policy (0: never stamp)")
    parser.add_argument("--checkpoint-dir",
                        default=DEFAULT_SERVE_CHECKPOINT_DIR,
                        help="daemon checkpoint directory")
    # Ignored: workers answer on a pipe now.  Command lines under bench/
    # still pass it, and changing those needs a benchmark-labelled PR.
    parser.add_argument("--spool-dir", help=argparse.SUPPRESS)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the startup line")
    args = parser.parse_args(argv)

    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.quota < 1:
        parser.error("--quota must be >= 1")
    if args.checkpoint_every < 0:
        parser.error("--checkpoint-every must be >= 0")

    config = ServeConfig(
        workers=args.workers,
        quota=args.quota,
        cache_dir=args.cache_dir if args.cache else None,
        checkpoint_every=args.checkpoint_every or None,
        checkpoint_dir=args.checkpoint_dir,
    )
    try:
        asyncio.run(run_server(
            config, host=args.host, port=args.port, quiet=args.quiet
        ))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
