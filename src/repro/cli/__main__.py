"""``python -m repro.cli`` — the same entry point as ``python -m repro``."""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
