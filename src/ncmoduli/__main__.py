"""``python -m ncmoduli``: the command line front end of :mod:`ncmoduli.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
