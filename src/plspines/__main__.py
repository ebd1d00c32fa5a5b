"""Entry point for ``python -m plspines``."""

from plspines.cli import main

if __name__ == "__main__":
    main(prog_name="plspines")
