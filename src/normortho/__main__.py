"""Run the command-line interface as ``python -m normortho``."""

from .cli import main

if __name__ == "__main__":
    main()
