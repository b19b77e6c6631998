"""Run the command line as ``python -m skewtorus``."""

from .cli import entry

if __name__ == "__main__":
    entry()
