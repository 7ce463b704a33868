"""Run the command line front end as ``python -m coalition_forge``."""

from .cli import entry

if __name__ == "__main__":
    entry()
