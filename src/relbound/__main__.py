"""`python -m relbound`: the same command line as the `relbound` script."""

from .cli import run

if __name__ == "__main__":
    run()
