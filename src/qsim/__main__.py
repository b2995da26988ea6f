"""`python -m qsim`: the qsim command line, as the installed `qsim` script runs it."""

from .harness import cli

if __name__ == "__main__":
    cli()
