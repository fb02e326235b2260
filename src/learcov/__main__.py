"""``python -m learcov`` and the ``learcov`` console script."""
import gc
import sys


def main() -> None:
    """Run the learcov program (``cli.run``) on a frozen import heap.

    The collector is paused while ``learcov.cli`` and the modules of the
    invoked command (``cli.import_command``) are imported: numpy and the
    numerics for every command but check-special-case, which reads a small
    file without numpy. ``gc.freeze`` then moves every object they made out
    of its reach: they live as long as the process, so a collection during
    the command would traverse them for nothing. The CLI is built on the
    standard library alone, and ``cli.run`` builds the options of the
    invoked command only.
    """
    gc.disable()
    try:
        from . import cli

        cli.import_command(sys.argv[1:])
        gc.freeze()
    finally:
        gc.enable()
    cli.run()


if __name__ == "__main__":
    main()
