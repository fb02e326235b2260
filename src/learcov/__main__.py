"""``python -m learcov`` and the ``learcov`` console script."""
import gc


def main() -> None:
    """Run the learcov program (``cli.run``) on a frozen import heap.

    The collector is paused while ``learcov.cli`` imports numpy and the
    learcov modules every command uses, and ``gc.freeze`` then moves every
    object they made out of its reach: they live as long as the process, so
    a collection during the command would traverse them for nothing. The CLI
    is built on the standard library alone, and ``cli.run`` builds the
    options of the invoked command only.
    """
    gc.disable()
    try:
        from . import cli

        gc.freeze()
    finally:
        gc.enable()
    cli.run()


if __name__ == "__main__":
    main()
