"""``python -m learcov`` and the ``learcov`` console script."""
import gc

from . import cli


def main() -> None:
    """Run the learcov program (``cli.run``) with the collector off.

    No command makes cyclic garbage that grows with its input, and the
    process ends with ``os._exit`` once its output is flushed, so a
    collection would only traverse objects that live until then.
    """
    gc.disable()
    cli.run()


if __name__ == "__main__":
    main()
