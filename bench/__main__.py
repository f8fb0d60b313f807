"""Entry point: pin the numeric libraries to one thread, then run the CLI.

The pins must be in the environment before numpy is first imported, which
is why they live here and not in ``bench.cli``.
"""

import os
import sys

from bench.hygiene import THREAD_PINS

for _name, _value in THREAD_PINS.items():
    os.environ[_name] = _value

from bench.cli import main  # noqa: E402  (after the pins, on purpose)

if __name__ == "__main__":
    sys.exit(main())
