"""``python -m diffcover``: the ``diffcover`` command."""

from .cli import run

run()
