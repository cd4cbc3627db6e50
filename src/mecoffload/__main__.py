"""`python -m mecoffload ...`: the `mecoffload` command, runnable from a
checkout without installing (`PYTHONPATH=src python -m mecoffload sweep ...`)."""

from .harness import main

main()
