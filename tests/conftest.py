"""Let the ``python -m hyperfa.cli`` children that some tests start import
the package from ``src/``, as pyproject's ``pythonpath`` does for the tests
themselves."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
