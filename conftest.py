"""Test setup for every test under the repository root.

bsdof pins its BLAS libraries to one thread, but only when it is imported
before numpy (src/bsdof/__init__.py).  Importing it here, before pytest
collects any test module, runs the suite under the same pin as the CLI.
"""

import bsdof  # noqa: F401
