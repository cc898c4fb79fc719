"""Package metadata for ``repro``, the XPlain reproduction.

The offline build environment ships setuptools 65 without ``wheel``, so the
PEP 660 editable path is unavailable; ``pip install -e . --no-use-pep517``
falls back to ``setup.py develop``. There is no ``pyproject.toml``: the
metadata lives here. The version is read from ``src/repro/__init__.py``
without importing the package.

``scipy>=1.15`` is the floor for ``scipy.optimize._highspy``, the bundled
HiGHS bindings the LP backend calls directly (DESIGN.md §17).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M)[1]

setup(
    name="repro",
    version=_VERSION,
    description="Reproduction of XPlain: explaining where heuristics underperform",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy>=1.15"],
    extras_require={"toml": ['tomli; python_version < "3.11"']},
)
