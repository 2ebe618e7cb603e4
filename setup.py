"""Package metadata for the ``repro`` distribution.

A plain setuptools script (no ``pyproject.toml``), so ``pip install -e .``
works through setuptools' legacy editable-install path on offline
machines where PEP 517 build isolation cannot fetch ``wheel``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "A reinforcement-learning environment for automatic code "
        "optimization in an MLIR-style compiler"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
