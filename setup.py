"""Legacy setup shim: this environment has no `wheel` package, so PEP 517
editable installs fail; `setup.py develop` via pip's legacy path works."""
import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "src", "repro", "__init__.py")) as fh:
    VERSION = re.search(r'^__version__ = "([^"]+)"', fh.read(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages(os.path.join(HERE, "src")),
    extras_require={
        "test": ["pytest", "hypothesis"],
        "fast": ["numpy"],
    },
)
