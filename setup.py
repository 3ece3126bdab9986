"""Setuptools build script for the ``repro`` package.

``pip install --no-build-isolation .`` builds offline with the installed
setuptools and ``wheel``.  The version is read from
``src/repro/__init__.py`` without importing the package.
``engine/_thomas.c`` ships as package data, so an installed copy
compiles its Thomas kernel on first import, as a checkout does.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.engine": ["_thomas.c"],
                  "repro.devtools": ["*.json"]},
    install_requires=["numpy", "scipy"],
)
