"""Setup shim.

The offline environment has setuptools but not the ``wheel`` package, so
PEP 660 editable installs (which need ``bdist_wheel``) fail. Keeping a
``setup.py`` and omitting the ``[build-system]`` table from pyproject.toml
lets ``pip install -e .`` fall back to the legacy ``setup.py develop`` path,
which works without network access. Every piece of package metadata is
declared once, in pyproject.toml's ``[project]`` table.
"""

from setuptools import setup

setup()
