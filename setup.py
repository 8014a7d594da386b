"""Setup script for the ``repro`` package, whose sources live in ``src/``.

``python setup.py develop`` installs it in editable mode; from the
repository root, ``export PYTHONPATH=src`` runs it without installing.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    python_requires=">=3.11",
)
