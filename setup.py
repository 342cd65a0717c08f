"""Packaging for the ``repro`` library under ``src/``.

numpy is the only runtime dependency (the tests also use pytest and
hypothesis).  Where the ``wheel`` package is missing the PEP 660
editable install fails; ``pip install -e . --no-build-isolation`` then
takes the legacy ``setup.py develop`` path instead.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
