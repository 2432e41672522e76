"""Legacy setup shim.

Kept so ``pip install -e .`` works in offline environments whose pip cannot
build PEP 517 editable wheels (no ``wheel`` package available); all real
metadata lives in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Distance-based association rules over interval data "
        "(Miller & Yang, SIGMOD 1997) - full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.23"],
)
