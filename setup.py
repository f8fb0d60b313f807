"""Legacy setup shim: this offline environment lacks the ``wheel`` package,
so PEP 660 editable installs fail; ``python setup.py develop`` still works."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro-cache = repro.experiments.cache:main",
            "repro-cardinality = repro.experiments.cardinality_exp:main",
            "repro-figure3 = repro.experiments.figure3:main",
            "repro-table1 = repro.experiments.table1:main",
            "repro-learning-curve = repro.experiments.learning_curve:main",
            "repro-fewshot = repro.experiments.fewshot_exp:main",
            "repro-ablations = repro.experiments.ablations:main",
            "repro-resources = repro.experiments.resources:main",
            "repro-hardware = repro.experiments.hardware:main",
        ],
    },
)
