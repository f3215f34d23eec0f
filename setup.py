from setuptools import find_packages, setup

setup(
    name="repro-zkml",
    version="0.7.0",
    description=(
        "zkSNARK proving stack (Groth16 + Spartan over BN254) for "
        "verifiable ML inference"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # The core stack is pure-python: every kernel has a scalar big-int
    # path and the field engine degrades to it when numpy or a working C
    # compiler is absent (REPRO_FIELD_BACKEND=scalar forces the same).
    # numpy plus a C compiler unlock the vectorized limb-lane field
    # backend (field/vector.py, kernels compiled at first use).
    install_requires=[],
    extras_require={
        "vector": ["numpy>=1.22"],
        "test": ["pytest", "hypothesis", "pytest-xdist", "pytest-timeout"],
    },
)
