from setuptools import find_packages, setup

setup(
    name="repro-bist",
    version="1.0.0",
    description=(
        "Reproduction of Pomeranz & Reddy (DAC 1999): built-in test "
        "sequence generation by loading and expansion of test subsequences"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The embedded ISCAS-89 netlists are loaded via importlib.resources, so
    # they must ship inside the wheel, not just the source tree.
    package_data={
        "repro.circuits": ["data/*.bench"],
        # The native backend compiles this C source at first use, so the
        # wheel must carry it alongside the Python sources.
        "repro.sim": ["_native/*.c"],
    },
    include_package_data=True,
    python_requires=">=3.11",
    # numpy holds every engine's candidate descriptors, base bit matrices
    # and random-bit blocks; the native engine additionally needs a C
    # compiler at first use (it falls back to python without one).
    install_requires=["numpy>=1.24"],
    entry_points={"console_scripts": ["repro-bist=repro.cli:main"]},
)
