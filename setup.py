"""Setuptools shim.

The execution environment ships setuptools 65 without the ``wheel`` package
and has no network access, so PEP 660 editable installs (which need
``bdist_wheel``) are unavailable.  This file enables the legacy editable
install path::

    pip install -e . --no-build-isolation --no-use-pep517

All project metadata lives in ``pyproject.toml``.

The C kernel (``src/repro/isomorphism/_ckernel.c``) is the only
verification kernel, so the extension is required: a build needs a C
toolchain.  The extension is a plain C99 shared object consumed through
ctypes — ``CKERNEL_PYMODULE`` only adds the module init stub setuptools
requires — and when it is absent at runtime (a plain checkout, the legacy
editable install) :mod:`repro.isomorphism._ckernel_loader` compiles the same
source on demand into a user cache instead.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "repro.isomorphism._ckernel",
            sources=["src/repro/isomorphism/_ckernel.c"],
            define_macros=[("CKERNEL_PYMODULE", "1")],
        )
    ]
)
