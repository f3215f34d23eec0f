"""Native kernel loader (`repro.field._native`): a bad cached library is
replaced, not trusted.

The compiled kernels are cached at one shared path per source digest and
uid.  A library there that loads without the kernels (for example one
compiled from a truncated source, or one that has every Fr kernel but not
the G1 ones) or that is not a library at all must be rebuilt, or every
later process would fall back to the scalar backend.
Within one process, every caller of the first load gets the kernels.
"""

import os
import subprocess
import sys
import tempfile
import threading
import time

import pytest

import repro
from repro.field import _native

pytest.importorskip("numpy")
pytestmark = pytest.mark.skipif(
    _native._compiler() is None, reason="no C compiler"
)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A private library cache under ``tmp_path``, with no library loaded."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    _native.reset_for_tests()
    path = _native._cache_dir()
    os.makedirs(path)
    yield path
    _native.reset_for_tests()


def _plant_symbol_less(lib_path, tmp_path):
    src = tmp_path / "empty.c"
    src.write_text("")
    subprocess.run(
        [_native._compiler(), "-shared", "-fPIC", "-o", lib_path, str(src)],
        check=True,
        capture_output=True,
    )


def _plant_without_g1(lib_path, tmp_path):
    """The Fr kernels alone: they pass their own checks, but the G1 MSM
    kernel is missing."""
    src = tmp_path / "fr_only.c"
    src.write_text(_native._SOURCE.split("/* ---- BN254 Fq and G1")[0])
    subprocess.run(
        [_native._compiler(), "-O2", "-shared", "-fPIC", "-o", lib_path,
         str(src)],
        check=True,
        capture_output=True,
    )


def _plant_garbage(lib_path, tmp_path):
    with open(lib_path, "wb") as fh:
        fh.write(b"not a shared library")


@pytest.mark.parametrize(
    "plant", [_plant_symbol_less, _plant_without_g1, _plant_garbage]
)
def test_bad_cached_library_is_rebuilt(cache_dir, tmp_path, plant):
    lib_path = os.path.join(cache_dir, "fr.so")
    plant(lib_path, tmp_path)

    native = _native.load()

    assert native is not None
    assert _native._self_test(native)
    # The build's per-process source and library files are gone; only the
    # published library stays.
    assert os.listdir(cache_dir) == ["fr.so"]
    # A fresh process loads the published library as it is.
    env = dict(
        os.environ,
        TMPDIR=str(tmp_path),
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
    )
    code = (
        "from repro.field import _native; "
        "_native._build = lambda path: None; "
        "print(_native.load() is not None)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "True"


def test_concurrent_first_use_waits_for_the_load(monkeypatch):
    """A thread that asks while another is still loading gets the kernels
    too, not a ``None`` that would resolve the field backend to scalar."""
    slow_init = _native.NativeFr.__init__

    def init(self, lib):
        time.sleep(0.3)
        slow_init(self, lib)

    monkeypatch.setattr(_native.NativeFr, "__init__", init)
    _native.reset_for_tests()
    results = []
    try:
        first = threading.Thread(target=lambda: results.append(_native.load()))
        first.start()
        time.sleep(0.1)
        results.append(_native.load())
        first.join()
    finally:
        _native.reset_for_tests()
    assert len(results) == 2
    assert results[0] is not None and results[0] is results[1]
