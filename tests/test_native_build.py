"""Tests of the compiled converter kernel's build: every compiler and
flag set gives the reference bits, and the per-host build cache.

The lockstep kernel runs ``LANES`` lanes per vector (2, 4 or 8 with the
host's widest vector unit), padding a partial last block with copies of
its last lane.  Lane counts 1..17 cover every tail at each width; each
(compiler, flags) build is checked against the pure-Python chain fed by
the numpy noise generator.
"""

import functools
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.app.frontend import NOISE_SIGMA, converter_noise, noise_stream_key
from repro.kernels import native
from repro.kernels.native import (
    BASE_FLAGS,
    DISABLE_ENV,
    NATIVE_FLAGS,
    _adc_chain_python,
    adc_chain_batch,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
CLIP = 0.9
DECIMATION = 16
#: Not a multiple of DECIMATION: the trailing partial window is dropped.
SAMPLES = 250
MAX_LANES = 17
ORDERS = (1, 2, 3, 8)
NOISE_SCALE = 0.05 / NOISE_SIGMA


def compilers():
    """Each distinct compiler on PATH, by the name that found it."""
    found = {}
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            found.setdefault(os.path.realpath(path), path)
    return sorted(found.values())


BUILDS = [
    pytest.param(compiler, flags, id=f"{os.path.basename(compiler)}-{label}")
    for compiler in compilers()
    for label, flags in (("baseline", BASE_FLAGS), ("native", NATIVE_FLAGS))
]
needs_compiler = pytest.mark.skipif(not compilers(), reason="no C compiler on PATH")
#: The loader caches builds only where it can read the CPU's features.
caches = pytest.mark.skipif(
    not compilers() or native._cpu_features() is None,
    reason="no C compiler on PATH or no CPU feature list to key a cache by",
)


def lane_inputs(order):
    """MAX_LANES lanes with a distinct gain, key and phase each; odd lanes
    drive the converter into its +-clip."""
    rng = np.random.default_rng(order)
    t = np.arange(SAMPLES)
    lanes = [
        (0.6 if i % 2 else 0.2) * np.sin(0.31 * t + rng.uniform(0, 6))
        for i in range(MAX_LANES)
    ]
    gains = [1.0 + 0.37 * i for i in range(MAX_LANES)]
    keys = [noise_stream_key(11, 2**32 + i, i % 2) for i in range(MAX_LANES)]
    return lanes, gains, keys


@functools.lru_cache(maxsize=None)
def reference(order, noisy):
    """The pure-Python chain per lane, noise from ``converter_noise``."""
    lanes, gains, keys = lane_inputs(order)
    rows = []
    for lane, gain, key in zip(lanes, gains, keys):
        x = lane + converter_noise(key, SAMPLES, NOISE_SCALE) if noisy else lane
        rows.append(_adc_chain_python(gain * x, 0.07, order, DECIMATION, CLIP))
    return np.array(rows)


@pytest.fixture(scope="module")
def build_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("builds"))


def use_library(monkeypatch, lib):
    """Route ``adc_chain_batch`` through ``lib``."""
    monkeypatch.delenv(DISABLE_ENV, raising=False)
    monkeypatch.setattr(native, "_lib", lib)
    monkeypatch.setattr(native, "_load_attempted", True)


@needs_compiler
@pytest.mark.parametrize("compiler, flags", BUILDS)
def test_every_build_matches_the_reference(compiler, flags, build_dir, monkeypatch):
    """Every lane count 1..17, every order, noise on and off."""
    try:
        lib = native._build_library(compiler, flags, build_dir)
    except RuntimeError as exc:
        if "-march=native" in flags:
            pytest.skip(f"{compiler} rejects -march=native: {exc}")
        raise
    assert lib.ds_lane_width() in (2, 4, 8)
    use_library(monkeypatch, lib)
    for order in ORDERS:
        lanes, gains, keys = lane_inputs(order)
        for noisy in (False, True):
            want = reference(order, noisy)
            for n_lanes in range(1, MAX_LANES + 1):
                out = adc_chain_batch(
                    lanes[:n_lanes], 0.07, order, DECIMATION, clip=CLIP,
                    gains=gains[:n_lanes], keys=keys[:n_lanes],
                    noise_scale=NOISE_SCALE if noisy else 0.0,
                )
                assert out.shape == (n_lanes, SAMPLES // DECIMATION)
                np.testing.assert_array_equal(
                    out, want[:n_lanes], err_msg=f"order {order}, noisy {noisy}, {n_lanes} lanes"
                )


def test_inputs_reach_the_clip():
    lanes, gains, _ = lane_inputs(2)
    assert max(g * np.abs(x).max() for x, g in zip(lanes, gains)) > 2 * CLIP


@needs_compiler
@pytest.mark.parametrize("compiler", compilers(), ids=os.path.basename)
def test_source_declares_every_function(compiler, tmp_path):
    """A compiler that rejects implicit declarations (GCC >= 14) builds it."""
    src = tmp_path / "chain.c"
    src.write_text(native._source(), encoding="utf-8")
    result = subprocess.run(
        [compiler, *BASE_FLAGS, "-Werror=implicit-function-declaration",
         str(src), "-o", str(tmp_path / "chain.so"), "-lm"],
        capture_output=True,
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")


def test_status_names_the_lane_width():
    if not native.native_available():
        pytest.skip(f"no native kernel: {native.native_status()}")
    assert re.fullmatch(r"compiled \((2|4|8) lanes\)", native.native_status())


# ------------------------------------------------------------ build cache


def cache_dir(tmp: Path, uid: int) -> Path:
    return tmp / f"repro-kernels-{uid}"


@pytest.fixture
def private_tmp(tmp_path, monkeypatch):
    """``tempfile.gettempdir()`` is ``tmp_path`` for this test."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def builds(tmp: Path) -> set:
    return set(cache_dir(tmp, os.getuid()).iterdir())


@caches
def test_changed_source_gets_a_new_build(private_tmp, monkeypatch):
    native._compile_and_load()
    built = builds(private_tmp)
    assert len(built) == 1
    native._compile_and_load()  # cached: nothing new
    assert builds(private_tmp) == built
    monkeypatch.setattr(native, "_C_SOURCE", native._C_SOURCE + "\n/* changed */\n")
    native._compile_and_load()
    after = builds(private_tmp)
    assert len(after) == 2 and built < after
    assert all(p.suffix == ".so" for p in after)


@needs_compiler
def test_changed_cpu_features_get_a_new_build(private_tmp, monkeypatch):
    """A cache kept across a move to a CPU without AVX-512 is not reused."""
    monkeypatch.setattr(native, "_cpu_features", lambda: "avx avx2 avx512f sse2")
    native._compile_and_load()
    built = builds(private_tmp)
    assert len(built) == 1
    monkeypatch.setattr(native, "_cpu_features", lambda: "avx avx2 sse2")
    native._compile_and_load()
    after = builds(private_tmp)
    assert len(after) == 2 and built < after


@needs_compiler
def test_unknown_cpu_features_are_not_cached(private_tmp, monkeypatch):
    monkeypatch.setattr(native, "_cpu_features", lambda: None)
    lib = native._compile_and_load()
    assert lib.ds_lane_width() in (2, 4, 8)
    assert not cache_dir(private_tmp, os.getuid()).exists()


@pytest.mark.skipif(not os.path.exists("/proc/cpuinfo"), reason="no /proc/cpuinfo")
def test_cpu_features_are_read():
    features = native._cpu_features()
    assert features and features.split() == sorted(features.split())


def test_cache_dir_is_private(private_tmp):
    path = Path(native._cache_dir())
    assert path == cache_dir(private_tmp, os.getuid())
    assert stat.S_IMODE(path.stat().st_mode) == 0o700


@needs_compiler
def test_writable_cache_dir_is_not_used(private_tmp):
    shared = cache_dir(private_tmp, os.getuid())
    shared.mkdir()
    shared.chmod(0o777)
    assert native._cache_dir() is None
    lib = native._compile_and_load()
    assert lib.ds_lane_width() in (2, 4, 8)
    assert list(shared.iterdir()) == []


@needs_compiler
def test_cache_dir_of_another_user_is_not_used(private_tmp, monkeypatch):
    other = os.getuid() + 1
    foreign = cache_dir(private_tmp, other)
    foreign.mkdir(mode=0o700)
    # The directory is this process's, so it is another user's to a
    # process running as ``other``.
    monkeypatch.setattr(native.os, "getuid", lambda: other)
    assert native._cache_dir() is None
    native._compile_and_load()
    assert list(foreign.iterdir()) == []


def test_symlinked_cache_dir_is_not_used(private_tmp):
    target = private_tmp / "elsewhere"
    target.mkdir(mode=0o700)
    cache_dir(private_tmp, os.getuid()).symlink_to(target)
    assert native._cache_dir() is None


#: A fresh process's first load: it prints the status and checks a small
#: noisy batch against the pure-Python chain.
LOAD_SCRIPT = """
import numpy as np
from repro.app.frontend import converter_noise
from repro.kernels.native import _adc_chain_python, adc_chain_batch, native_status
lanes = [0.3 * np.sin(0.2 * np.arange(512) + p) for p in range(5)]
out = adc_chain_batch(lanes, 0.07, 2, 16, gains=[3.0] * 5, keys=list(range(5)), noise_scale=1e-3)
for i, lane in enumerate(lanes):
    want = _adc_chain_python(3.0 * (lane + converter_noise(i, 512, 1e-3)), 0.07, 2, 16, 0.9)
    assert out[i].tolist() == want
print(native_status())
"""


def load_env(tmp: Path, path: str = None) -> dict:
    env = dict(os.environ)
    env.pop(DISABLE_ENV, None)
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    if path is not None:
        env["PATH"] = path
    return env


@caches
def test_second_process_runs_no_compiler(tmp_path):
    """A shim ``cc`` first on PATH logs each run: the first process
    compiles through it, the second loads the cached build."""
    real = native._find_compiler()
    shim_dir = tmp_path / "bin"
    shim_dir.mkdir()
    log = tmp_path / "compiler-runs.log"
    shim = shim_dir / "cc"
    shim.write_text(f'#!/bin/sh\necho run >> "{log}"\nexec "{real}" "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = load_env(tmp, f"{shim_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    statuses = []
    runs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-c", LOAD_SCRIPT], env=env, capture_output=True, timeout=120
        )
        assert result.returncode == 0, result.stderr.decode(errors="replace")
        statuses.append(result.stdout.decode().strip())
        runs.append(len(log.read_text().splitlines()) if log.exists() else 0)
    assert all(s.startswith("compiled") for s in statuses), statuses
    assert runs[0] >= 1 and runs[1] == runs[0]


@caches
def test_concurrent_first_loads_all_get_a_valid_library(tmp_path):
    """More first loads than a small host has cores, racing to build and
    publish one cache file."""
    env = load_env(tmp_path)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", LOAD_SCRIPT], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in range(3)
    ]
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr.decode(errors="replace")
        assert stdout.decode().startswith("compiled"), stdout
    built = list(cache_dir(tmp_path, os.getuid()).iterdir())
    assert [p.suffix for p in built] == [".so"]
