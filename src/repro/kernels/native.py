"""Compiled fast path for the delta-sigma acquisition chain.

The one truly sequential part of the measurement pipeline is the analog
front end's converter chain: two RC low-pass stages feeding a chaotic
second-order one-bit modulator.  A one-ulp input difference flips a bit
within a few samples and the streams diverge, so the batch engine cannot
reassociate or approximate — it must replay the scalar recursion exactly,
sample by sample.  What it can do is run independent lanes side by side:
the C kernel moves ``LANES`` lanes one sample forward per step in
lockstep, one lane per element of a GCC/Clang vector (8 with AVX-512, 4
with AVX, else 2 with SSE2/NEON).  Each element performs its lane's own
scalar IEEE-754 operation sequence, selects are bitwise, and
``-ffp-contract=off`` forbids the only transformation (FMA contraction)
that could change a rounding, so every width produces the same bits as
the scalar reference.  A batch's lanes run in blocks of ``LANES``; a
partial last block is padded with copies of its last lane, whose outputs
land in a spare row.  On a 2-core AVX-512 host a 32-lane batch of 8704
noisy samples per lane costs ~17 us per lane, against ~62 us per lane
for the one-lane-at-a-time C loop this replaced.

The kernel also generates the converter noise inline: each lane is a
cached noise-free shaped waveform, a gain and a noise stream key, and
sample ``i`` enters the chain as ``gain * (shaped[i] + noise_i)``, with
the counter-keyed SplitMix64 / Irwin–Hall(4) generator of
:mod:`repro.app.frontend` — vector integer hashing, an exact int-to-double
step through the mantissa of 2**52, and one scale multiply, no libm call,
so the noisy lanes are never materialised and the C, fallback and scalar
paths agree bit for bit.

The library is compiled with whatever ``cc``/``gcc``/``clang`` the host
provides — no new Python dependency — with ``-march=native`` for the
host's full vector width, or without it if the compiler rejects the flag.
The first load on a host compiles into a per-user cache,
``<tempfile.gettempdir()>/repro-kernels-<uid>/`` (mode 0700), under a
name hashed from the source, the flags, the compiler's path, mtime and
size, and the CPU's feature flags from ``/proc/cpuinfo``, published with
an atomic rename; later processes load that file and run no compiler,
and a cache kept across a move to a CPU with other vector units gets a
new build rather than one that would die of an illegal instruction.  A
cache directory that another user owns or that group or others can
write is not used, and where the CPU's features cannot be read nothing
is cached: the build then goes to a private temporary directory, as
an uncached build.  When no compiler is available
(or ``REPRO_NO_NATIVE_KERNELS`` is set) the loader reports unavailable and
callers fall back to a fused pure-Python loop (:func:`adc_chain_batch`
handles the dispatch) fed by the numpy noise generator, which produces
identical bits, just slower.

Besides the converter chain the library fuses one more stage:
:func:`level_filter_chain_batch` runs the whole ``filter`` stage
(linearise, per-tank IIR chain, fixed-point quantise) in one pass,
bit-exact with the numpy rounds path by construction (identical scalar
op sequence per lane, ``rint`` = round-half-even = ``np.rint``,
power-of-two scale ops exact).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
from typing import List, Optional, Sequence

import numpy as np

from repro.app.frontend import GOLDEN64, NOISE_MEAN, converter_noise

#: Environment variable that forces the pure-Python fallback.
DISABLE_ENV = "REPRO_NO_NATIVE_KERNELS"

#: The fused acquisition chain: per lane, the analog input
#: ``gain * (shaped + noise)``, ``order`` RC low-pass stages
#: (state += alpha * (x - state)), the ADC's +-clip, the second-order
#: one-bit modulator, and boxcar decimation folded into one pass.  The
#: operation sequence per sample per lane is exactly the one
#: ``AnalogFrontEnd`` + ``RcLowPass.filter`` + ``DeltaSigmaAdc.modulate``
#: + ``mean`` perform; the +-1 bit sums are small exact integers, so
#: accumulating the decimator inline is order-independent and exact.
#: The noise sample is ``(sum of mix64(h)'s 16-bit fields - NOISE_MEAN) *
#: noise_scale`` with ``h`` stepping by GOLDEN64 from the lane's key: an
#: exact integer, converted exactly, then one rounded multiply.
#:
#: ``LANES`` lanes advance one sample per step in lockstep, one lane per
#: element of a GCC/Clang vector; every element op is the scalar IEEE-754
#: op of that lane, and selects are bitwise, so vector width changes
#: throughput and nothing else.
_C_SOURCE = r"""
#include <math.h>

#if defined(__AVX512F__)
#define LANES 8
#elif defined(__AVX__)
#define LANES 4
#else
#define LANES 2
#endif

typedef double vd __attribute__((vector_size(8 * LANES)));
typedef long long vi __attribute__((vector_size(8 * LANES)));
typedef unsigned long long vu __attribute__((vector_size(8 * LANES)));

/* Or-ing an integer f < 2**52 into the mantissa of 2**52 gives the double
 * 2**52 + f exactly; subtracting 2**52 + NOISE_MEAN (also exact) leaves
 * exactly (double)(f - NOISE_MEAN). */
#define EXP52 0x4330000000000000ULL
#define NOISE_BIAS (4503599627370496.0 + (double)NOISE_MEAN)

#define INLINE static inline __attribute__((always_inline))

int ds_lane_width(void) { return LANES; }

INLINE vd splat(double a) {
    vd v;
    for (int w = 0; w < LANES; w++) v[w] = a;
    return v;
}

/* m ? a : b per element, m all ones or all zeros. */
INLINE vd pick(vi m, vd a, vd b) {
    return (vd)(((vi)a & m) | ((vi)b & ~m));
}

INLINE vu mix64(vu z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* One block of LANES lanes.  noisy is a constant at every call site and
 * order at all but the generic one, so the order-2 copies (the
 * converter's RC front end) test neither per sample and keep their
 * filter states in registers. */
INLINE void
adc_chain_block(const double* const* x, vd gain, vu h, double noise_scale,
                const int noisy, long n, double alpha, const int order,
                long dec, double clip, double* const* out) {
    const vd zero = splat(0.0), one = splat(1.0), neg_one = splat(-1.0);
    const vd hi = splat(clip), lo = splat(-clip);
    vd s[8] = {zero, zero, zero, zero, zero, zero, zero, zero};
    vd v1 = zero, v2 = zero, y = one, acc = zero;
    long m = 0, k = 0;
    for (long i = 0; i < n; i++) {
        vd u;
        for (int w = 0; w < LANES; w++) u[w] = x[w][i];
        if (noisy) {
            h += GOLDEN64;
            vu z = mix64(h);
            /* The four 16-bit fields summed in two 32-bit halves. */
            vu pairs = (z & 0x0000FFFF0000FFFFULL)
                       + ((z >> 16) & 0x0000FFFF0000FFFFULL);
            vu f = (pairs & 0xFFFFFFFFULL) + (pairs >> 32);
            vd noise = (vd)(f | EXP52) - NOISE_BIAS;
            u = gain * (u + noise * noise_scale);
        } else {
            u = gain * u;
        }
        for (int j = 0; j < order; j++) {
            s[j] += alpha * (u - s[j]);
            u = s[j];
        }
        u = pick((vi)(u < lo), lo, pick((vi)(u > hi), hi, u));
        v1 += u - y;
        v2 += v1 - y;
        y = pick((vi)(v2 >= zero), one, neg_one);
        acc += y;
        if (++k == dec) {
            vd r = acc / (double)dec;
            for (int w = 0; w < LANES; w++) out[w][m] = r[w];
            m++;
            acc = zero;
            k = 0;
        }
    }
}

#define BLOCK(noisy, order) \
    adc_chain_block(x, g, h, noise_scale, noisy, n, alpha, order, dec, clip, o)

/* out holds lanes + 1 rows of n / dec: a partial last block is padded
 * with copies of the last lane, and the copies write the spare last row. */
void ds_adc_chain_batch(const double* const* shaped, const double* gain,
                        const unsigned long long* key, double noise_scale,
                        long lanes, long n, double alpha, int order,
                        long dec, double clip, double* out) {
    long m_per_lane = n / dec;
    for (long base = 0; base < lanes; base += LANES) {
        const double* x[LANES];
        double* o[LANES];
        vd g;
        vu h;
        for (int w = 0; w < LANES; w++) {
            long lane = base + w < lanes ? base + w : lanes - 1;
            x[w] = shaped[lane];
            g[w] = gain[lane];
            h[w] = key[lane];
            o[w] = out + (base + w < lanes ? base + w : lanes) * m_per_lane;
        }
        if (noise_scale != 0.0) {
            if (order == 2) BLOCK(1, 2);
            else BLOCK(1, order);
        } else {
            if (order == 2) BLOCK(0, 2);
            else BLOCK(0, order);
        }
    }
}

/* Fused linearise + per-tank IIR chain + fixed-point quantise: the whole
 * ``filter`` stage in one pass.  slot[i] names lane i's tank; lanes of
 * one tank chain through state[slot] in lane order, exactly like the
 * numpy "rounds" path chains the k-th occurrences.  Every per-lane op is
 * the identical scalar IEEE-754 sequence the numpy path performs
 * elementwise (clip via max-then-min, a*(b-c) with contraction off,
 * rint = round-half-even = np.rint, power-of-two scale mult/divide), so
 * the outputs are bit-identical.  Returns 0 on success; 1 when a
 * quantised code falls outside [-limit, limit) or is NaN — the caller
 * re-runs the numpy path to raise the exact scalar-path error. */
int level_filter_chain(const double* c_pf, const long long* slot, long n,
                       double* state, unsigned char* fresh,
                       double c_empty, double c_span, double alpha,
                       double scale, double limit, double* out) {
    for (long i = 0; i < n; i++) {
        double raw = (c_pf[i] - c_empty) / c_span;
        /* np.minimum(1.0, np.maximum(0.0, raw)) — NaN propagates. */
        double lv = raw > 0.0 ? raw : (raw == raw ? 0.0 : raw);
        lv = lv < 1.0 ? lv : (lv == lv ? 1.0 : lv);
        long long s = slot[i];
        double sm;
        if (fresh[s]) {
            sm = lv;
        } else {
            double st = state[s];
            sm = st + alpha * (lv - st);
        }
        double code = rint(sm * scale);
        if (!(code >= -limit && code < limit)) {
            return 1;
        }
        sm = code / scale;
        out[i] = sm;
        state[s] = sm;
        fresh[s] = 0;
    }
    return 0;
}
"""

#: Flags of every build.  -ffp-contract=off: no FMA contraction, so every
#: double op rounds exactly where the Python reference rounds.
BASE_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: Tried first: the host's full vector width.  A compiler that rejects
#: -march=native gets BASE_FLAGS alone.
NATIVE_FLAGS = BASE_FLAGS + ("-march=native",)

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
_load_error: Optional[str] = None


def _source() -> str:
    return (
        f"#define GOLDEN64 {GOLDEN64:#x}ULL\n"
        f"#define NOISE_MEAN {NOISE_MEAN}LL\n" + _C_SOURCE
    )


def _find_compiler() -> str:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")


def _cpu_features() -> Optional[str]:
    """The CPU's instruction-set features, which decide what
    ``-march=native`` emits: the ``flags`` (x86) or ``Features`` (Arm)
    lines of ``/proc/cpuinfo``, every distinct one, sorted; None where
    they cannot be read."""
    lines = set()
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                key, sep, value = line.partition(":")
                if sep and key.strip() in ("flags", "Features"):
                    lines.add(" ".join(sorted(value.split())))
    except OSError:
        return None
    return "\n".join(sorted(lines)) or None


def _library_path(compiler: str, flags: Sequence[str], directory: str) -> str:
    """Where the build of ``_source()`` by ``compiler`` with ``flags``
    lives in ``directory``: named by a hash of everything that shapes the
    binary, so a changed source, flag set, compiler or CPU never reuses
    a stale build (a ``-march=native`` build run on a CPU without its
    vector unit dies of an illegal instruction)."""
    st = os.stat(compiler)
    digest = hashlib.sha256()
    for part in (
        _source(), "\0".join(flags), compiler, str(st.st_mtime_ns), str(st.st_size),
        platform.machine(), _cpu_features() or "",
    ):
        digest.update(part.encode("utf-8") + b"\0")
    return os.path.join(directory, f"ds_chain-{digest.hexdigest()[:32]}.so")


def _compile(compiler: str, flags: Sequence[str], lib_path: str) -> None:
    """Build ``_source()`` into ``lib_path``: compile under a unique name
    beside it, then publish with one atomic rename, so a concurrent
    loader sees either no file or a whole one."""
    fd, src = tempfile.mkstemp(
        suffix=".c", prefix="build-", dir=os.path.dirname(lib_path)
    )
    tmp_lib = src[:-2] + ".so"
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(_source())
        result = subprocess.run(
            [compiler, *flags, src, "-o", tmp_lib, "-lm"],
            capture_output=True,
            timeout=120,
        )
        if result.returncode != 0:
            raise RuntimeError(
                f"{compiler} failed: {result.stderr.decode(errors='replace')[:500]}"
            )
        os.replace(tmp_lib, lib_path)
    finally:
        for path in (src, tmp_lib):
            if os.path.exists(path):
                os.remove(path)


def _open(lib_path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(lib_path)
    lib.ds_lane_width.argtypes = []
    lib.ds_lane_width.restype = ctypes.c_int
    lib.ds_adc_chain_batch.argtypes = [
        ctypes.POINTER(ctypes.c_void_p),
        ctypes.POINTER(ctypes.c_double),
        ctypes.POINTER(ctypes.c_uint64),
        ctypes.c_double,
        ctypes.c_long,
        ctypes.c_long,
        ctypes.c_double,
        ctypes.c_int,
        ctypes.c_long,
        ctypes.c_double,
        ctypes.POINTER(ctypes.c_double),
    ]
    lib.ds_adc_chain_batch.restype = None
    lib.level_filter_chain.argtypes = [
        ctypes.POINTER(ctypes.c_double),
        ctypes.POINTER(ctypes.c_longlong),
        ctypes.c_long,
        ctypes.POINTER(ctypes.c_double),
        ctypes.POINTER(ctypes.c_ubyte),
        ctypes.c_double,
        ctypes.c_double,
        ctypes.c_double,
        ctypes.c_double,
        ctypes.c_double,
        ctypes.POINTER(ctypes.c_double),
    ]
    lib.level_filter_chain.restype = ctypes.c_int
    return lib


def _build_library(compiler: str, flags: Sequence[str], directory: str) -> ctypes.CDLL:
    """The library built by ``compiler`` with ``flags`` in ``directory``,
    compiled unless that build is already there.  The loader's one build
    step; tests call it to check every compiler and flag set."""
    lib_path = _library_path(compiler, flags, directory)
    if not os.path.exists(lib_path):
        _compile(compiler, flags, lib_path)
    return _open(lib_path)


def _cache_dir() -> Optional[str]:
    """This user's build cache, ``<tmp>/repro-kernels-<uid>``, made with
    mode 0700; None when it exists but is not a directory this user owns
    that no one else can write to (then nothing is cached)."""
    path = os.path.join(tempfile.gettempdir(), f"repro-kernels-{os.getuid()}")
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    except OSError:
        return None
    st = os.lstat(path)
    if (
        not stat.S_ISDIR(st.st_mode)
        or st.st_uid != os.getuid()
        or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        return None
    return path


def _load_from(compiler: str, directory: str) -> ctypes.CDLL:
    """A cached build if ``directory`` has one, else the first flag set
    that compiles."""
    for flags in (NATIVE_FLAGS, BASE_FLAGS):
        lib_path = _library_path(compiler, flags, directory)
        if os.path.exists(lib_path):
            return _open(lib_path)
    errors = []
    for flags in (NATIVE_FLAGS, BASE_FLAGS):
        try:
            return _build_library(compiler, flags, directory)
        except (RuntimeError, subprocess.SubprocessError) as exc:
            errors.append(str(exc))
    raise RuntimeError("; ".join(errors))


def _compile_and_load() -> ctypes.CDLL:
    compiler = _find_compiler()
    # Without the CPU's features a cached -march=native build cannot be
    # told apart from one made for another CPU, so nothing is cached.
    cache = _cache_dir() if _cpu_features() is not None else None
    if cache is not None:
        return _load_from(compiler, cache)
    with tempfile.TemporaryDirectory(prefix="repro-kernels-") as tmp:
        # dlopen keeps the mapping alive after the directory is removed.
        return _load_from(compiler, tmp)


def load_native() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, building it on first call; None when
    disabled or unavailable (the failure reason is kept for
    :func:`native_status`)."""
    global _lib, _load_attempted, _load_error
    if os.environ.get(DISABLE_ENV):
        return None
    with _lock:
        if not _load_attempted:
            _load_attempted = True
            try:
                _lib = _compile_and_load()
            except Exception as exc:  # missing compiler, sandboxed tmp, ...
                _load_error = str(exc)
                _lib = None
        return _lib


def native_available() -> bool:
    return load_native() is not None


def native_status() -> str:
    """Human-readable availability line for benchmarks and reports,
    naming the converter kernel's lane width when compiled."""
    if os.environ.get(DISABLE_ENV):
        return f"disabled via {DISABLE_ENV}"
    lib = load_native()
    if lib is not None:
        return f"compiled ({lib.ds_lane_width()} lanes)"
    return f"unavailable ({_load_error})"


def _adc_chain_python(
    x: np.ndarray, alpha: float, order: int, decimation: int, clip: float
) -> List[float]:
    """Fused pure-Python lane: same operation sequence as the C kernel
    (and as the scalar RcLowPass/DeltaSigmaAdc path), on Python floats."""
    s = [0.0] * order
    v1 = 0.0
    v2 = 0.0
    y = 1.0
    acc = 0.0
    k = 0
    out: List[float] = []
    append = out.append
    neg_clip = -clip
    for u in x.tolist():
        for j in range(order):
            sj = s[j]
            sj += alpha * (u - sj)
            s[j] = sj
            u = sj
        if u < neg_clip:
            u = neg_clip
        elif u > clip:
            u = clip
        v1 += u - y
        v2 += v1 - y
        y = 1.0 if v2 >= 0.0 else -1.0
        acc += y
        k += 1
        if k == decimation:
            append(acc / decimation)
            acc = 0.0
            k = 0
    return out


def adc_chain_batch(
    lanes,
    alpha: float,
    order: int,
    decimation: int,
    clip: float = 0.9,
    gains: Optional[Sequence[float]] = None,
    keys: Optional[Sequence[int]] = None,
    noise_scale: float = 0.0,
) -> np.ndarray:
    """Run the fused noise/RC/modulator/decimator chain over ``L`` lanes
    of ``N`` samples; returns the ``(L, N // decimation)`` decimated
    samples, bit-exact with ``DeltaSigmaAdc.convert`` of each lane's
    analog input ``gains[i] * (lanes[i] + noise_i)``.

    ``lanes`` is an ``(L, N)`` array or a sequence of ``L`` 1-D arrays of
    length ``N`` (read in place, not stacked).  ``gains`` defaults to 1;
    ``noise_i`` is :func:`repro.app.frontend.converter_noise` of
    ``keys[i]`` at ``noise_scale``, and absent when ``noise_scale`` is 0
    (the default).  Dispatches to the compiled kernel when available,
    else to the fused pure-Python loop (identical bits either way).

    Raises
    ------
    ValueError
        On a lane array that is not 2-D, lanes of unequal length, a
        missing or mis-sized ``gains``/``keys``, an unsupported filter
        order, or a degenerate decimation factor.
    """
    if isinstance(lanes, np.ndarray):
        if lanes.ndim != 2:
            raise ValueError(f"lanes must be 2-D (L, N), got shape {lanes.shape}")
        n = lanes.shape[1]
    else:
        n = lanes[0].size if len(lanes) else 0
    if not 1 <= order <= 8:
        raise ValueError(f"filter order must be 1..8, got {order}")
    if decimation < 2:
        raise ValueError(f"decimation must be >= 2, got {decimation}")
    rows = [np.ascontiguousarray(lane, dtype=np.float64) for lane in lanes]
    n_lanes = len(rows)
    if any(row.ndim != 1 or row.size != n for row in rows):
        raise ValueError("lanes must be 1-D arrays of one length")
    g = np.ones(n_lanes) if gains is None else np.asarray(gains, dtype=np.float64)
    if noise_scale and keys is None:
        raise ValueError("noisy lanes need their noise stream keys")
    k = np.zeros(n_lanes, dtype=np.uint64) if keys is None else np.asarray(
        keys, dtype=np.uint64
    )
    if g.shape != (n_lanes,) or k.shape != (n_lanes,):
        raise ValueError(f"need one gain and one key per lane ({n_lanes})")
    # One spare row for the copies that pad the kernel's partial last block.
    out = np.empty((n_lanes + 1, n // decimation), dtype=np.float64)
    if n_lanes == 0 or out.shape[1] == 0:
        return out[:n_lanes]
    lib = load_native()
    if lib is not None:
        pointers = (ctypes.c_void_p * n_lanes)(*[row.ctypes.data for row in rows])
        lib.ds_adc_chain_batch(
            pointers,
            g.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            k.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)),
            noise_scale,
            n_lanes,
            n,
            alpha,
            order,
            decimation,
            clip,
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        )
        return out[:n_lanes]
    for i, row in enumerate(rows):
        if noise_scale:
            row = row + converter_noise(int(k[i]), n, noise_scale)
        out[i, :] = _adc_chain_python(g[i] * row, alpha, order, decimation, clip)
    return out[:n_lanes]


def level_filter_chain_batch(
    c_pf: np.ndarray,
    slots: np.ndarray,
    state: np.ndarray,
    fresh: np.ndarray,
    c_empty: float,
    c_span: float,
    alpha: float,
    frac_bits: int,
    total_bits: int = 32,
) -> Optional[np.ndarray]:
    """Fused ``filter`` stage: linearise, per-tank IIR chain, quantise.

    ``slots[i]`` indexes lane ``i``'s tank into ``state``/``fresh``
    (float64 state per tank, uint8 "no state yet" flag); both are
    updated in place to the post-batch filter states.  Returns the
    quantised level per lane, or None when the native library is
    unavailable **or** a lane fails quantisation — the caller must then
    re-run the pure-Python path, which raises the scalar-path error (and
    must treat the passed ``state``/``fresh`` as scratch: they may have
    been partially advanced).
    """
    lib = load_native()
    if lib is None:
        return None
    c = np.ascontiguousarray(c_pf, dtype=np.float64)
    s = np.ascontiguousarray(slots, dtype=np.int64)
    out = np.empty(c.size, dtype=np.float64)
    status = lib.level_filter_chain(
        c.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        s.ctypes.data_as(ctypes.POINTER(ctypes.c_longlong)),
        c.size,
        state.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        fresh.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
        c_empty,
        c_span,
        alpha,
        float(1 << frac_bits),
        float(1 << (total_bits - 1)),
        out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
    )
    if status != 0:
        return None
    return out

