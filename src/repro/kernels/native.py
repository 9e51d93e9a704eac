"""Compiled fast path for the delta-sigma acquisition chain.

The one truly sequential part of the measurement pipeline is the analog
front end's converter chain: two RC low-pass stages feeding a chaotic
second-order one-bit modulator.  A one-ulp input difference flips a bit
within a few samples and the streams diverge, so the batch engine cannot
reassociate or approximate — it must replay the scalar recursion exactly,
sample by sample.  NumPy lockstep across lanes is bit-exact but barely
faster (~1.5 us of dispatch per elementwise op, ~9000 sequential steps);
a tiny C kernel running the identical operation sequence is ~75x faster
and still bit-exact, because IEEE-754 double ops are deterministic and
``-ffp-contract=off`` forbids the only transformation (FMA contraction)
that could change a rounding.

The kernel also generates the converter noise inline: each lane is a
cached noise-free shaped waveform, a gain and a noise stream key, and
sample ``i`` enters the chain as ``gain * (shaped[i] + noise_i)``, with
the counter-keyed SplitMix64 / Irwin–Hall(4) generator of
:mod:`repro.app.frontend` — integer hashing and one scale multiply, no
libm call, so the noisy lanes are never materialised and the C, fallback
and scalar paths agree bit for bit.

The library is compiled on first use with whatever ``cc``/``gcc``/``clang``
the host provides — no new Python dependency.  When no compiler is
available (or ``REPRO_NO_NATIVE_KERNELS`` is set) the loader reports
unavailable and callers fall back to a fused pure-Python loop
(:func:`adc_chain_batch` handles the dispatch) fed by the numpy noise
generator, which produces identical bits, just slower.

Besides the converter chain the library fuses one more stage:
:func:`level_filter_chain_batch` runs the whole ``filter`` stage
(linearise, per-tank IIR chain, fixed-point quantise) in one pass,
bit-exact with the numpy rounds path by construction (identical scalar
op sequence per lane, ``rint`` = round-half-even = ``np.rint``,
power-of-two scale ops exact).
"""

from __future__ import annotations

import ctypes
import os
import shutil
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
_C_SOURCE = r"""
static unsigned long long mix64(unsigned long long z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* One lane.  noisy is a constant at both call sites, so neither inlined
 * copy tests it per sample. */
static inline __attribute__((always_inline)) void
adc_chain_lane(const double* x, double gain, unsigned long long h,
               double noise_scale, const int noisy, long n, double alpha,
               int order, long dec, double clip, double* out) {
    double s[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    double v1 = 0.0, v2 = 0.0, y = 1.0, acc = 0.0;
    long m = 0, k = 0;
    for (long i = 0; i < n; i++) {
        double u;
        if (noisy) {
            h += GOLDEN64;
            unsigned long long z = mix64(h);
            /* The four 16-bit fields summed in two 32-bit halves. */
            unsigned long long pairs = (z & 0x0000FFFF0000FFFFULL)
                                       + ((z >> 16) & 0x0000FFFF0000FFFFULL);
            long long f = (long long)((pairs & 0xFFFFFFFFULL) + (pairs >> 32));
            u = gain * (x[i] + (double)(f - NOISE_MEAN) * noise_scale);
        } else {
            u = gain * x[i];
        }
        for (int j = 0; j < order; j++) {
            s[j] += alpha * (u - s[j]);
            u = s[j];
        }
        u = u < -clip ? -clip : (u > clip ? clip : u);
        v1 += u - y;
        v2 += v1 - y;
        y = v2 >= 0.0 ? 1.0 : -1.0;
        acc += y;
        if (++k == dec) {
            out[m++] = acc / (double)dec;
            acc = 0.0;
            k = 0;
        }
    }
}

void ds_adc_chain_batch(const double* const* shaped, const double* gain,
                        const unsigned long long* key, double noise_scale,
                        long lanes, long n, double alpha, int order,
                        long dec, double clip, double* out) {
    long m_per_lane = n / dec;
    for (long lane = 0; lane < lanes; lane++) {
        double* o = out + lane * m_per_lane;
        if (noise_scale != 0.0)
            adc_chain_lane(shaped[lane], gain[lane], key[lane], noise_scale, 1,
                           n, alpha, order, dec, clip, o);
        else
            adc_chain_lane(shaped[lane], gain[lane], key[lane], noise_scale, 0,
                           n, alpha, order, dec, clip, o);
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

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
_load_error: Optional[str] = None


def _compile_and_load() -> ctypes.CDLL:
    compiler = next(
        (c for c in ("cc", "gcc", "clang") if shutil.which(c)), None
    )
    if compiler is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    with tempfile.TemporaryDirectory(prefix="repro-kernels-") as tmp:
        src = os.path.join(tmp, "ds_chain.c")
        lib_path = os.path.join(tmp, "ds_chain.so")
        with open(src, "w", encoding="utf-8") as handle:
            handle.write(f"#define GOLDEN64 {GOLDEN64:#x}ULL\n")
            handle.write(f"#define NOISE_MEAN {NOISE_MEAN}LL\n")
            handle.write(_C_SOURCE)
        result = subprocess.run(
            # -ffp-contract=off: no FMA contraction, so every double op
            # rounds exactly where the Python reference rounds.
            [compiler, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
             src, "-o", lib_path, "-lm"],
            capture_output=True,
            timeout=120,
        )
        if result.returncode != 0:
            raise RuntimeError(
                f"{compiler} failed: {result.stderr.decode(errors='replace')[:500]}"
            )
        # dlopen keeps the mapping alive after the tempdir is removed.
        lib = ctypes.CDLL(lib_path)
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
    """Human-readable availability line for benchmarks and reports."""
    if os.environ.get(DISABLE_ENV):
        return f"disabled via {DISABLE_ENV}"
    if load_native() is not None:
        return "compiled"
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
    out = np.empty((n_lanes, n // decimation), dtype=np.float64)
    if n_lanes == 0 or out.shape[1] == 0:
        return out
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
        return out
    for i, row in enumerate(rows):
        if noise_scale:
            row = row + converter_noise(int(k[i]), n, noise_scale)
        out[i, :] = _adc_chain_python(g[i] * row, alpha, order, decimation, clip)
    return out


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

