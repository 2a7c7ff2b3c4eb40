"""Optional compiled segment kernels for the shard iteration hot path.

The PPR pull is a weighted segment-sum SpMM: for every destination
segment ``s`` (one owned vertex's incoming edges, sorted by source vid),
``nxt[uniq[s], :] += Σ_e w[e] * msg[other[e], :]``, where the message
arrives as k chunks (the pool's assembled chunks, or the P shard
messages themselves) and the kernel reads each source row in place in
the chunk whose vid range holds it, named by a small per-edge chunk
id.  The vectorized numpy form (gather →
multiply → ``np.add.reduceat`` over the concatenated message)
materializes an (edges × B) float temporary and makes 3-4 passes over
it — measured ~97 ms per shard-pull at the sf0.1 bench shape.  The
C loop below makes ONE pass (each message row is read once, the
destination row stays in L1 for the whole segment) and accumulates in
float64 regardless of the message dtype — 8-9x faster single-thread
AND strictly tighter numerics than the float32 ``reduceat`` chain (no
O(segment-length) float32 error growth, so no oversized-segment
escalation is needed).  Each segment adds its rows in source-vid
order however the message is cut into chunks, so every cut gives the
same bits.

Kernels in the one compiled source:

* ``spmm_f32`` / ``spmm_f64`` — the PPR / PageRank segment-sum pull;
* ``segmin_i64`` — the connected-components min-label pull;
* ``tri_merge`` — triangle counting's per-edge merge intersection of
  the two vid-sorted forward lists (``algos/triangles.py``), replacing
  a numpy wedge expansion plus a binary search per wedge;
* ``lp_vote`` — the label-propagation max-vote pull: one
  open-addressing label tally per owner over vote rows grouped by
  owner, replacing two lexsorts over the shard's rows per wave.

Every kernel checks its index ranges in C before it writes anything,
so a bad index raises ``ValueError`` instead of reading or writing out
of bounds.

This is an optional acceleration: the kernels are compiled once per
node with the system C compiler into a content-addressed cache under
/tmp (the tag covers source + compiler + machine + node name, so a
``-march=native`` object never survives a CPU/toolchain change or a
shared-TMPDIR cluster; the cache dir is created 0o700 and ownership-
checked before any CDLL — /tmp is world-writable) and
loaded via ctypes.  Any failure (no compiler, sandboxed /tmp, load
error) silently falls back to the numpy path in ``csr.GraphShard``
and ``triangles.triangle_count``; set ``HIPPORAG_RAY_NO_NATIVE=1`` to
force the fallback.  Results are allclose between paths (the compiled
path is the more accurate one; triangle counts are exact on both, and
label propagation picks the same labels); regression tests pin both.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile

import numpy as np

logger = logging.getLogger(__name__)

_SRC = r"""
#include <stdint.h>
#include <stdlib.h>
#include <xmmintrin.h>

/* 0 if segment starts are non-decreasing within [0, m] and every
   owner uniq[s] lies in [0, n), else -1. */
static int64_t seg_bad(const int64_t *starts, const int64_t *uniq, int64_t nseg,
                       int64_t m, int64_t n) {
    int64_t bad = 0, prev = 0;
    for (int64_t s = 0; s < nseg; s++) {
        bad |= (starts[s] < prev) | (starts[s] > m) | (uniq[s] < 0) | (uniq[s] >= n);
        prev = starts[s];
    }
    return bad ? -1 : 0;
}

/* 0 if every edge's chunk cid[e] is one of the k chunks and its source
   vid other[e] lies in that chunk, [cb[cid[e]], cb[cid[e] + 1]), else
   -1. */
static int64_t chunk_bad(const int64_t *other, const int16_t *cid, int64_t m,
                         const int64_t *cb, int64_t k) {
    int64_t bad = 0;
    for (int64_t e = 0; e < m; e++) {
        int64_t c = cid[e];
        int64_t in = (c >= 0) & (c < k);
        c = in ? c : 0;
        bad |= !in | (other[e] < cb[c]) | (other[e] >= cb[c + 1]);
    }
    return bad ? -1 : 0;
}

/* base[c]: the address row 0 of the vid range would have if message
   chunk c (rows cb[c] .. cb[c + 1] - 1) were part of one full matrix,
   so source vid o of chunk c is row base[c] + o * row_bytes. */
static uintptr_t *chunk_bases(const void *const *msg, const int64_t *cb, int64_t k,
                              int64_t row_bytes) {
    uintptr_t *base = malloc((size_t)k * sizeof(uintptr_t));
    if (base)
        for (int64_t c = 0; c < k; c++)
            base[c] = (uintptr_t)msg[c] - (uintptr_t)(cb[c] * row_bytes);
    return base;
}

/* nxt[uniq[s], :] += sum over segment s of w[e] * row other[e]
   Segments are contiguous runs of one destination vertex's edges,
   sorted by (destination, source vid).  Edge e's source row is read
   where it lies: in message chunk cid[e], whose vid range
   [cb[c], cb[c + 1]) holds other[e].  Accumulation is double: the
   destination row rides in L1 across the segment; each float32
   message row is read exactly once.

   Software prefetch: the gather addresses are random over the message
   chunks but KNOWN far ahead (other[] and cid[] are sequential), so a
   two-level prefetch — one line at distance 16 to start the DRAM
   fetch, the full row at distance 4 to pull it into L1 — keeps ~16
   rows in flight, turning a latency-bound random gather into a
   bandwidth-bound stream.  Measured 3.5-5x per thread on both the
   entity-shard (random over the full 52 MB message) and chunk-shard
   (hot 1 MB entity window) access patterns at bench scale; the
   hardware prefetcher cannot do this because consecutive rows share
   no stride.  A row of at most one line (B <= 16 float32) is already
   requested at distance 16, so it skips the second prefetch, which at
   B = 1 cost a fifth of the pass.  Returns 0, -1 (nothing written) if
   seg_bad or chunk_bad refuses the indices, or -2 if a scratch
   allocation failed. */
int64_t spmm_f32(const int64_t *starts, const int64_t *uniq, int64_t nseg,
                 const int64_t *other, const int16_t *cid, const float *w, int64_t m,
                 const void *const *msg, const int64_t *cb, int64_t k,
                 int64_t B, double *nxt, int64_t n) {
    if (seg_bad(starts, uniq, nseg, m, n) || chunk_bad(other, cid, m, cb, k))
        return -1;
    const int64_t rb = B * (int64_t)sizeof(float);
    uintptr_t *base = chunk_bases(msg, cb, k, rb);
    if (!base)
        return -2;
    for (int64_t s = 0; s < nseg; s++) {
        int64_t a = starts[s];
        int64_t b = (s + 1 < nseg) ? starts[s + 1] : m;
        double *dst = nxt + uniq[s] * B;
        for (int64_t e = a; e < b; e++) {
            if (e + 16 < m)
                _mm_prefetch((const char *)(base[cid[e + 16]] + other[e + 16] * rb), _MM_HINT_T1);
            if (rb > 64 && e + 4 < m) {
                const char *p = (const char *)(base[cid[e + 4]] + other[e + 4] * rb);
                for (int64_t c = 0; c < rb; c += 64)
                    _mm_prefetch(p + c, _MM_HINT_T0);
            }
            const float *src = (const float *)(base[cid[e]] + other[e] * rb);
            double we = (double)w[e];
            for (int64_t j = 0; j < B; j++)
                dst[j] += we * (double)src[j];
        }
    }
    free(base);
    return 0;
}

int64_t spmm_f64(const int64_t *starts, const int64_t *uniq, int64_t nseg,
                 const int64_t *other, const int16_t *cid, const double *w, int64_t m,
                 const void *const *msg, const int64_t *cb, int64_t k,
                 int64_t B, double *nxt, int64_t n) {
    if (seg_bad(starts, uniq, nseg, m, n) || chunk_bad(other, cid, m, cb, k))
        return -1;
    const int64_t rb = B * (int64_t)sizeof(double);
    uintptr_t *base = chunk_bases(msg, cb, k, rb);
    if (!base)
        return -2;
    for (int64_t s = 0; s < nseg; s++) {
        int64_t a = starts[s];
        int64_t b = (s + 1 < nseg) ? starts[s + 1] : m;
        double *dst = nxt + uniq[s] * B;
        for (int64_t e = a; e < b; e++) {
            if (e + 16 < m)
                _mm_prefetch((const char *)(base[cid[e + 16]] + other[e + 16] * rb), _MM_HINT_T1);
            if (rb > 64 && e + 4 < m) {
                const char *p = (const char *)(base[cid[e + 4]] + other[e + 4] * rb);
                for (int64_t c = 0; c < rb; c += 64)
                    _mm_prefetch(p + c, _MM_HINT_T0);
            }
            const double *src = (const double *)(base[cid[e]] + other[e] * rb);
            double we = w[e];
            for (int64_t j = 0; j < B; j++)
                dst[j] += we * src[j];
        }
    }
    free(base);
    return 0;
}

/* nxt[uniq[s]] = min(nxt[uniq[s]], min over segment of msg[other[e]])
   — the connected-components min-label pull over the full (n_msg,)
   label vector.  Labels are 8 bytes, so one prefetch at a longer
   distance covers the random gather.  Returns -1 (nothing written) if
   seg_bad refuses the segments or a source lies outside msg, else 0. */
int64_t segmin_i64(const int64_t *starts, const int64_t *uniq, int64_t nseg,
                   const int64_t *other, int64_t m,
                   const int64_t *msg, int64_t n_msg, int64_t *nxt, int64_t n) {
    int64_t bad = seg_bad(starts, uniq, nseg, m, n);
    for (int64_t e = 0; e < m; e++)
        bad |= (other[e] < 0) | (other[e] >= n_msg);
    if (bad)
        return -1;
    for (int64_t s = 0; s < nseg; s++) {
        int64_t a = starts[s];
        int64_t b = (s + 1 < nseg) ? starts[s + 1] : m;
        int64_t lo = nxt[uniq[s]];
        for (int64_t e = a; e < b; e++) {
            if (e + 32 < m)
                _mm_prefetch((const char *)(msg + other[e + 32]), _MM_HINT_T0);
            int64_t v = msg[other[e]];
            if (v < lo) lo = v;
        }
        nxt[uniq[s]] = lo;
    }
    return 0;
}

/* Forward-intersection triangle count: for each oriented edge (u, v)
   of the batch, merge-intersect the vid-sorted forward lists
   adj[indptr[u]:indptr[u+1]] and adj[indptr[v]:indptr[v+1]]; every
   common w closes one triangle, counted once at its lowest-ranked edge
   by the degree orientation, and bumps cnt at u, v and w.  Returns the
   number of triangles found, or -1 (nothing written) if indptr is not
   non-decreasing from >= 0 or a vid in adj or the batch is outside
   [0, n) — every read and write then stays in bounds. */
int64_t tri_merge(const int64_t *indptr, const int64_t *adj, int64_t n,
                  const int64_t *bu, const int64_t *bv, int64_t m,
                  int64_t *cnt) {
    if (n > 0 && indptr[0] < 0)
        return -1;
    for (int64_t x = 0; x < n; x++)
        if (indptr[x] > indptr[x + 1])
            return -1;
    for (int64_t k = 0; k < indptr[n]; k++)
        if (adj[k] < 0 || adj[k] >= n)
            return -1;
    for (int64_t i = 0; i < m; i++)
        if (bu[i] < 0 || bu[i] >= n || bv[i] < 0 || bv[i] >= n)
            return -1;
    int64_t total = 0;
    for (int64_t i = 0; i < m; i++) {
        int64_t u = bu[i], v = bv[i];
        int64_t a = indptr[u], ae = indptr[u + 1];
        int64_t b = indptr[v], be = indptr[v + 1];
        int64_t hits = 0;
        while (a < ae && b < be) {
            int64_t x = adj[a], y = adj[b];
            if (x < y) {
                a++;
            } else if (x > y) {
                b++;
            } else {
                cnt[x]++;
                hits++;
                a++;
                b++;
            }
        }
        cnt[u] += hits;
        cnt[v] += hits;
        total += hits;
    }
    return total;
}

/* Label propagation's weighted max-vote pull.  Row i is one vote of
   weight w[i] for label lab[i] at owned vertex own[i]; the rows come
   grouped by owner (own non-decreasing), one run per owner.  An
   open-addressing table sums each run's weight per label in row
   order, and nxt[v] becomes the label with the largest sum, a tie
   going to the smallest label.  Owners with no rows keep nxt[v].
   Returns 0, -1 (nothing written) if an owner is outside [0, n) or
   the rows are not grouped by owner, or -2 if a scratch allocation
   failed. */
int64_t lp_vote(const int64_t *own, const int64_t *lab, const double *w,
                int64_t m, int64_t *nxt, int64_t n) {
    int64_t maxg = 0;
    for (int64_t i = 0, a = 0; i < m; i++) {
        if (own[i] < 0 || own[i] >= n || (i > 0 && own[i] < own[i - 1]))
            return -1;
        if (i + 1 == m || own[i + 1] != own[i]) {
            if (i + 1 - a > maxg) maxg = i + 1 - a;
            a = i + 1;
        }
    }
    if (m == 0)
        return 0;
    int64_t cap = 2;
    while (cap < 2 * maxg) cap <<= 1;
    int64_t *key = malloc((size_t)cap * sizeof(int64_t));
    double *sum = malloc((size_t)cap * sizeof(double));
    int64_t *stamp = calloc((size_t)cap, sizeof(int64_t));
    int64_t *used = malloc((size_t)maxg * sizeof(int64_t));
    if (!key || !sum || !stamp || !used) {
        free(key); free(sum); free(stamp); free(used);
        return -2;
    }
    for (int64_t a = 0, b, gen = 1; a < m; a = b, gen++) {
        int64_t v = own[a];
        for (b = a + 1; b < m && own[b] == v; b++)
            ;
        if (b - a == 1) {
            nxt[v] = lab[a];
            continue;
        }
        /* a table of 2^bits >= 2 x rows slots; Fibonacci hashing takes
           the product's top bits */
        int bits = 1;
        while ((1LL << bits) < 2 * (b - a)) bits++;
        uint64_t mask = (1ULL << bits) - 1;
        int64_t nu = 0;
        for (int64_t r = a; r < b; r++) {
            int64_t l = lab[r];
            uint64_t h = ((uint64_t)l * 0x9E3779B97F4A7C15ULL) >> (64 - bits);
            while (stamp[h] == gen && key[h] != l)
                h = (h + 1) & mask;
            if (stamp[h] == gen) {
                sum[h] += w[r];
            } else {
                stamp[h] = gen;
                key[h] = l;
                sum[h] = w[r];
                used[nu++] = (int64_t)h;
            }
        }
        int64_t best = key[used[0]];
        double top = sum[used[0]];
        for (int64_t j = 1; j < nu; j++) {
            double s = sum[used[j]];
            int64_t l = key[used[j]];
            if (s > top || (s == top && l < best)) {
                top = s;
                best = l;
            }
        }
        nxt[v] = best;
    }
    free(key); free(sum); free(stamp); free(used);
    return 0;
}
"""

def _cache_dir() -> str:
    # computed lazily (inside _compile's try/except): a platform without
    # os.getuid must degrade to the numpy fallback, not break import
    uid = os.getuid() if hasattr(os, "getuid") else "nouid"
    return os.path.join(tempfile.gettempdir(), f"hipporag_ray_native_{uid}")


def _secure_dir(path: str) -> bool:
    """Create the kernel cache dir 0o700 and verify we own it and no
    one else can write it.  /tmp is world-writable: without this check
    a pre-planted directory (or .so) under the predictable path would
    be loaded via CDLL — arbitrary code execution.  Any anomaly means
    'no native kernels', never 'trust the file'."""
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.lstat(path)
    import stat as _stat

    if not _stat.S_ISDIR(st.st_mode) or _stat.S_ISLNK(st.st_mode):
        return False
    if hasattr(os, "getuid") and st.st_uid != os.getuid():
        return False
    if st.st_mode & 0o022:  # group/other writable: ours, so tighten it
        os.chmod(path, 0o700)
        if os.lstat(path).st_mode & 0o022:
            return False
    return True


_i64p = ctypes.POINTER(ctypes.c_int64)
_i16p = ctypes.POINTER(ctypes.c_int16)
_f32p = ctypes.POINTER(ctypes.c_float)
_f64p = ctypes.POINTER(ctypes.c_double)
_vpp = ctypes.POINTER(ctypes.c_void_p)
_I = ctypes.c_int64


class _Kernels:
    """Typed ctypes facade over the compiled shared object."""

    def __init__(self, lib: ctypes.CDLL):
        for fn, wp in ((lib.spmm_f32, _f32p), (lib.spmm_f64, _f64p)):
            fn.argtypes = [_i64p, _i64p, _I, _i64p, _i16p, wp, _I, _vpp, _i64p, _I, _I, _f64p, _I]
        lib.segmin_i64.argtypes = [_i64p, _i64p, _I, _i64p, _I, _i64p, _I, _i64p, _I]
        for fn in (lib.spmm_f32, lib.spmm_f64, lib.segmin_i64):
            fn.restype = _I
        lib.tri_merge.argtypes = [_i64p, _i64p, _I, _i64p, _i64p, _I, _i64p]
        lib.tri_merge.restype = _I
        lib.lp_vote.argtypes = [_i64p, _i64p, _f64p, _I, _i64p, _I]
        lib.lp_vote.restype = _I
        self._lib = lib

    @staticmethod
    def _pp(a: np.ndarray, ptr_t):
        return a.ctypes.data_as(ptr_t)

    @staticmethod
    def _check(a: np.ndarray, dtype, name: str, writable: bool = False) -> None:
        """Layout guard: the C kernels assume C-contiguous buffers of the
        exact dtype.  numpy silently hands out F-contiguous arrays from
        innocuous expressions (``arr[:, idx]`` fancy indexing preserves
        its transposed gather layout through later arithmetic) — passing
        one would silently scatter into wrong cells, so refuse loudly."""
        if a.dtype != dtype:
            raise ValueError(f"{name}: expected {dtype}, got {a.dtype}")
        if not a.flags.c_contiguous:
            raise ValueError(f"{name}: not C-contiguous (shape {a.shape}, strides {a.strides})")
        if writable and not a.flags.writeable:
            raise ValueError(f"{name}: not writable")

    def spmm(
        self,
        starts: np.ndarray,
        uniq: np.ndarray,
        other: np.ndarray,
        cid: np.ndarray,
        w: np.ndarray,
        msgs,
        cb: np.ndarray,
        nxt: np.ndarray,
    ) -> None:
        """nxt[uniq[s], :] += segment-sums of w[e] * the message row of
        source vid other[e], read in place as row other[e] - cb[c] of
        message chunk c = cid[e]; dispatches on the chunks' dtype (w
        must match it; nxt is float64).  Raises ValueError, with
        nothing written, on a wrong chunk count, a chunk of the wrong
        dtype, layout or shape, a segment start out of order, an owner
        outside nxt or a source row outside its chunk."""
        msgs = list(msgs)
        dt = msgs[0].dtype if msgs else None
        if dt not in (np.float32, np.float64):
            raise ValueError(f"msg: expected float32/float64 chunks, got {dt}")
        for a, d, name in (
            (starts, np.int64, "starts"), (uniq, np.int64, "uniq"), (other, np.int64, "other"),
            (cid, np.int16, "cid"), (w, dt, "w"), (cb, np.int64, "cb"),
        ):
            self._check(a, d, name)
        self._check(nxt, np.float64, "nxt", writable=True)
        # cross-array coherence (O(chunks)): the C loop trusts these —
        # a mismatch would read/scatter out of bounds with no exception
        if len(cb) != len(msgs) + 1:
            raise ValueError(f"{len(msgs)} message chunks for {len(cb) - 1} chunk bounds")
        if nxt.ndim != 2:
            raise ValueError(f"nxt must be 2-D: {nxt.shape}")
        for c, M in enumerate(msgs):
            self._check(M, dt, f"msg[{c}]")
            if M.shape != (cb[c + 1] - cb[c], nxt.shape[1]):
                raise ValueError(
                    f"msg[{c}]: shape {M.shape}, chunk [{cb[c]}, {cb[c + 1]}) x {nxt.shape[1]}"
                )
        if len(starts) != len(uniq):
            raise ValueError(f"starts/uniq length mismatch: {len(starts)} vs {len(uniq)}")
        if len(w) != len(other) or len(cid) != len(other):
            raise ValueError(f"other/cid/w length mismatch: {len(other)} / {len(cid)} / {len(w)}")
        ptrs = (ctypes.c_void_p * len(msgs))(*[M.ctypes.data for M in msgs])
        fn, wp = (self._lib.spmm_f32, _f32p) if dt == np.float32 else (self._lib.spmm_f64, _f64p)
        rc = fn(
            self._pp(starts, _i64p), self._pp(uniq, _i64p), len(starts),
            self._pp(other, _i64p), self._pp(cid, _i16p), self._pp(w, wp), len(other),
            ptrs, self._pp(cb, _i64p), len(msgs),
            nxt.shape[1], self._pp(nxt, _f64p), nxt.shape[0],
        )
        if rc == -1:
            raise ValueError(
                f"spmm: segment starts out of order, an owner outside [0, {nxt.shape[0]}) "
                "or a source row outside its message chunk"
            )
        if rc == -2:
            raise MemoryError("spmm: scratch allocation failed")

    def segmin(
        self,
        starts: np.ndarray,
        uniq: np.ndarray,
        other: np.ndarray,
        msg: np.ndarray,
        nxt: np.ndarray,
    ) -> None:
        """nxt[uniq[s]] = min(nxt[uniq[s]], min of msg[other] over
        segment s).  Raises ValueError, with nothing written, on segment
        starts out of order, an owner outside nxt or a source outside
        msg."""
        for a, name in ((starts, "starts"), (uniq, "uniq"), (other, "other"), (msg, "msg")):
            self._check(a, np.int64, name)
        self._check(nxt, np.int64, "nxt", writable=True)
        if len(starts) != len(uniq):
            raise ValueError(f"starts/uniq length mismatch: {len(starts)} vs {len(uniq)}")
        rc = self._lib.segmin_i64(
            self._pp(starts, _i64p), self._pp(uniq, _i64p), len(starts),
            self._pp(other, _i64p), len(other),
            self._pp(msg, _i64p), len(msg), self._pp(nxt, _i64p), len(nxt),
        )
        if rc:
            raise ValueError(
                f"segmin: segment starts out of order, an owner outside [0, {len(nxt)}) "
                f"or a source outside [0, {len(msg)})"
            )

    def tri_merge(
        self,
        indptr: np.ndarray,
        adj: np.ndarray,
        bu: np.ndarray,
        bv: np.ndarray,
        cnt: np.ndarray,
    ) -> int:
        """cnt[u], cnt[v], cnt[w] += 1 for every w in N+(u) ∩ N+(v) over
        the oriented edges (bu, bv); ``adj[indptr[x]:indptr[x+1]]`` is
        x's forward list, sorted by vid.  Returns the triangle count."""
        for a, name in ((indptr, "indptr"), (adj, "adj"), (bu, "bu"), (bv, "bv")):
            self._check(a, np.int64, name)
        self._check(cnt, np.int64, "cnt", writable=True)
        if len(indptr) != len(cnt) + 1:
            raise ValueError(f"indptr/cnt length mismatch: {len(indptr)} vs {len(cnt)} + 1")
        if len(adj) != int(indptr[-1]):
            raise ValueError(f"adj length {len(adj)} != indptr[-1] {int(indptr[-1])}")
        if len(bu) != len(bv):
            raise ValueError(f"bu/bv length mismatch: {len(bu)} vs {len(bv)}")
        found = self._lib.tri_merge(
            self._pp(indptr, _i64p), self._pp(adj, _i64p), len(cnt),
            self._pp(bu, _i64p), self._pp(bv, _i64p), len(bu),
            self._pp(cnt, _i64p),
        )
        if found < 0:
            raise ValueError(f"tri_merge: indptr not monotone or a vid outside [0, {len(cnt)})")
        return int(found)

    def lp_vote(
        self, own: np.ndarray, lab: np.ndarray, w: np.ndarray, nxt: np.ndarray
    ) -> None:
        """Weighted max-vote per owner: ``nxt[v]`` becomes the label with
        the largest float64 sum of ``w`` over the rows with ``own == v``
        and that label (summed in input order; a tie goes to the smallest
        label).  The rows must be grouped by owner (``own``
        non-decreasing).  Vertices with no rows keep ``nxt[v]``."""
        for a, dt, name in ((own, np.int64, "own"), (lab, np.int64, "lab"), (w, np.float64, "w")):
            self._check(a, dt, name)
        self._check(nxt, np.int64, "nxt", writable=True)
        if own.ndim != 1 or lab.ndim != 1 or w.ndim != 1 or nxt.ndim != 1:
            raise ValueError(
                f"own/lab/w/nxt must be 1-D: {own.shape} {lab.shape} {w.shape} {nxt.shape}"
            )
        if len(lab) != len(own) or len(w) != len(own):
            raise ValueError(f"own/lab/w length mismatch: {len(own)} / {len(lab)} / {len(w)}")
        rc = self._lib.lp_vote(
            self._pp(own, _i64p), self._pp(lab, _i64p), self._pp(w, _f64p), len(own),
            self._pp(nxt, _i64p), len(nxt),
        )
        if rc == -1:
            raise ValueError(
                f"lp_vote: an owner outside [0, {len(nxt)}) or rows not grouped by owner"
            )
        if rc == -2:
            raise MemoryError("lp_vote: scratch allocation failed")


_cached: _Kernels | None | bool = False  # False = not attempted yet


def _compile() -> _Kernels | None:
    cc = (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )
    if cc is None:
        return None
    cache_dir = _cache_dir()
    if not _secure_dir(cache_dir):
        logger.debug("native kernel cache dir failed ownership checks; numpy fallback")
        return None
    # content-address on source AND toolchain AND machine: -march=native
    # objects must not survive a compiler upgrade, a CPU change (VM
    # migration), or a shared-TMPDIR cluster where nodes differ — a
    # stale .so would SIGILL instead of falling back
    import platform

    try:
        cc_id = subprocess.run(
            [cc, "--version"], capture_output=True, timeout=10
        ).stdout[:200]
    except Exception:
        cc_id = cc.encode()
    tag = hashlib.sha256(
        _SRC.encode() + b"\0" + cc_id + b"\0" + platform.machine().encode()
        + b"\0" + platform.node().encode()
    ).hexdigest()[:16]
    so_path = os.path.join(cache_dir, f"kernels-{tag}.so")
    if not os.path.exists(so_path):
        src_path = os.path.join(cache_dir, f"kernels-{tag}.c")
        tmp_so = f"{so_path}.tmp.{os.getpid()}"
        tmp_src = f"{src_path}.tmp.{os.getpid()}"
        with open(tmp_src, "w") as f:
            f.write(_SRC)
        os.replace(tmp_src, src_path)
        proc = subprocess.run(
            [cc, "-O3", "-march=native", "-fPIC", "-shared",
             "-o", tmp_so, src_path],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            logger.debug("native kernel compile failed: %s", proc.stderr[-500:])
            try:
                os.unlink(tmp_so)
            except OSError:
                pass
            return None
        # atomic publish: concurrent compilers each rename their own tmp;
        # identical content, last writer wins
        os.replace(tmp_so, so_path)
    # final pre-load check: regular file, ours, not writable by others
    # (belt-and-braces on top of the directory ownership gate)
    import stat as _stat

    st = os.lstat(so_path)
    if not _stat.S_ISREG(st.st_mode) or (st.st_mode & 0o022) or (
        hasattr(os, "getuid") and st.st_uid != os.getuid()
    ):
        logger.debug("native kernel .so failed ownership checks; numpy fallback")
        return None
    return _Kernels(ctypes.CDLL(so_path))


def native() -> _Kernels | None:
    """The compiled kernels for this process, or None (numpy fallback).
    Compilation happens at most once per node (content-addressed .so
    cache); loading at most once per process."""
    global _cached
    if _cached is False:
        if os.environ.get("HIPPORAG_RAY_NO_NATIVE"):
            _cached = None
        else:
            try:
                _cached = _compile()
            except Exception as exc:  # no compiler, sandboxed tmp, ...
                logger.debug("native kernels unavailable: %s", exc)
                _cached = None
    return _cached
