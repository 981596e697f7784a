/* Compiled limb kernels for the "native" kernel backend.
 *
 * Built on demand by repro.fhe.native with the system C compiler and
 * loaded via ctypes; see that module for the ABI.
 *
 * NTT.  The arithmetic is the same Shoup-multiplication / Harvey-lazy-
 * reduction scheme as the numpy-batched kernels in repro.fhe.kernels, so
 * outputs are canonical residues bit-identical to the per-limb reference:
 *
 *   w_sh = floor(w * 2^32 / p),  q = (v * w_sh) >> 32,
 *   s = v*w - q*p  in [0, 2p)         (requires v < 2^32)
 *
 * Narrow primes (p < 2^30) keep lazy values below 4p < 2^32.  Wide primes
 * (2^30 <= p < 2^31) keep them below 2p < 2^32 instead: one more umin per
 * butterfly, same tables.  The class is chosen per limb.
 *
 * Tables hold one row per unique prime; limb l uses row rows[l].  Each
 * limb (64 KB at N = 8192) is transformed start-to-finish before the
 * next, so the working set stays cache-resident; the branch-free umin
 * pattern lets the compiler auto-vectorize the butterflies.
 *
 * Pointwise.  Everything else reduces with red() below, which equals
 * z % p for every uint64 z, so the pointwise kernels evaluate the numpy
 * reference expressions (repro.fhe.kernels.limb_group) verbatim, uint64
 * wrap-around included.
 */
#include <stdint.h>

static inline uint64_t umin(uint64_t a, uint64_t b) { return a < b ? a : b; }

/* Forward negacyclic NTT, merged-twiddle Cooley-Tukey DIT, natural input,
 * bit-reversed output.  Lazy values stay < 4p; output is canonical. */
static void ntt_limb(uint64_t *restrict a, long n, const uint64_t *restrict psi,
                     const uint64_t *restrict psi_sh, uint64_t p) {
    uint64_t twop = p + p;
    for (long m = 1, t = n >> 1; m < n; m <<= 1, t >>= 1) {
        for (long j = 0; j < m; ++j) {
            uint64_t w = psi[m + j], wsh = psi_sh[m + j];
            uint64_t *restrict u = a + 2 * t * j;
            uint64_t *restrict v = u + t;
            for (long i = 0; i < t; ++i) {
                uint64_t uu = umin(u[i], u[i] - twop);   /* < 2p */
                uint64_t vv = v[i];                      /* < 4p < 2^32 */
                uint64_t q = (vv * wsh) >> 32;
                uint64_t s = vv * w - q * p;             /* < 2p */
                u[i] = uu + s;
                v[i] = uu + twop - s;
            }
        }
    }
    for (long i = 0; i < n; ++i) {
        uint64_t x = umin(a[i], a[i] - twop);
        a[i] = umin(x, x - p);
    }
}

/* Inverse negacyclic NTT, Gentleman-Sande, bit-reversed input, natural
 * output.  Lazy values stay < 2p; the final n^-1 scale canonicalizes. */
static void intt_limb(uint64_t *restrict a, long n,
                      const uint64_t *restrict ipsi,
                      const uint64_t *restrict ipsi_sh,
                      uint64_t p, uint64_t n_inv, uint64_t n_inv_sh) {
    uint64_t twop = p + p;
    for (long m = n >> 1, t = 1; m >= 1; m >>= 1, t <<= 1) {
        for (long j = 0; j < m; ++j) {
            uint64_t w = ipsi[m + j], wsh = ipsi_sh[m + j];
            uint64_t *restrict u = a + 2 * t * j;
            uint64_t *restrict v = u + t;
            for (long i = 0; i < t; ++i) {
                uint64_t uu = u[i], vv = v[i];           /* < 2p */
                uint64_t su = uu + vv;                   /* < 4p */
                uint64_t d = uu + twop - vv;             /* < 4p < 2^32 */
                uint64_t q = (d * wsh) >> 32;
                u[i] = umin(su, su - twop);              /* < 2p */
                v[i] = d * w - q * p;                    /* < 2p */
            }
        }
    }
    for (long i = 0; i < n; ++i) {
        uint64_t x = a[i];                               /* < 2p < 2^32 */
        uint64_t q = (x * n_inv_sh) >> 32;
        uint64_t r = x * n_inv - q * p;                  /* < 2p */
        a[i] = umin(r, r - p);
    }
}

/* The same two transforms for 2^30 <= p < 2^31: every value that feeds a
 * Shoup product is first brought under 2p. */
static void ntt_limb_wide(uint64_t *restrict a, long n,
                          const uint64_t *restrict psi,
                          const uint64_t *restrict psi_sh, uint64_t p) {
    uint64_t twop = p + p;
    for (long m = 1, t = n >> 1; m < n; m <<= 1, t >>= 1) {
        for (long j = 0; j < m; ++j) {
            uint64_t w = psi[m + j], wsh = psi_sh[m + j];
            uint64_t *restrict u = a + 2 * t * j;
            uint64_t *restrict v = u + t;
            for (long i = 0; i < t; ++i) {
                uint64_t uu = u[i], vv = v[i];           /* < 2p < 2^32 */
                uint64_t q = (vv * wsh) >> 32;
                uint64_t s = vv * w - q * p;             /* < 2p */
                uint64_t x = uu + s, y = uu + twop - s;  /* < 4p */
                u[i] = umin(x, x - twop);
                v[i] = umin(y, y - twop);
            }
        }
    }
    for (long i = 0; i < n; ++i)
        a[i] = umin(a[i], a[i] - p);
}

static void intt_limb_wide(uint64_t *restrict a, long n,
                           const uint64_t *restrict ipsi,
                           const uint64_t *restrict ipsi_sh,
                           uint64_t p, uint64_t n_inv, uint64_t n_inv_sh) {
    uint64_t twop = p + p;
    for (long m = n >> 1, t = 1; m >= 1; m >>= 1, t <<= 1) {
        for (long j = 0; j < m; ++j) {
            uint64_t w = ipsi[m + j], wsh = ipsi_sh[m + j];
            uint64_t *restrict u = a + 2 * t * j;
            uint64_t *restrict v = u + t;
            for (long i = 0; i < t; ++i) {
                uint64_t uu = u[i], vv = v[i];           /* < 2p */
                uint64_t su = uu + vv;                   /* < 4p */
                uint64_t d = uu + twop - vv;             /* < 4p */
                d = umin(d, d - twop);                   /* < 2p < 2^32 */
                uint64_t q = (d * wsh) >> 32;
                u[i] = umin(su, su - twop);              /* < 2p */
                v[i] = d * w - q * p;                    /* < 2p */
            }
        }
    }
    for (long i = 0; i < n; ++i) {
        uint64_t x = a[i];                               /* < 2p < 2^32 */
        uint64_t q = (x * n_inv_sh) >> 32;
        uint64_t r = x * n_inv - q * p;                  /* < 2p */
        a[i] = umin(r, r - p);
    }
}

#define WIDE_PRIME ((uint64_t)1 << 30)

void repro_ntt_rows(uint64_t *a, long limbs, long n, const int64_t *rows,
                    const uint64_t *psi, const uint64_t *psi_sh,
                    const uint64_t *primes) {
    for (long l = 0; l < limbs; ++l) {
        long r = rows[l];
        uint64_t p = primes[r];
        (p < WIDE_PRIME ? ntt_limb : ntt_limb_wide)(
            a + l * n, n, psi + r * n, psi_sh + r * n, p);
    }
}

void repro_intt_rows(uint64_t *a, long limbs, long n, const int64_t *rows,
                     const uint64_t *ipsi, const uint64_t *ipsi_sh,
                     const uint64_t *primes, const uint64_t *n_inv,
                     const uint64_t *n_inv_sh) {
    for (long l = 0; l < limbs; ++l) {
        long r = rows[l];
        uint64_t p = primes[r];
        (p < WIDE_PRIME ? intt_limb : intt_limb_wide)(
            a + l * n, n, ipsi + r * n, ipsi_sh + r * n, p,
            n_inv[r], n_inv_sh[r]);
    }
}

/* z % p for every z < 2^64 and 1 < p < 2^32, given m = floor((2^64-1)/p).
 * m >= (2^64 - p)/p, so q = mulhi(z, m) >= z/p - z/2^64 - 1 > z/p - 2:
 * q is floor(z/p) or one short of it, z - q*p lies in [0, 2p), and one
 * conditional subtract finishes the job (docs/kernels.md). */
static inline uint64_t red(uint64_t z, uint64_t p, uint64_t m) {
    uint64_t q = (uint64_t)(((unsigned __int128)z * m) >> 64);
    uint64_t r = z - q * p;
    return umin(r, r - p);
}

/* The group ops of repro.fhe.kernels.GROUP_OPS, in that order. */
enum { OP_ADD, OP_SUB, OP_NEG, OP_MUL, OP_MULC, OP_BCV, OP_SUM, OP_RSV };

/* One ISA emulator group.  Instruction i reads rows srcs[j * count + i]
 * (j < arity) of store, works modulo pm[2i] (Barrett constant pm[2i+1])
 * and writes row i of out.  constants: the mulc scalar or rsv source
 * prime at [i], the bcv factors at [i * width + j]. */
void repro_limb_group(long op, uint64_t *restrict out,
                      const uint64_t *restrict store, long n,
                      const int64_t *srcs, long arity, long count,
                      const uint64_t *pm, const uint64_t *constants,
                      long width) {
    for (long i = 0; i < count; ++i) {
        const uint64_t p = pm[2 * i], m = pm[2 * i + 1];
        const uint64_t *a = store + srcs[i] * n;
        const uint64_t *b = arity > 1 ? store + srcs[count + i] * n : a;
        uint64_t *restrict o = out + i * n;
        switch (op) {
        case OP_ADD:
            for (long k = 0; k < n; ++k) o[k] = red(a[k] + b[k], p, m);
            break;
        case OP_SUB:
            for (long k = 0; k < n; ++k) o[k] = red(a[k] + p - b[k], p, m);
            break;
        case OP_NEG:
            for (long k = 0; k < n; ++k) o[k] = red(p - a[k], p, m);
            break;
        case OP_MUL:
            for (long k = 0; k < n; ++k) o[k] = red(a[k] * b[k], p, m);
            break;
        case OP_MULC: {
            const uint64_t c = constants[i];
            for (long k = 0; k < n; ++k) o[k] = red(a[k] * c, p, m);
            break;
        }
        case OP_BCV: {
            const uint64_t *f = constants + i * width;
            for (long k = 0; k < n; ++k) o[k] = a[k] * f[0];
            for (long j = 1; j < arity; ++j) {
                const uint64_t *s = store + srcs[j * count + i] * n;
                const uint64_t fj = f[j];
                if (j % 3 == 0)
                    for (long k = 0; k < n; ++k) o[k] = red(o[k], p, m);
                for (long k = 0; k < n; ++k) o[k] += s[k] * fj;
            }
            for (long k = 0; k < n; ++k) o[k] = red(o[k], p, m);
            break;
        }
        case OP_SUM:
            for (long k = 0; k < n; ++k) o[k] = a[k];
            for (long j = 1; j < arity; ++j) {
                const uint64_t *s = store + srcs[j * count + i] * n;
                for (long k = 0; k < n; ++k) o[k] += s[k];
            }
            for (long k = 0; k < n; ++k) o[k] = red(o[k], p, m);
            break;
        case OP_RSV: {
            /* Centered modulo the source prime, then floor-reduced into
             * the target's ring, in int64 as the reference does. */
            const int64_t source = (int64_t)constants[i];
            for (long k = 0; k < n; ++k) {
                int64_t v = (int64_t)a[k];
                if (v > source / 2)
                    v -= source;
                uint64_t r = red(v < 0 ? 0 - (uint64_t)v : (uint64_t)v, p, m);
                o[k] = v < 0 && r ? p - r : r;
            }
            break;
        }
        }
    }
}

/* out = a * b mod p per limb: limb l of a is contiguous, b is read with
 * element strides (b_row, b_col) so a broadcast column costs nothing. */
void repro_mulmod_rows(uint64_t *restrict out, const uint64_t *restrict a,
                       const uint64_t *b, long limbs, long n, long b_row,
                       long b_col, const uint64_t *pm) {
    for (long l = 0; l < limbs; ++l) {
        const uint64_t p = pm[2 * l], m = pm[2 * l + 1];
        const uint64_t *x = a + l * n, *y = b + l * b_row;
        uint64_t *restrict o = out + l * n;
        if (b_col == 0) {
            const uint64_t c = y[0];
            for (long k = 0; k < n; ++k) o[k] = red(x[k] * c, p, m);
        } else {
            for (long k = 0; k < n; ++k) o[k] = red(x[k] * y[k * b_col], p, m);
        }
    }
}
