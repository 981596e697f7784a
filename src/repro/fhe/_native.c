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

/* One instruction of a group: o = op(operands) modulo p (Barrett constant
 * m).  Operand j is row srcs[j * stride] of store; c holds the mulc scalar
 * or the rsv source prime at [0], the bcv factors at [j].  o is never an
 * operand row. */
static void group_row(long op, uint64_t *restrict o, const uint64_t *store,
                      long n, const int32_t *srcs, long stride, long arity,
                      uint64_t p, uint64_t m, const uint64_t *c) {
    const uint64_t *a = store + (long)srcs[0] * n;
    const uint64_t *b = arity > 1 ? store + (long)srcs[stride] * n : a;
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
        const uint64_t s = c[0];
        for (long k = 0; k < n; ++k) o[k] = red(a[k] * s, p, m);
        break;
    }
    case OP_BCV:
        for (long k = 0; k < n; ++k) o[k] = a[k] * c[0];
        for (long j = 1; j < arity; ++j) {
            const uint64_t *s = store + (long)srcs[j * stride] * n;
            const uint64_t fj = c[j];
            if (j % 3 == 0)
                for (long k = 0; k < n; ++k) o[k] = red(o[k], p, m);
            for (long k = 0; k < n; ++k) o[k] += s[k] * fj;
        }
        for (long k = 0; k < n; ++k) o[k] = red(o[k], p, m);
        break;
    case OP_SUM:
        for (long k = 0; k < n; ++k) o[k] = a[k];
        for (long j = 1; j < arity; ++j) {
            const uint64_t *s = store + (long)srcs[j * stride] * n;
            for (long k = 0; k < n; ++k) o[k] += s[k];
        }
        for (long k = 0; k < n; ++k) o[k] = red(o[k], p, m);
        break;
    case OP_RSV: {
        /* Centered modulo the source prime, then floor-reduced into the
         * target's ring, in int64 as the reference does. */
        const int64_t source = (int64_t)c[0];
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

/* One ISA emulator group.  Instruction i reads rows srcs[j * count + i]
 * (j < arity) of store, works modulo pm[2i] (Barrett constant pm[2i+1])
 * and writes row i of out.  constants: the mulc scalar or rsv source
 * prime at [i], the bcv factors at [i * width + j]. */
void repro_limb_group(long op, uint64_t *restrict out,
                      const uint64_t *restrict store, long n,
                      const int32_t *srcs, long arity, long count,
                      const uint64_t *pm, const uint64_t *constants,
                      long width) {
    for (long i = 0; i < count; ++i)
        group_row(op, out + i * n, store, n, srcs + i, count, arity,
                  pm[2 * i], pm[2 * i + 1],
                  constants ? constants + i * (op == OP_BCV ? width : 1)
                            : 0);
}

/* The opcodes of a replayed schedule, numbered as
 * repro.core.isa.emulator._OPCODES numbers them. */
enum { I_VADD, I_VSUB, I_VNEG, I_VMUL, I_VMULC, I_VNTT, I_VINTT, I_VAUTO,
       I_VRSV, I_VBCV, I_VPRNG, I_LD, I_ST, I_SND, I_MOV, I_COL, I_RCV };

/* A whole emulator schedule (repro.core.isa.emulator._Schedule) in one
 * call.  groups holds (code, arity, count) rows; dst, p0, p1 one entry per
 * instruction and src arity entries per instruction, group by group, as
 * the schedule lays them out.  Values live in the (slots, n) store; a
 * group's destination rows are never its operands, so every result is
 * written in place.
 *
 * Tables: pm the [p, Barrett m] rows of the schedule's primes, ntt_rows
 * each prime's row of the NTT tables (psi, psi_sh, ipsi, ipsi_sh, tp,
 * n_inv, n_inv_sh), scalars / factors (width per row) / perms (n per
 * galois element) what mulc / bcv / vauto index with p1 / p1 / p0.
 *
 * Memory: the k-th ld or vprng copies the row at address
 * loads[load_ids[k]]; the k-th st copies its operand into row k of
 * stored. */
void repro_replay(const int32_t *groups, long ngroups, const int32_t *dst,
                  const int32_t *src, const int32_t *p0, const int32_t *p1,
                  uint64_t *store, long n, const uint64_t *pm,
                  const int64_t *ntt_rows, const uint64_t *psi,
                  const uint64_t *psi_sh, const uint64_t *ipsi,
                  const uint64_t *ipsi_sh, const uint64_t *tp,
                  const uint64_t *n_inv, const uint64_t *n_inv_sh,
                  const uint64_t *scalars, const uint64_t *factors,
                  long width, const int64_t *perms,
                  const uint64_t *const *loads, const int32_t *load_ids,
                  uint64_t *stored) {
    static const long group_op[] = {
        [I_VADD] = OP_ADD, [I_VSUB] = OP_SUB, [I_VNEG] = OP_NEG,
        [I_VMUL] = OP_MUL, [I_VMULC] = OP_MULC, [I_VBCV] = OP_BCV,
        [I_RCV] = OP_SUM, [I_VRSV] = OP_RSV};
    long at = 0, operand = 0, loaded = 0, saved = 0;
    for (long g = 0; g < ngroups; ++g) {
        const long code = groups[3 * g], arity = groups[3 * g + 1],
                   count = groups[3 * g + 2];
        for (long i = at; i < at + count; ++i) {
            const int32_t *s = src + operand + (i - at);   /* stride count */
            if (code == I_ST) {
                const uint64_t *a = store + (long)s[0] * n;
                uint64_t *row = stored + saved++ * n;
                for (long k = 0; k < n; ++k) row[k] = a[k];
                continue;
            }
            uint64_t *restrict o = store + (long)dst[i] * n;
            if (code == I_LD || code == I_VPRNG) {
                /* vprng regenerates a pseudorandom limb; functionally
                 * that is the data the keychain sampled. */
                const uint64_t *row = loads[load_ids[loaded++]];
                for (long k = 0; k < n; ++k) o[k] = row[k];
                continue;
            }
            const uint64_t *a = store + (long)s[0] * n;
            if (code == I_VNTT || code == I_VINTT) {
                const long r = ntt_rows[p0[i]];
                const uint64_t q = tp[r];
                for (long k = 0; k < n; ++k) o[k] = a[k];
                if (code == I_VNTT)
                    (q < WIDE_PRIME ? ntt_limb : ntt_limb_wide)(
                        o, n, psi + r * n, psi_sh + r * n, q);
                else
                    (q < WIDE_PRIME ? intt_limb : intt_limb_wide)(
                        o, n, ipsi + r * n, ipsi_sh + r * n, q, n_inv[r],
                        n_inv_sh[r]);
            } else if (code == I_VAUTO) {
                const int64_t *perm = perms + (long)p0[i] * n;
                for (long k = 0; k < n; ++k) o[k] = a[perm[k]];
            } else {
                const long op = group_op[code];
                const long k = p1[i];
                const uint64_t *c = op == OP_MULC ? scalars + k
                                  : op == OP_BCV ? factors + k * width
                                  : op == OP_RSV ? pm + 2 * k
                                  : 0;
                group_row(op, o, store, n, s, count, arity, pm[2 * p0[i]],
                          pm[2 * p0[i] + 1], c);
            }
        }
        at += count;
        operand += arity * count;
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
