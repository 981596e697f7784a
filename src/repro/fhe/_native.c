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
#include <stdlib.h>

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

static int by_value(const void *a, const void *b) {
    const int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* The issue order of an emulator schedule
 * (repro.core.isa.emulator._issue_order, its oracle): greedy windowed
 * list scheduling of the live instructions.
 *
 * Instruction i has width[i] operand edges producer[ptr[i] ..
 * ptr[i + 1]) (producer total is a sentinel that never issues) and kind
 * kind_of[i] < nkinds, which names its opcode (kind_code) and whether it
 * writes a value (kind_dest).  live_ids lists the live instructions in
 * order, chip by chip (chip c's at chip_ptr[c] .. chip_ptr[c + 1]).
 *
 * Each step issues, among the candidates (each chip's unissued live
 * instructions within `window` of its oldest unissued one, kept in
 * arrival order) whose operands have all issued, every one of the most
 * common kind (the lowest kind on a tie), in candidate order.  Values
 * take a slot when they issue, the most recently freed first (the tail
 * of the free list, in list order), then fresh ones; a value's slot goes
 * back on the list when its last reader has issued: the operands a group
 * finishes in ascending instruction order, then the group's own values
 * nobody reads.
 *
 * Writes issue (one entry per issued instruction), groups ((code, arity,
 * count) rows), slot_of (total + 1 entries, -1 for no slot), src (each
 * group's operand slots as an (arity, count) block) and heads (per chip,
 * the position in its live list of its oldest unissued instruction);
 * result holds (groups, issued, slots).  Returns 0, or -1 when out of
 * memory.
 *
 * Compiled for size (cold): it runs once per artifact, and at -O3 with
 * unrolling it added 0.25 s to every fresh build of this file to save
 * 3 ms of mini-BERT's 0.2 s schedule build. */
__attribute__((cold))
long repro_issue_order(long total, const int32_t *kind_of, long nkinds,
                       const int32_t *kind_code, const uint8_t *kind_dest,
                       const int32_t *width, const int32_t *ptr,
                       const int32_t *producer, const uint8_t *live,
                       const int32_t *live_ids, const int64_t *chip_ptr,
                       long nchips, long window, int32_t *issue,
                       int32_t *groups, int32_t *slot_of, int32_t *src,
                       int64_t *heads, int64_t *result) {
    const long nlive = chip_ptr[nchips];
    long capacity = 1;
    for (long c = 0; c < nchips; ++c) {
        const long size = chip_ptr[c + 1] - chip_ptr[c];
        capacity += size < window ? size : window;
    }
    long edges = 0, widest = 0;
    for (long i = 0; i < total; ++i)
        if (live[i]) {
            edges += width[i];
            widest = width[i] > widest ? width[i] : widest;
        }
    /* A group's operands: at most every candidate at the widest arity. */
    const long operands = capacity * widest < edges ? capacity * widest
                                                    : edges;
    int32_t *unmet = malloc(sizeof(int32_t) * (total + 1));
    int32_t *remaining = calloc(total + 1, sizeof(int32_t));
    int32_t *first = calloc(total + 2, sizeof(int32_t));
    int32_t *consumers = malloc(sizeof(int32_t) * (edges + 1));
    uint8_t *issued = malloc(total + 1);
    int32_t *candidates = malloc(sizeof(int32_t) * capacity);
    int32_t *next = malloc(sizeof(int32_t) * capacity);
    int32_t *ready = malloc(sizeof(int32_t) * capacity);
    int32_t *free_slots = malloc(sizeof(int32_t) * (nlive + 1));
    int32_t *finished = malloc(sizeof(int32_t) * (operands + 1));
    int64_t *tally = malloc(sizeof(int64_t) * (nkinds + 1));
    long status = -1;
    if (!unmet || !remaining || !first || !consumers || !issued
            || !candidates || !next || !ready || !free_slots || !finished
            || !tally)
        goto done;

    /* consumers[first[v] .. first[v + 1]) are the live instructions
     * reading value v, one entry per edge, in edge order. */
    for (long i = 0; i < total; ++i) {
        unmet[i] = live[i] ? width[i] : 0;
        issued[i] = !live[i];
        slot_of[i] = -1;
        if (live[i])
            for (long e = ptr[i]; e < ptr[i + 1]; ++e)
                ++remaining[producer[e]];
    }
    issued[total] = 0;
    slot_of[total] = -1;
    for (long v = 0; v <= total; ++v)
        first[v + 1] = first[v] + remaining[v];
    for (long i = 0; i < total; ++i)
        if (live[i])
            for (long e = ptr[i]; e < ptr[i + 1]; ++e)
                consumers[first[producer[e]]++] = (int32_t)i;
    for (long v = total; v > 0; --v)
        first[v] = first[v - 1];
    first[0] = 0;

    long ncand = 0;
    for (long c = 0; c < nchips; ++c) {
        heads[c] = 0;
        const long size = chip_ptr[c + 1] - chip_ptr[c];
        for (long k = 0; k < size && k < window; ++k)
            candidates[ncand++] = live_ids[chip_ptr[c] + k];
    }
    long ngroups = 0, done = 0, slots = 0, nfree = 0, filled = 0;
    while (ncand) {
        long nready = 0;
        for (long k = 0; k < nkinds; ++k)
            tally[k] = 0;
        for (long k = 0; k < ncand; ++k)
            if (!unmet[candidates[k]]) {
                ready[nready++] = candidates[k];
                ++tally[kind_of[candidates[k]]];
            }
        if (!nready)
            break;
        long best = 0;
        for (long k = 1; k < nkinds; ++k)
            if (tally[k] > tally[best])
                best = k;
        int32_t *group = issue + done;
        long count = 0;
        for (long k = 0; k < nready; ++k)
            if (kind_of[ready[k]] == best)
                group[count++] = ready[k];
        const long arity = width[group[0]];
        groups[3 * ngroups] = kind_code[best];
        groups[3 * ngroups + 1] = (int32_t)arity;
        groups[3 * ngroups + 2] = (int32_t)count;
        ++ngroups;
        done += count;
        for (long k = 0; k < count; ++k)
            issued[group[k]] = 1;
        if (kind_dest[best]) {
            const long reused = count < nfree ? count : nfree;
            for (long k = 0; k < reused; ++k)
                slot_of[group[k]] = free_slots[nfree - reused + k];
            for (long k = reused; k < count; ++k)
                slot_of[group[k]] = (int32_t)slots++;
            nfree -= reused;
        }
        for (long k = 0; k < count; ++k)
            for (long e = first[group[k]]; e < first[group[k] + 1]; ++e)
                --unmet[consumers[e]];
        if (arity) {
            long nfinished = 0;
            for (long k = 0; k < count; ++k) {
                const int32_t *operands = producer + ptr[group[k]];
                for (long j = 0; j < arity; ++j) {
                    src[filled + j * count + k] = slot_of[operands[j]];
                    if (!--remaining[operands[j]])
                        finished[nfinished++] = operands[j];
                }
            }
            filled += arity * count;
            qsort(finished, nfinished, sizeof(int32_t), by_value);
            for (long k = 0; k < nfinished; ++k)
                free_slots[nfree++] = slot_of[finished[k]];
        }
        if (kind_dest[best])
            for (long k = 0; k < count; ++k)
                if (!remaining[group[k]])
                    free_slots[nfree++] = slot_of[group[k]];
        /* Keep the unissued candidates in order, then slide each chip's
         * window past what has issued. */
        long nnext = 0;
        for (long k = 0; k < ncand; ++k)
            if (!issued[candidates[k]])
                next[nnext++] = candidates[k];
        for (long c = 0; c < nchips; ++c) {
            const int32_t *ids = live_ids + chip_ptr[c];
            const long size = chip_ptr[c + 1] - chip_ptr[c];
            long head = heads[c];
            const long old = head;
            while (head < size && issued[ids[head]])
                ++head;
            for (long k = old + window; k < head + window && k < size; ++k)
                next[nnext++] = ids[k];
            heads[c] = head;
        }
        int32_t *swap = candidates;
        candidates = next;
        next = swap;
        ncand = nnext;
    }
    result[0] = ngroups;
    result[1] = done;
    result[2] = slots;
    status = 0;
done:
    free(unmet);
    free(remaining);
    free(first);
    free(consumers);
    free(issued);
    free(candidates);
    free(next);
    free(ready);
    free(free_slots);
    free(finished);
    free(tally);
    return status;
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
