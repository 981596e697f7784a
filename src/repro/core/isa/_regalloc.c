/* Belady's-MIN register allocation of one chip's abstract stream.
 *
 * A port of the Python loop in regalloc.py (_allocate_python), which stays
 * the reference: the same backward next-use pass, the same eviction rule
 * (furthest next use, ties to the value that became resident first), the
 * same spill / reload / rematerialisation rows, and the same order of
 * registers on the free list, so every register it hands out equals the
 * Python allocator's.
 *
 * That last point hinges on one detail.  The registers of values that die
 * in one instruction return to the free list in the iteration order of the
 * Python set  set(operands) | {define}.  For the non-negative ints the
 * compiler uses as value ids, CPython's set order is a function of the
 * values alone (hash(v) == v); pyset_t below lays a set out the same way.
 *
 * Values arrive renumbered 0 .. values-1 within the stream (regalloc.py
 * does that), so the per-value state is sized by one chip's values, not by
 * the largest id; real[] gives each one's id back, for the set order and
 * for the symbols of inserted rows.
 *
 * Output rows are written in stream order: a destination register (-1 for
 * none) and a count of source registers per row, the sources back to back.
 * Inserted row j (a spill store, a reload, a rematerialisation) is also
 * described by extra_kind[j] (EXTRA_*), extra_value[j] (the value's id) and
 * extra_before[j] (the entry it precedes).
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { STATUS_OK = 0, STATUS_PRESSURE = 1, STATUS_UNDEFINED = 2,
       STATUS_NO_MEMORY = 3, STATUS_OVERFLOW = 4 };

enum { EXTRA_SPILL = 0, EXTRA_RELOAD = 1, EXTRA_REMAT = 2 };

/* cfg[] layout. */
enum { CFG_N, CFG_REGISTERS, CFG_VALUES, CFG_EXTRAS };

/* result[] layout. */
enum { RES_ROWS, RES_SRCS, RES_EXTRAS, RES_SPILLS, RES_RELOADS, RES_PEAK,
       RES_VALUE };

#define NEVER INT32_MAX
#define IS_LOAD 1
#define SPILLED 2
#define DYING 4

/* ---- CPython's set order -------------------------------------------- */

#define LINEAR_PROBES 9
#define PERTURB_SHIFT 5

/* Open-addressed table of (id, local) pairs laid out as CPython's
 * setobject.c lays out a set of non-negative ints: the hash is the value,
 * the table starts at 8 slots, a probe scans LINEAR_PROBES more slots when
 * they fit and then perturbs, and once fill * 5 >= mask * 3 the table grows
 * to the next power of two above 4 * used (2 * used past 50 000),
 * reinserting in old-table order.  Nothing is ever deleted, so
 * fill == used. */
typedef struct {
    int32_t *key, *local, *old_key, *old_local;
    uint64_t mask, fill;
} pyset_t;

static uint64_t pyset_probe(const int32_t *key, uint64_t mask, int32_t id,
                            int *present)
{
    uint64_t perturb = (uint64_t)id, i = (uint64_t)id & mask;
    for (;;) {
        int probes = (i + LINEAR_PROBES <= mask) ? LINEAR_PROBES : 0;
        uint64_t j = i;
        for (;;) {
            if (key[j] < 0) { *present = 0; return j; }
            if (key[j] == id) { *present = 1; return j; }
            if (probes-- == 0) break;
            j++;
        }
        perturb >>= PERTURB_SHIFT;
        i = (i * 5 + 1 + perturb) & mask;
    }
}

static void pyset_clear(pyset_t *s)
{
    memset(s->key, 0xff, 8 * sizeof(int32_t));
    s->mask = 7;
    s->fill = 0;
}

static void pyset_add(pyset_t *s, int32_t id, int32_t local)
{
    int present;
    uint64_t j = pyset_probe(s->key, s->mask, id, &present);
    if (present) return;
    s->key[j] = id;
    s->local[j] = local;
    s->fill++;
    if (s->fill * 5 < s->mask * 3) return;
    uint64_t minused = s->fill > 50000 ? s->fill * 2 : s->fill * 4;
    uint64_t size = 8, old_size = s->mask + 1;
    while (size <= minused) size <<= 1;
    memcpy(s->old_key, s->key, old_size * sizeof(int32_t));
    memcpy(s->old_local, s->local, old_size * sizeof(int32_t));
    memset(s->key, 0xff, size * sizeof(int32_t));
    s->mask = size - 1;
    for (uint64_t k = 0; k < old_size; k++) {
        if (s->old_key[k] < 0) continue;
        j = pyset_probe(s->key, s->mask, s->old_key[k], &present);
        s->key[j] = s->old_key[k];
        s->local[j] = s->old_local[k];
    }
}

/* ---- the allocator ----------------------------------------------------- */

typedef struct {
    int64_t registers, idx, rows, srcs, extras, extra_capacity;
    int64_t clock, epoch, resident, free_top, spills, reloads;
    const int32_t *real;          /* local -> value id */
    int32_t *reg_of, *next_use;   /* per local value */
    int64_t *stamp;               /* per local value: when it became resident */
    uint8_t *flags;               /* per local value: IS_LOAD | SPILLED */
    int32_t *owner;               /* per register: local value, -1 */
    int64_t *pinned;              /* per register: epoch it was last pinned */
    int32_t *free_regs;           /* stack; the top is popped first */
    int32_t *out_dest, *out_count, *out_src, *extra_value, *extra_before;
    int8_t *extra_kind;
} alloc_t;

static void emit(alloc_t *a, int32_t dest, const int32_t *srcs,
                 int32_t count)
{
    a->out_dest[a->rows] = dest;
    a->out_count[a->rows] = count;
    if (count)
        memcpy(a->out_src + a->srcs, srcs, (size_t)count * sizeof(int32_t));
    a->rows++;
    a->srcs += count;
}

/* An inserted row before entry a->idx; -1 when out of room. */
static int emit_extra(alloc_t *a, int kind, int32_t value, int32_t dest,
                      const int32_t *srcs, int32_t count)
{
    if (a->extras >= a->extra_capacity) return -1;
    a->extra_kind[a->extras] = (int8_t)kind;
    a->extra_value[a->extras] = a->real[value];
    a->extra_before[a->extras++] = (int32_t)a->idx;
    emit(a, dest, srcs, count);
    return 0;
}

static void make_resident(alloc_t *a, int32_t value, int32_t reg)
{
    a->reg_of[value] = reg;
    a->owner[reg] = value;
    a->stamp[value] = a->clock++;
    a->resident++;
}

static void release(alloc_t *a, int32_t value)
{
    a->owner[a->reg_of[value]] = -1;
    a->reg_of[value] = -1;
    a->resident--;
}

/* A register for a new resident: the free list's top, else the register
 * of the unpinned value used furthest ahead (the earliest resident among
 * equals), spilled first if it is a computed value still needed.
 * Returns -1 when every resident is pinned, -2 when out of room. */
static int32_t take_register(alloc_t *a, const int32_t *pins, int32_t n_pins)
{
    if (a->free_top) return a->free_regs[--a->free_top];
    int64_t epoch = ++a->epoch;
    for (int32_t k = 0; k < n_pins; k++) a->pinned[pins[k]] = epoch;
    int32_t victim = -1, victim_use = -1;
    int64_t victim_stamp = 0;
    for (int64_t reg = 0; reg < a->registers; reg++) {
        int32_t value = a->owner[reg];
        if (value < 0 || a->pinned[reg] == epoch) continue;
        int32_t distance = a->next_use[value];
        if (distance > victim_use
            || (distance == victim_use && a->stamp[value] < victim_stamp)) {
            victim = value;
            victim_use = distance;
            victim_stamp = a->stamp[value];
        }
    }
    if (victim < 0) return -1;
    int32_t reg = a->reg_of[victim];
    release(a, victim);
    if (victim_use < NEVER && !(a->flags[victim] & (IS_LOAD | SPILLED))) {
        if (emit_extra(a, EXTRA_SPILL, victim, -1, &reg, 1)) return -2;
        a->flags[victim] |= SPILLED;
        a->spills++;
    }
    return reg;
}

static int status_of(int32_t reg)
{
    return reg == -1 ? STATUS_PRESSURE : STATUS_OVERFLOW;
}

/* Free the registers of this instruction's values that have no use left,
 * in the order Python's  set(operands) | {define}  iterates them. */
static void release_dead(alloc_t *a, const int32_t *uses, int32_t count,
                         int32_t define, pyset_t *set, int32_t *dying)
{
    int32_t n_dying = 0;
    for (int32_t k = 0; k <= count; k++) {
        int32_t value = k < count ? uses[k] : define;
        if (value < 0 || a->reg_of[value] < 0 || a->next_use[value] != NEVER
            || (a->flags[value] & DYING))
            continue;
        a->flags[value] |= DYING;
        dying[n_dying++] = value;
    }
    if (n_dying > 1) {
        pyset_clear(set);
        for (int32_t k = 0; k < count; k++)
            pyset_add(set, a->real[uses[k]], uses[k]);
        if (define >= 0) pyset_add(set, a->real[define], define);
        n_dying = 0;
        for (uint64_t j = 0; j <= set->mask; j++)
            if (set->key[j] >= 0 && (a->flags[set->local[j]] & DYING))
                dying[n_dying++] = set->local[j];
    }
    for (int32_t k = 0; k < n_dying; k++) {
        int32_t value = dying[k];
        a->flags[value] &= ~DYING;
        a->free_regs[a->free_top++] = a->reg_of[value];
        release(a, value);
    }
}

static int run(alloc_t *a, int64_t n, const int32_t *define,
               const int32_t *use_count, const int32_t *use,
               int32_t *following, int32_t *regs, pyset_t *set,
               int32_t *dying, int64_t *result)
{
    /* Backward pass: following[s] is the next use of the value in operand
     * slot s after its instruction; next_use ends at each value's first. */
    int64_t end = 0;
    for (int64_t idx = 0; idx < n; idx++) end += use_count[idx];
    for (int64_t idx = n - 1; idx >= 0; idx--) {
        int64_t start = end - use_count[idx];
        for (int64_t s = start; s < end; s++)
            following[s] = a->next_use[use[s]];
        for (int64_t s = start; s < end; s++)
            a->next_use[use[s]] = (int32_t)idx;
        end = start;
    }

    int64_t peak = 0, slot = 0;
    for (int64_t idx = 0; idx < n; idx++) {
        int32_t count = use_count[idx];
        const int32_t *uses = use + slot;
        a->idx = idx;
        for (int32_t k = 0; k < count; k++) {
            int32_t value = uses[k], reg = a->reg_of[value];
            if (reg < 0) {
                reg = take_register(a, regs, k);
                if (reg < 0) return status_of(reg);
                int kind;
                if (a->flags[value] & IS_LOAD) kind = EXTRA_REMAT;
                else if (a->flags[value] & SPILLED) kind = EXTRA_RELOAD;
                else {
                    result[RES_VALUE] = a->real[value];
                    return STATUS_UNDEFINED;
                }
                if (emit_extra(a, kind, value, reg, regs, 0))
                    return STATUS_OVERFLOW;
                a->reloads++;
                make_resident(a, value, reg);
            }
            regs[k] = reg;
        }
        for (int32_t k = 0; k < count; k++)    /* consume this use */
            a->next_use[uses[k]] = following[slot + k];
        slot += count;
        int32_t value = define[idx], dest = -1;
        if (value >= 0) {
            dest = take_register(a, regs, count);
            if (dest < 0) return status_of(dest);
            if (a->reg_of[value] >= 0) {
                /* Redefining a resident value keeps its place in the
                 * eviction order and strands its old register, as the
                 * Python dict assignment does. */
                a->owner[a->reg_of[value]] = -1;
                a->reg_of[value] = dest;
                a->owner[dest] = value;
            } else {
                make_resident(a, value, dest);
            }
        }
        emit(a, dest, regs, count);
        if (a->resident > peak) peak = a->resident;
        release_dead(a, uses, count, value, set, dying);
    }
    result[RES_ROWS] = a->rows;
    result[RES_SRCS] = a->srcs;
    result[RES_EXTRAS] = a->extras;
    result[RES_SPILLS] = a->spills;
    result[RES_RELOADS] = a->reloads;
    result[RES_PEAK] = peak;
    return STATUS_OK;
}

/* Allocate one stream of n entries.  define[n] holds local values (-1:
 * none), use[] the operands' local values in CSR form (use_count[n] per
 * entry); real[] and is_load[] hold each local value's id and whether it
 * rematerialises.  With E = cfg[CFG_EXTRAS], out_dest / out_count hold
 * n + E rows, out_src the operands plus E registers, extra_* E rows. */
int repro_allocate(const int64_t *cfg, const int32_t *define,
                   const int32_t *use_count, const int32_t *use,
                   const int32_t *real, const uint8_t *is_load,
                   int32_t *out_dest, int32_t *out_count, int32_t *out_src,
                   int8_t *extra_kind, int32_t *extra_value,
                   int32_t *extra_before, int64_t *result)
{
    int64_t n = cfg[CFG_N], registers = cfg[CFG_REGISTERS],
        values = cfg[CFG_VALUES];
    int64_t m = 0, widest = 0;
    for (int64_t idx = 0; idx < n; idx++) {
        m += use_count[idx];
        if (use_count[idx] > widest) widest = use_count[idx];
    }
    uint64_t set_size = 8;
    while (set_size <= 4 * (uint64_t)(widest + 1)) set_size <<= 1;

    int status = STATUS_NO_MEMORY;
    alloc_t a = {0};
    pyset_t set = {0};
    int32_t *following = malloc((size_t)(m + 1) * sizeof(int32_t));
    int32_t *regs = malloc((size_t)(widest + 1) * sizeof(int32_t));
    int32_t *dying = malloc((size_t)(widest + 2) * sizeof(int32_t));
    set.key = malloc(set_size * sizeof(int32_t));
    set.local = malloc(set_size * sizeof(int32_t));
    set.old_key = malloc(set_size * sizeof(int32_t));
    set.old_local = malloc(set_size * sizeof(int32_t));
    a.owner = malloc((size_t)registers * sizeof(int32_t));
    a.pinned = calloc((size_t)registers, sizeof(int64_t));
    a.free_regs = malloc((size_t)registers * sizeof(int32_t));
    a.reg_of = malloc((size_t)(values + 1) * sizeof(int32_t));
    a.next_use = malloc((size_t)(values + 1) * sizeof(int32_t));
    a.stamp = malloc((size_t)(values + 1) * sizeof(int64_t));
    a.flags = malloc((size_t)(values + 1));
    if (!following || !regs || !dying || !set.key || !set.local
        || !set.old_key || !set.old_local || !a.owner || !a.pinned
        || !a.free_regs || !a.reg_of || !a.next_use || !a.stamp || !a.flags)
        goto done;

    for (int64_t v = 0; v < values; v++) {
        a.reg_of[v] = -1;
        a.next_use[v] = NEVER;
        a.flags[v] = is_load[v] ? IS_LOAD : 0;
    }
    for (int64_t reg = 0; reg < registers; reg++) {
        a.owner[reg] = -1;
        a.free_regs[reg] = (int32_t)(registers - 1 - reg);
    }
    a.registers = registers;
    a.free_top = registers;
    a.extra_capacity = cfg[CFG_EXTRAS];
    a.real = real;
    a.out_dest = out_dest;
    a.out_count = out_count;
    a.out_src = out_src;
    a.extra_kind = extra_kind;
    a.extra_value = extra_value;
    a.extra_before = extra_before;
    status = run(&a, n, define, use_count, use, following, regs, &set,
                 dying, result);

done:
    free(following); free(regs); free(dying);
    free(set.key); free(set.local); free(set.old_key); free(set.old_local);
    free(a.owner); free(a.pinned); free(a.free_regs);
    free(a.reg_of); free(a.next_use); free(a.stamp); free(a.flags);
    return status;
}
