/* The cycle simulator's round-robin loop over a whole multi-chip module.
 *
 * A line-for-line port of SimulatorEngine._run_reference / _step in
 * simulator.py, which stays the reference: the same in-order scoreboard,
 * the same 10 000-step rounds and the same deadlock rule, so every
 * integer it returns equals the Python engine's.  Bandwidth durations are ceil(double / double), the IEEE
 * arithmetic Python performs; an FU pool hands out its lowest-index
 * earliest-free unit, as min() over the pool does.
 *
 * Instructions arrive as flat columns over all chips (chip k owns global
 * rows chip_start[k] .. chip_start[k+1]): an opcode code, a destination
 * register (-1 for none), source registers in CSR form, and, for network
 * instructions, an interned send key / collective id plus a collective's
 * payload in limbs.  See sim/native.py for the encoding.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Opcode codes: the compute opcodes first (indexing fu_class), then these. */
enum { N_COMPUTE = 11, OP_LD = N_COMPUTE, OP_ST, OP_SND, OP_MOV, OP_COL,
       OP_RCV };

enum { STATUS_OK = 0, STATUS_DEADLOCK = 1, STATUS_UNKNOWN_OPCODE = 2,
       STATUS_NO_MEMORY = 3 };

/* cfg[] layout. */
enum { CFG_CHIPS, CFG_CLASSES, CFG_LATENCY, CFG_LIMB_BYTES, CFG_HOP_LATENCY,
       CFG_COLLECTIVE_LATENCY, CFG_KEYS, CFG_CIDS, CFG_REGISTERS };

/* chip_out[] row layout (one row per chip). */
enum { OUT_PC, OUT_FINISH, OUT_HBM_BUSY, OUT_HBM_BYTES, OUT_LINK_BUSY,
       OUT_LINK_BYTES, OUT_FIELDS };

#define ROUND_STEPS 10000

typedef struct {
    double per_cycle;
    int64_t free_at, busy, bytes;
} bandwidth_t;

typedef struct {
    int64_t pc, length, base, issue_time, finish;
    int64_t *reg_ready;
    int64_t *unit_free;      /* every FU unit's free time, class-major */
    int64_t *fu_busy;        /* per class */
    bandwidth_t hbm, link;
} chip_t;

typedef struct {
    /* configuration */
    int64_t n_chips, n_classes, latency, limb_bytes, hop_latency,
        collective_latency;
    const int32_t *fu_class;
    const int64_t *occupancy, *units, *unit_base;
    int64_t n_units;
    /* columns */
    const int8_t *opcode;
    const int32_t *dest, *src, *net;
    const int64_t *src_start, *payload;
    /* shared network state */
    int64_t *snd_ready;
    int8_t *snd_present;
    int64_t *col_expected, *col_count, *col_max, *col_bytes, *col_complete;
    /* optional per-instruction reservation trace */
    int64_t *trace_start, *trace_duration;
    int32_t *trace_lane;
    chip_t *chips;
} machine_t;

static inline void record(machine_t *m, int64_t row, int64_t lane,
                          int64_t start, int64_t duration)
{
    if (m->trace_lane) {
        m->trace_lane[row] = (int32_t)lane;
        m->trace_start[row] = start;
        m->trace_duration[row] = duration;
    }
}

/* _Bandwidth.reserve: returns the completion time. */
static inline int64_t bw_reserve(machine_t *m, bandwidth_t *bw, int64_t row,
                                 int64_t lane, int64_t earliest,
                                 double nbytes)
{
    int64_t duration = (int64_t)ceil(nbytes / bw->per_cycle);
    int64_t start = earliest > bw->free_at ? earliest : bw->free_at;
    bw->free_at = start + duration;
    bw->busy += duration;
    bw->bytes += (int64_t)nbytes;
    record(m, row, lane, start, duration);
    return start + duration;
}

/* _FuPool.reserve: returns the start time. */
static inline int64_t fu_reserve(machine_t *m, chip_t *chip, int64_t row,
                                 int64_t cls, int64_t earliest,
                                 int64_t occupancy)
{
    int64_t *free_at = chip->unit_free + m->unit_base[cls];
    int64_t count = m->units[cls], index = 0;
    for (int64_t i = 1; i < count; i++)
        if (free_at[i] < free_at[index])
            index = i;
    int64_t start = earliest > free_at[index] ? earliest : free_at[index];
    free_at[index] = start + occupancy;
    chip->fu_busy[cls] += occupancy;
    record(m, row, m->unit_base[cls] + index, start, occupancy);
    return start;
}

/* SimulatorEngine._step: 1 stepped, 0 blocked, -1 unknown opcode. */
static int step(machine_t *m, int64_t k)
{
    chip_t *chip = &m->chips[k];
    int64_t row = chip->base + chip->pc;
    int op = m->opcode[row];
    int64_t *reg_ready = chip->reg_ready;
    int64_t earliest = chip->issue_time, done;
    for (int64_t s = m->src_start[row]; s < m->src_start[row + 1]; s++) {
        int64_t ready = reg_ready[m->src[s]];
        if (ready > earliest)
            earliest = ready;
    }
    int32_t dest = m->dest[row];
    int64_t hbm_lane = m->n_units, link_lane = m->n_units + 1;

    if (op >= 0 && op < N_COMPUTE) {
        int64_t cls = m->fu_class[op];
        int64_t occupancy = m->occupancy[cls];
        int64_t start = fu_reserve(m, chip, row, cls, earliest, occupancy);
        done = start + occupancy + m->latency;
        if (dest >= 0)
            reg_ready[dest] = done;
    } else if (op == OP_LD) {
        done = bw_reserve(m, &chip->hbm, row, hbm_lane, earliest,
                          (double)m->limb_bytes);
        if (dest >= 0)
            reg_ready[dest] = done;
    } else if (op == OP_ST) {
        done = bw_reserve(m, &chip->hbm, row, hbm_lane, earliest,
                          (double)m->limb_bytes);
    } else if (op == OP_SND) {
        done = bw_reserve(m, &chip->link, row, link_lane, earliest,
                          (double)m->limb_bytes);
        m->snd_ready[m->net[row]] = done;
        m->snd_present[m->net[row]] = 1;
    } else if (op == OP_MOV) {
        int32_t key = m->net[row];
        if (!m->snd_present[key])
            return 0;
        m->snd_present[key] = 0;
        int64_t sent = m->snd_ready[key];
        done = (earliest > sent ? earliest : sent) + m->hop_latency;
        if (dest >= 0)
            reg_ready[dest] = done;
    } else if (op == OP_COL) {
        int32_t cid = m->net[row];
        int64_t nbytes =
            (m->src_start[row + 1] - m->src_start[row]) * m->limb_bytes;
        done = nbytes ? bw_reserve(m, &chip->link, row, link_lane, earliest,
                                   (double)nbytes)
                      : earliest;
        if (m->col_count[cid] == 0 || done > m->col_max[cid])
            m->col_max[cid] = done;
        m->col_count[cid] += 1;
        m->col_bytes[cid] = m->payload[row] * m->limb_bytes;
    } else if (op == OP_RCV) {
        int32_t cid = m->net[row];
        int64_t expected = m->col_expected[cid], posted = m->col_count[cid];
        if (expected == 0 || posted < expected)
            return 0;
        int64_t *complete = &m->col_complete[cid * m->n_chips + k];
        if (*complete < 0) {
            int64_t arrive = m->col_max[cid];
            int64_t n = posted > 1 ? posted : 1;
            double per_chip = (double)m->col_bytes[cid] / (double)n;
            int64_t at = earliest > arrive ? earliest : arrive;
            *complete = bw_reserve(m, &chip->link, row, link_lane, at,
                                   per_chip) + m->collective_latency;
        }
        done = earliest > *complete ? earliest : *complete;
        if (dest >= 0)
            reg_ready[dest] = done;
    } else {
        return -1;
    }

    if (done > chip->finish)
        chip->finish = done;
    chip->issue_time += 1;
    chip->pc += 1;
    return 1;
}

/* Simulate the module; returns a STATUS_* code.  result[] receives the
 * retired-instruction count and, on STATUS_UNKNOWN_OPCODE, the chip index
 * and pc of the offending instruction.  chip_out (n_chips x OUT_FIELDS)
 * and fu_busy_out (n_chips x n_classes) are filled on every return but
 * STATUS_NO_MEMORY.  The trace columns may be NULL. */
int repro_simulate(const int64_t *cfg, const double *bandwidth,
                   const int32_t *fu_class, const int64_t *occupancy,
                   const int64_t *units, const int64_t *chip_start,
                   const int8_t *opcode, const int32_t *dest,
                   const int64_t *src_start, const int32_t *src,
                   const int32_t *net, const int64_t *payload,
                   int64_t *chip_out, int64_t *fu_busy_out,
                   int64_t *trace_start, int64_t *trace_duration,
                   int32_t *trace_lane, int64_t *result)
{
    machine_t m = {0};
    m.n_chips = cfg[CFG_CHIPS];
    m.n_classes = cfg[CFG_CLASSES];
    m.latency = cfg[CFG_LATENCY];
    m.limb_bytes = cfg[CFG_LIMB_BYTES];
    m.hop_latency = cfg[CFG_HOP_LATENCY];
    m.collective_latency = cfg[CFG_COLLECTIVE_LATENCY];
    int64_t n_keys = cfg[CFG_KEYS], n_cids = cfg[CFG_CIDS];
    int64_t n_regs = cfg[CFG_REGISTERS];
    m.fu_class = fu_class;
    m.occupancy = occupancy;
    m.units = units;
    m.opcode = opcode;
    m.dest = dest;
    m.src = src;
    m.net = net;
    m.src_start = src_start;
    m.payload = payload;
    m.trace_start = trace_start;
    m.trace_duration = trace_duration;
    m.trace_lane = trace_lane;

    int64_t n = m.n_chips;
    int64_t *unit_base = calloc(m.n_classes + 1, sizeof(int64_t));
    if (!unit_base)
        return STATUS_NO_MEMORY;
    for (int64_t c = 0; c < m.n_classes; c++) {
        unit_base[c] = m.n_units;
        m.n_units += units[c];
    }
    m.unit_base = unit_base;

    m.chips = calloc(n ? n : 1, sizeof(chip_t));
    int64_t *regs = calloc(n * n_regs + 1, sizeof(int64_t));
    int64_t *unit_free = calloc(n * m.n_units + 1, sizeof(int64_t));
    int64_t *fu_busy = calloc(n * m.n_classes + 1, sizeof(int64_t));
    m.snd_ready = calloc(n_keys + 1, sizeof(int64_t));
    m.snd_present = calloc(n_keys + 1, 1);
    m.col_expected = calloc(n_cids + 1, sizeof(int64_t));
    m.col_count = calloc(n_cids + 1, sizeof(int64_t));
    m.col_max = calloc(n_cids + 1, sizeof(int64_t));
    m.col_bytes = calloc(n_cids + 1, sizeof(int64_t));
    m.col_complete = malloc((n_cids * n + 1) * sizeof(int64_t));
    int status = STATUS_OK;
    if (!m.chips || !regs || !unit_free || !fu_busy || !m.snd_ready
        || !m.snd_present || !m.col_expected || !m.col_count || !m.col_max
        || !m.col_bytes || !m.col_complete) {
        status = STATUS_NO_MEMORY;
        goto out;
    }
    for (int64_t i = 0; i < n_cids * n; i++)
        m.col_complete[i] = -1;

    for (int64_t k = 0; k < n; k++) {
        chip_t *c = &m.chips[k];
        c->base = chip_start[k];
        c->length = chip_start[k + 1] - chip_start[k];
        c->reg_ready = regs + k * n_regs;
        c->unit_free = unit_free + k * m.n_units;
        c->fu_busy = fu_busy + k * m.n_classes;
        c->hbm.per_cycle = bandwidth[0];
        c->link.per_cycle = bandwidth[1];
    }
    /* Contributions each collective waits for: one per col. */
    for (int64_t row = 0; row < chip_start[n]; row++)
        if (opcode[row] == OP_COL)
            m.col_expected[net[row]] += 1;

    int64_t instructions = 0;
    for (;;) {
        int progress = 0, all_done = 1;
        for (int64_t k = 0; k < n; k++) {
            chip_t *c = &m.chips[k];
            int64_t steps = 0;
            while (c->pc < c->length && steps < ROUND_STEPS) {
                int stepped = step(&m, k);
                if (stepped < 0) {
                    result[1] = k;
                    result[2] = c->pc;
                    status = STATUS_UNKNOWN_OPCODE;
                    goto done;
                }
                if (!stepped)
                    break;
                instructions++;
                steps++;
                progress = 1;
            }
            all_done = all_done && c->pc >= c->length;
        }
        if (all_done)
            break;
        if (!progress) {
            status = STATUS_DEADLOCK;
            break;
        }
    }

done:
    result[0] = instructions;
    for (int64_t k = 0; k < n; k++) {
        const chip_t *c = &m.chips[k];
        int64_t *o = chip_out + k * OUT_FIELDS;
        o[OUT_PC] = c->pc;
        o[OUT_FINISH] = c->finish;
        o[OUT_HBM_BUSY] = c->hbm.busy;
        o[OUT_HBM_BYTES] = c->hbm.bytes;
        o[OUT_LINK_BUSY] = c->link.busy;
        o[OUT_LINK_BYTES] = c->link.bytes;
        for (int64_t cls = 0; cls < m.n_classes; cls++)
            fu_busy_out[k * m.n_classes + cls] = c->fu_busy[cls];
    }
out:
    free(unit_base);
    free(m.chips);
    free(regs);
    free(unit_free);
    free(fu_busy);
    free(m.snd_ready);
    free(m.snd_present);
    free(m.col_expected);
    free(m.col_count);
    free(m.col_max);
    free(m.col_bytes);
    free(m.col_complete);
    return status;
}
