/* ThreadSanitizer harness: the kernel is reentrant.
 *
 * Kept under tests/ (not shipped with the package).  Chunk threads
 * (repro.sim.workerpool) and concurrent serving lanes call
 * the kernel from several threads at once, each on its own batch and
 * scan context, all sharing one compiled program.  This driver compiles
 * the kernel source into one fully-instrumented executable (no Python in
 * the loop — TSan cannot be preloaded into an arbitrary interpreter
 * build, but an instrumented binary needs nothing), builds a synthetic
 * circuit and one ReproProgram with pin, stem and flop patches, computes
 * serial references for
 *
 *   1. repro_eval over the patched program,
 *   2. a fault-axis repro_scan, its broadcast good machine started from
 *      a binary (non-X) flop state and its faulty machines from states
 *      that differ from it in some slots, collecting the final states,
 *   3. a paired repro_scan over derived candidates with the per-slot
 *      flop-divergence outputs on, and its first-hit twin,
 *   4. repro_trace, the fault-free good-machine trace,
 *
 * each scan on a fresh ReproScan context whose rails hold junk, and then
 * runs all of them from LANES threads at once, repeatedly, every lane
 * reusing one context of its own for all its scans over the shared
 * ReproProgram; every result must match its reference byte for byte.
 *
 * Build and run (the CI TSan lane):
 *
 *   cc -fsanitize=thread -g -O1 -pthread \
 *      -o tsan_driver tests/native/tsan_driver.c && ./tsan_driver
 *
 * Exit 0 means no mismatch and no TSan report (TSan aborts the process
 * on a race when halt_on_error=1; without it the runtime exits non-zero
 * at the end).
 */

#include "../../src/repro/sim/_native/repro_kernel.c"

#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>

#define WORDS 16 /* 1024 slots per batch */
#define SLOTS (WORDS * 64)
#define PIS 4
#define GATES 40
#define SIGNALS (PIS + GATES)
#define STEPS 24
#define LANES 4
#define ROUNDS 10
#define MAX_ARITY 2
#define RAILS ((size_t)(2 * SIGNALS) * WORDS)
#define SCRATCH ((size_t)(2 * MAX_ARITY) * WORDS)
#define FLOP_WORDS (2 * WORDS) /* TRACE_FLOPS (below) rows of WORDS */

static uint64_t splitmix(uint64_t *state)
{
    uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/* The synthetic program: gate g reads two earlier signals (one for NOT)
 * and writes signal PIS + g, op codes cycling through the full set. */
static int32_t g_codes[GATES];
static int32_t g_outs[GATES];
static int64_t g_in_off[GATES + 1];
static int32_t g_ins[2 * GATES];

static void build_program(void)
{
    static const int32_t cycle[6] = {OP_AND, OP_OR,  OP_XOR,
                                     OP_NAND, OP_NOR, OP_XNOR};
    uint64_t rng = 0x9027;
    int64_t g, off = 0;
    for (g = 0; g < GATES; g++) {
        const int64_t avail = PIS + g;
        g_outs[g] = (int32_t)(PIS + g);
        g_in_off[g] = off;
        if (g % 7 == 6) {
            g_codes[g] = OP_NOT;
            g_ins[off++] = (int32_t)(splitmix(&rng) % avail);
        } else {
            g_codes[g] = cycle[g % 6];
            g_ins[off++] = (int32_t)(splitmix(&rng) % avail);
            g_ins[off++] = (int32_t)(splitmix(&rng) % avail);
        }
    }
    g_in_off[GATES] = off;
}

/* Complementary pseudo-random H/L rails for every signal. */
static void fill_rails(uint64_t *V, uint64_t seed)
{
    uint64_t rng = seed;
    int64_t s, w;
    for (s = 0; s < SIGNALS; s++) {
        for (w = 0; w < WORDS; w++) {
            const uint64_t h = splitmix(&rng);
            V[(uint64_t)(2 * s) * WORDS + w] = h;
            V[(uint64_t)(2 * s + 1) * WORDS + w] = ~h;
        }
    }
}

/* One pin patch on gate 5 and one stem patch on gate 20. */
static int32_t g_pin_ops[1] = {5};
static int32_t g_pin_pins[1] = {0};
static uint64_t g_pin_sa1[WORDS];
static uint64_t g_pin_sa0[WORDS];
static int32_t g_stem_ops[1] = {20};
static uint64_t g_stem_sa1[WORDS];
static uint64_t g_stem_sa0[WORDS];


/* --- 1. eval --------------------------------------------------------- */

static void run_eval(uint64_t *V)
{
    uint64_t scratch[SCRATCH];
    const uint64_t *fanins[2 * MAX_ARITY];
    fill_rails(V, 0x1000);
    repro_eval(V, WORDS, g_codes, g_outs, g_in_off, g_ins, GATES,
               g_pin_ops, g_pin_pins, g_pin_sa1, g_pin_sa0, 1,
               g_stem_ops, g_stem_sa1, g_stem_sa0, 1, scratch, fanins);
}

/* --- the scans' circuit and program ---------------------------------- */

/* Signals 0..1 are the PIs; 2..3 are flop outputs latched from the
 * last two gate outputs, so the state feeds back across steps. */
#define TRACE_PIS 2
#define TRACE_FLOPS 2
#define TRACE_POS 8

static const int32_t g_trace_pi[TRACE_PIS] = {0, 1};
static const int32_t g_trace_q[TRACE_FLOPS] = {2, 3};
static const int32_t g_trace_d[TRACE_FLOPS] = {SIGNALS - 1, SIGNALS - 2};
static int32_t g_trace_po[TRACE_POS];
static uint8_t g_stim_bits[STEPS * PIS];
static uint64_t g_sa_zero[TRACE_POS * WORDS];
static uint64_t g_keep_all[WORDS];
static uint64_t g_keep_h[WORDS];
static uint64_t g_force_l[WORDS];

static int32_t g_iota[MAX_ARITY] = {0, 1};
static int32_t g_fo_off[SIGNALS + 1];
static int32_t g_fo_ops[2 * GATES];
static ReproCircuit g_circuit;
static ReproProgram g_program;

/* The shared ReproCircuit (fanout lists as the Python side builds them)
 * and ReproProgram: the scans' pin and stem patches plus flop 0's D pin
 * stuck at 0 in the g_force_l slots. */
static void build_scan_program(void)
{
    static const int32_t dff_pos[1] = {0};
    int32_t fill[SIGNALS];
    int64_t op, k, s;
    memset(fill, 0, sizeof(fill));
    for (k = 0; k < g_in_off[GATES]; k++)
        g_fo_off[g_ins[k] + 1]++;
    for (s = 0; s < SIGNALS; s++)
        g_fo_off[s + 1] += g_fo_off[s];
    for (op = 0; op < GATES; op++)
        for (k = g_in_off[op]; k < g_in_off[op + 1]; k++)
            g_fo_ops[g_fo_off[g_ins[k]] + fill[g_ins[k]]++] = (int32_t)op;
    g_circuit = (ReproCircuit){
        .codes = g_codes,
        .outs = g_outs,
        .in_off = g_in_off,
        .ins = g_ins,
        .num_ops = GATES,
        .iota = g_iota,
        .fo_off = g_fo_off,
        .fo_ops = g_fo_ops,
        .pi_sig = g_trace_pi,
        .num_pis = TRACE_PIS,
        .q_sig = g_trace_q,
        .d_sig = g_trace_d,
        .num_flops = TRACE_FLOPS,
        .po_sig = g_trace_po,
        .num_pos = TRACE_POS,
    };
    g_program = (ReproProgram){
        .circuit = &g_circuit,
        .words = WORDS,
        .pin_ops = g_pin_ops,
        .pin_pins = g_pin_pins,
        .pin_sa1 = g_pin_sa1,
        .pin_sa0 = g_pin_sa0,
        .n_pin = 1,
        .stem_ops = g_stem_ops,
        .stem_sa1 = g_stem_sa1,
        .stem_sa0 = g_stem_sa0,
        .n_stem = 1,
        .dff_pos = dff_pos,
        .dff_force_h = g_sa_zero,
        .dff_keep_h = g_keep_h,
        .dff_force_l = g_force_l,
        .dff_keep_l = g_keep_all,
        .n_dff = 1,
        .po_sa1 = g_sa_zero,
        .po_sa0 = g_sa_zero,
    };
}

/* A zeroed WORDS-wide scan context (as the Python pool creates them),
 * its rails then filled with junk from `seed`. */
static ReproScan new_context(uint64_t seed)
{
    ReproScan s;
    memset(&s, 0, sizeof(s));
    s.words = WORDS;
    s.GV = calloc(RAILS, 8);
    s.FV = calloc(RAILS, 8);
    s.good_state = calloc(2 * TRACE_FLOPS, 8);
    s.good_final = calloc(TRACE_FLOPS, 1);
    s.alive = calloc(WORDS, 8);
    s.pending = calloc(WORDS, 8);
    s.times = calloc(SLOTS, 8);
    s.div = calloc(3 * SLOTS, 8);
    s.stamp = calloc(SIGNALS, 8);
    s.op_step = calloc(GATES, 8);
    s.op_pin0 = calloc(GATES + 1, 4);
    s.op_stem = calloc(GATES, 4);
    s.fdirty = calloc(TRACE_FLOPS * ((WORDS + 63) / 64), 8);
    s.worklist = calloc(GATES / 64 + 1, 8);
    s.live = calloc(WORDS, 8);
    s.det = calloc(WORDS, 8);
    s.vals = calloc(2 * MAX_ARITY, 8);
    s.scratch = calloc(SCRATCH, 8);
    s.ptrs = calloc(2 * MAX_ARITY, sizeof(uint64_t *));
    fill_rails(s.GV, seed);
    fill_rails(s.FV, seed + 1);
    return s;
}

static void free_context(ReproScan *s)
{
    free(s->GV);
    free(s->FV);
    free(s->good_state);
    free(s->good_final);
    free(s->alive);
    free(s->pending);
    free(s->times);
    free(s->div);
    free(s->stamp);
    free(s->op_step);
    free(s->op_pin0);
    free(s->op_stem);
    free(s->fdirty);
    free(s->worklist);
    free(s->live);
    free(s->det);
    free(s->vals);
    free(s->scratch);
    free((void *)s->ptrs);
}

/* --- 2. fault-axis scan ---------------------------------------------- */

typedef struct {
    int64_t ret;
    uint64_t pending[WORDS];
    int64_t times[SLOTS];
    uint64_t f_state[2 * FLOP_WORDS]; /* final faulty H then L rows */
    uint8_t g_state[TRACE_FLOPS];     /* final good Ternary codes     */
} FaultResult;

static void build_fault_scan(void)
{
    uint64_t rng = 0x5000;
    int64_t s;
    for (s = 0; s < STEPS * PIS; s++)
        g_stim_bits[s] = (uint8_t)(splitmix(&rng) & 1);
}

/* The good machine starts with flop 0 at 1 and flop 1 at 0; the faulty
 * machines start there too, except that flop 1 is X outside the
 * g_force_l slots.  Every step latches (collect_finals). */
static void run_fault_scan(ReproScan *ctx, FaultResult *out)
{
    static const uint8_t good_start[TRACE_FLOPS] = {1, 0}; /* ONE, ZERO */
    uint64_t *f_sh = out->f_state, *f_sl = out->f_state + FLOP_WORDS;
    int64_t i;
    for (i = 0; i < WORDS; i++) {
        f_sh[i] = ~(uint64_t)0; /* flop 0 at 1 */
        f_sl[i] = 0;
        f_sh[WORDS + i] = 0; /* flop 1 at 0 in the g_force_l slots */
        f_sl[WORDS + i] = g_force_l[i];
    }
    ctx->num_steps = STEPS;
    ctx->num_slots = SLOTS;
    ctx->f_state = out->f_state;
    ctx->g_state = 0;
    ctx->good_start = good_start;
    ctx->stim_bits = g_stim_bits;
    ctx->desc = 0;
    ctx->use_alive = 0;
    ctx->collect_finals = 1;
    ctx->first_hit = 0;
    ctx->divergence = 0;
    out->ret = repro_scan(&g_program, ctx);
    memcpy(out->pending, ctx->pending, sizeof(out->pending));
    memcpy(out->times, ctx->times, sizeof(out->times));
    memcpy(out->g_state, ctx->good_final, sizeof(out->g_state));
}

/* --- 3. paired scans over derived candidates ------------------------- */

/* Derived stimulus: a 12-vector base over the 2 PIs, kept positions
 * {0, 5, 11} and all three expansion operators (8x).  Slots below the
 * build_derived argument are empty candidates (they drain at step 0);
 * the rest are windows [a, b) of 1..4 vectors plus the kept positions
 * outside them, 8..56 steps long. */
#define BASE_LEN 12
#define DERIVED_STEPS 56
#define DERIVED_OPS (X_COMPLEMENT | X_SHIFT | X_REVERSE)

static const int32_t g_kept[3] = {0, 5, 11};
static uint8_t g_base[BASE_LEN * TRACE_PIS];
static int32_t g_desc[SLOTS * 4];

static void build_derived(int64_t empty)
{
    uint64_t rng = 0xb000;
    int64_t k, i;
    for (i = 0; i < BASE_LEN * TRACE_PIS; i++)
        g_base[i] = (uint8_t)(splitmix(&rng) & 1);
    for (k = 0; k < SLOTS; k++) {
        int32_t *d = g_desc + 4 * k;
        const int32_t a = (int32_t)(k % 6);
        const int32_t b = a + 1 + (int32_t)(k % 4);
        if (k < empty) {
            d[0] = 0;
            d[1] = 3;
            d[2] = d[3] = 0;
            continue;
        }
        d[0] = d[1] = 0;
        for (i = 0; i < 3; i++) {
            d[0] += g_kept[i] < a;
            d[1] += g_kept[i] < b;
        }
        d[2] = a;
        d[3] = b;
    }
}

typedef struct {
    int64_t ret;
    int64_t times[SLOTS];
    int64_t div[3][SLOTS]; /* max, final, area */
} PairedResult;

/* Both machines start with every flop at binary 0, so fault effects
 * reach the POs as binary values. */
static void run_paired(ReproScan *ctx, PairedResult *out, int64_t first_hit)
{
    uint64_t *state = calloc((size_t)4 * TRACE_FLOPS * WORDS, 8);
    int64_t i;
    for (i = 0; i < TRACE_FLOPS * WORDS; i++)
        state[TRACE_FLOPS * WORDS + i] = state[3 * TRACE_FLOPS * WORDS + i] =
            ~(uint64_t)0;
    ctx->num_steps = DERIVED_STEPS;
    ctx->num_slots = SLOTS;
    ctx->g_state = state;
    ctx->f_state = state + 2 * TRACE_FLOPS * WORDS;
    ctx->good_start = 0;
    ctx->stim_bits = 0;
    ctx->base = g_base;
    ctx->kept = g_kept;
    ctx->n_kept = 3;
    ctx->desc = g_desc;
    ctx->hold = 1;
    ctx->reps = 1;
    ctx->x_ops = DERIVED_OPS;
    ctx->use_alive = 0;
    ctx->collect_finals = 0;
    ctx->first_hit = first_hit;
    ctx->divergence = !first_hit;
    out->ret = repro_scan(&g_program, ctx);
    memcpy(out->times, ctx->times, sizeof(out->times));
    if (first_hit)
        memset(out->div, 0, sizeof(out->div));
    else
        memcpy(out->div, ctx->div, sizeof(out->div));
    free(state);
}

/* --- 4. fault-free trace --------------------------------------------- */

typedef struct {
    uint8_t po[STEPS * TRACE_POS];
    uint64_t s_h[TRACE_FLOPS];
    uint64_t s_l[TRACE_FLOPS];
} TraceResult;

static void run_trace(TraceResult *out)
{
    uint64_t V[2 * SIGNALS];
    memset(V, 0, sizeof(V));
    memset(out, 0, sizeof(*out)); /* all-X initial state */
    repro_trace(V, g_codes, g_outs, g_in_off, g_ins, GATES, g_trace_pi,
                TRACE_PIS, g_trace_q, g_trace_d, TRACE_FLOPS, out->s_h,
                out->s_l, g_stim_bits, STEPS, g_trace_po, TRACE_POS,
                out->po);
}

/* --- references and concurrent lanes -------------------------------- */

typedef struct {
    uint64_t eval[RAILS];
    FaultResult fault;
    PairedResult paired;
    PairedResult first;
    TraceResult trace;
} Results;

/* Every scan on `ctx`, or on a fresh junk-filled context when NULL. */
static void run_all(Results *out, ReproScan *ctx)
{
    ReproScan fresh[3];
    int i;
    for (i = 0; i < 3; i++)
        fresh[i] = new_context(0x8000 + 16 * (uint64_t)i);
    run_eval(out->eval);
    run_fault_scan(ctx ? ctx : &fresh[0], &out->fault);
    run_paired(ctx ? ctx : &fresh[1], &out->paired, 0);
    run_paired(ctx ? ctx : &fresh[2], &out->first, 1);
    run_trace(&out->trace);
    for (i = 0; i < 3; i++)
        free_context(&fresh[i]);
}

/* Field-by-field: the structs' padding bytes are never written. */
static int compare(const Results *got, const Results *want, const char *who)
{
    int failures = 0;
    if (memcmp(got->eval, want->eval, sizeof(want->eval))) {
        fprintf(stderr, "FAIL %s: repro_eval\n", who);
        failures++;
    }
    if (got->fault.ret != want->fault.ret ||
        memcmp(got->fault.pending, want->fault.pending,
               sizeof(want->fault.pending)) ||
        memcmp(got->fault.times, want->fault.times,
               sizeof(want->fault.times)) ||
        memcmp(got->fault.f_state, want->fault.f_state,
               sizeof(want->fault.f_state)) ||
        memcmp(got->fault.g_state, want->fault.g_state,
               sizeof(want->fault.g_state))) {
        fprintf(stderr, "FAIL %s: fault-axis repro_scan\n", who);
        failures++;
    }
    if (got->paired.ret != want->paired.ret ||
        memcmp(got->paired.times, want->paired.times,
               sizeof(want->paired.times)) ||
        memcmp(got->paired.div, want->paired.div, sizeof(want->paired.div))) {
        fprintf(stderr, "FAIL %s: paired repro_scan\n", who);
        failures++;
    }
    if (got->first.ret != want->first.ret ||
        memcmp(got->first.times, want->first.times,
               sizeof(want->first.times))) {
        fprintf(stderr, "FAIL %s: first-hit repro_scan\n", who);
        failures++;
    }
    if (memcmp(got->trace.po, want->trace.po, sizeof(want->trace.po)) ||
        memcmp(got->trace.s_h, want->trace.s_h, sizeof(want->trace.s_h)) ||
        memcmp(got->trace.s_l, want->trace.s_l, sizeof(want->trace.s_l))) {
        fprintf(stderr, "FAIL %s: repro_trace\n", who);
        failures++;
    }
    return failures;
}

typedef struct {
    const Results *reference;
    int failures;
} LaneArg;

static void *lane_main(void *ptr)
{
    LaneArg *arg = ptr;
    Results *mine = malloc(sizeof(Results));
    ReproScan ctx = new_context(0x9000);
    int round;
    for (round = 0; round < ROUNDS && !arg->failures; round++) {
        run_all(mine, &ctx);
        arg->failures += compare(mine, arg->reference, "concurrent lane");
    }
    free_context(&ctx);
    free(mine);
    return 0;
}

/* The references must exercise what they check. */
static int check_not_vacuous(const Results *reference)
{
    int64_t i, fault_hits = 0, diverged = 0, known = 0, first = -1;
    int failures = 0;
    for (i = 0; i < SLOTS; i++) {
        fault_hits += reference->fault.times[i] >= 0;
        diverged += reference->paired.div[2][i] > 0;
        if (first < 0 && reference->first.times[i] >= 0)
            first = i;
    }
    for (i = 0; i < STEPS * TRACE_POS; i++)
        known += reference->trace.po[i] != 2;
    if (!fault_hits || !diverged || !known || first < 0) {
        fprintf(stderr,
                "FAIL vacuous reference: %lld fault detections, %lld "
                "diverged slots, %lld binary trace values, first hit %lld\n",
                (long long)fault_hits, (long long)diverged, (long long)known,
                (long long)first);
        failures++;
    }
    if (first >= 0 && reference->first.times[first] !=
                          reference->paired.times[first]) {
        fprintf(stderr, "FAIL first-hit winner time differs from the scan\n");
        failures++;
    }
    return failures;
}

int main(void)
{
    static Results reference;
    pthread_t lanes[LANES];
    LaneArg args[LANES];
    uint64_t rng = 0x7000;
    int64_t w, i;
    int failures = 0;
    build_program();
    /* Sparse, disjoint patch masks (sa1 & sa0 must never overlap). */
    for (w = 0; w < WORDS; w++) {
        const uint64_t mask = splitmix(&rng);
        g_pin_sa1[w] = mask & 0x5555555555555555ULL;
        g_pin_sa0[w] = ~mask & 0xaaaaaaaaaaaaaaaaULL;
        g_stem_sa1[w] = mask & 0x0f0f0f0f0f0f0f0fULL;
        g_stem_sa0[w] = ~mask & 0xf0f0f0f0f0f0f0f0ULL;
        g_keep_all[w] = ~(uint64_t)0;
        g_force_l[w] = splitmix(&rng);
        g_keep_h[w] = ~g_force_l[w];
    }
    for (i = 0; i < TRACE_POS; i++)
        g_trace_po[i] = (int32_t)(SIGNALS - TRACE_POS + i);
    build_scan_program();
    build_fault_scan();
    build_derived(64);
    run_all(&reference, 0);
    failures += check_not_vacuous(&reference);
    for (i = 0; i < LANES; i++) {
        args[i].reference = &reference;
        args[i].failures = 0;
        pthread_create(&lanes[i], 0, lane_main, &args[i]);
    }
    for (i = 0; i < LANES; i++) {
        pthread_join(lanes[i], 0);
        failures += args[i].failures;
    }
    if (repro_thread_pool_size() != 1) {
        fprintf(stderr, "FAIL repro_thread_pool_size is not the serial stub\n");
        failures++;
    }
    if (failures) {
        fprintf(stderr, "%d reentrancy failure(s)\n", failures);
        return 1;
    }
    printf("tsan driver: %d lanes x %d rounds of eval/scan/trace matched the "
           "serial references, each lane reusing one scan context\n",
           LANES, ROUNDS);
    return 0;
}
