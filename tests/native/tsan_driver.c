/* ThreadSanitizer harness: the kernel is reentrant.
 *
 * Kept under tests/ (not shipped with the package).  Chunk threads
 * (repro.sim.workerpool) and concurrent serving lanes call
 * the kernel from several threads at once, each on its own batch, all
 * sharing one compiled program.  This driver compiles the kernel source
 * into one fully-instrumented executable (no Python in the loop — TSan
 * cannot be preloaded into an arbitrary interpreter build, but an
 * instrumented binary needs nothing), builds a synthetic program with
 * pin, stem and flop patches, computes serial references for
 *
 *   1. repro_eval over the patched program,
 *   2. a fault-axis repro_scan against recorded observation rows,
 *   3. a paired repro_scan over derived candidates with the per-slot
 *      flop-divergence outputs on, and its first-hit twin,
 *   4. repro_trace, the fault-free good-machine trace,
 *
 * and then runs all of them from LANES threads at once, repeatedly, on
 * per-thread batches over the shared program arrays; every result must
 * match its reference byte for byte.
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
#define PIS 4
#define GATES 40
#define SIGNALS (PIS + GATES)
#define STEPS 24
#define LANES 4
#define ROUNDS 10
#define MAX_ARITY 2
#define RAILS ((size_t)(2 * SIGNALS) * WORDS)
#define SCRATCH ((size_t)(2 * MAX_ARITY) * WORDS)

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
    fill_rails(V, 0x1000);
    repro_eval(V, WORDS, g_codes, g_outs, g_in_off, g_ins, GATES,
               g_pin_ops, g_pin_pins, g_pin_sa1, g_pin_sa0, 1,
               g_stem_ops, g_stem_sa1, g_stem_sa0, 1, scratch);
}

/* --- 2. fault-axis scan ---------------------------------------------- */

#define SCAN_POS 8
#define OBS_PER_STEP 4

static int32_t g_po_sig[SCAN_POS];
static int32_t g_pi_sig[PIS];
static uint8_t g_stim_bits[STEPS * PIS];
static int64_t g_obs_off[STEPS + 1];
static int32_t g_obs_pos[STEPS * OBS_PER_STEP];
static uint8_t g_obs_vals[STEPS * OBS_PER_STEP];
static uint64_t g_sa_zero[SCAN_POS * WORDS];

typedef struct {
    int64_t ret;
    uint64_t pending[WORDS];
    int64_t times[WORDS * 64];
} FaultResult;

static void build_fault_scan(void)
{
    uint64_t rng = 0x5000;
    int64_t s, i;
    for (i = 0; i < SCAN_POS; i++)
        g_po_sig[i] = (int32_t)(SIGNALS - SCAN_POS + i);
    for (i = 0; i < PIS; i++)
        g_pi_sig[i] = (int32_t)i;
    for (s = 0; s < STEPS * PIS; s++)
        g_stim_bits[s] = (uint8_t)(splitmix(&rng) & 1);
    for (s = 0; s <= STEPS; s++)
        g_obs_off[s] = s * OBS_PER_STEP;
    for (s = 0; s < STEPS * OBS_PER_STEP; s++) {
        g_obs_pos[s] = (int32_t)(splitmix(&rng) % SCAN_POS);
        g_obs_vals[s] = (uint8_t)(splitmix(&rng) & 1);
    }
}

static void run_fault_scan(FaultResult *out)
{
    uint64_t *FV = malloc(RAILS * sizeof(uint64_t));
    uint64_t scratch[SCRATCH], det[WORDS];
    int64_t i;
    for (i = 0; i < WORDS; i++)
        out->pending[i] = ~(uint64_t)0;
    for (i = 0; i < WORDS * 64; i++)
        out->times[i] = -1;
    fill_rails(FV, 0x6000);
    out->ret = repro_scan(
        g_codes, g_outs, g_in_off, g_ins, GATES, g_pin_ops, g_pin_pins,
        g_pin_sa1, g_pin_sa0, 1, g_stem_ops, g_stem_sa1, g_stem_sa0, 1, 0,
        0, 0, 0, g_pi_sig, PIS, 0, 0, 0, 0, 0, 0, 0, 0, 0, g_po_sig,
        SCAN_POS, g_sa_zero, g_sa_zero, 0, FV, WORDS, scratch, 0, 0, 0, 0,
        0, 0, g_stim_bits, 0, 0, 0, 0, 0, 0, 0, STEPS, g_obs_off,
        g_obs_pos, g_obs_vals, out->pending, out->times, det, 0, 0, 0, 0,
        0);
    free(FV);
}

/* --- 3. paired scans over derived candidates ------------------------- */

/* Signals 0..1 are the PIs; 2..3 are flop outputs latched from the
 * last two gate outputs, so the state feeds back across steps. */
#define TRACE_PIS 2
#define TRACE_FLOPS 2
#define TRACE_POS 8

static const int32_t g_trace_pi[TRACE_PIS] = {0, 1};
static const int32_t g_trace_q[TRACE_FLOPS] = {2, 3};
static const int32_t g_trace_d[TRACE_FLOPS] = {SIGNALS - 1, SIGNALS - 2};
static int32_t g_trace_po[TRACE_POS];
static uint64_t g_keep_all[WORDS];
static uint64_t g_keep_h[WORDS];
static uint64_t g_force_l[WORDS];

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
static int32_t g_desc[WORDS * 64 * 4];

static void build_derived(int64_t empty)
{
    uint64_t rng = 0xb000;
    int64_t k, i;
    for (i = 0; i < BASE_LEN * TRACE_PIS; i++)
        g_base[i] = (uint8_t)(splitmix(&rng) & 1);
    for (k = 0; k < WORDS * 64; k++) {
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
    uint64_t pending[WORDS];
    int64_t times[WORDS * 64];
    int64_t div[3][WORDS * 64]; /* max, final, area */
} PairedResult;

/* Faulty flop 0's D pin stuck at 0 in the g_force_l slots, plus the
 * shared pin and stem patches.  Both machines start with every flop at
 * binary 0, so fault effects reach the POs as binary values. */
static void run_paired(PairedResult *out, int64_t first_hit)
{
    static const int32_t dff_pos[1] = {0};
    uint64_t *GV = malloc(RAILS * sizeof(uint64_t));
    uint64_t *FV = malloc(RAILS * sizeof(uint64_t));
    uint64_t *state = calloc((size_t)4 * TRACE_FLOPS * WORDS, 8);
    uint64_t scratch[SCRATCH], det[WORDS];
    int64_t i;
    for (i = 0; i < WORDS; i++)
        out->pending[i] = ~(uint64_t)0;
    for (i = 0; i < WORDS * 64; i++)
        out->times[i] = -1;
    for (i = 0; i < TRACE_FLOPS * WORDS; i++)
        state[TRACE_FLOPS * WORDS + i] = state[3 * TRACE_FLOPS * WORDS + i] =
            ~(uint64_t)0;
    memset(out->div, 0, sizeof(out->div));
    fill_rails(GV, 0x9100);
    fill_rails(FV, 0x9200);
    out->ret = repro_scan(
        g_codes, g_outs, g_in_off, g_ins, GATES, g_pin_ops, g_pin_pins,
        g_pin_sa1, g_pin_sa0, 1, g_stem_ops, g_stem_sa1, g_stem_sa0, 1, 0,
        0, 0, 0, g_trace_pi, TRACE_PIS, g_trace_q, g_trace_d, TRACE_FLOPS,
        dff_pos, g_sa_zero, g_keep_h, g_force_l, g_keep_all, 1, g_trace_po,
        TRACE_POS, g_sa_zero, g_sa_zero, GV, FV, WORDS, scratch, state,
        state + TRACE_FLOPS * WORDS, state + 2 * TRACE_FLOPS * WORDS,
        state + 3 * TRACE_FLOPS * WORDS, g_sa_zero, g_sa_zero, 0, g_base,
        g_kept, 3, g_desc, 1, 1, DERIVED_OPS, DERIVED_STEPS, 0, 0, 0,
        out->pending, out->times, det, first_hit ? 0 : out->div[0],
        first_hit ? 0 : out->div[1], first_hit ? 0 : out->div[2], 0,
        first_hit);
    free(GV);
    free(FV);
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

static void run_all(Results *out)
{
    run_eval(out->eval);
    run_fault_scan(&out->fault);
    run_paired(&out->paired, 0);
    run_paired(&out->first, 1);
    run_trace(&out->trace);
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
               sizeof(want->fault.times))) {
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
    int round;
    for (round = 0; round < ROUNDS && !arg->failures; round++) {
        run_all(mine);
        arg->failures += compare(mine, arg->reference, "concurrent lane");
    }
    free(mine);
    return 0;
}

/* The references must exercise what they check. */
static int check_not_vacuous(const Results *reference)
{
    int64_t i, fault_hits = 0, diverged = 0, known = 0, first = -1;
    int failures = 0;
    for (i = 0; i < WORDS * 64; i++) {
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
    build_fault_scan();
    build_derived(64);
    run_all(&reference);
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
           "serial references\n", LANES, ROUNDS);
    return 0;
}
