/* ThreadSanitizer harness for the threaded kernel tier.
 *
 * Compiles the kernel source into one fully-instrumented executable (no
 * Python in the loop — TSan cannot be preloaded into an arbitrary
 * interpreter build, but an instrumented binary needs nothing), builds a
 * synthetic combinational program, and drives every threaded entry
 * point against its serial twin:
 *
 *   1. concurrent repro_thread_pool_init from racing caller threads;
 *   2. repro_eval with pin + stem patches, serial vs 4 spans,
 *      byte-compared, hammered back-to-back to churn the dispatch
 *      mutex/condvar;
 *   3. repro_detect_step, serial vs 4 spans, byte-compared;
 *   4. repro_eval from 4 concurrent caller threads (the serving-lane
 *      shape: the pool trylock serves one, the rest run serially),
 *      each result compared against the serial reference;
 *   5. fault-axis repro_scan, serial vs threaded — detect times,
 *      pending mask and the step count combined over spans must match
 *      bit-for-bit;
 *   6. repro_trace (the fault-free good-machine trace) from 4 concurrent
 *      caller threads, as serving lanes call it, each PO trace and final
 *      flop state compared against a serial reference run;
 *   7. paired (candidate-axis) repro_scan over derived candidates with
 *      the per-slot flop-divergence outputs on, serial vs threaded — 4
 *      spans write their own slots of div_max / div_final / div_area
 *      concurrently, and detect times, pending mask, return value and
 *      all three outputs must match bit-for-bit;
 *   8. a derived first-hit repro_scan whose slots drain and detect at
 *      different steps per span, serial vs 4 spans — each span prunes
 *      on its own lowest detecting slot, so the times up to and
 *      including the lowest detecting slot must match byte for byte,
 *      and equal those of the full (non-first-hit) scan.
 *
 * Build and run (the CI TSan lane):
 *
 *   cc -fsanitize=thread -g -O1 -pthread \
 *      -o tsan_driver src/repro/sim/_native/tsan_driver.c && ./tsan_driver
 *
 * Exit 0 means no parity mismatch and no TSan report (TSan aborts the
 * process on a race when halt_on_error=1; without it the runtime exits
 * non-zero at the end).
 */

#include "repro_kernel.c"

#include <stdio.h>
#include <stdlib.h>

#define WORDS 64 /* 4096 slots: enough for 4 uneven spans */
#define PIS 4
#define GATES 40
#define SIGNALS (PIS + GATES)
#define STEPS 24
#define LANES 4
#define MAX_ARITY 2

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

static void run_eval(uint64_t *V, uint64_t *scratch, int64_t n_threads)
{
    repro_eval(V, WORDS, g_codes, g_outs, g_in_off, g_ins, GATES,
               g_pin_ops, g_pin_pins, g_pin_sa1, g_pin_sa0, 1,
               g_stem_ops, g_stem_sa1, g_stem_sa0, 1, scratch, n_threads);
}

static int check_eval_parity(void)
{
    const size_t rails = (size_t)(2 * SIGNALS) * WORDS;
    uint64_t *serial = malloc(rails * sizeof(uint64_t));
    uint64_t *threaded = malloc(rails * sizeof(uint64_t));
    uint64_t *scratch = malloc((size_t)(2 * MAX_ARITY) * WORDS * 8);
    int failures = 0;
    int round;
    for (round = 0; round < 50; round++) {
        fill_rails(serial, 0x1000 + (uint64_t)round);
        memcpy(threaded, serial, rails * sizeof(uint64_t));
        run_eval(serial, scratch, 1);
        run_eval(threaded, scratch, LANES);
        if (memcmp(serial, threaded, rails * sizeof(uint64_t)) != 0) {
            fprintf(stderr, "FAIL eval parity, round %d\n", round);
            failures++;
            break;
        }
    }
    free(serial);
    free(threaded);
    free(scratch);
    return failures;
}

static int check_detect_parity(void)
{
    const size_t rails = (size_t)(2 * SIGNALS) * WORDS;
    uint64_t *GV = malloc(rails * sizeof(uint64_t));
    uint64_t *FV = malloc(rails * sizeof(uint64_t));
    uint64_t *scratch = malloc((size_t)(2 * MAX_ARITY) * WORDS * 8);
    int32_t po_sig[8];
    static uint64_t sa_zero[8 * WORDS]; /* shared all-zero masks */
    uint64_t out_serial[WORDS], out_threaded[WORDS];
    int64_t i;
    int failures = 0;
    for (i = 0; i < 8; i++)
        po_sig[i] = (int32_t)(SIGNALS - 8 + i);
    fill_rails(GV, 0x2000);
    fill_rails(FV, 0x3000);
    run_eval(GV, scratch, 1);
    run_eval(FV, scratch, 1);
    memset(out_serial, 0, sizeof(out_serial));
    memset(out_threaded, 0, sizeof(out_threaded));
    repro_detect_step(GV, FV, WORDS, po_sig, 8, sa_zero, sa_zero, sa_zero,
                      sa_zero, out_serial, 1);
    repro_detect_step(GV, FV, WORDS, po_sig, 8, sa_zero, sa_zero, sa_zero,
                      sa_zero, out_threaded, LANES);
    if (memcmp(out_serial, out_threaded, sizeof(out_serial)) != 0) {
        fprintf(stderr, "FAIL detect_step parity\n");
        failures++;
    }
    free(GV);
    free(FV);
    free(scratch);
    return failures;
}

/* --- concurrent callers: the serving-lane shape ------------------- */

typedef struct {
    const uint64_t *reference;
    int failures;
} LaneArg;

static void *lane_main(void *ptr)
{
    LaneArg *arg = ptr;
    const size_t rails = (size_t)(2 * SIGNALS) * WORDS;
    uint64_t *V = malloc(rails * sizeof(uint64_t));
    uint64_t *scratch = malloc((size_t)(2 * MAX_ARITY) * WORDS * 8);
    int round;
    for (round = 0; round < 25; round++) {
        fill_rails(V, 0x4000);
        run_eval(V, scratch, LANES);
        if (memcmp(V, arg->reference, rails * sizeof(uint64_t)) != 0) {
            arg->failures++;
            break;
        }
    }
    free(V);
    free(scratch);
    return 0;
}

static int check_concurrent_callers(void)
{
    const size_t rails = (size_t)(2 * SIGNALS) * WORDS;
    uint64_t *reference = malloc(rails * sizeof(uint64_t));
    uint64_t *scratch = malloc((size_t)(2 * MAX_ARITY) * WORDS * 8);
    pthread_t lanes[LANES];
    LaneArg args[LANES];
    int i, failures = 0;
    fill_rails(reference, 0x4000);
    run_eval(reference, scratch, 1);
    for (i = 0; i < LANES; i++) {
        args[i].reference = reference;
        args[i].failures = 0;
        pthread_create(&lanes[i], 0, lane_main, &args[i]);
    }
    for (i = 0; i < LANES; i++) {
        pthread_join(lanes[i], 0);
        if (args[i].failures) {
            fprintf(stderr, "FAIL concurrent caller lane %d parity\n", i);
            failures += args[i].failures;
        }
    }
    free(reference);
    free(scratch);
    return failures;
}

/* --- pool-init race ------------------------------------------------ */

static void *init_main(void *ptr)
{
    (void)ptr;
    if (repro_thread_pool_init(LANES) < 1 || repro_thread_pool_size() < 1)
        return (void *)1;
    return 0;
}

static int check_pool_init_race(void)
{
    pthread_t racers[LANES];
    void *ret;
    int i, failures = 0;
    for (i = 0; i < LANES; i++)
        pthread_create(&racers[i], 0, init_main, 0);
    for (i = 0; i < LANES; i++) {
        pthread_join(racers[i], &ret);
        if (ret) {
            fprintf(stderr, "FAIL pool init from racer %d\n", i);
            failures++;
        }
    }
    return failures;
}

/* --- fault-axis scan parity ---------------------------------------- */

static int check_scan_parity(void)
{
    const size_t rails = (size_t)(2 * SIGNALS) * WORDS;
    const int64_t num_pos = 8;
    const int64_t obs_per_step = 4;
    int32_t po_sig[8];
    int32_t pi_sig[PIS];
    uint8_t stim_bits[STEPS * PIS];
    int64_t obs_off[STEPS + 1];
    int32_t obs_pos[STEPS * 4];
    uint8_t obs_vals[STEPS * 4];
    static uint64_t sa_zero[8 * WORDS];
    uint64_t *FV = malloc(rails * sizeof(uint64_t));
    uint64_t *scratch = malloc((size_t)(2 * MAX_ARITY) * WORDS * 8);
    uint64_t pending_s[WORDS], pending_t[WORDS], det[WORDS];
    int64_t *times_s = malloc((size_t)WORDS * 64 * sizeof(int64_t));
    int64_t *times_t = malloc((size_t)WORDS * 64 * sizeof(int64_t));
    uint64_t rng = 0x5000;
    int64_t s, w, i;
    int64_t ret_s, ret_t;
    int failures = 0;

    for (i = 0; i < num_pos; i++)
        po_sig[i] = (int32_t)(SIGNALS - num_pos + i);
    for (i = 0; i < PIS; i++)
        pi_sig[i] = (int32_t)i;
    for (s = 0; s < STEPS; s++)
        for (i = 0; i < PIS; i++)
            stim_bits[s * PIS + i] = (uint8_t)(splitmix(&rng) & 1);
    for (s = 0; s <= STEPS; s++)
        obs_off[s] = s * obs_per_step;
    for (s = 0; s < STEPS; s++)
        for (i = 0; i < obs_per_step; i++) {
            obs_pos[s * obs_per_step + i] =
                (int32_t)(splitmix(&rng) % num_pos);
            obs_vals[s * obs_per_step + i] = (uint8_t)(splitmix(&rng) & 1);
        }

    fill_rails(FV, 0x6000);
    for (w = 0; w < WORDS; w++)
        pending_s[w] = pending_t[w] = ~(uint64_t)0;
    for (i = 0; i < WORDS * 64; i++)
        times_s[i] = times_t[i] = -1;

    ret_s = repro_scan(g_codes, g_outs, g_in_off, g_ins, GATES, g_pin_ops,
                       g_pin_pins, g_pin_sa1, g_pin_sa0, 1, g_stem_ops,
                       g_stem_sa1, g_stem_sa0, 1, 0, 0, 0, 0, pi_sig, PIS,
                       0, 0, 0, 0, 0, 0, 0, 0, 0, po_sig, num_pos, sa_zero,
                       sa_zero, 0, FV, WORDS, scratch, 0, 0, 0, 0, 0, 0,
                       stim_bits, 0, 0, 0, 0, 0, 0, 0, STEPS, obs_off,
                       obs_pos, obs_vals, pending_s, times_s, det, 0, 0, 0,
                       0, 0, 1);
    fill_rails(FV, 0x6000);
    ret_t = repro_scan(g_codes, g_outs, g_in_off, g_ins, GATES, g_pin_ops,
                       g_pin_pins, g_pin_sa1, g_pin_sa0, 1, g_stem_ops,
                       g_stem_sa1, g_stem_sa0, 1, 0, 0, 0, 0, pi_sig, PIS,
                       0, 0, 0, 0, 0, 0, 0, 0, 0, po_sig, num_pos, sa_zero,
                       sa_zero, 0, FV, WORDS, scratch, 0, 0, 0, 0, 0, 0,
                       stim_bits, 0, 0, 0, 0, 0, 0, 0, STEPS, obs_off,
                       obs_pos, obs_vals, pending_t, times_t, det, 0, 0, 0,
                       0, 0, LANES);

    if (ret_s != ret_t) {
        fprintf(stderr, "FAIL scan return: serial %lld threaded %lld\n",
                (long long)ret_s, (long long)ret_t);
        failures++;
    }
    if (memcmp(pending_s, pending_t, sizeof(pending_s)) != 0) {
        fprintf(stderr, "FAIL scan pending parity\n");
        failures++;
    }
    if (memcmp(times_s, times_t, (size_t)WORDS * 64 * sizeof(int64_t))
        != 0) {
        fprintf(stderr, "FAIL scan detect-time parity\n");
        failures++;
    }
    free(FV);
    free(scratch);
    free(times_s);
    free(times_t);
    return failures;
}

/* --- concurrent fault-free traces ---------------------------------- */

/* Signals 0..1 are the trace's PIs; 2..3 are flop outputs latched from
 * the last two gate outputs, so the state feeds back across steps. */
#define TRACE_PIS 2
#define TRACE_FLOPS 2
#define TRACE_POS 8

static const int32_t g_trace_pi[TRACE_PIS] = {0, 1};
static const int32_t g_trace_q[TRACE_FLOPS] = {2, 3};
static const int32_t g_trace_d[TRACE_FLOPS] = {SIGNALS - 1, SIGNALS - 2};
static int32_t g_trace_po[TRACE_POS];
static uint8_t g_trace_bits[STEPS * TRACE_PIS];

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
                out->s_l, g_trace_bits, STEPS, g_trace_po, TRACE_POS,
                out->po);
}

typedef struct {
    const TraceResult *reference;
    int failures;
} TraceLaneArg;

static void *trace_lane_main(void *ptr)
{
    TraceLaneArg *arg = ptr;
    TraceResult result;
    int round;
    for (round = 0; round < 25; round++) {
        run_trace(&result);
        if (memcmp(&result, arg->reference, sizeof(result)) != 0) {
            arg->failures++;
            break;
        }
    }
    return 0;
}

static int check_concurrent_traces(void)
{
    TraceResult reference;
    pthread_t lanes[LANES];
    TraceLaneArg args[LANES];
    uint64_t rng = 0x8000;
    int64_t i, known = 0;
    int failures = 0;
    for (i = 0; i < TRACE_POS; i++)
        g_trace_po[i] = (int32_t)(SIGNALS - TRACE_POS + i);
    for (i = 0; i < STEPS * TRACE_PIS; i++)
        g_trace_bits[i] = (uint8_t)(splitmix(&rng) & 1);
    run_trace(&reference);
    for (i = 0; i < STEPS * TRACE_POS; i++)
        known += reference.po[i] != 2;
    if (!known) {
        fprintf(stderr, "FAIL trace reference is all X (vacuous)\n");
        failures++;
    }
    for (i = 0; i < LANES; i++) {
        args[i].reference = &reference;
        args[i].failures = 0;
        pthread_create(&lanes[i], 0, trace_lane_main, &args[i]);
    }
    for (i = 0; i < LANES; i++) {
        pthread_join(lanes[i], 0);
        if (args[i].failures) {
            fprintf(stderr, "FAIL concurrent trace lane %lld parity\n",
                    (long long)i);
            failures += args[i].failures;
        }
    }
    return failures;
}

/* --- derived candidate scans ---------------------------------------- */

/* Derived stimulus shared by cases 7 and 8: a 12-vector base over the
 * trace's 2 PIs, kept positions {0, 5, 11} and all three expansion
 * operators (8x).  Slot k below DERIVED_EMPTY is an empty candidate
 * (it drains at step 0); the rest are windows [a, b) of 1..4 vectors
 * plus the kept positions outside them, 8..56 steps long. */
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

static void run_paired(PairedResult *out, const int32_t *po_sig,
                       const uint64_t *dff_keep_h,
                       const uint64_t *dff_force_l, int64_t gate_faults,
                       int64_t divergence, int64_t first_hit,
                       int64_t n_threads)
{
    static uint64_t sa_zero[TRACE_POS * WORDS];
    static uint64_t keep_all[WORDS];
    static const int32_t dff_pos[1] = {0};
    const size_t rails = (size_t)(2 * SIGNALS) * WORDS;
    uint64_t *GV = malloc(rails * sizeof(uint64_t));
    uint64_t *FV = malloc(rails * sizeof(uint64_t));
    uint64_t *scratch = malloc((size_t)(2 * MAX_ARITY) * WORDS * 8);
    uint64_t *state = calloc((size_t)4 * TRACE_FLOPS * WORDS, 8);
    uint64_t det[WORDS];
    int64_t w, i;
    for (w = 0; w < WORDS; w++) {
        keep_all[w] = ~(uint64_t)0;
        out->pending[w] = ~(uint64_t)0;
    }
    for (i = 0; i < WORDS * 64; i++)
        out->times[i] = -1;
    /* Both machines start with every flop at binary 0 (L rails set), so
     * fault effects reach the POs as binary values. */
    for (i = 0; i < TRACE_FLOPS * WORDS; i++)
        state[TRACE_FLOPS * WORDS + i] = state[3 * TRACE_FLOPS * WORDS + i] =
            ~(uint64_t)0;
    memset(out->div, 0, sizeof(out->div));
    fill_rails(GV, 0x9100);
    fill_rails(FV, 0x9200);
    /* Faulty flop 0's D pin stuck at 0 in the dff_force_l slots, plus
     * (gate_faults) the shared pin and stem patches. */
    out->ret = repro_scan(
        g_codes, g_outs, g_in_off, g_ins, GATES, g_pin_ops, g_pin_pins,
        g_pin_sa1, g_pin_sa0, gate_faults, g_stem_ops, g_stem_sa1,
        g_stem_sa0, gate_faults, 0,
        0, 0, 0, g_trace_pi, TRACE_PIS, g_trace_q, g_trace_d, TRACE_FLOPS,
        dff_pos, sa_zero, dff_keep_h, dff_force_l, keep_all, 1, po_sig,
        TRACE_POS, sa_zero, sa_zero, GV, FV, WORDS, scratch, state,
        state + TRACE_FLOPS * WORDS, state + 2 * TRACE_FLOPS * WORDS,
        state + 3 * TRACE_FLOPS * WORDS, sa_zero, sa_zero, 0, g_base,
        g_kept, 3, g_desc, 1, 1, DERIVED_OPS, DERIVED_STEPS, 0, 0, 0,
        out->pending, out->times, det, divergence ? out->div[0] : 0,
        divergence ? out->div[1] : 0, divergence ? out->div[2] : 0, 0,
        first_hit, n_threads);
    free(GV);
    free(FV);
    free(scratch);
    free(state);
}

static void paired_masks(int32_t *po_sig, uint64_t *keep_h, uint64_t *force_l)
{
    uint64_t rng = 0xa000;
    int64_t w, i;
    for (i = 0; i < TRACE_POS; i++)
        po_sig[i] = (int32_t)(SIGNALS - TRACE_POS + i);
    for (w = 0; w < WORDS; w++) {
        force_l[w] = splitmix(&rng);
        keep_h[w] = ~force_l[w];
    }
}

static int check_paired_divergence(void)
{
    static PairedResult serial, threaded;
    int32_t po_sig[TRACE_POS];
    uint64_t keep_h[WORDS], force_l[WORDS];
    int64_t i, diverged = 0;
    int failures = 0;
    paired_masks(po_sig, keep_h, force_l);
    build_derived(0);
    run_paired(&serial, po_sig, keep_h, force_l, 1, 1, 0, 1);
    run_paired(&threaded, po_sig, keep_h, force_l, 1, 1, 0, LANES);
    for (i = 0; i < WORDS * 64; i++)
        diverged += serial.div[2][i] > 0;
    if (!diverged) {
        fprintf(stderr, "FAIL paired divergence is all zero (vacuous)\n");
        failures++;
    }
    if (serial.ret != threaded.ret) {
        fprintf(stderr, "FAIL paired scan return: serial %lld threaded %lld\n",
                (long long)serial.ret, (long long)threaded.ret);
        failures++;
    }
    if (memcmp(serial.pending, threaded.pending, sizeof(serial.pending)) ||
        memcmp(serial.times, threaded.times, sizeof(serial.times))) {
        fprintf(stderr, "FAIL paired scan detect parity\n");
        failures++;
    }
    if (memcmp(serial.div, threaded.div, sizeof(serial.div))) {
        fprintf(stderr, "FAIL paired scan divergence parity\n");
        failures++;
    }
    return failures;
}

/* The lowest slot with a recorded time, or -1. */
static int64_t lowest_hit(const PairedResult *result)
{
    int64_t i;
    for (i = 0; i < WORDS * 64; i++)
        if (result->times[i] >= 0)
            return i;
    return -1;
}

static int check_derived_first_hit(void)
{
    static PairedResult full, serial, threaded;
    int32_t po_sig[TRACE_POS];
    uint64_t keep_h[WORDS], force_l[WORDS];
    int64_t winner;
    int failures = 0;
    int64_t w;
    paired_masks(po_sig, keep_h, force_l);
    /* Span 0 (slots 0..1023 of 4096) and the start of span 1 hold empty
     * candidates, and only the flop fault acts, in no slot below 1280:
     * span 1 then runs until its unfaulted windows end (8..56 steps)
     * while spans 2 and 3 prune on their first detection. */
    for (w = 0; w < 20; w++) {
        force_l[w] = 0;
        keep_h[w] = ~(uint64_t)0;
    }
    build_derived(1100);
    run_paired(&full, po_sig, keep_h, force_l, 0, 0, 0, 1);
    run_paired(&serial, po_sig, keep_h, force_l, 0, 0, 1, 1);
    run_paired(&threaded, po_sig, keep_h, force_l, 0, 0, 1, LANES);
    winner = lowest_hit(&full);
    if (winner < 1280) {
        fprintf(stderr, "FAIL derived first-hit winner %lld (vacuous)\n",
                (long long)winner);
        return failures + 1;
    }
    if (lowest_hit(&serial) != winner || lowest_hit(&threaded) != winner) {
        fprintf(stderr, "FAIL derived first-hit winner parity\n");
        failures++;
    }
    if (memcmp(serial.times, full.times, (size_t)(winner + 1) * 8) ||
        memcmp(threaded.times, full.times, (size_t)(winner + 1) * 8)) {
        fprintf(stderr, "FAIL derived first-hit detect-time parity\n");
        failures++;
    }
    if (serial.ret > full.ret) {
        fprintf(stderr, "FAIL derived first-hit ran longer than the scan\n");
        failures++;
    }
    printf("derived first hit: slot %lld at step %lld; %lld of %lld steps\n",
           (long long)winner, (long long)full.times[winner],
           (long long)serial.ret, (long long)full.ret);
    return failures;
}

int main(void)
{
    uint64_t rng = 0x7000;
    int64_t w;
    int failures = 0;
    build_program();
    /* Sparse, disjoint patch masks (sa1 & sa0 must never overlap). */
    for (w = 0; w < WORDS; w++) {
        const uint64_t mask = splitmix(&rng);
        g_pin_sa1[w] = mask & 0x5555555555555555ULL;
        g_pin_sa0[w] = ~mask & 0xaaaaaaaaaaaaaaaaULL;
        g_stem_sa1[w] = mask & 0x0f0f0f0f0f0f0f0fULL;
        g_stem_sa0[w] = ~mask & 0xf0f0f0f0f0f0f0f0ULL;
    }
    if (!repro_threads_available()) {
        printf("kernel built without threads; nothing to sanitize\n");
        return 0;
    }
    failures += check_pool_init_race();
    printf("pool size after racing inits: %lld\n",
           (long long)repro_thread_pool_size());
    failures += check_eval_parity();
    failures += check_detect_parity();
    failures += check_concurrent_callers();
    failures += check_scan_parity();
    failures += check_concurrent_traces();
    failures += check_paired_divergence();
    failures += check_derived_first_hit();
    repro_thread_pool_shutdown();
    if (failures) {
        fprintf(stderr, "%d parity failure(s)\n", failures);
        return 1;
    }
    printf("tsan driver: all threaded parity checks passed\n");
    return 0;
}
