/* Native (H, L) two-rail evaluation kernel.
 *
 * Compiled lazily by repro.sim.native_build (cc/gcc, -O3 -shared) and
 * loaded through ctypes by repro.sim.backend_native.  The data layout is
 * exactly the numpy backend's: all signal values live in one C-contiguous
 * (2 * num_signals, words) uint64 array V, signal i's H rail at row 2i,
 * its L rail at row 2i + 1, slot s at bit s % 64 of word s / 64.  Per the
 * (H, L) encoding contract, H set means 1, L set means 0, neither means
 * X, and both set never occurs.
 *
 * repro_eval is a line-by-line port of the big-int reference kernel
 * (repro/sim/kernel.py, eval_combinational): ops are walked in the
 * compiled topological order; a gate with faulted input pins gathers its
 * (patched) inputs into scratch and folds generically; stem patches mask
 * the just-written output rows.  Because the operation set and the
 * evaluation order match the reference exactly, detection times are
 * bit-identical across backends by construction.
 *
 * Reentrancy: the kernel keeps no global mutable state.  Every entry
 * point reads the program arrays (op codes, patches) without writing
 * them and writes only the caller's batch arrays (V, scratch, flop
 * state, pending, times, det and the divergence outputs), so callers on
 * different threads may run repro_eval / repro_scan / repro_trace at
 * once on distinct batches that share one program.  The Python side
 * parallelises that way: independent chunks of faults or candidates,
 * one GIL-released call each.
 *
 * Everything below is plain C11 with no dependencies beyond libc, so a
 * bare `cc -O3 -fPIC -shared` anywhere is enough; absence of a compiler
 * simply leaves the backend unregistered (see native_build).
 */

#include <stdint.h>
#include <string.h>

/* Bumped whenever any exported signature or semantic changes; checked by
 * the loader so a stale cached .so can never be driven with the wrong
 * marshaling.  v2 added repro_scan (whole-sequence fused scans); v3 added
 * an in-kernel thread pool and a trailing lane-count argument on
 * repro_eval, repro_detect_step and repro_scan; v4 added repro_trace
 * (the fault-free good-machine trace in one call); v5 adds repro_scan's
 * per-slot flop-divergence outputs (div_max, div_final, div_area); v6
 * reorders repro_scan's arguments (program-fixed prefix first, then
 * batch, then stimulus), replaces the packed per-slot stimulus and the
 * alive rows with the derived-candidate stimulus (base bits, kept set,
 * per-slot descriptors, expansion), drops t0 (every scan is one call)
 * and the "finished" sign of the return value, and adds the first_hit
 * mode; v7 drops the thread pool and the lane-count arguments (callers
 * run independent calls on their own threads instead) and keeps
 * repro_thread_pool_size as a serial stub that returns 1. */
#define REPRO_NATIVE_ABI 7

#if defined(_WIN32)
#define EXPORT __declspec(dllexport)
#else
#define EXPORT __attribute__((visibility("default")))
#endif

/* Op codes, mirroring repro.sim.compiled. */
enum {
    OP_AND = 0,
    OP_NAND = 1,
    OP_OR = 2,
    OP_NOR = 3,
    OP_NOT = 4,
    OP_BUF = 5,
    OP_XOR = 6,
    OP_XNOR = 7,
};

EXPORT int64_t repro_abi_version(void) { return REPRO_NATIVE_ABI; }

/* ------------------------------------------------------------------ */
/* Generic n-ary fold over gathered (and possibly patched) input rails, */
/* restricted to the word span [w0, w1).                                */
/* ------------------------------------------------------------------ */
static void fold_gate(
    int32_t code,
    int64_t arity,
    int64_t words,
    int64_t w0,
    int64_t w1,
    const uint64_t *scratch, /* (2 * arity, words): H rail 2k, L rail 2k+1 */
    uint64_t *out_h,
    uint64_t *out_l)
{
    int64_t w, k;
    switch (code) {
    case OP_AND:
    case OP_NAND:
        for (w = w0; w < w1; w++) {
            uint64_t h = ~(uint64_t)0;
            uint64_t l = 0;
            for (k = 0; k < arity; k++) {
                h &= scratch[(2 * k) * words + w];
                l |= scratch[(2 * k + 1) * words + w];
            }
            if (code == OP_NAND) {
                out_h[w] = l;
                out_l[w] = h;
            } else {
                out_h[w] = h;
                out_l[w] = l;
            }
        }
        break;
    case OP_OR:
    case OP_NOR:
        for (w = w0; w < w1; w++) {
            uint64_t h = 0;
            uint64_t l = ~(uint64_t)0;
            for (k = 0; k < arity; k++) {
                h |= scratch[(2 * k) * words + w];
                l &= scratch[(2 * k + 1) * words + w];
            }
            if (code == OP_NOR) {
                out_h[w] = l;
                out_l[w] = h;
            } else {
                out_h[w] = h;
                out_l[w] = l;
            }
        }
        break;
    case OP_NOT:
        for (w = w0; w < w1; w++) {
            out_h[w] = scratch[words + w];
            out_l[w] = scratch[w];
        }
        break;
    case OP_BUF:
        for (w = w0; w < w1; w++) {
            out_h[w] = scratch[w];
            out_l[w] = scratch[words + w];
        }
        break;
    default: /* OP_XOR / OP_XNOR */
        for (w = w0; w < w1; w++) {
            uint64_t h = scratch[w];
            uint64_t l = scratch[words + w];
            for (k = 1; k < arity; k++) {
                uint64_t hk = scratch[(2 * k) * words + w];
                uint64_t lk = scratch[(2 * k + 1) * words + w];
                uint64_t nh = (h & lk) | (l & hk);
                l = (h & hk) | (l & lk);
                h = nh;
            }
            if (code == OP_XNOR) {
                out_h[w] = l;
                out_l[w] = h;
            } else {
                out_h[w] = h;
                out_l[w] = l;
            }
        }
        break;
    }
}

/* ------------------------------------------------------------------ */
/* Combinational evaluation over the full compiled op list, restricted */
/* to the word span [w0, w1).                                          */
/*                                                                      */
/* Static arrays (per backend):                                         */
/*   codes[num_ops]              op codes                               */
/*   outs[num_ops]               output signal index per op             */
/*   in_off[num_ops + 1]         offsets into ins                       */
/*   ins[...]                    flattened input signal indices         */
/* Program arrays (per fault batch, sorted by op position):             */
/*   pin_ops/pin_pins[n_pin]     faulted (op, pin) sites                */
/*   pin_sa1/pin_sa0             (n_pin, words) force-1 / force-0 masks */
/*   stem_ops[n_stem]            ops whose output stem is faulted       */
/*   stem_sa1/stem_sa0           (n_stem, words) masks                  */
/* scratch: (2 * max_arity, words) gather buffer for patched gates.     */
/* ------------------------------------------------------------------ */
static void eval_ops(
    uint64_t *V,
    int64_t words,
    int64_t w0,
    int64_t w1,
    const int32_t *codes,
    const int32_t *outs,
    const int64_t *in_off,
    const int32_t *ins,
    int64_t num_ops,
    const int32_t *pin_ops,
    const int32_t *pin_pins,
    const uint64_t *pin_sa1,
    const uint64_t *pin_sa0,
    int64_t n_pin,
    const int32_t *stem_ops,
    const uint64_t *stem_sa1,
    const uint64_t *stem_sa0,
    int64_t n_stem,
    uint64_t *scratch)
{
    const size_t span_bytes = (size_t)(w1 - w0) * sizeof(uint64_t);
    int64_t pc = 0;   /* cursor into the pin-patch arrays */
    int64_t sc = 0;   /* cursor into the stem-patch arrays */
    int64_t op, w, k;
    for (op = 0; op < num_ops; op++) {
        const int32_t code = codes[op];
        const int64_t base = in_off[op];
        const int64_t arity = in_off[op + 1] - base;
        uint64_t *out_h = V + (uint64_t)(2 * outs[op]) * words;
        uint64_t *out_l = out_h + words;

        if (pc < n_pin && pin_ops[pc] == op) {
            /* Patched gate: gather every input rail pair into scratch,
             * apply each (pin, sa1, sa0) patch of this op, then fold
             * generically — the reference kernel's exact order. */
            for (k = 0; k < arity; k++) {
                const uint64_t *src =
                    V + (uint64_t)(2 * ins[base + k]) * words;
                memcpy(scratch + (2 * k) * words + w0, src + w0, span_bytes);
                memcpy(scratch + (2 * k + 1) * words + w0, src + words + w0,
                       span_bytes);
            }
            for (; pc < n_pin && pin_ops[pc] == op; pc++) {
                uint64_t *h = scratch + (2 * (int64_t)pin_pins[pc]) * words;
                uint64_t *l = h + words;
                const uint64_t *sa1 = pin_sa1 + pc * words;
                const uint64_t *sa0 = pin_sa0 + pc * words;
                for (w = w0; w < w1; w++) {
                    h[w] = (h[w] | sa1[w]) & ~sa0[w];
                    l[w] = (l[w] | sa0[w]) & ~sa1[w];
                }
            }
            fold_gate(code, arity, words, w0, w1, scratch, out_h, out_l);
        } else {
            switch (code) {
            case OP_AND:
            case OP_NAND:
            case OP_OR:
            case OP_NOR:
                if (arity == 2) {
                    const uint64_t *a =
                        V + (uint64_t)(2 * ins[base]) * words;
                    const uint64_t *b =
                        V + (uint64_t)(2 * ins[base + 1]) * words;
                    if (code == OP_AND) {
                        for (w = w0; w < w1; w++) {
                            out_h[w] = a[w] & b[w];
                            out_l[w] = a[words + w] | b[words + w];
                        }
                    } else if (code == OP_NAND) {
                        for (w = w0; w < w1; w++) {
                            out_h[w] = a[words + w] | b[words + w];
                            out_l[w] = a[w] & b[w];
                        }
                    } else if (code == OP_OR) {
                        for (w = w0; w < w1; w++) {
                            out_h[w] = a[w] | b[w];
                            out_l[w] = a[words + w] & b[words + w];
                        }
                    } else { /* OP_NOR */
                        for (w = w0; w < w1; w++) {
                            out_h[w] = a[words + w] & b[words + w];
                            out_l[w] = a[w] | b[w];
                        }
                    }
                } else {
                    const int and_like = (code == OP_AND || code == OP_NAND);
                    for (w = w0; w < w1; w++) {
                        uint64_t acc_and = ~(uint64_t)0;
                        uint64_t acc_or = 0;
                        for (k = 0; k < arity; k++) {
                            const uint64_t *src =
                                V + (uint64_t)(2 * ins[base + k]) * words;
                            if (and_like) {
                                acc_and &= src[w];
                                acc_or |= src[words + w];
                            } else {
                                acc_or |= src[w];
                                acc_and &= src[words + w];
                            }
                        }
                        /* and_like: AND over H rails / OR over L rails;
                         * or_like the converse; output routing per the
                         * De Morgan table. */
                        if (code == OP_AND) {
                            out_h[w] = acc_and;
                            out_l[w] = acc_or;
                        } else if (code == OP_NAND) {
                            out_h[w] = acc_or;
                            out_l[w] = acc_and;
                        } else if (code == OP_OR) {
                            out_h[w] = acc_or;
                            out_l[w] = acc_and;
                        } else { /* OP_NOR */
                            out_h[w] = acc_and;
                            out_l[w] = acc_or;
                        }
                    }
                }
                break;
            case OP_NOT: {
                const uint64_t *src = V + (uint64_t)(2 * ins[base]) * words;
                for (w = w0; w < w1; w++) {
                    out_h[w] = src[words + w];
                    out_l[w] = src[w];
                }
                break;
            }
            case OP_BUF: {
                const uint64_t *src = V + (uint64_t)(2 * ins[base]) * words;
                for (w = w0; w < w1; w++) {
                    out_h[w] = src[w];
                    out_l[w] = src[words + w];
                }
                break;
            }
            default: { /* OP_XOR / OP_XNOR */
                const uint64_t *first =
                    V + (uint64_t)(2 * ins[base]) * words;
                for (w = w0; w < w1; w++) {
                    uint64_t h = first[w];
                    uint64_t l = first[words + w];
                    for (k = 1; k < arity; k++) {
                        const uint64_t *src =
                            V + (uint64_t)(2 * ins[base + k]) * words;
                        uint64_t hk = src[w];
                        uint64_t lk = src[words + w];
                        uint64_t nh = (h & lk) | (l & hk);
                        l = (h & hk) | (l & lk);
                        h = nh;
                    }
                    if (code == OP_XNOR) {
                        out_h[w] = l;
                        out_l[w] = h;
                    } else {
                        out_h[w] = h;
                        out_l[w] = l;
                    }
                }
                break;
            }
            }
        }

        if (sc < n_stem && stem_ops[sc] == op) {
            const uint64_t *sa1 = stem_sa1 + sc * words;
            const uint64_t *sa0 = stem_sa0 + sc * words;
            for (w = w0; w < w1; w++) {
                out_h[w] = (out_h[w] | sa1[w]) & ~sa0[w];
                out_l[w] = (out_l[w] | sa0[w]) & ~sa1[w];
            }
            sc++;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Fault-axis detection: slots whose (patched) PO response contradicts  */
/* the fault-free machine's recorded binary value.                      */
/*                                                                      */
/*   obs_pos[n_obs]      PO positions binary in the good machine now    */
/*   good_vals[n_obs]    the good machine's value (0 or 1) per row      */
/*   po_sig[num_pos]     signal index of each PO position               */
/*   po_sa1/po_sa0       dense (num_pos, words) pin-patch masks         */
/*   out[words]          |= detected slots (caller zeroes)              */
/* ------------------------------------------------------------------ */
static void detect_mask_span(
    const uint64_t *V,
    int64_t words,
    int64_t w0,
    int64_t w1,
    const int32_t *obs_pos,
    const uint8_t *good_vals,
    int64_t n_obs,
    const int32_t *po_sig,
    const uint64_t *po_sa1,
    const uint64_t *po_sa0,
    uint64_t *out)
{
    int64_t i, w;
    for (i = 0; i < n_obs; i++) {
        const int32_t position = obs_pos[i];
        const uint64_t *rail =
            V + (uint64_t)(2 * po_sig[position]) * words;
        const uint64_t *sa1 = po_sa1 + (int64_t)position * words;
        const uint64_t *sa0 = po_sa0 + (int64_t)position * words;
        if (good_vals[i]) {
            /* good value 1: a slot contradicts when its L rail is set. */
            const uint64_t *l = rail + words;
            for (w = w0; w < w1; w++)
                out[w] |= (l[w] | sa0[w]) & ~sa1[w];
        } else {
            for (w = w0; w < w1; w++)
                out[w] |= (rail[w] | sa1[w]) & ~sa0[w];
        }
    }
}

EXPORT void repro_detect_mask(
    const uint64_t *V,
    int64_t words,
    const int32_t *obs_pos,
    const uint8_t *good_vals,
    int64_t n_obs,
    const int32_t *po_sig,
    const uint64_t *po_sa1,
    const uint64_t *po_sa0,
    uint64_t *out)
{
    detect_mask_span(V, words, 0, words, obs_pos, good_vals, n_obs, po_sig,
                     po_sa1, po_sa0, out);
}

/* ------------------------------------------------------------------ */
/* Paired-batch detection: slot s detects when some PO is binary in     */
/* both machines with opposite values — (Hg & Lf) | (Lg & Hf), OR-      */
/* reduced across POs.  Patches are the two programs' dense PO masks.   */
/* ------------------------------------------------------------------ */
static void detect_step_span(
    const uint64_t *GV,
    const uint64_t *FV,
    int64_t words,
    int64_t w0,
    int64_t w1,
    const int32_t *po_sig,
    int64_t num_pos,
    const uint64_t *g_sa1,
    const uint64_t *g_sa0,
    const uint64_t *f_sa1,
    const uint64_t *f_sa0,
    uint64_t *out)
{
    int64_t position, w;
    for (position = 0; position < num_pos; position++) {
        const uint64_t *g = GV + (uint64_t)(2 * po_sig[position]) * words;
        const uint64_t *f = FV + (uint64_t)(2 * po_sig[position]) * words;
        const uint64_t *gs1 = g_sa1 + position * words;
        const uint64_t *gs0 = g_sa0 + position * words;
        const uint64_t *fs1 = f_sa1 + position * words;
        const uint64_t *fs0 = f_sa0 + position * words;
        for (w = w0; w < w1; w++) {
            const uint64_t gh = (g[w] | gs1[w]) & ~gs0[w];
            const uint64_t gl = (g[words + w] | gs0[w]) & ~gs1[w];
            const uint64_t fh = (f[w] | fs1[w]) & ~fs0[w];
            const uint64_t fl = (f[words + w] | fs0[w]) & ~fs1[w];
            out[w] |= (gh & fl) | (gl & fh);
        }
    }
}

static int ctz64(uint64_t x)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(x);
#else
    int n = 0;
    while (!(x & 1)) {
        x >>= 1;
        n++;
    }
    return n;
#endif
}

/* The kernel runs every call on the calling thread; kept for callers */
/* that check no thread pool was started (always 1).                  */
EXPORT int64_t repro_thread_pool_size(void) { return 1; }

EXPORT void repro_eval(
    uint64_t *V,
    int64_t words,
    const int32_t *codes,
    const int32_t *outs,
    const int64_t *in_off,
    const int32_t *ins,
    int64_t num_ops,
    const int32_t *pin_ops,
    const int32_t *pin_pins,
    const uint64_t *pin_sa1,
    const uint64_t *pin_sa0,
    int64_t n_pin,
    const int32_t *stem_ops,
    const uint64_t *stem_sa1,
    const uint64_t *stem_sa0,
    int64_t n_stem,
    uint64_t *scratch)
{
    eval_ops(V, words, 0, words, codes, outs, in_off, ins, num_ops,
             pin_ops, pin_pins, pin_sa1, pin_sa0, n_pin, stem_ops,
             stem_sa1, stem_sa0, n_stem, scratch);
}

EXPORT void repro_detect_step(
    const uint64_t *GV,
    const uint64_t *FV,
    int64_t words,
    const int32_t *po_sig,
    int64_t num_pos,
    const uint64_t *g_sa1,
    const uint64_t *g_sa0,
    const uint64_t *f_sa1,
    const uint64_t *f_sa0,
    uint64_t *out)
{
    detect_step_span(GV, FV, words, 0, words, po_sig, num_pos, g_sa1,
                     g_sa0, f_sa1, f_sa0, out);
}

/* ------------------------------------------------------------------ */
/* Whole-sequence fused scan: input load, good/faulty eval, flop latch, */
/* detect reduction and first-hit early exit for num_steps time steps   */
/* in one call (the Python driver's per-step loop, moved inside the     */
/* GIL-released kernel).  Two modes share the walk:                     */
/*                                                                      */
/*   paired (GV != NULL): good and faulty machines run side by side     */
/*     over derived candidates; detection is the repro_detect_step      */
/*     reduction over all POs.                                          */
/*   fault axis (GV == NULL): the single faulty batch runs over         */
/*     broadcast stimulus bits (stim_bits); detection compares the      */
/*     recorded good-machine observation rows (repro_detect_mask        */
/*     semantics).                                                      */
/*                                                                      */
/* Derived candidates (ABI 6): slot s is expand(base[K[:low] +          */
/* range(a, b) + K[high:]]) for (low, high, a, b) = desc[4s .. 4s+3],   */
/* with base the (base_len, num_pis) bit matrix, K the sorted kept      */
/* array of n_kept positions and the expansion given by hold, reps and  */
/* x_ops (X_COMPLEMENT | X_SHIFT | X_REVERSE).  Explicit candidate      */
/* lists are the special case of concatenated sequences with an empty   */
/* K and the identity expansion.  Each step the kernel maps expanded    */
/* time to (base index, complement, shift) exactly as                   */
/* repro.core.ops.expand orders its stages and writes every live slot's */
/* input bits itself (dead slots read X).  A slot is alive while t is   */
/* below its expanded length: the kernel clears its pending bit when    */
/* its candidate ends, so a slot is live exactly while it is pending.   */
/*                                                                      */
/* pending ((words), in/out: the slots still to be resolved), the flop  */
/* state arrays ((num_flops, words) H and L per machine, in/out) and    */
/* times ((words * 64), -1 = undetected, in/out) are caller-owned.  The */
/* early-exit contract matches the reference loop exactly: the scan     */
/* stops when no slot is live or every slot detected, skipping the      */
/* stopping step's state latch; with collect_finals it never stops      */
/* early and latches every step.  Returns the number of steps entered.  */
/*                                                                      */
/* first_hit (ABI 6, paired mode): once slot s detects, pending slots   */
/* above s are dropped — only the lowest detecting slot matters to the  */
/* caller, which reads times up to and including it and treats every    */
/* later slot as undetected.                                            */
/*                                                                      */
/* Paired scans without collect_finals hand no state back, so the scan */
/* narrows its word range to the words that still hold a live slot (a  */
/* drained word never turns live again).                                */
/*                                                                      */
/* Flop divergence (paired mode, ABI 5): div_max / div_final / div_area */
/* ((words * 64) each, in/out; all three set, or all NULL = off)        */
/* accumulate, after each step's flop latch (faulty flop patches        */
/* applied), the number of flops where (Hg & Lf) | (Lg & Hf) holds, for */
/* every slot live at that step (alive and not detected before it):     */
/* the running max, the last live step's count and the sum.  With them  */
/* on, the all-detected exit moves after the latch so the detecting     */
/* step is counted too.                                                 */
/* ------------------------------------------------------------------ */

enum { X_COMPLEMENT = 1, X_SHIFT = 2, X_REVERSE = 4 };

typedef struct {
    uint64_t *GV;
    uint64_t *FV;
    int64_t words;
    const int32_t *codes;
    const int32_t *outs;
    const int64_t *in_off;
    const int32_t *ins;
    int64_t num_ops;
    const int32_t *pin_ops;
    const int32_t *pin_pins;
    const uint64_t *pin_sa1;
    const uint64_t *pin_sa0;
    int64_t n_pin;
    const int32_t *stem_ops;
    const uint64_t *stem_sa1;
    const uint64_t *stem_sa0;
    int64_t n_stem;
    uint64_t *scratch;
    const int32_t *src_rows;
    const uint64_t *src_force;
    const uint64_t *src_keep;
    int64_t n_src;
    const int32_t *pi_sig;
    int64_t num_pis;
    const int32_t *q_sig;
    const int32_t *d_sig;
    int64_t num_flops;
    const int32_t *dff_pos;
    const uint64_t *dff_force_h;
    const uint64_t *dff_keep_h;
    const uint64_t *dff_force_l;
    const uint64_t *dff_keep_l;
    int64_t n_dff;
    uint64_t *g_sh;
    uint64_t *g_sl;
    uint64_t *f_sh;
    uint64_t *f_sl;
    const uint8_t *stim_bits;
    /* Derived-candidate stimulus (desc != NULL; see above). */
    const uint8_t *base;
    const int32_t *kept;
    int64_t n_kept;
    const int32_t *desc;
    int64_t hold;
    int64_t reps;
    int64_t x_ops;
    int64_t x_mult; /* expanded length per index-list entry */
    int64_t num_steps;
    const int32_t *po_sig;
    int64_t num_pos;
    const uint64_t *g_po_sa1;
    const uint64_t *g_po_sa0;
    const uint64_t *f_po_sa1;
    const uint64_t *f_po_sa0;
    const int64_t *obs_off;
    const int32_t *obs_pos;
    const uint8_t *obs_vals;
    uint64_t *pending;
    int64_t *times;
    uint64_t *det;
    int64_t collect_finals;
    int64_t first_hit;
    /* Internal (set only by repro_trace): when non-NULL, every step      */
    /* writes slot 0's Ternary code per PO (0 = ZERO, 1 = ONE, 2 = X, as  */
    /* repro.logic.values.Ternary) to row s of this (num_steps, num_pos)  */
    /* array, right after that step's eval.                               */
    uint8_t *po_trace;
    /* Per-slot flop-divergence outputs (see above); all or none. */
    int64_t *div_max;
    int64_t *div_final;
    int64_t *div_area;
} ScanArgs;

/* Index-list length of derived slot d: K[:low] + range(a, b) + K[high:]. */
static int64_t derived_count(const ScanArgs *a, const int32_t *d)
{
    return (int64_t)d[0] + (d[3] - d[2]) + (a->n_kept - d[1]);
}

/* Clear the pending bit of every derived slot of [w0, w1) whose         */
/* expanded candidate ends before step t.                                */
static void expire_derived(const ScanArgs *a, int64_t t, int64_t w0,
                           int64_t w1)
{
    int64_t w;
    for (w = w0; w < w1; w++) {
        uint64_t rest;
        for (rest = a->pending[w]; rest; rest &= rest - 1) {
            const int b = ctz64(rest);
            const int32_t *d = a->desc + 4 * (w * 64 + b);
            if (t >= derived_count(a, d) * a->x_mult)
                a->pending[w] &= ~((uint64_t)1 << b);
        }
    }
}

/* Write step t's inputs of every pending derived slot of [w0, w1) into */
/* the faulty machine's PI rails (other slots read X), then copy them   */
/* into the good machine's.  The time map unwinds expand's stages from  */
/* the outermost: reversal mirrors the second half, shift and           */
/* complementation each toggle their transform in their second half,   */
/* repetition tiles and hold repeats each index-list entry.             */
static void load_derived(const ScanArgs *a, int64_t t, int64_t w0, int64_t w1)
{
    const int64_t words = a->words;
    const int64_t num_pis = a->num_pis;
    const size_t span_bytes = (size_t)(w1 - w0) * sizeof(uint64_t);
    int64_t w, p;
    for (p = 0; p < num_pis; p++) {
        uint64_t *h = a->FV + (uint64_t)(2 * a->pi_sig[p]) * words;
        memset(h + w0, 0, span_bytes);
        memset(h + words + w0, 0, span_bytes);
    }
    for (w = w0; w < w1; w++) {
        uint64_t rest;
        for (rest = a->pending[w]; rest; rest &= rest - 1) {
            const int b = ctz64(rest);
            const uint64_t bit = (uint64_t)1 << b;
            const int32_t *d = a->desc + 4 * (w * 64 + b);
            const int64_t count = derived_count(a, d);
            const int64_t run = (int64_t)d[3] - d[2];
            int64_t len = count * a->x_mult;
            int64_t u = t, pos, index;
            uint8_t flip = 0;
            int shift = 0;
            const uint8_t *row;
            if (a->x_ops & X_REVERSE) {
                len /= 2;
                if (u >= len)
                    u = 2 * len - 1 - u;
            }
            if (a->x_ops & X_SHIFT) {
                len /= 2;
                if (u >= len) {
                    u -= len;
                    shift = 1;
                }
            }
            if (a->x_ops & X_COMPLEMENT) {
                len /= 2;
                if (u >= len) {
                    u -= len;
                    flip = 1;
                }
            }
            pos = (u % (count * a->hold)) / a->hold;
            if (pos < d[0])
                index = a->kept[pos];
            else if (pos - d[0] < run)
                index = d[2] + (pos - d[0]);
            else
                index = a->kept[d[1] + (pos - d[0] - run)];
            row = a->base + index * num_pis;
            for (p = 0; p < num_pis; p++) {
                /* Circular left shift: PI p reads base column p + 1. */
                const int64_t column =
                    shift ? (p + 1 < num_pis ? p + 1 : 0) : p;
                uint64_t *h = a->FV + (uint64_t)(2 * a->pi_sig[p]) * words;
                if (row[column] ^ flip)
                    h[w] |= bit;
                else
                    h[words + w] |= bit;
            }
        }
    }
    for (p = 0; p < num_pis; p++) {
        const uint64_t *h = a->FV + (uint64_t)(2 * a->pi_sig[p]) * words;
        uint64_t *gh = a->GV + (uint64_t)(2 * a->pi_sig[p]) * words;
        memcpy(gh + w0, h + w0, span_bytes);
        memcpy(gh + words + w0, h + words + w0, span_bytes);
    }
}

/* Add one step's flop divergence to every live slot of [w0, w1); live  */
/* is the step's per-word live mask.                                    */
static void accumulate_divergence(const ScanArgs *a, const uint64_t *live,
                                  int64_t w0, int64_t w1)
{
    const int64_t words = a->words;
    int64_t w, f;
    for (w = w0; w < w1; w++) {
        int64_t counts[64];
        uint64_t rest;
        if (!live[w])
            continue;
        memset(counts, 0, sizeof(counts));
        for (f = 0; f < a->num_flops; f++) {
            const int64_t i = f * words + w;
            uint64_t x =
                ((a->g_sh[i] & a->f_sl[i]) | (a->g_sl[i] & a->f_sh[i])) &
                live[w];
            while (x) {
                counts[ctz64(x)]++;
                x &= x - 1;
            }
        }
        for (rest = live[w]; rest; rest &= rest - 1) {
            const int b = ctz64(rest);
            const int64_t slot = w * 64 + b;
            const int64_t count = counts[b];
            if (count > a->div_max[slot])
                a->div_max[slot] = count;
            a->div_final[slot] = count;
            a->div_area[slot] += count;
        }
    }
}

static int64_t scan_words(const ScanArgs *a)
{
    const int64_t words = a->words;
    int64_t w0 = 0, w1 = words;
    const int divergence = a->GV && a->div_area;
    const int narrow = a->GV && !a->collect_finals;
    int64_t t, w, p, f, i;
    int64_t executed = 0;
    for (t = 0; t < a->num_steps; t++) {
        size_t span_bytes;

        if (a->desc)
            expire_derived(a, t, w0, w1);
        uint64_t any = 0;
        for (w = w0; w < w1; w++)
            any |= a->pending[w];
        if (!any && !a->collect_finals)
            return executed; /* live drained: nothing detects later */
        executed++;
        if (narrow) {
            while (!a->pending[w0])
                w0++;
            while (!a->pending[w1 - 1])
                w1--;
        }
        span_bytes = (size_t)(w1 - w0) * sizeof(uint64_t);

        /* Load this step's primary inputs. */
        if (a->desc) {
            load_derived(a, t, w0, w1);
        } else {
            const uint8_t *bits = a->stim_bits + t * a->num_pis;
            for (p = 0; p < a->num_pis; p++) {
                uint64_t *h = a->FV + (uint64_t)(2 * a->pi_sig[p]) * words;
                const uint64_t hv = bits[p] ? ~(uint64_t)0 : 0;
                for (w = w0; w < w1; w++) {
                    h[w] = hv;
                    h[words + w] = ~hv;
                }
            }
        }

        /* Load the current flop state into the flop-output signals. */
        for (f = 0; f < a->num_flops; f++) {
            uint64_t *q = a->FV + (uint64_t)(2 * a->q_sig[f]) * words;
            memcpy(q + w0, a->f_sh + f * words + w0, span_bytes);
            memcpy(q + words + w0, a->f_sl + f * words + w0, span_bytes);
            if (a->GV) {
                uint64_t *gq = a->GV + (uint64_t)(2 * a->q_sig[f]) * words;
                memcpy(gq + w0, a->g_sh + f * words + w0, span_bytes);
                memcpy(gq + words + w0, a->g_sl + f * words + w0,
                       span_bytes);
            }
        }

        /* Faulty source patches (stuck PI / flop-output stems). */
        for (i = 0; i < a->n_src; i++) {
            uint64_t *row = a->FV + (uint64_t)a->src_rows[i] * words;
            const uint64_t *force = a->src_force + i * words;
            const uint64_t *keep = a->src_keep + i * words;
            for (w = w0; w < w1; w++)
                row[w] = (row[w] | force[w]) & keep[w];
        }

        /* Evaluate: good has no patches, faulty carries the program's. */
        if (a->GV)
            eval_ops(a->GV, words, w0, w1, a->codes, a->outs, a->in_off,
                     a->ins, a->num_ops, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                     a->scratch);
        eval_ops(a->FV, words, w0, w1, a->codes, a->outs, a->in_off,
                 a->ins, a->num_ops, a->pin_ops, a->pin_pins, a->pin_sa1,
                 a->pin_sa0, a->n_pin, a->stem_ops, a->stem_sa1,
                 a->stem_sa0, a->n_stem, a->scratch);

        if (a->po_trace) {
            uint8_t *row = a->po_trace + t * a->num_pos;
            for (p = 0; p < a->num_pos; p++) {
                const uint64_t *rail =
                    a->FV + (uint64_t)(2 * a->po_sig[p]) * words;
                row[p] = (rail[0] & 1) ? 1 : (rail[words] & 1) ? 0 : 2;
            }
        }

        /* Detect (a fault-free trace has no observation rows). */
        for (w = w0; w < w1; w++)
            a->det[w] = 0;
        if (a->GV)
            detect_step_span(a->GV, a->FV, words, w0, w1, a->po_sig,
                             a->num_pos, a->g_po_sa1, a->g_po_sa0,
                             a->f_po_sa1, a->f_po_sa0, a->det);
        else if (a->obs_off)
            detect_mask_span(a->FV, words, w0, w1,
                             a->obs_pos + a->obs_off[t],
                             a->obs_vals + a->obs_off[t],
                             a->obs_off[t + 1] - a->obs_off[t], a->po_sig,
                             a->f_po_sa1, a->f_po_sa0, a->det);

        int64_t lowest = -1; /* lowest slot detecting at this step */
        for (w = w0; w < w1; w++) {
            const uint64_t live = a->pending[w];
            uint64_t d = a->det[w] & live;
            if (d && lowest < 0)
                lowest = w * 64 + ctz64(d);
            a->pending[w] &= ~d;
            while (d) {
                const int b = ctz64(d);
                a->times[w * 64 + b] = t;
                d &= d - 1;
            }
            a->det[w] = live; /* det is spent: park the step's live mask */
        }
        if (a->first_hit && lowest >= 0) {
            /* Keep only the slots below the lowest detecting one. */
            a->pending[lowest / 64] &= ((uint64_t)1 << (lowest % 64)) - 1;
            for (w = lowest / 64 + 1; w < w1; w++)
                a->pending[w] = 0;
        }
        uint64_t pend_any = 0;
        for (w = w0; w < w1; w++)
            pend_any |= a->pending[w];
        const int stop = !pend_any && !a->collect_finals;
        if (stop && !divergence)
            return executed; /* all detected; skip the state latch */

        /* Latch the flop D values as next state (faulty flop patches). */
        for (f = 0; f < a->num_flops; f++) {
            const uint64_t *d_rail =
                a->FV + (uint64_t)(2 * a->d_sig[f]) * words;
            memcpy(a->f_sh + f * words + w0, d_rail + w0, span_bytes);
            memcpy(a->f_sl + f * words + w0, d_rail + words + w0,
                   span_bytes);
            if (a->GV) {
                const uint64_t *gd =
                    a->GV + (uint64_t)(2 * a->d_sig[f]) * words;
                memcpy(a->g_sh + f * words + w0, gd + w0, span_bytes);
                memcpy(a->g_sl + f * words + w0, gd + words + w0,
                       span_bytes);
            }
        }
        for (i = 0; i < a->n_dff; i++) {
            const int64_t pos = a->dff_pos[i];
            uint64_t *h = a->f_sh + pos * words;
            uint64_t *l = a->f_sl + pos * words;
            const uint64_t *fh = a->dff_force_h + i * words;
            const uint64_t *kh = a->dff_keep_h + i * words;
            const uint64_t *fl = a->dff_force_l + i * words;
            const uint64_t *kl = a->dff_keep_l + i * words;
            for (w = w0; w < w1; w++) {
                h[w] = (h[w] | fh[w]) & kh[w];
                l[w] = (l[w] | fl[w]) & kl[w];
            }
        }
        if (divergence) {
            accumulate_divergence(a, a->det, w0, w1);
            if (stop)
                return executed; /* all detected, now counted */
        }
    }
    return executed;
}

/* Arguments come in three groups (ABI 6): the program prefix, fixed per */
/* compiled fault batch and circuit (the Python side builds it once per  */
/* program); the batch's machines; then the per-call stimulus, outputs   */
/* and modes.                                                            */
EXPORT int64_t repro_scan(
    /* --- program prefix ------------------------------------------- */
    const int32_t *codes,
    const int32_t *outs,
    const int64_t *in_off,
    const int32_t *ins,
    int64_t num_ops,
    const int32_t *pin_ops,
    const int32_t *pin_pins,
    const uint64_t *pin_sa1,
    const uint64_t *pin_sa0,
    int64_t n_pin,
    const int32_t *stem_ops,
    const uint64_t *stem_sa1,
    const uint64_t *stem_sa0,
    int64_t n_stem,
    const int32_t *src_rows,   /* faulty source patches: rail rows ...  */
    const uint64_t *src_force, /* ... (n_src, words) force masks        */
    const uint64_t *src_keep,  /* ... (n_src, words) keep masks         */
    int64_t n_src,
    const int32_t *pi_sig,
    int64_t num_pis,
    const int32_t *q_sig,
    const int32_t *d_sig,
    int64_t num_flops,
    const int32_t *dff_pos,      /* faulty flop patches: positions ...  */
    const uint64_t *dff_force_h, /* ... into the flop list, with        */
    const uint64_t *dff_keep_h,  /* ... (n_dff, words) force/keep       */
    const uint64_t *dff_force_l, /* ... masks per rail                  */
    const uint64_t *dff_keep_l,
    int64_t n_dff,
    const int32_t *po_sig,
    int64_t num_pos,
    const uint64_t *f_po_sa1, /* dense (num_pos, words) faulty PO masks */
    const uint64_t *f_po_sa0,
    /* --- batch ----------------------------------------------------- */
    uint64_t *GV, /* good machine rails; NULL on the fault axis         */
    uint64_t *FV,
    int64_t words,
    uint64_t *scratch,
    uint64_t *g_sh, /* good flop state (num_flops, words); NULL w/o GV  */
    uint64_t *g_sl,
    uint64_t *f_sh, /* faulty flop state (num_flops, words)             */
    uint64_t *f_sl,
    const uint64_t *g_po_sa1, /* dense (num_pos, words); NULL w/o GV    */
    const uint64_t *g_po_sa0,
    /* --- stimulus: bits (fault axis) or derived (paired) ------------ */
    const uint8_t *stim_bits,   /* (num_steps, num_pis) or NULL         */
    const uint8_t *base,        /* derived: (base_len, num_pis) bits    */
    const int32_t *kept,        /* ... sorted kept positions, n_kept    */
    int64_t n_kept,
    const int32_t *desc,        /* ... (slots, 4) low, high, a, b; or   */
    int64_t hold,               /* ... NULL; expansion: hold cycles,    */
    int64_t reps,               /* ... repetitions and X_* operators    */
    int64_t x_ops,
    int64_t num_steps,
    const int64_t *obs_off,   /* fault mode: per-step offsets into the  */
    const int32_t *obs_pos,   /* ... flattened observation position/    */
    const uint8_t *obs_vals,  /* ... value rows                         */
    /* --- outputs and modes ----------------------------------------- */
    uint64_t *pending,        /* (words), in/out                        */
    int64_t *times,           /* (words * 64), -1 = undetected, in/out  */
    uint64_t *det,            /* (words) detection scratch              */
    int64_t *div_max,         /* paired: (words * 64) per-slot flop     */
    int64_t *div_final,       /* ... divergence max / last / sum,       */
    int64_t *div_area,        /* ... in/out; all three NULL = off       */
    int64_t collect_finals,
    int64_t first_hit)
{
    int64_t x_mult = hold * reps;
    if (x_ops & X_COMPLEMENT)
        x_mult *= 2;
    if (x_ops & X_SHIFT)
        x_mult *= 2;
    if (x_ops & X_REVERSE)
        x_mult *= 2;
    ScanArgs args = {GV, FV, words, codes, outs, in_off, ins, num_ops,
                     pin_ops, pin_pins, pin_sa1, pin_sa0, n_pin,
                     stem_ops, stem_sa1, stem_sa0, n_stem, scratch,
                     src_rows, src_force, src_keep, n_src, pi_sig,
                     num_pis, q_sig, d_sig, num_flops, dff_pos,
                     dff_force_h, dff_keep_h, dff_force_l, dff_keep_l,
                     n_dff, g_sh, g_sl, f_sh, f_sl, stim_bits, base, kept,
                     n_kept, desc, hold, reps, x_ops, x_mult, num_steps,
                     po_sig, num_pos, g_po_sa1, g_po_sa0, f_po_sa1,
                     f_po_sa0, obs_off, obs_pos, obs_vals, pending, times,
                     det, collect_finals, first_hit, 0, div_max, div_final,
                     div_area};
    return scan_words(&args);
}

/* ------------------------------------------------------------------ */
/* Fault-free good-machine trace: one machine (slot 0 of a one-word     */
/* batch) over broadcast stimulus bits for num_steps steps, in a single */
/* GIL-released call.  This is scan_words over a fault-free ScanArgs    */
/* (no paired good machine, no patches, no observation rows,            */
/* collect_finals = 1) with po_trace set: the same op walk as every    */
/* scan, so the trace is bit-identical to the per-step reference loop   */
/* by construction.                                                     */
/*                                                                      */
/*   V           (2 * num_signals, 1) rails, overwritten                */
/*   s_h/s_l     (num_flops, 1) flop state, in/out (all-X == zeros)     */
/*   stim_bits   (num_steps, num_pis) input bits                        */
/*   po_trace    (num_steps, num_pos) Ternary codes per PO, out         */
/* ------------------------------------------------------------------ */
EXPORT void repro_trace(
    uint64_t *V,
    const int32_t *codes,
    const int32_t *outs,
    const int64_t *in_off,
    const int32_t *ins,
    int64_t num_ops,
    const int32_t *pi_sig,
    int64_t num_pis,
    const int32_t *q_sig,
    const int32_t *d_sig,
    int64_t num_flops,
    uint64_t *s_h,
    uint64_t *s_l,
    const uint8_t *stim_bits,
    int64_t num_steps,
    const int32_t *po_sig,
    int64_t num_pos,
    uint8_t *po_trace)
{
    uint64_t pending = 0, det = 0;
    const ScanArgs args = {
        .FV = V,
        .words = 1,
        .codes = codes,
        .outs = outs,
        .in_off = in_off,
        .ins = ins,
        .num_ops = num_ops,
        .pi_sig = pi_sig,
        .num_pis = num_pis,
        .q_sig = q_sig,
        .d_sig = d_sig,
        .num_flops = num_flops,
        .f_sh = s_h,
        .f_sl = s_l,
        .stim_bits = stim_bits,
        .num_steps = num_steps,
        .po_sig = po_sig,
        .num_pos = num_pos,
        .pending = &pending,
        .det = &det,
        .collect_finals = 1,
        .po_trace = po_trace,
    };
    scan_words(&args);
}
