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
 * compiled topological order; a gate with faulted input pins folds over
 * patched copies of those pins; stem patches mask the just-written
 * output rows.  Because the operation set and the evaluation order match
 * the reference exactly, detection times are bit-identical across
 * backends by construction.  repro_scan keeps the same order; on the
 * candidate axis it evaluates each faulty machine only where it differs
 * from the good machine it runs beside (see "Divergence walk" below).
 *
 * Reentrancy: the kernel keeps no global mutable state and allocates
 * nothing.  Every entry point reads the program arrays (op codes,
 * patches; repro_scan's ReproProgram and ReproCircuit) without writing
 * them and writes only the caller's memory: the batch arrays (V,
 * scratch, flop state) and, for repro_scan, one ReproScan context (its
 * rails, outputs and working memory).  Callers on different threads may
 * therefore run repro_eval / repro_scan / repro_trace at once on
 * distinct batches and contexts that share one program.  The Python
 * side parallelises that way: independent chunks of faults or
 * candidates, one GIL-released call each, each call on a context it
 * has checked out of a pool.
 *
 * Everything below is plain C11 with no dependencies beyond libc, so a
 * bare `cc -O3 -fPIC -shared` anywhere is enough; absence of a compiler
 * simply leaves the backend unregistered (see native_build).
 */

#include <stdint.h>
#include <stdlib.h>
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
 * repro_thread_pool_size as a serial stub that returns 1; v8 makes
 * repro_scan divergence-driven: the fault axis runs its own broadcast
 * good machine (good flop state in/out, no observation rows), paired
 * faulty machines evaluate only the ops that differ from their good
 * ones, every scan without collect_finals narrows to its live words,
 * repro_eval takes a fanin-pointer buffer, the scratch and detection
 * buffers become per-call working memory, num_signals joins the program
 * prefix and an ops out-argument reports the evaluated ops; v9 makes
 * repro_scan take two structs, the read-only ReproProgram (one fault
 * batch's patches and a pointer to the circuit's tables, the walk's
 * fanout lists among them, built once) and a reusable ReproScan context
 * that holds every buffer the call writes, including the former per-call
 * working memory; the kernel resets its outputs on entry and draws
 * stamps from the context's epoch, the fault axis's good state travels
 * as Ternary codes, and the good machine's PO patches are gone (it is
 * always fault-free). */
#define REPRO_NATIVE_ABI 9

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
/* Generic n-ary fold over per-fanin rail pointers (ph[k], pl[k]: the  */
/* H and L rails of input k), restricted to the word span [w0, w1).    */
/* ------------------------------------------------------------------ */
static void fold_gate(
    int32_t code,
    int64_t arity,
    int64_t w0,
    int64_t w1,
    const uint64_t *const *ph,
    const uint64_t *const *pl,
    uint64_t *out_h,
    uint64_t *out_l)
{
    int64_t w, k;
    const int inverted = code == OP_NAND || code == OP_NOR;
    uint64_t *const res_h = inverted ? out_l : out_h;
    uint64_t *const res_l = inverted ? out_h : out_l;
    switch (code) {
    case OP_AND:
    case OP_NAND:
        if (arity == 2) {
            const uint64_t *ah = ph[0], *al = pl[0], *bh = ph[1], *bl = pl[1];
            for (w = w0; w < w1; w++) {
                res_h[w] = ah[w] & bh[w];
                res_l[w] = al[w] | bl[w];
            }
            break;
        }
        for (w = w0; w < w1; w++) {
            uint64_t h = ~(uint64_t)0;
            uint64_t l = 0;
            for (k = 0; k < arity; k++) {
                h &= ph[k][w];
                l |= pl[k][w];
            }
            res_h[w] = h;
            res_l[w] = l;
        }
        break;
    case OP_OR:
    case OP_NOR:
        if (arity == 2) {
            const uint64_t *ah = ph[0], *al = pl[0], *bh = ph[1], *bl = pl[1];
            for (w = w0; w < w1; w++) {
                res_h[w] = ah[w] | bh[w];
                res_l[w] = al[w] & bl[w];
            }
            break;
        }
        for (w = w0; w < w1; w++) {
            uint64_t h = 0;
            uint64_t l = ~(uint64_t)0;
            for (k = 0; k < arity; k++) {
                h |= ph[k][w];
                l &= pl[k][w];
            }
            res_h[w] = h;
            res_l[w] = l;
        }
        break;
    case OP_NOT:
        for (w = w0; w < w1; w++) {
            out_h[w] = pl[0][w];
            out_l[w] = ph[0][w];
        }
        break;
    case OP_BUF:
        for (w = w0; w < w1; w++) {
            out_h[w] = ph[0][w];
            out_l[w] = pl[0][w];
        }
        break;
    default: /* OP_XOR / OP_XNOR */
        for (w = w0; w < w1; w++) {
            uint64_t h = ph[0][w];
            uint64_t l = pl[0][w];
            for (k = 1; k < arity; k++) {
                const uint64_t hk = ph[k][w];
                const uint64_t lk = pl[k][w];
                const uint64_t nh = (h & lk) | (l & hk);
                l = (h & hk) | (l & lk);
                h = nh;
            }
            out_h[w] = code == OP_XNOR ? l : h;
            out_l[w] = code == OP_XNOR ? h : l;
        }
        break;
    }
}

/* Force stuck values onto one rail pair: (h | sa1) & ~sa0, (l | sa0) &  */
/* ~sa1 over [w0, w1).  Reads each word before writing it, so h/l may    */
/* alias src_h/src_l.                                                    */
static void patch_rails(
    uint64_t *h,
    uint64_t *l,
    const uint64_t *src_h,
    const uint64_t *src_l,
    const uint64_t *sa1,
    const uint64_t *sa0,
    int64_t w0,
    int64_t w1)
{
    int64_t w;
    for (w = w0; w < w1; w++) {
        const uint64_t hv = src_h[w];
        const uint64_t lv = src_l[w];
        h[w] = (hv | sa1[w]) & ~sa0[w];
        l[w] = (lv | sa0[w]) & ~sa1[w];
    }
}

/* Redirect every faulted pin of op `op` (pin patches pc.. of the sorted */
/* arrays) to a patched copy in scratch ((2 * arity, words): pin k's     */
/* rails at rows 2k, 2k + 1) — the reference kernel's exact order.      */
/* Returns the advanced cursor.                                          */
static int64_t patch_pins(
    int64_t op,
    int64_t pc,
    const int32_t *pin_ops,
    const int32_t *pin_pins,
    const uint64_t *pin_sa1,
    const uint64_t *pin_sa0,
    int64_t n_pin,
    int64_t words,
    int64_t w0,
    int64_t w1,
    uint64_t *scratch,
    const uint64_t **ph,
    const uint64_t **pl)
{
    for (; pc < n_pin && pin_ops[pc] == op; pc++) {
        const int64_t k = pin_pins[pc];
        uint64_t *h = scratch + (2 * k) * words;
        uint64_t *l = h + words;
        patch_rails(h, l, ph[k], pl[k], pin_sa1 + pc * words,
                    pin_sa0 + pc * words, w0, w1);
        ph[k] = h;
        pl[k] = l;
    }
    return pc;
}

/* One op of a one-word machine M (rows one word wide): fold the rails */
/* of fanins in[0 .. arity) into out[0] (H) and out[1] (L).             */
static void fold_word(int32_t code, int64_t arity, const uint64_t *M,
                      const int32_t *in, uint64_t *out)
{
    uint64_t h = M[2 * in[0]], l = M[2 * in[0] + 1];
    int64_t k;
    switch (code) {
    case OP_AND:
    case OP_NAND:
        for (k = 1; k < arity; k++) {
            h &= M[2 * in[k]];
            l |= M[2 * in[k] + 1];
        }
        break;
    case OP_OR:
    case OP_NOR:
        for (k = 1; k < arity; k++) {
            h |= M[2 * in[k]];
            l &= M[2 * in[k] + 1];
        }
        break;
    case OP_NOT:
    case OP_BUF:
        break;
    default: /* OP_XOR / OP_XNOR */
        for (k = 1; k < arity; k++) {
            const uint64_t hk = M[2 * in[k]], lk = M[2 * in[k] + 1];
            const uint64_t nh = (h & lk) | (l & hk);
            l = (h & hk) | (l & lk);
            h = nh;
        }
        break;
    }
    if (code == OP_NAND || code == OP_NOR || code == OP_NOT || code == OP_XNOR) {
        out[0] = l;
        out[1] = h;
    } else {
        out[0] = h;
        out[1] = l;
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
/* scratch: (2 * max_arity, words) patched-pin buffer and ptrs: 2 *     */
/* max_arity fanin pointers, both read only by patched gates.           */
/* G (or NULL): a one-word machine with no patches — the fault axis's   */
/* broadcast good machine — evaluated alongside, op by op, so the walk  */
/* dispatches each op once for both machines.                           */
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
    uint64_t *scratch,
    const uint64_t **ptrs,
    uint64_t *G)
{
    int64_t pc = 0;   /* cursor into the pin-patch arrays */
    int64_t sc = 0;   /* cursor into the stem-patch arrays */
    int64_t op, w, k;
    for (op = 0; op < num_ops; op++) {
        const int32_t code = codes[op];
        const int64_t base = in_off[op];
        const int64_t arity = in_off[op + 1] - base;
        uint64_t *out_h = V + (uint64_t)(2 * outs[op]) * words;
        uint64_t *out_l = out_h + words;

        if (G)
            fold_word(code, arity, G, ins + base, G + 2 * outs[op]);

        if (pc < n_pin && pin_ops[pc] == op) {
            /* Patched gate: fold over the inputs with each faulted pin
             * replaced by its patched copy. */
            const uint64_t **ph = ptrs;
            const uint64_t **pl = ptrs + arity;
            for (k = 0; k < arity; k++) {
                ph[k] = V + (uint64_t)(2 * ins[base + k]) * words;
                pl[k] = ph[k] + words;
            }
            pc = patch_pins(op, pc, pin_ops, pin_pins, pin_sa1, pin_sa0,
                            n_pin, words, w0, w1, scratch, ph, pl);
            fold_gate(code, arity, w0, w1, ph, pl, out_h, out_l);
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
            patch_rails(out_h, out_l, out_h, out_l, stem_sa1 + sc * words,
                        stem_sa0 + sc * words, w0, w1);
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
            for (w = 0; w < words; w++)
                out[w] |= (l[w] | sa0[w]) & ~sa1[w];
        } else {
            for (w = 0; w < words; w++)
                out[w] |= (rail[w] | sa1[w]) & ~sa0[w];
        }
    }
}

/* ------------------------------------------------------------------ */
/* Paired-batch detection: slot s detects when some PO is binary in     */
/* both machines with opposite values — (Hg & Lf) | (Lg & Hf), OR-      */
/* reduced across POs.  Patches are the two programs' dense PO masks.   */
/* ------------------------------------------------------------------ */
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
    int64_t position, w;
    for (position = 0; position < num_pos; position++) {
        const uint64_t *g = GV + (uint64_t)(2 * po_sig[position]) * words;
        const uint64_t *f = FV + (uint64_t)(2 * po_sig[position]) * words;
        const uint64_t *gs1 = g_sa1 + position * words;
        const uint64_t *gs0 = g_sa0 + position * words;
        const uint64_t *fs1 = f_sa1 + position * words;
        const uint64_t *fs0 = f_sa0 + position * words;
        for (w = 0; w < words; w++) {
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

/* ptrs: 2 * max_arity fanin pointers (read by patched gates only). */
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
    uint64_t *scratch,
    const uint64_t **ptrs)
{
    eval_ops(V, words, 0, words, codes, outs, in_off, ins, num_ops,
             pin_ops, pin_pins, pin_sa1, pin_sa0, n_pin, stem_ops,
             stem_sa1, stem_sa0, n_stem, scratch, ptrs, 0);
}

/* ------------------------------------------------------------------ */
/* The scan's call structs (ABI 9).  repro_scan takes two pointers:     */
/*                                                                      */
/*   ReproProgram  read-only: one compiled fault batch at one width —   */
/*     its patch arrays — plus a pointer to the ReproCircuit, the       */
/*     circuit's tables.  The caller fills both once (per backend, per  */
/*     program) and shares them across calls and threads.              */
/*   ReproScan     one scan context: every buffer the call writes,      */
/*     fixed when the context is created and large enough for any call  */
/*     up to the width it was made for, then the per-call fields.  A    */
/*     context serves one call at a time.                               */
/*                                                                      */
/* Every field is a pointer or an int64_t, so the layout has no         */
/* padding; repro.sim.native_build mirrors it field for field.  Array   */
/* shapes are given in the comments; (2, n, w) flop states hold the H   */
/* rows, then the L rows.                                               */
/* ------------------------------------------------------------------ */

typedef struct {
    const int32_t *codes;  /* (num_ops) op codes                          */
    const int32_t *outs;   /* (num_ops) output signal of each op          */
    const int64_t *in_off; /* (num_ops + 1) offsets into ins              */
    const int32_t *ins;    /* flattened fanin signals                     */
    int64_t num_ops;
    const int32_t *iota;   /* 0, 1, 2, ... up to the largest fanin count: */
                           /* indexes vals                                */
    const int32_t *fo_off; /* (num_signals + 1) the ops reading each      */
    const int32_t *fo_ops; /* ... signal: fo_ops[fo_off[s] .. fo_off[s+1]) */
    const int32_t *pi_sig;
    int64_t num_pis;
    const int32_t *q_sig;  /* flop outputs                                */
    const int32_t *d_sig;  /* flop data inputs                            */
    int64_t num_flops;
    const int32_t *po_sig;
    int64_t num_pos;
} ReproCircuit;

typedef struct {
    const ReproCircuit *circuit;
    int64_t words;
    const int32_t *pin_ops;      /* gate-pin patches, sorted by op:     */
    const int32_t *pin_pins;     /* ... (op, pin) sites with            */
    const uint64_t *pin_sa1;     /* ... (n_pin, words) force-1 and      */
    const uint64_t *pin_sa0;     /* ... force-0 masks                   */
    int64_t n_pin;
    const int32_t *stem_ops;     /* gate-output stem patches, sorted    */
    const uint64_t *stem_sa1;    /* ... (n_stem, words) masks           */
    const uint64_t *stem_sa0;
    int64_t n_stem;
    const int32_t *src_rows;     /* source patches: rail rows with      */
    const uint64_t *src_force;   /* ... (n_src, words) force and keep   */
    const uint64_t *src_keep;    /* ... masks                           */
    int64_t n_src;
    const int32_t *dff_pos;      /* flop patches: positions into the    */
    const uint64_t *dff_force_h; /* ... flop list, with (n_dff, words)  */
    const uint64_t *dff_keep_h;  /* ... force/keep masks per rail       */
    const uint64_t *dff_force_l;
    const uint64_t *dff_keep_l;
    int64_t n_dff;
    const uint64_t *po_sa1;      /* dense (num_pos, words) PO pin masks */
    const uint64_t *po_sa0;
} ReproProgram;

typedef struct {
    /* Buffers, fixed when the context is created and sized for its      */
    /* widest call; each is laid out by the call's `words`.              */
    uint64_t *GV;           /* (2 * num_signals, words) good rails        */
    uint64_t *FV;           /* (2 * num_signals, words) faulty rails      */
    uint64_t *good_state;   /* (2, num_flops) fault axis: the broadcast   */
                            /* good machine's flop words                  */
    uint8_t *good_final;    /* (num_flops) fault axis, out: its final     */
                            /* state as Ternary codes                     */
    uint64_t *alive;        /* (words) fault axis: the slots that may     */
                            /* detect, read when use_alive                */
    uint64_t *pending;      /* (words) the slots still to be resolved     */
    int64_t *times;         /* (words * 64) out: first detection, or -1   */
    int64_t *div;           /* (3, words * 64) out: per-slot flop         */
                            /* divergence max / final / area              */
    int64_t *stamp;         /* (num_signals) the (step, word) of each     */
                            /* signal's last divergence, as cur           */
    int64_t *op_step;       /* (num_ops) the last step each op counted    */
    int32_t *op_pin0;       /* (num_ops + 1) each op's pin-patch entries: */
                            /* op_pin0[op] .. op_pin0[op + 1] - 1         */
    int32_t *op_stem;       /* (num_ops) each op's stem-patch entry, -1   */
    uint64_t *fdirty;       /* (num_flops, ceil(words / 64)) words where  */
                            /* the flop's faulty state may differ from    */
                            /* good in a live slot                        */
    uint64_t *worklist;     /* (ceil(num_ops / 64)) ops to evaluate       */
    uint64_t *live;         /* (words) the step's live slots              */
    uint64_t *det;          /* (words) the step's detections              */
    uint64_t *vals;         /* (2 * max_arity) one word's fanin values    */
    uint64_t *scratch;      /* (2 * max_arity, words) patched pins        */
    const uint64_t **ptrs;  /* (2 * max_arity) fanin rail pointers        */
    int64_t epoch;          /* stamps issued so far: every call's stamps  */
                            /* exceed the earlier calls'                  */
    /* Per call, in. */
    int64_t words;          /* the batch width in 64-slot words           */
    int64_t num_steps;
    int64_t num_slots;      /* slots 0 .. num_slots - 1 take part         */
    uint64_t *f_state;      /* (2, num_flops, words) faulty flops, in/out */
    uint64_t *g_state;      /* paired: the good batch's, in/out           */
    const uint8_t *good_start; /* fault axis: (num_flops) start state as  */
                            /* Ternary codes (0 = ZERO, 1 = ONE, 2 = X),  */
                            /* or NULL for all-X                          */
    const uint8_t *stim_bits; /* fault axis: (num_steps, num_pis) bits    */
    const uint8_t *base;    /* paired: derived candidates, see below      */
    const int32_t *kept;
    int64_t n_kept;
    const int32_t *desc;    /* (num_slots, 4); NULL on the fault axis     */
    int64_t hold;
    int64_t reps;
    int64_t x_ops;
    int64_t use_alive;
    int64_t collect_finals;
    int64_t first_hit;
    int64_t divergence;     /* paired: fill div                           */
    /* Per call, out. */
    int64_t detected;       /* slots given a time                         */
    int64_t ops_faulty;     /* faulty ops evaluated (an op evaluated in   */
                            /* one or more words of a step counts once)   */
    int64_t ops_good;       /* good ops evaluated                         */
} ReproScan;

/* ------------------------------------------------------------------ */
/* Whole-sequence fused scan: input load, good/faulty eval, flop latch, */
/* detect reduction and first-hit early exit for num_steps time steps   */
/* in one call (the Python driver's per-step loop, moved inside the     */
/* GIL-released kernel).  A good machine always runs beside the faulty  */
/* batch; the two modes differ in its width, the stimulus and how the   */
/* faulty batch is evaluated:                                           */
/*                                                                      */
/*   paired (desc != NULL): good and faulty machines run side by side,  */
/*     slot for slot, over derived candidates; the good machine is as   */
/*     wide as the faulty one (its flop state g_state), and the faulty  */
/*     batch runs the divergence walk below.                            */
/*   fault axis (desc == NULL): every faulty slot sees the same         */
/*     stimulus bits (stim_bits), so the good machine is one broadcast  */
/*     word (its flop words 0 or ~0, started from good_start, its final */
/*     state written to good_final), and the faulty batch — one         */
/*     distinct fault per slot, so most ops carry a patch or a          */
/*     difference in some word — runs the whole op list over the live   */
/*     words, as repro_eval does.                                       */
/*                                                                      */
/* Both detect with the paired rule: slot s detects when some PO is     */
/* binary in both machines with opposite values, (Hg & Lf) | (Lg & Hf)  */
/* after the faulty side's PO patches (the good machine has none).      */
/*                                                                      */
/* Divergence walk (ABI 8, paired mode).  Every step evaluates the good */
/* machine over the whole op list, then the faulty machine only where   */
/* it differs, one live 64-slot word at a time, event-driven:           */
/* stamp[i] == cur (a value unique to the call, step and word) marks    */
/* signal i as diverged, its FV word then holding the faulty value; an  */
/* unstamped signal equals the good machine in every live slot of the   */
/* word.                                                                */
/*   - Seeds: flops whose faulty state differs from good in the word    */
/*     (fdirty), source patches (stuck PI / flop-output stems) acting   */
/*     in it, and ops with a pin or stem patch acting in it (a paired   */
/*     program repeats one fault, so it has one or two patches).        */
/*   - A diverged signal queues the ops that read it; queued ops run in */
/*     the compiled topological order (a bitmap over op positions), so  */
/*     an op reads its fanins' final values.  An op reads each fanin's  */
/*     FV word when stamped, else the good word; applies its pin        */
/*     patches, folds and applies its stem patch (the reference         */
/*     kernel's order); and diverges its output only if the result      */
/*     differs from the good value in a live slot.  Unqueued ops equal  */
/*     good by construction.                                            */
/*   - Detection visits only diverged or PO-patched outputs.  The latch */
/*     takes a diverged D and marks the flop dirty in the word if it    */
/*     differs from the good next state in a live slot; a clean flop's  */
/*     state array is stale in that word (it equals good).  Flop        */
/*     patches first materialize the good next state of a clean flop.   */
/* Over-marking is always safe (an evaluated op computes the exact      */
/* value); the walk never under-marks.  Live slots only shrink, so a    */
/* slot live now was live at every earlier step.  Slots that are not    */
/* live are not simulated faithfully: their final state is unspecified. */
/* With collect_finals every clean flop word takes the good state at    */
/* the end.                                                             */
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
/* Every call starts from its own inputs alone (ABI 9): on entry the    */
/* kernel sets pending to the first num_slots slots (and, with          */
/* use_alive, the alive words), times to -1, div to 0 and the counters  */
/* to 0, clears the walk's dirty and queued bits and rebuilds its       */
/* per-op patch tables; stamps come from the context's epoch, so no     */
/* value of an earlier call can match.                                  */
/* Rails are written before they are read within a call.  The flop     */
/* states are in/out.  The early-exit contract matches the reference    */
/* loop exactly: the scan stops when no slot is live or every slot      */
/* detected, skipping the stopping step's state latch; with             */
/* collect_finals it never stops early and latches every step.  Returns */
/* the number of steps entered, or -1 when the program and the context  */
/* differ in width.                                                     */
/*                                                                      */
/* first_hit (ABI 6, paired mode): once slot s detects, pending slots   */
/* above s are dropped — only the lowest detecting slot matters to the  */
/* caller, which reads times up to and including it and treats every    */
/* later slot as undetected.                                            */
/*                                                                      */
/* Scans without collect_finals hand no faulty state back, so the scan  */
/* narrows its word range to the words that still hold a live slot (a   */
/* drained word never turns live again); the broadcast good machine is  */
/* one word whatever the range.                                         */
/*                                                                      */
/* Flop divergence (paired mode, ABI 5): with divergence set, div's     */
/* rows accumulate, after each step's flop latch (faulty flop patches   */
/* applied), the number of flops where (Hg & Lf) | (Lg & Hf) holds, for */
/* every slot live at that step (alive and not detected before it):     */
/* the running max, the last live step's count and the sum.  With it    */
/* on, the all-detected exit moves after the latch so the detecting     */
/* step is counted too.                                                 */
/* ------------------------------------------------------------------ */

enum { X_COMPLEMENT = 1, X_SHIFT = 2, X_REVERSE = 4 };

/* One call's view: copies of the call structs (one indirection in the */
/* walk) and what the call derives from them.                          */
typedef struct {
    ReproCircuit c;
    ReproProgram p;
    ReproScan s;
    /* The good machine's rails, gwords wide (words, or 1 for the       */
    /* broadcast word), and both machines' flop state rows.             */
    uint64_t *GV;
    int64_t gwords;
    uint64_t *g_sh;
    uint64_t *g_sl;
    uint64_t *f_sh;
    uint64_t *f_sl;
    /* The divergence rows; NULL when off. */
    int64_t *div_max;
    int64_t *div_final;
    int64_t *div_area;
    /* Internal (set only by repro_trace): when non-NULL, every step      */
    /* writes slot 0's Ternary code per PO (0 = ZERO, 1 = ONE, 2 = X, as  */
    /* repro.logic.values.Ternary) to row s of this (num_steps, num_pos)  */
    /* array, right after that step's eval.                               */
    uint8_t *po_trace;
    int64_t x_mult; /* expanded length per index-list entry */
    int64_t mw;     /* uint64s per word mask: ceil(words / 64) */
    int64_t epoch;  /* the context's epoch on entry */
    int64_t cur;    /* this (step, word)'s stamp */
    int64_t step;   /* this step's stamp */
} ScanArgs;

/* Index-list length of derived slot d: K[:low] + range(a, b) + K[high:]. */
static int64_t derived_count(const ScanArgs *a, const int32_t *d)
{
    return (int64_t)d[0] + (d[3] - d[2]) + (a->s.n_kept - d[1]);
}

/* Clear the pending bit of every derived slot of [w0, w1) whose         */
/* expanded candidate ends before step t.                                */
static void expire_derived(ScanArgs *a, int64_t t, int64_t w0, int64_t w1)
{
    int64_t w;
    for (w = w0; w < w1; w++) {
        uint64_t rest;
        for (rest = a->s.pending[w]; rest; rest &= rest - 1) {
            const int b = ctz64(rest);
            const int32_t *d = a->s.desc + 4 * (w * 64 + b);
            if (t >= derived_count(a, d) * a->x_mult)
                a->s.pending[w] &= ~((uint64_t)1 << b);
        }
    }
}

/* Write step t's inputs of every pending derived slot of [w0, w1) into */
/* the good machine's PI rails (other slots read X); the faulty machine */
/* reads them from there.  The time map unwinds expand's stages from    */
/* the outermost: reversal mirrors the second half, shift and           */
/* complementation each toggle their transform in their second half,   */
/* repetition tiles and hold repeats each index-list entry.             */
static void load_derived(const ScanArgs *a, int64_t t, int64_t w0, int64_t w1)
{
    const int64_t words = a->s.words;
    const int64_t num_pis = a->c.num_pis;
    const size_t span_bytes = (size_t)(w1 - w0) * sizeof(uint64_t);
    int64_t w, p;
    for (p = 0; p < num_pis; p++) {
        uint64_t *h = a->GV + (uint64_t)(2 * a->c.pi_sig[p]) * words;
        memset(h + w0, 0, span_bytes);
        memset(h + words + w0, 0, span_bytes);
    }
    for (w = w0; w < w1; w++) {
        uint64_t rest;
        for (rest = a->s.pending[w]; rest; rest &= rest - 1) {
            const int b = ctz64(rest);
            const uint64_t bit = (uint64_t)1 << b;
            const int32_t *d = a->s.desc + 4 * (w * 64 + b);
            const int64_t count = derived_count(a, d);
            const int64_t run = (int64_t)d[3] - d[2];
            int64_t len = count * a->x_mult;
            int64_t u = t, pos, index;
            uint8_t flip = 0;
            int shift = 0;
            const uint8_t *row;
            if (a->s.x_ops & X_REVERSE) {
                len /= 2;
                if (u >= len)
                    u = 2 * len - 1 - u;
            }
            if (a->s.x_ops & X_SHIFT) {
                len /= 2;
                if (u >= len) {
                    u -= len;
                    shift = 1;
                }
            }
            if (a->s.x_ops & X_COMPLEMENT) {
                len /= 2;
                if (u >= len) {
                    u -= len;
                    flip = 1;
                }
            }
            pos = (u % (count * a->s.hold)) / a->s.hold;
            if (pos < d[0])
                index = a->s.kept[pos];
            else if (pos - d[0] < run)
                index = d[2] + (pos - d[0]);
            else
                index = a->s.kept[d[1] + (pos - d[0] - run)];
            row = a->s.base + index * num_pis;
            for (p = 0; p < num_pis; p++) {
                /* Circular left shift: PI p reads base column p + 1. */
                const int64_t column =
                    shift ? (p + 1 < num_pis ? p + 1 : 0) : p;
                uint64_t *h = a->GV + (uint64_t)(2 * a->c.pi_sig[p]) * words;
                if (row[column] ^ flip)
                    h[w] |= bit;
                else
                    h[words + w] |= bit;
            }
        }
    }
}

/* Load step t's inputs and flop state into the good machine over its  */
/* span [g0, g1).                                                       */
static void load_good(const ScanArgs *a, int64_t t, int64_t w0, int64_t w1,
                      int64_t g0, int64_t g1)
{
    const int64_t gw = a->gwords;
    const size_t span_bytes = (size_t)(g1 - g0) * sizeof(uint64_t);
    int64_t w, p, f;
    if (a->s.desc) {
        load_derived(a, t, w0, w1);
    } else {
        const uint8_t *bits = a->s.stim_bits + t * a->c.num_pis;
        for (p = 0; p < a->c.num_pis; p++) {
            uint64_t *h = a->GV + (uint64_t)(2 * a->c.pi_sig[p]) * gw;
            const uint64_t hv = bits[p] ? ~(uint64_t)0 : 0;
            for (w = g0; w < g1; w++) {
                h[w] = hv;
                h[gw + w] = ~hv;
            }
        }
    }
    for (f = 0; f < a->c.num_flops; f++) {
        uint64_t *q = a->GV + (uint64_t)(2 * a->c.q_sig[f]) * gw;
        memcpy(q + g0, a->g_sh + f * gw + g0, span_bytes);
        memcpy(q + gw + g0, a->g_sl + f * gw + g0, span_bytes);
    }
}

/* The good machine's rail row `row` at word w: its own word when it is */
/* as wide as the faulty batch, else its broadcast word (0 or ~0).      */
static uint64_t good_word(const ScanArgs *a, const uint64_t *rows, int64_t row,
                          int64_t w)
{
    return a->gwords == a->s.words ? rows[row * a->s.words + w] : rows[row];
}

/* Signal sig's faulty rail at word w: its FV word when diverged at the */
/* current (step, word), else the good rail.                            */
static uint64_t faulty_word(const ScanArgs *a, int64_t sig, int rail,
                            int64_t w)
{
    const int64_t row = 2 * sig + rail;
    if (a->s.stamp[sig] == a->cur)
        return a->s.FV[row * a->s.words + w];
    return good_word(a, a->GV, row, w);
}

/* Queue op for evaluation at the current (step, word). */
static void queue(ScanArgs *a, int64_t op)
{
    a->s.worklist[op / 64] |= (uint64_t)1 << (op % 64);
}

/* Stamp sig as diverged at the current (step, word) and queue every op */
/* that reads it (fanouts of a gate output come later in the order).    */
static void diverge(ScanArgs *a, int64_t sig)
{
    int32_t e;
    a->s.stamp[sig] = a->cur;
    for (e = a->c.fo_off[sig]; e < a->c.fo_off[sig + 1]; e++)
        queue(a, a->c.fo_ops[e]);
}

static int word_dirty(const uint64_t *mask, int64_t w)
{
    return (int)((mask[w / 64] >> (w % 64)) & 1);
}

/* Evaluate op at word w of the faulty machine: gather each fanin's     */
/* faulty value, apply the op's pin patches, fold, apply its stem patch */
/* (the reference kernel's order).  If the result differs from the good */
/* output in a live slot, store it and diverge the output.              */
static void eval_word(ScanArgs *a, int64_t op, int64_t w)
{
    const int64_t words = a->s.words;
    const int64_t base = a->c.in_off[op];
    const int64_t arity = a->c.in_off[op + 1] - base;
    const int32_t *in = a->c.ins + base;
    const int64_t out = a->c.outs[op];
    uint64_t *vals = a->s.vals; /* fanin k's rails at 2k, 2k + 1 */
    uint64_t folded[2], h, l;
    int64_t k, p;
    if (a->s.op_step[op] != a->step) {
        a->s.op_step[op] = a->step;
        a->s.ops_faulty++;
    }
    for (k = 0; k < arity; k++) {
        vals[2 * k] = faulty_word(a, in[k], 0, w);
        vals[2 * k + 1] = faulty_word(a, in[k], 1, w);
    }
    for (p = a->s.op_pin0[op]; p < a->s.op_pin0[op + 1]; p++) {
        const uint64_t sa1 = a->p.pin_sa1[p * words + w];
        const uint64_t sa0 = a->p.pin_sa0[p * words + w];
        k = a->p.pin_pins[p];
        vals[2 * k] = (vals[2 * k] | sa1) & ~sa0;
        vals[2 * k + 1] = (vals[2 * k + 1] | sa0) & ~sa1;
    }
    fold_word(a->c.codes[op], arity, vals, a->c.iota, folded);
    h = folded[0];
    l = folded[1];
    if (a->s.op_stem[op] >= 0) {
        const uint64_t sa1 = a->p.stem_sa1[a->s.op_stem[op] * words + w];
        const uint64_t sa0 = a->p.stem_sa0[a->s.op_stem[op] * words + w];
        h = (h | sa1) & ~sa0;
        l = (l | sa0) & ~sa1;
    }
    if (((h ^ good_word(a, a->GV, 2 * out, w)) |
         (l ^ good_word(a, a->GV, 2 * out + 1, w))) &
        a->s.live[w]) {
        a->s.FV[2 * out * words + w] = h;
        a->s.FV[(2 * out + 1) * words + w] = l;
        diverge(a, out);
    }
}

/* One step of the faulty machine at word w, after the good machine's   */
/* eval: seed the sources that differ from good, evaluate the queued    */
/* ops in order, detect into det[w] and latch the faulty flops.         */
static void walk_word(ScanArgs *a, int64_t w)
{
    const int64_t words = a->s.words, mw = a->mw;
    const uint64_t live = a->s.live[w];
    const int64_t nbits = (a->c.num_ops + 63) / 64;
    uint64_t *FV = a->s.FV;
    int64_t f, i, p, j;
    uint64_t det = 0;

    /* Seeds: flops whose state differs, source patches, patched ops. */
    for (f = 0; f < a->c.num_flops; f++) {
        if (!word_dirty(a->s.fdirty + f * mw, w))
            continue;
        const int64_t q = a->c.q_sig[f];
        FV[2 * q * words + w] = a->f_sh[f * words + w];
        FV[(2 * q + 1) * words + w] = a->f_sl[f * words + w];
        diverge(a, q);
    }
    for (i = 0; i < a->p.n_src; i++) {
        const uint64_t force = a->p.src_force[i * words + w];
        const uint64_t keep = a->p.src_keep[i * words + w];
        const int64_t sig = a->p.src_rows[i] / 2;
        if (!force && !~keep)
            continue;
        if (a->s.stamp[sig] != a->cur) {
            FV[2 * sig * words + w] = good_word(a, a->GV, 2 * sig, w);
            FV[(2 * sig + 1) * words + w] = good_word(a, a->GV, 2 * sig + 1, w);
            diverge(a, sig);
        }
        uint64_t *cell = FV + (int64_t)a->p.src_rows[i] * words + w;
        *cell = (*cell | force) & keep;
    }
    for (i = 0; i < a->p.n_pin; i++)
        if (a->p.pin_sa1[i * words + w] | a->p.pin_sa0[i * words + w])
            queue(a, a->p.pin_ops[i]);
    for (i = 0; i < a->p.n_stem; i++)
        if (a->p.stem_sa1[i * words + w] | a->p.stem_sa0[i * words + w])
            queue(a, a->p.stem_ops[i]);

    /* The queued ops in topological order; evaluating one may queue    */
    /* later ones, in this bitmap word or a later one.                  */
    for (j = 0; j < nbits; j++) {
        uint64_t m;
        while ((m = a->s.worklist[j]) != 0) {
            a->s.worklist[j] = m & (m - 1);
            eval_word(a, j * 64 + ctz64(m), w);
        }
    }

    /* Detect: only diverged or patched POs can differ. */
    for (p = 0; p < a->c.num_pos; p++) {
        const int64_t sig = a->c.po_sig[p];
        const int64_t at = p * words + w;
        const uint64_t fs1 = a->p.po_sa1[at], fs0 = a->p.po_sa0[at];
        if (a->s.stamp[sig] != a->cur && !(fs1 | fs0))
            continue;
        const uint64_t gh = good_word(a, a->GV, 2 * sig, w);
        const uint64_t gl = good_word(a, a->GV, 2 * sig + 1, w);
        const uint64_t fh = (faulty_word(a, sig, 0, w) | fs1) & ~fs0;
        const uint64_t fl = (faulty_word(a, sig, 1, w) | fs0) & ~fs1;
        det |= (gh & fl) | (gl & fh);
    }
    a->s.det[w] = det;

    /* Latch: a flop takes a diverged D; one whose D matches good stays  */
    /* equal to good (its word goes clean, the state array stale there). */
    /* Then the flop patches, on the good next state where clean.       */
    for (f = 0; f < a->c.num_flops; f++) {
        const int64_t d = a->c.d_sig[f];
        uint64_t *mask = a->s.fdirty + f * mw + w / 64;
        const uint64_t bit = (uint64_t)1 << (w % 64);
        *mask &= ~bit;
        if (a->s.stamp[d] != a->cur)
            continue;
        const uint64_t h = FV[2 * d * words + w];
        const uint64_t l = FV[(2 * d + 1) * words + w];
        a->f_sh[f * words + w] = h;
        a->f_sl[f * words + w] = l;
        if (((h ^ good_word(a, a->GV, 2 * d, w)) |
             (l ^ good_word(a, a->GV, 2 * d + 1, w))) &
            live)
            *mask |= bit;
    }
    for (i = 0; i < a->p.n_dff; i++) {
        const int64_t at = i * words + w;
        const uint64_t fh = a->p.dff_force_h[at], kh = a->p.dff_keep_h[at];
        const uint64_t fl = a->p.dff_force_l[at], kl = a->p.dff_keep_l[at];
        const int64_t pos = a->p.dff_pos[i];
        const int64_t d = a->c.d_sig[pos];
        uint64_t *mask = a->s.fdirty + pos * mw + w / 64;
        const uint64_t bit = (uint64_t)1 << (w % 64);
        if (!fh && !fl && !~kh && !~kl)
            continue;
        if (!(*mask & bit)) {
            a->f_sh[pos * words + w] = good_word(a, a->GV, 2 * d, w);
            a->f_sl[pos * words + w] = good_word(a, a->GV, 2 * d + 1, w);
        }
        a->f_sh[pos * words + w] = (a->f_sh[pos * words + w] | fh) & kh;
        a->f_sl[pos * words + w] = (a->f_sl[pos * words + w] | fl) & kl;
        *mask |= bit;
    }
}

/* The fault axis's step over [w0, w1): every slot reads the broadcast  */
/* inputs, so the whole faulty batch runs the full op list with its     */
/* patches, the broadcast good word alongside (eval_ops), and detection */
/* compares every PO with the good word.                                */
static void step_broadcast(ScanArgs *a, int64_t t, int64_t w0, int64_t w1)
{
    const int64_t words = a->s.words;
    const size_t span_bytes = (size_t)(w1 - w0) * sizeof(uint64_t);
    const uint8_t *bits = a->s.stim_bits + t * a->c.num_pis;
    uint64_t *FV = a->s.FV;
    int64_t p, f, i, w;
    for (p = 0; p < a->c.num_pis; p++) {
        uint64_t *h = FV + (uint64_t)(2 * a->c.pi_sig[p]) * words;
        const uint64_t hv = bits[p] ? ~(uint64_t)0 : 0;
        for (w = w0; w < w1; w++) {
            h[w] = hv;
            h[words + w] = ~hv;
        }
    }
    for (f = 0; f < a->c.num_flops; f++) {
        uint64_t *q = FV + (uint64_t)(2 * a->c.q_sig[f]) * words;
        memcpy(q + w0, a->f_sh + f * words + w0, span_bytes);
        memcpy(q + words + w0, a->f_sl + f * words + w0, span_bytes);
    }
    for (i = 0; i < a->p.n_src; i++) {
        uint64_t *row = FV + (uint64_t)a->p.src_rows[i] * words;
        const uint64_t *force = a->p.src_force + i * words;
        const uint64_t *keep = a->p.src_keep + i * words;
        for (w = w0; w < w1; w++)
            row[w] = (row[w] | force[w]) & keep[w];
    }
    eval_ops(FV, words, w0, w1, a->c.codes, a->c.outs, a->c.in_off,
             a->c.ins, a->c.num_ops, a->p.pin_ops, a->p.pin_pins,
             a->p.pin_sa1, a->p.pin_sa0, a->p.n_pin, a->p.stem_ops,
             a->p.stem_sa1, a->p.stem_sa0, a->p.n_stem, a->s.scratch,
             a->s.ptrs, a->GV);
    a->s.ops_faulty += a->c.num_ops;
    for (p = 0; p < a->c.num_pos; p++) {
        const int64_t sig = a->c.po_sig[p];
        const uint64_t gh = a->GV[2 * sig], gl = a->GV[2 * sig + 1];
        const uint64_t *fh = FV + (uint64_t)(2 * sig) * words;
        const uint64_t *fs1 = a->p.po_sa1 + p * words;
        const uint64_t *fs0 = a->p.po_sa0 + p * words;
        for (w = w0; w < w1; w++) {
            const uint64_t h = (fh[w] | fs1[w]) & ~fs0[w];
            const uint64_t l = (fh[words + w] | fs0[w]) & ~fs1[w];
            a->s.det[w] |= (gh & l) | (gl & h);
        }
    }
}

/* Latch the fault axis's faulty flops over [w0, w1): D, then the flop  */
/* patches.                                                              */
static void latch_broadcast(ScanArgs *a, int64_t w0, int64_t w1)
{
    const int64_t words = a->s.words;
    const size_t span_bytes = (size_t)(w1 - w0) * sizeof(uint64_t);
    int64_t f, i, w;
    for (f = 0; f < a->c.num_flops; f++) {
        const uint64_t *d = a->s.FV + (uint64_t)(2 * a->c.d_sig[f]) * words;
        memcpy(a->f_sh + f * words + w0, d + w0, span_bytes);
        memcpy(a->f_sl + f * words + w0, d + words + w0, span_bytes);
    }
    for (i = 0; i < a->p.n_dff; i++) {
        uint64_t *h = a->f_sh + a->p.dff_pos[i] * words;
        uint64_t *l = a->f_sl + a->p.dff_pos[i] * words;
        const uint64_t *fh = a->p.dff_force_h + i * words;
        const uint64_t *kh = a->p.dff_keep_h + i * words;
        const uint64_t *fl = a->p.dff_force_l + i * words;
        const uint64_t *kl = a->p.dff_keep_l + i * words;
        for (w = w0; w < w1; w++) {
            h[w] = (h[w] | fh[w]) & kh[w];
            l[w] = (l[w] | fl[w]) & kl[w];
        }
    }
}

/* Add one step's flop divergence to every live slot of [w0, w1); only  */
/* a flop's dirty words can differ from good in a live slot.            */
static void accumulate_divergence(const ScanArgs *a, int64_t w0, int64_t w1)
{
    const int64_t words = a->s.words, mw = a->mw;
    int64_t w, f;
    for (w = w0; w < w1; w++) {
        const uint64_t live = a->s.live[w];
        int64_t counts[64];
        uint64_t rest;
        if (!live)
            continue;
        memset(counts, 0, sizeof(counts));
        for (f = 0; f < a->c.num_flops; f++) {
            if (!word_dirty(a->s.fdirty + f * mw, w))
                continue;
            const uint64_t gh = good_word(a, a->g_sh, f, w);
            const uint64_t gl = good_word(a, a->g_sl, f, w);
            uint64_t x = ((gh & a->f_sl[f * words + w]) |
                          (gl & a->f_sh[f * words + w])) &
                         live;
            while (x) {
                counts[ctz64(x)]++;
                x &= x - 1;
            }
        }
        for (rest = live; rest; rest &= rest - 1) {
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

/* Before the first paired step: each op's patch entries, and the      */
/* words where each flop's faulty start state differs from the good one */
/* in a pending slot.                                                   */
static void start_faulty(ScanArgs *a)
{
    const int64_t words = a->s.words, mw = a->mw;
    int64_t op, p, i, f, w;
    for (op = 0, p = 0; op <= a->c.num_ops; op++) {
        while (p < a->p.n_pin && a->p.pin_ops[p] < op)
            p++;
        a->s.op_pin0[op] = (int32_t)p;
    }
    for (op = 0; op < a->c.num_ops; op++)
        a->s.op_stem[op] = -1;
    for (i = 0; i < a->p.n_stem; i++)
        a->s.op_stem[a->p.stem_ops[i]] = (int32_t)i;
    for (f = 0; f < a->c.num_flops; f++)
        for (w = 0; w < words; w++)
            if (((a->f_sh[f * words + w] ^ good_word(a, a->g_sh, f, w)) |
                 (a->f_sl[f * words + w] ^ good_word(a, a->g_sl, f, w))) &
                a->s.pending[w])
                a->s.fdirty[f * mw + w / 64] |= (uint64_t)1 << (w % 64);
}

/* After a collect_finals scan: every flop takes the good state in its  */
/* clean words, so the caller reads every live slot's exact final state. */
static void finish_faulty(ScanArgs *a)
{
    const int64_t words = a->s.words, mw = a->mw;
    int64_t f, w;
    for (f = 0; f < a->c.num_flops; f++)
        for (w = 0; w < words; w++)
            if (!word_dirty(a->s.fdirty + f * mw, w)) {
                a->f_sh[f * words + w] = good_word(a, a->g_sh, f, w);
                a->f_sl[f * words + w] = good_word(a, a->g_sl, f, w);
            }
}

static int64_t scan_words(ScanArgs *a)
{
    const int64_t words = a->s.words;
    const int64_t gw = a->gwords;
    const int faulty = a->s.FV != NULL;
    const int divergence = a->div_area != NULL;
    uint64_t *pending = a->s.pending;
    int64_t w0 = 0, w1 = words;
    int64_t t, w, f, p;
    int64_t executed = 0;
    if (faulty && a->s.desc)
        start_faulty(a);
    for (t = 0; t < a->s.num_steps; t++) {
        int64_t g0, g1;
        uint64_t any = 0;

        if (a->s.desc)
            expire_derived(a, t, w0, w1);
        for (w = w0; w < w1; w++)
            any |= pending[w];
        if (!any && !a->s.collect_finals)
            return executed; /* live drained: nothing detects later */
        executed++;
        if (!a->s.collect_finals) {
            while (!pending[w0])
                w0++;
            while (!pending[w1 - 1])
                w1--;
        }
        g0 = gw == words ? w0 : 0;
        g1 = gw == words ? w1 : gw;

        /* The good machine: inputs, state, the whole op list (on the */
        /* fault axis, alongside the faulty batch).                     */
        load_good(a, t, w0, w1, g0, g1);
        if (faulty) {
            a->step = a->epoch + t + 1;
            for (w = w0; w < w1; w++) {
                a->s.live[w] = pending[w];
                a->s.det[w] = 0;
            }
        }
        if (faulty && !a->s.desc)
            step_broadcast(a, t, w0, w1);
        else
            eval_ops(a->GV, gw, g0, g1, a->c.codes, a->c.outs, a->c.in_off,
                     a->c.ins, a->c.num_ops, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                     0);
        a->s.ops_good += a->c.num_ops;

        if (a->po_trace) {
            uint8_t *row = a->po_trace + t * a->c.num_pos;
            for (p = 0; p < a->c.num_pos; p++) {
                const uint64_t *rail =
                    a->GV + (uint64_t)(2 * a->c.po_sig[p]) * gw;
                row[p] = (rail[0] & 1) ? 1 : (rail[gw] & 1) ? 0 : 2;
            }
        }

        uint64_t pend_any = 0;
        if (faulty) {
            int64_t lowest = -1; /* lowest slot detecting at this step */
            for (w = w0; w < w1 && a->s.desc; w++) {
                a->cur = a->epoch + t * words + w + 1;
                if (a->s.live[w])
                    walk_word(a, w);
            }
            for (w = w0; w < w1; w++) {
                uint64_t d = a->s.det[w] & a->s.live[w];
                if (d && lowest < 0)
                    lowest = w * 64 + ctz64(d);
                pending[w] &= ~d;
                while (d) {
                    const int b = ctz64(d);
                    a->s.times[w * 64 + b] = t;
                    a->s.detected++;
                    d &= d - 1;
                }
            }
            if (a->s.first_hit && lowest >= 0) {
                /* Keep only the slots below the lowest detecting one. */
                pending[lowest / 64] &= ((uint64_t)1 << (lowest % 64)) - 1;
                for (w = lowest / 64 + 1; w < w1; w++)
                    pending[w] = 0;
            }
            for (w = w0; w < w1; w++)
                pend_any |= pending[w];
        }
        const int stop = !pend_any && !a->s.collect_finals;
        if (stop && !divergence)
            return executed; /* all detected; skip the state latch */

        /* Latch the good flops (walk_word latched the faulty ones). */
        for (f = 0; f < a->c.num_flops; f++) {
            const uint64_t *gd = a->GV + (uint64_t)(2 * a->c.d_sig[f]) * gw;
            const size_t span_bytes = (size_t)(g1 - g0) * sizeof(uint64_t);
            memcpy(a->g_sh + f * gw + g0, gd + g0, span_bytes);
            memcpy(a->g_sl + f * gw + g0, gd + gw + g0, span_bytes);
        }
        if (faulty && !a->s.desc)
            latch_broadcast(a, w0, w1);
        if (divergence) {
            accumulate_divergence(a, w0, w1);
            if (stop)
                return executed; /* all detected, now counted */
        }
    }
    if (faulty && a->s.desc && a->s.collect_finals)
        finish_faulty(a);
    return executed;
}

/* Set a call up from its structs: the derived view, then the outputs  */
/* and the walk's bits reset, and the good machine's start state.      */
static void scan_start(ScanArgs *a)
{
    ReproScan *s = &a->s;
    const int64_t words = s->words, nf = a->c.num_flops;
    int64_t w, f;
    a->x_mult = s->hold * s->reps;
    if (s->x_ops & X_COMPLEMENT)
        a->x_mult *= 2;
    if (s->x_ops & X_SHIFT)
        a->x_mult *= 2;
    if (s->x_ops & X_REVERSE)
        a->x_mult *= 2;
    a->mw = (words + 63) / 64;
    a->epoch = s->epoch;
    a->GV = s->GV;
    a->f_sh = s->f_state;
    a->f_sl = s->f_state + nf * words;
    if (s->desc) {
        a->gwords = words;
        a->g_sh = s->g_state;
        a->g_sl = s->g_state + nf * words;
    } else {
        a->gwords = 1;
        a->g_sh = s->good_state;
        a->g_sl = s->good_state + nf;
        for (f = 0; f < nf; f++) {
            const uint8_t code = s->good_start ? s->good_start[f] : 2;
            a->g_sh[f] = code == 1 ? ~(uint64_t)0 : 0;
            a->g_sl[f] = code == 0 ? ~(uint64_t)0 : 0;
        }
    }
    if (s->divergence) {
        memset(s->div, 0, (size_t)(3 * words * 64) * sizeof(int64_t));
        a->div_max = s->div;
        a->div_final = s->div + words * 64;
        a->div_area = s->div + 2 * words * 64;
    }
    for (w = 0; w < words; w++) {
        const int64_t left = s->num_slots - w * 64;
        uint64_t slots = left >= 64 ? ~(uint64_t)0
                         : left > 0 ? ((uint64_t)1 << left) - 1
                                    : 0;
        s->pending[w] = s->use_alive ? slots & s->alive[w] : slots;
    }
    for (w = 0; w < s->num_slots; w++)
        s->times[w] = -1;
    memset(s->fdirty, 0, (size_t)(nf * a->mw) * sizeof(uint64_t));
    memset(s->worklist, 0,
           (size_t)((a->c.num_ops + 63) / 64) * sizeof(uint64_t));
    s->detected = s->ops_faulty = s->ops_good = 0;
}

EXPORT int64_t repro_scan(const ReproProgram *program, ReproScan *scan)
{
    ScanArgs a;
    int64_t executed;
    if (program->words != scan->words)
        return -1;
    memset(&a, 0, sizeof(a));
    a.c = *program->circuit;
    a.p = *program;
    a.s = *scan;
    scan_start(&a);
    /* This call's stamps lie in (epoch, epoch + num_steps * words]. */
    scan->epoch += a.s.num_steps * a.s.words + 1;
    executed = scan_words(&a);
    if (!a.s.desc) {
        const int64_t nf = a.c.num_flops;
        int64_t f;
        for (f = 0; f < nf; f++)
            scan->good_final[f] = a.g_sh[f] & 1 ? 1 : a.g_sl[f] & 1 ? 0 : 2;
    }
    scan->detected = a.s.detected;
    scan->ops_faulty = a.s.ops_faulty;
    scan->ops_good = a.s.ops_good;
    return executed;
}

/* ------------------------------------------------------------------ */
/* Fault-free good-machine trace: one machine (slot 0 of a one-word     */
/* batch) over broadcast stimulus bits for num_steps steps, in a single */
/* GIL-released call.  This is scan_words with the good machine alone  */
/* (no faulty batch, collect_finals = 1) and po_trace set: the same op  */
/* walk as every scan's good machine, so the trace is bit-identical to  */
/* the per-step reference loop by construction.                         */
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
    uint64_t pending = 0;
    ScanArgs a;
    memset(&a, 0, sizeof(a));
    a.c.codes = codes;
    a.c.outs = outs;
    a.c.in_off = in_off;
    a.c.ins = ins;
    a.c.num_ops = num_ops;
    a.c.pi_sig = pi_sig;
    a.c.num_pis = num_pis;
    a.c.q_sig = q_sig;
    a.c.d_sig = d_sig;
    a.c.num_flops = num_flops;
    a.c.po_sig = po_sig;
    a.c.num_pos = num_pos;
    a.s.words = 1;
    a.s.stim_bits = stim_bits;
    a.s.num_steps = num_steps;
    a.s.pending = &pending;
    a.s.collect_finals = 1;
    a.GV = V;
    a.gwords = 1;
    a.g_sh = s_h;
    a.g_sl = s_l;
    a.po_trace = po_trace;
    scan_words(&a);
}
