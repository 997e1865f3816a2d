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
 * Reentrancy: the kernel keeps no global mutable state.  Every entry
 * point reads the program arrays (op codes, patches) without writing
 * them and writes only the caller's batch arrays (V, scratch, flop
 * state, pending, times and the divergence outputs) plus working memory
 * it allocates per call, so callers on different threads may run
 * repro_eval / repro_scan / repro_trace at once on distinct batches that
 * share one program.  The Python side parallelises that way:
 * independent chunks of faults or candidates, one GIL-released call
 * each.
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
 * prefix and an ops out-argument reports the evaluated ops. */
#define REPRO_NATIVE_ABI 8

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

/* Largest fanin count of the compiled op list (at least 1). */
static int64_t max_arity_of(const int64_t *in_off, int64_t num_ops)
{
    int64_t op, arity = 1;
    for (op = 0; op < num_ops; op++)
        if (in_off[op + 1] - in_off[op] > arity)
            arity = in_off[op + 1] - in_off[op];
    return arity;
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
/* Whole-sequence fused scan: input load, good/faulty eval, flop latch, */
/* detect reduction and first-hit early exit for num_steps time steps   */
/* in one call (the Python driver's per-step loop, moved inside the     */
/* GIL-released kernel).  A good machine always runs beside the faulty  */
/* batch; the two modes differ in its width, the stimulus and how the   */
/* faulty batch is evaluated:                                           */
/*                                                                      */
/*   paired (desc != NULL): good and faulty machines run side by side,  */
/*     slot for slot, over derived candidates; GV is the caller's good  */
/*     batch, as wide as the faulty one, and the faulty batch runs the  */
/*     divergence walk below.                                           */
/*   fault axis (GV == NULL): every faulty slot sees the same stimulus  */
/*     bits (stim_bits), so the good machine is one broadcast word the  */
/*     kernel allocates (its flop state g_sh/g_sl is (num_flops, 1),    */
/*     each word 0 or ~0, in/out), and the faulty batch — one distinct  */
/*     fault per slot, so most ops carry a patch or a difference in     */
/*     some word — runs the whole op list over the live words, as       */
/*     repro_eval does.                                                 */
/*                                                                      */
/* Both detect with the paired rule: slot s detects when some PO is     */
/* binary in both machines with opposite values, (Hg & Lf) | (Lg & Hf)  */
/* after each side's PO patches.                                        */
/*                                                                      */
/* Divergence walk (ABI 8, paired mode).  Every step evaluates the good */
/* machine over the whole op list, then the faulty machine only where   */
/* it differs, one live 64-slot word at a time, event-driven:           */
/* stamp[i] == cur (a value unique to the step and word) marks signal i */
/* as diverged, its FV word then holding the faulty value; an unstamped */
/* signal equals the good machine in every live slot of the word.       */
/*   - Seeds: flops whose faulty state differs from good in the word    */
/*     (fdirty), source patches (stuck PI / flop-output stems) acting   */
/*     in it, and ops with a pin or stem patch acting in it.            */
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
/* pending ((words), in/out: the slots still to be resolved), the flop  */
/* state arrays (in/out) and times ((words * 64), -1 = undetected,      */
/* in/out) are caller-owned.  The early-exit contract matches the       */
/* reference loop exactly: the scan stops when no slot is live or every */
/* slot detected, skipping the stopping step's state latch; with        */
/* collect_finals it never stops early and latches every step.  Returns */
/* the number of steps entered, or -1 when working memory could not be  */
/* allocated.  ops, when not NULL, receives the faulty ops evaluated    */
/* (ops[0]: an op evaluated in one or more words of a step counts once) */
/* and the good ops evaluated (ops[1]), summed over the steps.          */
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
    /* Program. */
    const int32_t *codes;
    const int32_t *outs;
    const int64_t *in_off;
    const int32_t *ins;
    int64_t num_ops;
    int64_t num_signals;
    const int32_t *pin_ops;
    const int32_t *pin_pins;
    const uint64_t *pin_sa1;
    const uint64_t *pin_sa0;
    int64_t n_pin;
    const int32_t *stem_ops;
    const uint64_t *stem_sa1;
    const uint64_t *stem_sa0;
    int64_t n_stem;
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
    const int32_t *po_sig;
    int64_t num_pos;
    const uint64_t *f_po_sa1;
    const uint64_t *f_po_sa0;
    /* Machines: the good one's rows are gwords wide (words, or 1 for */
    /* the broadcast word); FV is NULL for the fault-free trace.       */
    uint64_t *GV;
    int64_t gwords;
    uint64_t *FV;
    int64_t words;
    uint64_t *g_sh;
    uint64_t *g_sl;
    uint64_t *f_sh;
    uint64_t *f_sl;
    const uint64_t *g_po_sa1; /* NULL: no good-side PO patches */
    const uint64_t *g_po_sa0;
    /* Stimulus: broadcast bits, or derived candidates (desc != NULL). */
    const uint8_t *stim_bits;
    const uint8_t *base;
    const int32_t *kept;
    int64_t n_kept;
    const int32_t *desc;
    int64_t hold;
    int64_t x_ops;
    int64_t x_mult; /* expanded length per index-list entry */
    int64_t num_steps;
    /* Outputs and modes. */
    uint64_t *pending;
    int64_t *times;
    int64_t *div_max;
    int64_t *div_final;
    int64_t *div_area;
    int64_t collect_finals;
    int64_t first_hit;
    /* Internal (set only by repro_trace): when non-NULL, every step      */
    /* writes slot 0's Ternary code per PO (0 = ZERO, 1 = ONE, 2 = X, as  */
    /* repro.logic.values.Ternary) to row s of this (num_steps, num_pos)  */
    /* array, right after that step's eval.                               */
    uint8_t *po_trace;
    /* Working memory (scan_alloc): the divergence walk's, then the     */
    /* fault axis's.                                                     */
    int64_t mw;           /* uint64s per word mask: ceil(words / 64)       */
    int64_t *stamp;       /* (num_signals) the (step, word) of the last    */
                          /* divergence, as cur                            */
    uint64_t *fdirty;     /* (num_flops, mw) words where the flop's faulty */
                          /* state may differ from good in a live slot     */
    uint64_t *worklist;   /* (ceil(num_ops / 64)) ops to evaluate          */
    int32_t *fo_off;      /* (num_signals + 1) fanout ops of each signal:  */
    int32_t *fo_ops;      /* ... fo_ops[fo_off[s] .. fo_off[s + 1])        */
    int32_t *op_pin0;     /* (num_ops + 1) each op's pin-patch entries     */
    int32_t *op_stem;     /* (num_ops) its stem-patch entry, or -1         */
    int32_t *pw_off;      /* (words + 1) the ops with a pin or stem patch  */
    int32_t *pw_ops;      /* ... acting in each word                       */
    int64_t *op_step;     /* (num_ops) the last step each op was counted   */
    uint64_t *live;       /* (words) the step's live slots                 */
    uint64_t *det;        /* (words) the step's detections                 */
    uint64_t *vals;       /* (2 * max_arity) one word's fanin values       */
    int32_t *iota;        /* (max_arity) 0, 1, 2, ...: indexes vals        */
    int64_t cur;          /* this (step, word)'s stamp                     */
    int64_t step;         /* this step, t + 1                              */
    uint64_t *scratch;    /* (2 * max_arity, words) patched pins           */
    const uint64_t **ptrs; /* (2 * max_arity) fanin rail pointers          */
    int64_t ops_faulty;
    int64_t ops_good;
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
/* the good machine's PI rails (other slots read X); the faulty machine */
/* reads them from there.  The time map unwinds expand's stages from    */
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
        uint64_t *h = a->GV + (uint64_t)(2 * a->pi_sig[p]) * words;
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
                uint64_t *h = a->GV + (uint64_t)(2 * a->pi_sig[p]) * words;
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
    if (a->desc) {
        load_derived(a, t, w0, w1);
    } else {
        const uint8_t *bits = a->stim_bits + t * a->num_pis;
        for (p = 0; p < a->num_pis; p++) {
            uint64_t *h = a->GV + (uint64_t)(2 * a->pi_sig[p]) * gw;
            const uint64_t hv = bits[p] ? ~(uint64_t)0 : 0;
            for (w = g0; w < g1; w++) {
                h[w] = hv;
                h[gw + w] = ~hv;
            }
        }
    }
    for (f = 0; f < a->num_flops; f++) {
        uint64_t *q = a->GV + (uint64_t)(2 * a->q_sig[f]) * gw;
        memcpy(q + g0, a->g_sh + f * gw + g0, span_bytes);
        memcpy(q + gw + g0, a->g_sl + f * gw + g0, span_bytes);
    }
}

/* The good machine's rail row `row` at word w: its own word when it is */
/* as wide as the faulty batch, else its broadcast word (0 or ~0).      */
static uint64_t good_word(const ScanArgs *a, const uint64_t *rows, int64_t row,
                          int64_t w)
{
    return a->gwords == a->words ? rows[row * a->words + w] : rows[row];
}

/* Signal sig's faulty rail at word w: its FV word when diverged at the */
/* current (step, word), else the good rail.                            */
static uint64_t faulty_word(const ScanArgs *a, int64_t sig, int rail,
                            int64_t w)
{
    const int64_t row = 2 * sig + rail;
    if (a->stamp[sig] == a->cur)
        return a->FV[row * a->words + w];
    return good_word(a, a->GV, row, w);
}

/* Stamp sig as diverged at the current (step, word) and queue every op */
/* that reads it (fanouts of a gate output come later in the order).    */
static void diverge(ScanArgs *a, int64_t sig)
{
    int32_t e;
    a->stamp[sig] = a->cur;
    for (e = a->fo_off[sig]; e < a->fo_off[sig + 1]; e++)
        a->worklist[a->fo_ops[e] / 64] |= (uint64_t)1 << (a->fo_ops[e] % 64);
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
    const int64_t words = a->words;
    const int64_t base = a->in_off[op];
    const int64_t arity = a->in_off[op + 1] - base;
    const int32_t *in = a->ins + base;
    const int64_t out = a->outs[op];
    uint64_t *vals = a->vals; /* fanin k's rails at 2k, 2k + 1 */
    uint64_t folded[2], h, l;
    int64_t k, p;
    if (a->op_step[op] != a->step) {
        a->op_step[op] = a->step;
        a->ops_faulty++;
    }
    for (k = 0; k < arity; k++) {
        vals[2 * k] = faulty_word(a, in[k], 0, w);
        vals[2 * k + 1] = faulty_word(a, in[k], 1, w);
    }
    for (p = a->op_pin0[op]; p < a->op_pin0[op + 1]; p++) {
        const uint64_t sa1 = a->pin_sa1[p * words + w];
        const uint64_t sa0 = a->pin_sa0[p * words + w];
        k = a->pin_pins[p];
        vals[2 * k] = (vals[2 * k] | sa1) & ~sa0;
        vals[2 * k + 1] = (vals[2 * k + 1] | sa0) & ~sa1;
    }
    fold_word(a->codes[op], arity, vals, a->iota, folded);
    h = folded[0];
    l = folded[1];
    if (a->op_stem[op] >= 0) {
        const uint64_t sa1 = a->stem_sa1[a->op_stem[op] * words + w];
        const uint64_t sa0 = a->stem_sa0[a->op_stem[op] * words + w];
        h = (h | sa1) & ~sa0;
        l = (l | sa0) & ~sa1;
    }
    if (((h ^ good_word(a, a->GV, 2 * out, w)) |
         (l ^ good_word(a, a->GV, 2 * out + 1, w))) &
        a->live[w]) {
        a->FV[2 * out * words + w] = h;
        a->FV[(2 * out + 1) * words + w] = l;
        diverge(a, out);
    }
}

/* One step of the faulty machine at word w, after the good machine's   */
/* eval: seed the sources that differ from good, evaluate the queued    */
/* ops in order, detect into det[w] and latch the faulty flops.         */
static void walk_word(ScanArgs *a, int64_t w)
{
    const int64_t words = a->words, mw = a->mw;
    const uint64_t live = a->live[w];
    const int64_t nbits = (a->num_ops + 63) / 64;
    int64_t f, i, p, j;
    uint64_t det = 0;

    /* Seeds: flops whose state differs, source patches, patched ops. */
    for (f = 0; f < a->num_flops; f++) {
        if (!word_dirty(a->fdirty + f * mw, w))
            continue;
        const int64_t q = a->q_sig[f];
        a->FV[2 * q * words + w] = a->f_sh[f * words + w];
        a->FV[(2 * q + 1) * words + w] = a->f_sl[f * words + w];
        diverge(a, q);
    }
    for (i = 0; i < a->n_src; i++) {
        const uint64_t force = a->src_force[i * words + w];
        const uint64_t keep = a->src_keep[i * words + w];
        const int64_t sig = a->src_rows[i] / 2;
        if (!force && !~keep)
            continue;
        if (a->stamp[sig] != a->cur) {
            a->FV[2 * sig * words + w] = good_word(a, a->GV, 2 * sig, w);
            a->FV[(2 * sig + 1) * words + w] =
                good_word(a, a->GV, 2 * sig + 1, w);
            diverge(a, sig);
        }
        uint64_t *cell = a->FV + (int64_t)a->src_rows[i] * words + w;
        *cell = (*cell | force) & keep;
    }
    for (i = a->pw_off[w]; i < a->pw_off[w + 1]; i++)
        a->worklist[a->pw_ops[i] / 64] |= (uint64_t)1 << (a->pw_ops[i] % 64);

    /* The queued ops in topological order; evaluating one may queue    */
    /* later ones, in this bitmap word or a later one.                  */
    for (j = 0; j < nbits; j++) {
        uint64_t m;
        while ((m = a->worklist[j]) != 0) {
            a->worklist[j] = m & (m - 1);
            eval_word(a, j * 64 + ctz64(m), w);
        }
    }

    /* Detect: only diverged or patched POs can differ. */
    for (p = 0; p < a->num_pos; p++) {
        const int64_t sig = a->po_sig[p];
        const int64_t at = p * words + w;
        const uint64_t fs1 = a->f_po_sa1[at], fs0 = a->f_po_sa0[at];
        const uint64_t gs1 = a->g_po_sa1 ? a->g_po_sa1[at] : 0;
        const uint64_t gs0 = a->g_po_sa0 ? a->g_po_sa0[at] : 0;
        if (a->stamp[sig] != a->cur && !(fs1 | fs0 | gs1 | gs0))
            continue;
        const uint64_t g_h = good_word(a, a->GV, 2 * sig, w);
        const uint64_t g_l = good_word(a, a->GV, 2 * sig + 1, w);
        const uint64_t f_h = faulty_word(a, sig, 0, w);
        const uint64_t f_l = faulty_word(a, sig, 1, w);
        const uint64_t gh = (g_h | gs1) & ~gs0;
        const uint64_t gl = (g_l | gs0) & ~gs1;
        const uint64_t fh = (f_h | fs1) & ~fs0;
        const uint64_t fl = (f_l | fs0) & ~fs1;
        det |= (gh & fl) | (gl & fh);
    }
    a->det[w] = det;

    /* Latch: a flop takes a diverged D; one whose D matches good stays  */
    /* equal to good (its word goes clean, the state array stale there). */
    /* Then the flop patches, on the good next state where clean.       */
    for (f = 0; f < a->num_flops; f++) {
        const int64_t d = a->d_sig[f];
        uint64_t *mask = a->fdirty + f * mw + w / 64;
        const uint64_t bit = (uint64_t)1 << (w % 64);
        *mask &= ~bit;
        if (a->stamp[d] != a->cur)
            continue;
        const uint64_t h = a->FV[2 * d * words + w];
        const uint64_t l = a->FV[(2 * d + 1) * words + w];
        a->f_sh[f * words + w] = h;
        a->f_sl[f * words + w] = l;
        if (((h ^ good_word(a, a->GV, 2 * d, w)) |
             (l ^ good_word(a, a->GV, 2 * d + 1, w))) &
            live)
            *mask |= bit;
    }
    for (i = 0; i < a->n_dff; i++) {
        const int64_t at = i * words + w;
        const uint64_t fh = a->dff_force_h[at], kh = a->dff_keep_h[at];
        const uint64_t fl = a->dff_force_l[at], kl = a->dff_keep_l[at];
        const int64_t pos = a->dff_pos[i];
        const int64_t d = a->d_sig[pos];
        uint64_t *mask = a->fdirty + pos * mw + w / 64;
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
    const int64_t words = a->words;
    const size_t span_bytes = (size_t)(w1 - w0) * sizeof(uint64_t);
    const uint8_t *bits = a->stim_bits + t * a->num_pis;
    int64_t p, f, i, w;
    for (p = 0; p < a->num_pis; p++) {
        uint64_t *h = a->FV + (uint64_t)(2 * a->pi_sig[p]) * words;
        const uint64_t hv = bits[p] ? ~(uint64_t)0 : 0;
        for (w = w0; w < w1; w++) {
            h[w] = hv;
            h[words + w] = ~hv;
        }
    }
    for (f = 0; f < a->num_flops; f++) {
        uint64_t *q = a->FV + (uint64_t)(2 * a->q_sig[f]) * words;
        memcpy(q + w0, a->f_sh + f * words + w0, span_bytes);
        memcpy(q + words + w0, a->f_sl + f * words + w0, span_bytes);
    }
    for (i = 0; i < a->n_src; i++) {
        uint64_t *row = a->FV + (uint64_t)a->src_rows[i] * words;
        const uint64_t *force = a->src_force + i * words;
        const uint64_t *keep = a->src_keep + i * words;
        for (w = w0; w < w1; w++)
            row[w] = (row[w] | force[w]) & keep[w];
    }
    eval_ops(a->FV, words, w0, w1, a->codes, a->outs, a->in_off, a->ins,
             a->num_ops, a->pin_ops, a->pin_pins, a->pin_sa1, a->pin_sa0,
             a->n_pin, a->stem_ops, a->stem_sa1, a->stem_sa0, a->n_stem,
             a->scratch, a->ptrs, a->GV);
    a->ops_faulty += a->num_ops;
    for (p = 0; p < a->num_pos; p++) {
        const int64_t sig = a->po_sig[p];
        const uint64_t gh = a->GV[2 * sig], gl = a->GV[2 * sig + 1];
        const uint64_t *fh = a->FV + (uint64_t)(2 * sig) * words;
        const uint64_t *fs1 = a->f_po_sa1 + p * words;
        const uint64_t *fs0 = a->f_po_sa0 + p * words;
        for (w = w0; w < w1; w++) {
            const uint64_t h = (fh[w] | fs1[w]) & ~fs0[w];
            const uint64_t l = (fh[words + w] | fs0[w]) & ~fs1[w];
            a->det[w] |= (gh & l) | (gl & h);
        }
    }
}

/* Latch the fault axis's faulty flops over [w0, w1): D, then the flop  */
/* patches.                                                              */
static void latch_broadcast(ScanArgs *a, int64_t w0, int64_t w1)
{
    const int64_t words = a->words;
    const size_t span_bytes = (size_t)(w1 - w0) * sizeof(uint64_t);
    int64_t f, i, w;
    for (f = 0; f < a->num_flops; f++) {
        const uint64_t *d = a->FV + (uint64_t)(2 * a->d_sig[f]) * words;
        memcpy(a->f_sh + f * words + w0, d + w0, span_bytes);
        memcpy(a->f_sl + f * words + w0, d + words + w0, span_bytes);
    }
    for (i = 0; i < a->n_dff; i++) {
        uint64_t *h = a->f_sh + a->dff_pos[i] * words;
        uint64_t *l = a->f_sl + a->dff_pos[i] * words;
        const uint64_t *fh = a->dff_force_h + i * words;
        const uint64_t *kh = a->dff_keep_h + i * words;
        const uint64_t *fl = a->dff_force_l + i * words;
        const uint64_t *kl = a->dff_keep_l + i * words;
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
    const int64_t words = a->words, mw = a->mw;
    int64_t w, f;
    for (w = w0; w < w1; w++) {
        const uint64_t live = a->live[w];
        int64_t counts[64];
        uint64_t rest;
        if (!live)
            continue;
        memset(counts, 0, sizeof(counts));
        for (f = 0; f < a->num_flops; f++) {
            if (!word_dirty(a->fdirty + f * mw, w))
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

/* Before the first step: the fanout lists, each op's patch entries,    */
/* the patched ops of each word, and the words where each flop's faulty */
/* start state differs from the good one in a pending slot.             */
static void start_faulty(ScanArgs *a)
{
    const int64_t words = a->words, mw = a->mw;
    int64_t op, k, p, f, w, i;
    for (op = 0; op < a->num_ops; op++)
        for (k = a->in_off[op]; k < a->in_off[op + 1]; k++)
            a->fo_off[a->ins[k] + 1]++;
    for (i = 0; i < a->num_signals; i++)
        a->fo_off[i + 1] += a->fo_off[i];
    /* The stamps (all zero until the first step) count each list's fill. */
    for (op = 0; op < a->num_ops; op++)
        for (k = a->in_off[op]; k < a->in_off[op + 1]; k++)
            a->fo_ops[a->fo_off[a->ins[k]] + a->stamp[a->ins[k]]++] =
                (int32_t)op;
    memset(a->stamp, 0, (size_t)a->num_signals * sizeof(int64_t));
    for (op = 0, p = 0; op <= a->num_ops; op++) {
        while (p < a->n_pin && a->pin_ops[p] < op)
            p++;
        a->op_pin0[op] = (int32_t)p;
    }
    for (op = 0; op < a->num_ops; op++)
        a->op_stem[op] = -1;
    for (i = 0; i < a->n_stem; i++)
        a->op_stem[a->stem_ops[i]] = (int32_t)i;
    for (w = 0; w < words; w++) {
        int32_t n = a->pw_off[w];
        for (i = 0; i < a->n_pin; i++)
            if (a->pin_sa1[i * words + w] | a->pin_sa0[i * words + w])
                a->pw_ops[n++] = a->pin_ops[i];
        for (i = 0; i < a->n_stem; i++)
            if (a->stem_sa1[i * words + w] | a->stem_sa0[i * words + w])
                a->pw_ops[n++] = a->stem_ops[i];
        a->pw_off[w + 1] = n;
    }
    for (f = 0; f < a->num_flops; f++)
        for (w = 0; w < words; w++)
            if (((a->f_sh[f * words + w] ^ good_word(a, a->g_sh, f, w)) |
                 (a->f_sl[f * words + w] ^ good_word(a, a->g_sl, f, w))) &
                a->pending[w])
                a->fdirty[f * mw + w / 64] |= (uint64_t)1 << (w % 64);
}

/* After a collect_finals scan: every flop takes the good state in its  */
/* clean words, so the caller reads every live slot's exact final state. */
static void finish_faulty(ScanArgs *a)
{
    const int64_t words = a->words, mw = a->mw;
    int64_t f, w;
    for (f = 0; f < a->num_flops; f++)
        for (w = 0; w < words; w++)
            if (!word_dirty(a->fdirty + f * mw, w)) {
                a->f_sh[f * words + w] = good_word(a, a->g_sh, f, w);
                a->f_sl[f * words + w] = good_word(a, a->g_sl, f, w);
            }
}

static int64_t scan_words(ScanArgs *a)
{
    const int64_t words = a->words;
    const int64_t gw = a->gwords;
    const int faulty = a->FV != NULL;
    const int divergence = a->div_area != NULL;
    int64_t w0 = 0, w1 = words;
    int64_t t, w, f, p;
    int64_t executed = 0;
    if (faulty && a->desc)
        start_faulty(a);
    for (t = 0; t < a->num_steps; t++) {
        int64_t g0, g1;
        uint64_t any = 0;

        if (a->desc)
            expire_derived(a, t, w0, w1);
        for (w = w0; w < w1; w++)
            any |= a->pending[w];
        if (!any && !a->collect_finals)
            return executed; /* live drained: nothing detects later */
        executed++;
        if (!a->collect_finals) {
            while (!a->pending[w0])
                w0++;
            while (!a->pending[w1 - 1])
                w1--;
        }
        g0 = gw == words ? w0 : 0;
        g1 = gw == words ? w1 : gw;

        /* The good machine: inputs, state, the whole op list (on the */
        /* fault axis, alongside the faulty batch).                     */
        load_good(a, t, w0, w1, g0, g1);
        if (faulty) {
            a->step = t + 1;
            for (w = w0; w < w1; w++) {
                a->live[w] = a->pending[w];
                a->det[w] = 0;
            }
        }
        if (faulty && !a->desc)
            step_broadcast(a, t, w0, w1);
        else
            eval_ops(a->GV, gw, g0, g1, a->codes, a->outs, a->in_off, a->ins,
                     a->num_ops, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
        a->ops_good += a->num_ops;

        if (a->po_trace) {
            uint8_t *row = a->po_trace + t * a->num_pos;
            for (p = 0; p < a->num_pos; p++) {
                const uint64_t *rail =
                    a->GV + (uint64_t)(2 * a->po_sig[p]) * gw;
                row[p] = (rail[0] & 1) ? 1 : (rail[gw] & 1) ? 0 : 2;
            }
        }

        uint64_t pend_any = 0;
        if (faulty) {
            int64_t lowest = -1; /* lowest slot detecting at this step */
            for (w = w0; w < w1 && a->desc; w++) {
                a->cur = t * words + w + 1;
                if (a->live[w])
                    walk_word(a, w);
            }
            for (w = w0; w < w1; w++) {
                uint64_t d = a->det[w] & a->live[w];
                if (d && lowest < 0)
                    lowest = w * 64 + ctz64(d);
                a->pending[w] &= ~d;
                while (d) {
                    const int b = ctz64(d);
                    a->times[w * 64 + b] = t;
                    d &= d - 1;
                }
            }
            if (a->first_hit && lowest >= 0) {
                /* Keep only the slots below the lowest detecting one. */
                a->pending[lowest / 64] &= ((uint64_t)1 << (lowest % 64)) - 1;
                for (w = lowest / 64 + 1; w < w1; w++)
                    a->pending[w] = 0;
            }
            for (w = w0; w < w1; w++)
                pend_any |= a->pending[w];
        }
        const int stop = !pend_any && !a->collect_finals;
        if (stop && !divergence)
            return executed; /* all detected; skip the state latch */

        /* Latch the good flops (walk_word latched the faulty ones). */
        for (f = 0; f < a->num_flops; f++) {
            const uint64_t *gd = a->GV + (uint64_t)(2 * a->d_sig[f]) * gw;
            const size_t span_bytes = (size_t)(g1 - g0) * sizeof(uint64_t);
            memcpy(a->g_sh + f * gw + g0, gd + g0, span_bytes);
            memcpy(a->g_sl + f * gw + g0, gd + gw + g0, span_bytes);
        }
        if (faulty && !a->desc)
            latch_broadcast(a, w0, w1);
        if (divergence) {
            accumulate_divergence(a, w0, w1);
            if (stop)
                return executed; /* all detected, now counted */
        }
    }
    if (faulty && a->desc && a->collect_finals)
        finish_faulty(a);
    return executed;
}

/* The divergence walk's per-call working memory (and the fault axis's */
/* broadcast good machine when GV is NULL); scan_free releases it.     */
static int scan_alloc(ScanArgs *a, uint64_t **own_gv)
{
    const int64_t words = a->words;
    const int64_t arity = max_arity_of(a->in_off, a->num_ops);
    const int64_t edges = a->in_off[a->num_ops];
    const size_t i32 = sizeof(int32_t), u64 = sizeof(uint64_t);
    int64_t i;
    *own_gv = 0;
    if (!a->GV) {
        *own_gv = calloc((size_t)(2 * a->num_signals + 1), u64);
        a->GV = *own_gv;
        a->gwords = 1;
    }
    a->mw = (words + 63) / 64;
    a->stamp = calloc((size_t)a->num_signals + 1, sizeof(int64_t));
    a->fdirty = calloc((size_t)(a->num_flops * a->mw + 1), u64);
    a->worklist = calloc((size_t)(a->num_ops / 64 + 1), u64);
    a->fo_off = calloc((size_t)a->num_signals + 1, i32);
    a->fo_ops = calloc((size_t)edges + 1, i32);
    a->op_pin0 = calloc((size_t)a->num_ops + 1, i32);
    a->op_stem = calloc((size_t)a->num_ops + 1, i32);
    a->pw_off = calloc((size_t)words + 1, i32);
    a->pw_ops = calloc((size_t)((a->n_pin + a->n_stem) * words + 1), i32);
    a->op_step = calloc((size_t)a->num_ops + 1, sizeof(int64_t));
    a->live = calloc((size_t)words, u64);
    a->det = calloc((size_t)words, u64);
    a->vals = calloc((size_t)(2 * arity), u64);
    a->iota = calloc((size_t)arity, i32);
    for (i = 0; a->iota && i < arity; i++)
        a->iota[i] = (int32_t)i;
    a->scratch = calloc((size_t)(2 * arity * words), u64);
    a->ptrs = calloc((size_t)(2 * arity), sizeof(uint64_t *));
    return a->GV && a->stamp && a->fdirty && a->worklist && a->fo_off &&
           a->fo_ops && a->op_pin0 && a->op_stem && a->pw_off && a->pw_ops &&
           a->op_step && a->live && a->det && a->vals && a->iota && a->scratch &&
           a->ptrs;
}

static void scan_free(ScanArgs *a, uint64_t *own_gv)
{
    free(own_gv);
    free(a->stamp);
    free(a->fdirty);
    free(a->worklist);
    free(a->fo_off);
    free(a->fo_ops);
    free(a->op_pin0);
    free(a->op_stem);
    free(a->pw_off);
    free(a->pw_ops);
    free(a->op_step);
    free(a->live);
    free(a->det);
    free(a->vals);
    free(a->iota);
    free(a->scratch);
    free((void *)a->ptrs);
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
    int64_t num_signals,
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
    uint64_t *g_sh, /* good flop state: (num_flops, words), or          */
    uint64_t *g_sl, /* ... (num_flops, 1) broadcast words w/o GV        */
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
    /* --- outputs and modes ----------------------------------------- */
    uint64_t *pending,        /* (words), in/out                        */
    int64_t *times,           /* (words * 64), -1 = undetected, in/out  */
    int64_t *div_max,         /* paired: (words * 64) per-slot flop     */
    int64_t *div_final,       /* ... divergence max / last / sum,       */
    int64_t *div_area,        /* ... in/out; all three NULL = off       */
    int64_t *ops,             /* (2) faulty, good ops evaluated; or NULL */
    int64_t collect_finals,
    int64_t first_hit)
{
    int64_t x_mult = hold * reps, executed = -1;
    uint64_t *own_gv;
    if (x_ops & X_COMPLEMENT)
        x_mult *= 2;
    if (x_ops & X_SHIFT)
        x_mult *= 2;
    if (x_ops & X_REVERSE)
        x_mult *= 2;
    ScanArgs args = {
        .codes = codes,
        .outs = outs,
        .in_off = in_off,
        .ins = ins,
        .num_ops = num_ops,
        .num_signals = num_signals,
        .pin_ops = pin_ops,
        .pin_pins = pin_pins,
        .pin_sa1 = pin_sa1,
        .pin_sa0 = pin_sa0,
        .n_pin = n_pin,
        .stem_ops = stem_ops,
        .stem_sa1 = stem_sa1,
        .stem_sa0 = stem_sa0,
        .n_stem = n_stem,
        .src_rows = src_rows,
        .src_force = src_force,
        .src_keep = src_keep,
        .n_src = n_src,
        .pi_sig = pi_sig,
        .num_pis = num_pis,
        .q_sig = q_sig,
        .d_sig = d_sig,
        .num_flops = num_flops,
        .dff_pos = dff_pos,
        .dff_force_h = dff_force_h,
        .dff_keep_h = dff_keep_h,
        .dff_force_l = dff_force_l,
        .dff_keep_l = dff_keep_l,
        .n_dff = n_dff,
        .po_sig = po_sig,
        .num_pos = num_pos,
        .f_po_sa1 = f_po_sa1,
        .f_po_sa0 = f_po_sa0,
        .GV = GV,
        .gwords = words,
        .FV = FV,
        .words = words,
        .g_sh = g_sh,
        .g_sl = g_sl,
        .f_sh = f_sh,
        .f_sl = f_sl,
        .g_po_sa1 = g_po_sa1,
        .g_po_sa0 = g_po_sa0,
        .stim_bits = stim_bits,
        .base = base,
        .kept = kept,
        .n_kept = n_kept,
        .desc = desc,
        .hold = hold,
        .x_ops = x_ops,
        .x_mult = x_mult,
        .num_steps = num_steps,
        .pending = pending,
        .times = times,
        .div_max = div_max,
        .div_final = div_final,
        .div_area = div_area,
        .collect_finals = collect_finals,
        .first_hit = first_hit,
    };
    if (scan_alloc(&args, &own_gv)) {
        executed = scan_words(&args);
        if (ops) {
            ops[0] = args.ops_faulty;
            ops[1] = args.ops_good;
        }
    }
    scan_free(&args, own_gv);
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
    ScanArgs args = {
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
        .po_sig = po_sig,
        .num_pos = num_pos,
        .GV = V,
        .gwords = 1,
        .words = 1,
        .g_sh = s_h,
        .g_sl = s_l,
        .stim_bits = stim_bits,
        .num_steps = num_steps,
        .pending = &pending,
        .collect_finals = 1,
        .po_trace = po_trace,
    };
    scan_words(&args);
}
