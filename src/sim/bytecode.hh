/**
 * @file
 * Bytecode for the compiled simulation engine.
 *
 * The compiler (sim/compiler.hh) lowers a ResolvedSpec in one emit
 * stage to the single `cycle` stream the VM executes end to end
 * (docs/INTERNALS.md has the full ISA reference): the comb phase,
 * the trace point, the latch phase, the update phase and EndCycle,
 * so a run of N cycles is a single dispatch loop with no per-phase or
 * per-cycle call overhead. Each component's words follow from the
 * shapes of its operand expressions, the optimizations the thesis
 * applied to generated Pascal (§4.4) in a portable form: constants
 * are folded, ALUs with constant functions get direct opcodes (no
 * dologic dispatch), memories with constant operations get
 * specialized opcodes, all-constant selectors become direct table
 * lookups (the microcode-ROM pattern), every other selector becomes
 * one descriptor-table dispatch, and operands that load in one word
 * (a constant or a single field) ride inline in their consumer, a
 * *superinstruction* (CVC-style compile-time collapse of per-cycle
 * sequences). A load a consumer absorbs is never emitted, so nothing
 * rewrites the stream afterwards. The comb phase is scheduled by
 * dependency level and, within a level, grouped by instruction
 * shape, with components that may fault left in place as barriers;
 * it holds no jump, so it runs straight through. Folded ALUs ahead of
 * its first barrier go to `Program::hoisted`, which the VM writes
 * once per run. Memory bounds checks that a static range analysis of
 * the address expression proves can never fire are elided as the
 * update ops are emitted.
 *
 * Superinstructions that need more operand space than one 16-byte
 * word carry an **extension word**: the following `Instr` slot holds
 * extra operands and has `op == Op::Ext`; it is decoded by its owner
 * and never dispatched (the only jump, MemGenPre's skip, lands on
 * the word after a memory's data expression, never on an extension
 * word).
 *
 * Hot-path data (instruction stream, constant tables) is separated
 * from cold diagnostic data (component names for error messages and
 * trace events), which lives in side tables indexed by the `c` field.
 */

#ifndef ASIM_SIM_BYTECODE_HH
#define ASIM_SIM_BYTECODE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace asim {

/**
 * X-macro generating the fused two-operand ALU superinstructions:
 * the 8 direct binary ALU ops x 3 operand combos (each side a field
 * V or a constant C; two constants fold). Each expansion is
 * `X(OPNAME, COMBO, LEXPR, REXPR, VEXPR)` where LEXPR / REXPR decode
 * the left (op word) and right (Ext word `e`) operands and VEXPR
 * computes the result from `l` and `r`. The decode expressions
 * reference a macro (ASIM_FLDVC) defined only in sim/vm.cc; other
 * expansion sites ignore those arguments.
 *
 * Combo order (VV, VC, CV) and op order (Add..Lt) are load-bearing:
 * the enum below and the compiler (sim/compiler.cc) both index into
 * this layout arithmetically.
 */
#define ASIM_ALU_FUSED_COMBOS(X, OPNAME, VEXPR)                        \
    X(OPNAME, VV, ASIM_FLDVC(*ip), ASIM_FLDVC(e), VEXPR)               \
    X(OPNAME, VC, ASIM_FLDVC(*ip), e.a, VEXPR)                         \
    X(OPNAME, CV, ip->a, ASIM_FLDVC(e), VEXPR)

#define ASIM_ALU_FUSED_ALL(X)                                          \
    ASIM_ALU_FUSED_COMBOS(X, Add, wadd(l, r))                          \
    ASIM_ALU_FUSED_COMBOS(X, Sub, wsub(l, r))                          \
    ASIM_ALU_FUSED_COMBOS(X, Mul, wmul(l, r))                          \
    ASIM_ALU_FUSED_COMBOS(X, And, land(l, r))                          \
    ASIM_ALU_FUSED_COMBOS(X, Or, wsub(wadd(l, r), land(l, r)))         \
    ASIM_ALU_FUSED_COMBOS(X, Xor,                                      \
                          wsub(wadd(l, r), wmul(land(l, r), 2)))       \
    ASIM_ALU_FUSED_COMBOS(X, Eq, (l == r ? 1 : 0))                     \
    ASIM_ALU_FUSED_COMBOS(X, Lt, (l < r ? 1 : 0))

/** VM opcodes. Scratch registers s0..s3 hold expression values;
 *  `vars` is MachineState::vars, every value an expression reads (a
 *  memory's output latch included), and `temp` the latch a memory
 *  op writes, vars[ResolvedSpec::latchSlot(idx)].
 *
 *  The computed-goto dispatch table in sim/vm.cc lists handlers in
 *  exactly this order — keep the two in sync (a static_assert over
 *  kOpCount guards the table length). Ext, never a dispatched word,
 *  has a handler that reports an internal error. */
enum class Op : uint8_t
{
    // Expression evaluation into a scratch register.
    SetC,       ///< s[reg] = a
    LoadVar,    ///< s[reg] = shift(vars[idx] & a, b)
    AccVar,     ///< s[reg] += shift(vars[idx] & a, b)

    // ALU evaluation (operands in s1/s2 unless noted).
    AluGen,     ///< vars[idx] = dologic(s0, s1, s2)
    AluConst,   ///< vars[idx] = dologic(a, s1, s2)
    AluRight,   ///< vars[idx] = s2
    AluLeft,    ///< vars[idx] = s1
    AluNot,     ///< vars[idx] = mask - s1
    AluAdd,     ///< vars[idx] = s1 + s2
    AluSub,     ///< vars[idx] = s1 - s2
    AluMul,     ///< vars[idx] = s1 * s2
    AluAnd,     ///< vars[idx] = s1 & s2
    AluOr,      ///< vars[idx] = s1 | s2
    AluXor,     ///< vars[idx] = s1 ^ s2
    AluEq,      ///< vars[idx] = s1 == s2
    AluLt,      ///< vars[idx] = s1 < s2
    AluFold,    ///< vars[idx] = a: an ALU whose operands fold to a
                ///< constant (still one ALU evaluation)

    // Selectors.
    SelTable,   ///< vars[idx] = constTable[a + s0]; b = count,
                ///< c = selInfo

    // Memory latch phase.
    MemAdr,     ///< mems[idx].adr = s0
    MemOpn,     ///< mems[idx].opn = s0
    MemAdrC,    ///< mems[idx].adr = a
    MemOpnC,    ///< mems[idx].opn = a
    MemAdrFVar, ///< mems[idx].adr = shift(vars[c] & a, b)
    MemOpnFVar, ///< mems[idx].opn = shift(vars[c] & a, b)

    // Memory update phase. `reg` carries VmMemFlags.
    MemRead,    ///< specialized operation 0
    MemWrite,   ///< specialized operation 1, data in s1
    MemInput,   ///< specialized operation 2
    MemOutput,  ///< specialized operation 3, data in s1
    MemGenPre,  ///< generic: handle op 0/2 then jump a; else fall thru
    MemGenData, ///< generic: finish op 1/3 with data in s1

    // ---- cycle-stream structure ----
    TraceCycle, ///< per-cycle trace point (between comb and latch)
    EndCycle,   ///< ++cycle; loop to pc 0 or end the run
    Ext,        ///< extension word of the preceding superinstruction

    // ---- superinstructions: fused scratch-load pairs (one Ext) ----
    // Two independent simple loads: side 1 decoded from the op word,
    // side 2 from the Ext word; each side is C (s[reg] = a) or
    // V (s[reg] = shift(vars[idx] & a, b)).
    LoadPairCC, LoadPairCV,
    LoadPairVC, LoadPairVV,
    // Two-term accumulation into one register (reg of the op word):
    // s[reg] = side1 + side2, second side always a field.
    LoadAccCV, LoadAccVV,

    // ---- superinstructions: fused memory latches ----
    MemLatchCC, ///< mems[idx].adr = a; mems[idx].opn = b
    MemLatchVC, ///< adr = shift(vars[c] & a, b); opn = ext.a
    MemLatchVV, ///< adr = field of vars[c]; opn = field of
                ///< vars[ext.c] (ext.a/ext.b mask/shift)

    // ---- superinstructions: memory update with inline data ----
    MemWriteC,  ///< write with data = a
    MemWriteV,  ///< write with data = shift(vars[c] & a, b)
    MemOutputC, ///< output with data = a
    MemOutputV, ///< output with data = shift(vars[c] & a, b)

    // ---- superinstructions: selectors with inline select field ----
    // Op word = the SelTable operands; Ext word = the select field
    // (idx/a/b as slot/mask/shift).
    SelTableV,

    // ---- superinstructions: the remaining memory-latch combo ----
    // adr constant in the op word's a, opn field in the Ext word
    // (a=mask, b=shift, c=slot).
    MemLatchCV,

    // ---- superinstructions: fused two-operand ALUs ----
    // One dispatch for `vars[idx] = op(left, right)` where both
    // operands are simple (constant or single field). Left operand
    // in the op word (const in a, or field a=mask, b=shift, c=slot),
    // right operand in the Ext word (same layout). Generated by the
    // ASIM_ALU_FUSED_ALL X-macro: 8 direct ops x 3 operand combos,
    // laid out combo-major so sim/compiler.cc can compute
    // `AluFAddVV + op*3 + combo`.
#define ASIM_ALU_FUSED_ENUM(OPNAME, COMBO, L, R, V) \
    AluF##OPNAME##COMBO,
    ASIM_ALU_FUSED_ALL(ASIM_ALU_FUSED_ENUM)
#undef ASIM_ALU_FUSED_ENUM

    // ---- whole selector as a descriptor table ----
    // Every selector with a non-constant case is one dispatch: the
    // select value indexes an inline table of value descriptors, a
    // data load where a jump table would take a data-dependent
    // indirect jump. Layout: op word (idx = dst, b = case count,
    // c = selInfo) followed by one Ext select-field word (a = mask,
    // b = shift, c = slot) and then K Ext descriptor words per case,
    // each in the single arithmetic form
    //   term = d.c + field(vars[d.idx], d.a, d.b);
    // a case's value is the sum of its K terms. K is the selector's
    // largest case term count: a case's constant rides in its first
    // word's bias, and shorter cases are padded with zero-mask words.
    SelStoreV,  ///< K = 1 and a single-field select
    // The general form: K in the op word's a, and reg naming the
    // select source (SelSource): the select word's field, or s0 (a
    // select expression that is not a single field, loaded by the
    // ordinary load ops; the select word is then all zero). The
    // K-term sum is a loop whose trip count is fixed per
    // instruction, so its branch follows the stream, not the data.
    SelStoreK,

    // ---- superinstructions: whole latch phase in one dispatch ----
    // Replaces the TraceCycle word when the latch phase starts with a
    // contiguous run of MemLatch* words: performs the trace point,
    // then interprets the next `b` stream words (which stay in place,
    // in their normal encodings) with an inline loop instead of `b`
    // dispatches. The per-word branch sequence is fixed at compile
    // time, so it predicts perfectly in steady state.
    TraceLatchRun,

    // ---- superinstructions: generic ALU with inline operands ----
    // dologic(funct, left, right) where all three sides are simple.
    // reg has one bit per side (funct/left/right), set for a field;
    // three Ext words follow in simple-load layout (const in a, or
    // field idx = slot, a = mask, b = shift).
    AluGenF,

    // ---- superinstructions: whole generic memory op, inline data ----
    // A generic memory whose data expression loads in one word: one
    // dispatch handles read/write/input/output off the latched
    // operation. Data operand const in a, or field a = mask,
    // b = shift, c = slot.
    MemGenC, MemGenV,
};

/** Number of opcodes (dispatch-table size in sim/vm.cc). */
inline constexpr size_t kOpCount =
    static_cast<size_t>(Op::MemGenV) + 1;

/** SelStoreK select sources (its op word's reg). */
enum SelSource : uint8_t
{
    kSelFromField = 0,
    kSelFromS0 = 1,
};

/** Per-memory flag bits carried in Instr::reg for memory opcodes. */
enum VmMemFlags : uint8_t
{
    kMemFlagTraceW = 1,  ///< trace writes (check or uncond.)
    kMemFlagTraceR = 2,  ///< trace reads
    kMemFlagNoCheck = 4, ///< address statically proven in range
};

/** One VM instruction (16 bytes). */
struct Instr
{
    Op op = Op::SetC;
    uint8_t reg = 0;
    uint16_t idx = 0;
    int32_t a = 0;
    int32_t b = 0;
    int32_t c = 0;
};

/** Selector cold data (bounds diagnostics). */
struct SelInfo
{
    std::string name;
    int32_t caseCount = 0;
};

/** Per-memory cold data (names for traces and errors). */
struct VmMemInfo
{
    std::string name;
};

/** A compiled program. */
struct Program
{
    /** The whole-cycle stream the VM executes: comb, TraceCycle (or
     *  TraceLatchRun), latch, update, EndCycle. MemGenPre's skip
     *  target is an index into this stream. */
    std::vector<Instr> cycle;

    /** AluFold words of the comb components ahead of the first one
     *  that may fault, kept out of `cycle`. Their values never
     *  change, so the VM writes them once per run call instead of
     *  once per cycle, and counts one ALU evaluation each for every
     *  cycle it starts. */
    std::vector<Instr> hoisted;

    std::vector<int32_t> constTable;
    std::vector<SelInfo> selInfos;
    std::vector<VmMemInfo> memInfos;

    /** What the comb schedule and the emit stage did (see
     *  `--dump-bytecode`). */
    struct OptSummary
    {
        uint32_t fused = 0;        ///< superinstruction words emitted
        uint32_t checksElided = 0; ///< memories with bounds checks
                                   ///< statically discharged
        uint32_t levels = 0;       ///< comb dependency levels
        uint32_t shapeRuns = 0;    ///< maximal same-shape runs of
                                   ///< components in the comb phase
        uint32_t hoisted = 0;      ///< folds moved to `hoisted`
    };
    OptSummary opt;

    /** Human-readable disassembly (debugging, tests, tools): the
     *  hoisted folds, the cycle stream and the emit summary. */
    std::string disassemble() const;
};

/** Name of an opcode (used by the disassembler). */
const char *opName(Op op);

/** True if `op` carries an extension word (the following slot). */
bool opHasExt(Op op);

} // namespace asim

#endif // ASIM_SIM_BYTECODE_HH
