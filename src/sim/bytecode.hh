/**
 * @file
 * Bytecode for the compiled simulation engine.
 *
 * The compiler (sim/compiler.hh) lowers a ResolvedSpec in one emit
 * stage to the single `cycle` stream the VM executes end to end
 * (docs/INTERNALS.md has the full ISA reference): the comb phase,
 * the trace point, the latch phase, the update phase and EndCycle,
 * so a run of N cycles is a single dispatch loop with no per-phase or
 * per-cycle call overhead.
 *
 * Every comb component and memory update is exactly one 16-byte op
 * word, the trace point and the whole latch phase one more, and every
 * op word is one dispatch: the stream holds no operand word and no
 * jump. The expressions a word reads are *term
 * spans* in `Program::terms`, each term `bias + shift(vars[slot] &
 * mask)`; the VM walks them with a cursor that each handler advances
 * by the span lengths in its op word, so a handler's operand reads
 * never wait on the stream. Every span has at least one term (a
 * constant is one zero-mask term carrying the value as its bias).
 * The optimizations the thesis applied to generated Pascal (§4.4)
 * survive in this form: constants fold, ALUs with constant functions
 * get direct opcodes (no dologic dispatch), memories with constant
 * operations get specialized opcodes, and all-constant selectors
 * become direct table lookups (the microcode-ROM pattern); every
 * other selector indexes a case table of term spans, so only the taken
 * case is read.
 *
 * The comb phase is scheduled by dependency level and, within a level,
 * grouped by word shape (opcode and span lengths), with components
 * that may fault left in place as barriers. Folded ALUs ahead of its
 * first barrier go to `Program::hoisted`, which the VM writes once per
 * run. Memory bounds checks that a static range analysis of the
 * address expression proves can never fire are elided as the update
 * words are emitted.
 *
 * A program holds only what the cycle loop reads; the names a fault or
 * a trace event reports come from the resolved spec it was compiled
 * from.
 */

#ifndef ASIM_SIM_BYTECODE_HH
#define ASIM_SIM_BYTECODE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace asim {

/**
 * X-macro over the seven constant-function ALUs that combine two
 * spans: `X(NAME, MNEMONIC, VEXPR)`, VEXPR computing the
 * result from the operand values `l` and `r`. The enum, the dispatch
 * table, the handlers and the disassembler expand it in this order.
 */
#define ASIM_ALU_BINARY_ALL(X)                                         \
    X(Sub, "alu.sub", wsub(l, r))                                      \
    X(Mul, "alu.mul", wmul(l, r))                                      \
    X(And, "alu.and", land(l, r))                                      \
    X(Or, "alu.or", wsub(wadd(l, r), land(l, r)))                      \
    X(Xor, "alu.xor", wsub(wadd(l, r), wmul(land(l, r), 2)))           \
    X(Eq, "alu.eq", (l == r ? 1 : 0))                                  \
    X(Lt, "alu.lt", (l < r ? 1 : 0))

/** VM opcodes. `x`, `l`, `r`, `f` and `sel` are the values of the
 *  word's term spans, in cursor order; `vars` is MachineState::vars,
 *  every value an expression reads (a memory's output latch included),
 *  and a memory op writes its latch, vars[ResolvedSpec::latchSlot(m)].
 *
 *  The computed-goto dispatch table in sim/vm.cc lists handlers in
 *  exactly this order — keep the two in sync (a static_assert over
 *  kOpCount guards the table length). */
enum class Op : uint8_t
{
    // ---- comb phase: one word per component ----
    AluFold,  ///< vars[dst] = a: an ALU whose operands fold to a
              ///< constant (still one ALU evaluation); no span
    AluMov,   ///< vars[dst] = x: function left, right or add (one
              ///< span of both operands), or subtract of a constant
    AluNot,   ///< vars[dst] = mask - x
#define ASIM_ALU_BINARY_ENUM(NAME, MN, V) Alu##NAME,
    ASIM_ALU_BINARY_ALL(ASIM_ALU_BINARY_ENUM) ///< vars[dst] = l OP r
#undef ASIM_ALU_BINARY_ENUM
    AluConst, ///< vars[dst] = dologic(a, l, r) (shift left: its
              ///< semantics are a run-time setting)
    AluGen,   ///< vars[dst] = dologic(f, l, r)
    SelTable, ///< vars[dst] = constTable[a + sel]; b = case count
    SelCase,  ///< vars[dst] = the K = n[1] terms of caseTerms from
              ///< a + sel * K; b = case count

    // ---- trace point and latch phase ----
    Latch, ///< the per-cycle trace point, then for each VmLatch of
           ///< `latches` in order: mems[m].adr = its address span;
           ///< mems[m].opn = its operation span; a = the terms read

    // ---- update phase: one word per memory, `a` = VmMemFlags ----
    MemRead,   ///< constant operation 0
    MemWrite,  ///< constant operation 1, data x
    MemInput,  ///< constant operation 2
    MemOutput, ///< constant operation 3, data x
    MemGen,    ///< the latched operation, data x (read only when the
               ///< operation is a write or an output)

    EndCycle, ///< ++cycle; reset the cursor, loop to pc 0 or end
};

/** Number of opcodes (dispatch-table size in sim/vm.cc). */
inline constexpr size_t kOpCount = static_cast<size_t>(Op::EndCycle) + 1;

/** Per-memory flag bits carried in Instr::a for memory update ops. */
enum VmMemFlags : uint8_t
{
    kMemFlagTraceW = 1,  ///< trace writes (check or uncond.)
    kMemFlagTraceR = 2,  ///< trace reads
    kMemFlagNoCheck = 4, ///< address statically proven in range
};

/** One op word (16 bytes): every word is one dispatch. */
struct Instr
{
    Op op = Op::EndCycle;
    /** Lengths of the term spans the word reads, in cursor order
     *  (an expression has at most 31 terms); SelCase keeps its K in
     *  n[1]. */
    uint8_t n[3] = {0, 0, 0};
    uint32_t dst = 0; ///< destination value slot, or memory index
    int32_t a = 0;
    int32_t b = 0;
};

/** One term of an expression: `bias + rotl(vars[slot] & mask, rot)`
 *  in unsigned 32-bit arithmetic. The mask keeps only bits the rotation
 *  does not carry past bit 31 or below bit 0, so the rotation is the
 *  shift the resolved term asks for. A span's first term carries the
 *  expression's constant as its bias; later terms have bias 0. A
 *  constant, or a padding term, has mask 0. */
struct VmTerm
{
    int32_t bias = 0;
    int32_t mask = 0;
    uint32_t slot = 0;
    uint32_t rot = 0;
};

/** One memory's latch, run by the Latch word: the memory and the
 *  lengths of its address and operation spans. */
struct VmLatch
{
    uint32_t mem = 0;
    uint8_t adr = 1;
    uint8_t opn = 1;
};

/** A compiled program. */
struct Program
{
    /** The whole-cycle stream the VM executes: comb, Latch, update,
     *  EndCycle, one dispatch per word. */
    std::vector<Instr> cycle;

    /** The latch phase, one entry per memory in declaration order. */
    std::vector<VmLatch> latches;

    /** The term spans of `cycle`'s words, in stream order: the VM's
     *  cursor walks all of them once per cycle. */
    std::vector<VmTerm> terms;

    /** SelCase case tables: K terms per case, a shorter case padded
     *  with zero terms. */
    std::vector<VmTerm> caseTerms;

    /** AluFold words of the comb components ahead of the first one
     *  that may fault, kept out of `cycle`. Their values never
     *  change, so the VM writes them once per run call instead of
     *  once per cycle, and counts one ALU evaluation each for every
     *  cycle it starts. */
    std::vector<Instr> hoisted;

    std::vector<int32_t> constTable;

    /** What the comb schedule and the emit stage did (see
     *  `--dump-bytecode`). */
    struct OptSummary
    {
        uint32_t checksElided = 0; ///< memories with bounds checks
                                   ///< statically discharged
        uint32_t levels = 0;       ///< comb dependency levels
        uint32_t shapeRuns = 0;    ///< maximal same-shape runs of
                                   ///< components in the comb phase
        uint32_t hoisted = 0;      ///< folds moved to `hoisted`
    };
    OptSummary opt;

    /** Human-readable disassembly (debugging, tests, tools): the
     *  hoisted folds, the cycle stream with each word's terms, the
     *  case tables and the emit summary. */
    std::string disassemble() const;
};

/** Name of an opcode (used by the disassembler). */
const char *opName(Op op);

/** Terms of `Program::terms` the cursor passes over for `in`: its
 *  span lengths (a SelCase's K counts its case table, not the cursor;
 *  Latch's are in its `a`). */
uint32_t cursorTerms(const Instr &in);

} // namespace asim

#endif // ASIM_SIM_BYTECODE_HH
