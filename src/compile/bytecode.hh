/**
 * @file
 * Flat word-parallel bytecode for the compiled simulation backend.
 *
 * Lowering turns the elaborated design into:
 *  - a dense value slab of 64-bit words: one fixed-offset slot per
 *    signal, per memory element, per deduplicated constant, and per
 *    expression temporary. Signal and array slots form a contiguous
 *    state region at the front so a settle pass can snapshot/compare it
 *    with memcpy/memcmp instead of deep Bits copies;
 *  - straight-line op streams ("chunks"), one per continuous assign,
 *    combinational process, and clocked process, executed by a dispatch
 *    loop. Ops reference slab slots by word offset with widths fixed at
 *    lowering time to mirror the interpreter's context-width rules
 *    exactly (sim/eval.cc is the semantics reference).
 *
 * Slab values are always canonical: bits above a slot's declared width
 * are zero, which makes change detection and state comparison plain
 * word compares.
 */

#ifndef HWDBG_COMPILE_BYTECODE_HH
#define HWDBG_COMPILE_BYTECODE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/design.hh"

namespace hwdbg::compile
{

using Word = uint64_t;

enum class Opc : uint8_t {
    /** dst(w) = zero-extend/truncate of slab[a] (width wa). */
    Copy,
    // Arithmetic: dst(w) = (a op b) mod 2^w; operand widths wa/wb are
    // always >= w (context-width propagation), so the interpreter's
    // trailing .resized(w) is a truncation the kernels fold in.
    Add, ///< runtime MUT_SIM_ADD_AS_SUB check
    Sub,
    Mul,
    Divu, ///< division by zero yields all-ones (like x)
    Modu,
    // Bitwise: dst(w = max(wa, wb)), operands zero-extended.
    And,
    Or,
    Xor, ///< runtime MUT_SIM_XOR_AS_OR check
    Not, ///< dst(w = wa) = ~a masked
    Neg, ///< dst(w = wa) = two's complement
    Shl, ///< dst(wa) = a << word0(slab[b]); amount >= wa yields zero
    Shr, ///< runtime MUT_SIM_SHR_OFF_BY_ONE check
    LogNot,
    RedAnd,
    RedOr,
    RedXor,
    LogAnd, ///< both operands always evaluated (no short circuit)
    LogOr,
    // Comparisons: zero-extended unsigned compare of a(wa) vs b(wb).
    CmpEq,
    CmpNe,
    CmpLt, ///< runtime MUT_SIM_LT_AS_LE check
    CmpLe,
    CmpGt,
    CmpGe,
    /** dst(w) = (slab[c] != 0) ? resize(a) : resize(b); both arms are
     *  always evaluated (expressions are side-effect free). Runtime
     *  MUT_SIM_TERNARY_SWAP check. */
    Select,
    /** dst(w) = (slab[a] >> aux) keeping aux2 bits (rest zero). */
    SliceGet,
    /** dst(w) = bit uint32(word0(slab[b])) of slab[a]; OOR reads 0. */
    BitGet,
    /** dst(w) = arrays[sig = aux][effectiveIndex(word0(slab[b]))]
     *  resized; an out-of-range index reads zero. */
    ArrGet,
    /** Concat assembly: dst bits [aux + wa - 1 : aux] |= slab[a]. The
     *  destination temp must have been cleared; no change detection. */
    WriteTemp,
    /** Zero nw words at d. */
    ClearTemp,
    Store,   ///< stores[aux]: signal/element/bit/slice store with
             ///< interpreter-exact change detection
    NbaPush, ///< nbas[aux]: resolve target now, queue value for commit
    Jmp,     ///< pc = aux
    Jz,      ///< if slab[a] (width wa) == 0 then pc = aux
    Jnz,
    CoverStmt, ///< if coverage attached: onStmt(stmt)
    CoverArm,  ///< if coverage attached: onArm(stmt, aux)
    Display,   ///< displays[aux]: format + append to ctx log
    WarnDisplay, ///< $display in comb process: warn once per backend
    Finish,      ///< ctx.finished = true; execution continues
};

struct Op
{
    Opc opc;
    uint16_t nw = 0; ///< destination word count
    uint32_t w = 0;  ///< destination width
    uint32_t wa = 0, wb = 0;
    uint32_t a = 0, b = 0, c = 0; ///< operand word offsets
    uint32_t d = 0;               ///< destination word offset
    int32_t aux = 0;              ///< jump target / desc index / arm / lsb
    int32_t aux2 = 0;
    const hdl::Stmt *stmt = nullptr; ///< coverage key
};

/** One store site; kinds mirror sim::StoreTarget resolution. */
struct StoreDesc
{
    enum Kind : uint8_t { Whole, Elem, Bit, Slice };
    Kind kind = Whole;
    int sig = -1;
    uint32_t idxSlot = 0; ///< Elem/Bit: slot holding the index value
    uint32_t msb = 0, lsb = 0; ///< Slice: normalized (msb >= lsb)
    uint32_t valSlot = 0;
    uint32_t valW = 0;
};

/** One nonblocking-assignment push site (one lvalue part). */
struct NbaDesc
{
    StoreDesc::Kind kind = StoreDesc::Whole;
    int sig = -1;
    uint32_t idxSlot = 0;
    uint32_t msb = 0, lsb = 0;
    uint32_t valSlot = 0; ///< full RHS value (width valW)
    uint32_t valW = 0;
    uint32_t rhsMsb = 0, rhsLsb = 0; ///< slice of the RHS for this part
};

struct DisplayDesc
{
    const hdl::DisplayStmt *stmt = nullptr;
    /** Argument slots (offset, width), in order. */
    std::vector<std::pair<uint32_t, uint32_t>> args;
};

struct Program
{
    struct Chunk
    {
        uint32_t begin = 0, end = 0;
    };

    std::vector<Op> ops;
    std::vector<Chunk> assignChunks;  ///< one per design assign
    std::vector<Chunk> combChunks;    ///< one per comb process
    std::vector<Chunk> clockedChunks; ///< one per clocked process

    /** Initial slab image: state region zeroed, constants preloaded. */
    std::vector<Word> slabInit;
    /** Size of the signal+array state region (words) at the slab front. */
    uint32_t stateWords = 0;
    std::vector<uint32_t> sigOff; ///< scalar slot offset per signal id
    /** Element-0 offset per array signal id (stride = words of width). */
    std::vector<uint32_t> arrOff;

    std::vector<StoreDesc> stores;
    std::vector<NbaDesc> nbas;
    std::vector<DisplayDesc> displays;
};

/** Words needed for @p width bits. */
inline uint32_t
wordsFor(uint32_t width)
{
    return (width + 63) / 64;
}

/** Mask for the (possibly partial) top word of a @p width-bit slot. */
inline Word
topWordMask(uint32_t width)
{
    uint32_t rem = width % 64;
    return rem == 0 ? ~Word(0) : (~Word(0) >> (64 - rem));
}

/** Lower @p design to bytecode, one op stream per process and assign. */
Program lowerProgram(const sim::LoweredDesign &design);

} // namespace hwdbg::compile

#endif // HWDBG_COMPILE_BYTECODE_HH
