/**
 * @file
 * Bytecode backend unit tests: the corner cases of the lowering and the
 * dispatch loop, each pinned against the interpreter on the same design
 * and stimulus (the interpreter is the semantics reference — sim/eval.cc).
 *
 * Covered: width-mixing arithmetic, division/modulo by zero, shift
 * amounts at and beyond the operand width, case statements with and
 * without defaults, concatenation lvalues, nonblocking swap ordering,
 * $display logs and $finish, non-power-of-two memories (index masking
 * plus out-of-range drops), the read/write asymmetry of scalar bit
 * indexing, and the known-bits folding statistics.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "compile/backend.hh"
#include "compile/bytecode.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "sim/simulator.hh"

using namespace hwdbg;
using namespace hwdbg::sim;

namespace
{

/** The same design on both backends, driven in lockstep; every eval
 *  asserts full-state equality. */
struct Pair
{
    std::unique_ptr<Simulator> interp;
    std::unique_ptr<Simulator> bytecode;

    explicit Pair(const std::string &src, const std::string &top = "m")
    {
        hdl::Design design = hdl::parse(src);
        auto mod = elab::elaborate(design, top).mod;
        interp = std::make_unique<Simulator>(mod);
        bytecode = std::make_unique<Simulator>(mod);
        bytecode->setBackend(compile::makeBytecodeBackend());
        check();
    }

    void poke(const std::string &name, const Bits &value)
    {
        interp->poke(name, value);
        bytecode->poke(name, value);
    }

    void poke(const std::string &name, uint64_t value)
    {
        interp->poke(name, value);
        bytecode->poke(name, value);
    }

    void eval()
    {
        interp->eval();
        bytecode->eval();
        check();
    }

    void tick(int n = 1)
    {
        for (int i = 0; i < n; ++i) {
            poke("clk", uint64_t(0));
            eval();
            poke("clk", uint64_t(1));
            eval();
        }
    }

    /** Peek on both; asserts agreement, returns the value. */
    Bits peek(const std::string &name)
    {
        Bits a = interp->peek(name);
        Bits b = bytecode->peek(name);
        EXPECT_EQ(a.width(), b.width()) << name;
        EXPECT_EQ(a.toHexString(), b.toHexString()) << name;
        return a;
    }

    void check()
    {
        const EvalContext &ca = interp->context();
        const EvalContext &cb = bytecode->context();
        ASSERT_EQ(ca.values.size(), cb.values.size());
        for (size_t i = 0; i < ca.values.size(); ++i) {
            EXPECT_EQ(ca.values[i].width(), cb.values[i].width())
                << interp->design().info((int)i).name;
            EXPECT_EQ(ca.values[i].toHexString(),
                      cb.values[i].toHexString())
                << interp->design().info((int)i).name;
        }
        ASSERT_EQ(ca.arrays.size(), cb.arrays.size());
        for (size_t i = 0; i < ca.arrays.size(); ++i)
            for (size_t e = 0; e < ca.arrays[i].size(); ++e)
                EXPECT_EQ(ca.arrays[i][e].toHexString(),
                          cb.arrays[i][e].toHexString())
                    << interp->design().info((int)i).name << "[" << e
                    << "]";
        EXPECT_EQ(interp->cycle(), bytecode->cycle());
        EXPECT_EQ(interp->finished(), bytecode->finished());
        ASSERT_EQ(interp->log().size(), bytecode->log().size());
        for (size_t i = 0; i < interp->log().size(); ++i) {
            EXPECT_EQ(interp->log()[i].cycle, bytecode->log()[i].cycle);
            EXPECT_EQ(interp->log()[i].text, bytecode->log()[i].text);
        }
    }
};

compile::Program
lower(const std::string &src, const std::string &top = "m")
{
    hdl::Design design = hdl::parse(src);
    LoweredDesign lowered(elab::elaborate(design, top).mod);
    return compile::lowerProgram(lowered);
}

} // namespace

TEST(BytecodeTest, WideArithmeticAndDivisionByZero)
{
    Pair p("module m(input wire [95:0] a, input wire [95:0] b,\n"
           "         output wire [95:0] sum, output wire [95:0] dif,\n"
           "         output wire [95:0] prd, output wire [95:0] quo,\n"
           "         output wire [95:0] rem, output wire [47:0] nar);\n"
           "assign sum = a + b;\n"
           "assign dif = a - b;\n"
           "assign prd = a * b;\n"
           "assign quo = a / b;\n"
           "assign rem = a % b;\n"
           "assign nar = a + b;\n" // context narrower than operands
           "endmodule");
    Bits a = Bits(96, 0xDEADBEEFCAFEF00DULL)
                 .shl(32)
                 .bitOr(Bits(96, 0x12345678));
    p.poke("a", a);
    p.poke("b", Bits(96, 0xFFFFFFFFFFFFFFFFULL));
    p.eval();
    p.poke("b", Bits(96, 0));
    p.eval();
    // Division by zero yields all-ones at the result width.
    EXPECT_EQ(p.peek("quo"), Bits::allOnes(96));
    EXPECT_EQ(p.peek("rem"), Bits::allOnes(96));

    // 64-bit fast path: divide small values too.
    p.poke("a", Bits(96, 1000));
    p.poke("b", Bits(96, 7));
    p.eval();
    EXPECT_EQ(p.peek("quo").toU64(), 142u);
    EXPECT_EQ(p.peek("rem").toU64(), 6u);
}

TEST(BytecodeTest, ShiftAmountsAtAndBeyondWidth)
{
    Pair p("module m(input wire [70:0] a, input wire [7:0] s,\n"
           "         output wire [70:0] l, output wire [70:0] r);\n"
           "assign l = a << s;\n"
           "assign r = a >> s;\n"
           "endmodule");
    Bits a = Bits::allOnes(71);
    p.poke("a", a);
    for (uint64_t s : {0u, 1u, 63u, 64u, 65u, 70u, 71u, 72u, 255u}) {
        p.poke("s", s);
        p.eval();
        if (s >= 71) {
            EXPECT_EQ(p.peek("l"), Bits(71, 0)) << "s=" << s;
            EXPECT_EQ(p.peek("r"), Bits(71, 0)) << "s=" << s;
        }
    }
}

TEST(BytecodeTest, ComparisonsAndBooleanOps)
{
    Pair p("module m(input wire [66:0] a, input wire [31:0] b,\n"
           "         output wire eq, output wire ne, output wire lt,\n"
           "         output wire le, output wire gt, output wire ge,\n"
           "         output wire la, output wire lo, output wire ln,\n"
           "         output wire ra, output wire ro, output wire rx);\n"
           "assign eq = a == b;\n"
           "assign ne = a != b;\n"
           "assign lt = a < b;\n"
           "assign le = a <= b;\n"
           "assign gt = a > b;\n"
           "assign ge = a >= b;\n"
           "assign la = a && b;\n"
           "assign lo = a || b;\n"
           "assign ln = !a;\n"
           "assign ra = &a;\n"
           "assign ro = |a;\n"
           "assign rx = ^a;\n"
           "endmodule");
    for (uint64_t av : {0ull, 5ull, 0xFFFFFFFFull, 0x1FFFFFFFFull}) {
        for (uint64_t bv : {0ull, 5ull, 0xFFFFFFFFull}) {
            p.poke("a", Bits(67, av));
            p.poke("b", Bits(32, bv));
            p.eval();
        }
    }
    p.poke("a", Bits::allOnes(67));
    p.eval();
    EXPECT_EQ(p.peek("ra").toU64(), 1u);
    EXPECT_EQ(p.peek("rx").toU64(), 1u); // 67 ones: odd parity
}

TEST(BytecodeTest, CaseWithAndWithoutDefault)
{
    Pair p("module m(input wire clk, input wire [2:0] sel,\n"
           "         output reg [7:0] q, output reg [7:0] r);\n"
           "always @(posedge clk) begin\n"
           "  case (sel)\n"
           "    3'd0: q <= 8'h10;\n"
           "    3'd1: q <= 8'h20;\n"
           "    default: q <= 8'hFF;\n"
           "  endcase\n"
           "  case (sel)\n" // no default: no-match leaves r alone
           "    3'd2: r <= 8'hA2;\n"
           "    3'd3: r <= 8'hA3;\n"
           "  endcase\n"
           "end\nendmodule");
    for (uint64_t s = 0; s < 8; ++s) {
        p.poke("sel", s);
        p.tick();
    }
    EXPECT_EQ(p.peek("q").toU64(), 0xFFu);
    EXPECT_EQ(p.peek("r").toU64(), 0xA3u);
}

TEST(BytecodeTest, ConcatRepeatAndSliceExpressions)
{
    Pair p("module m(input wire [7:0] a, input wire [3:0] b,\n"
           "         output wire [11:0] cat, output wire [15:0] rep,\n"
           "         output wire [4:0] sl, output wire [2:0] tern);\n"
           "assign cat = {a, b};\n"
           "assign rep = {4{b}};\n"
           "assign sl = a[6:2];\n"
           "assign tern = b[0] ? a[2:0] : 3'd5;\n"
           "endmodule");
    p.poke("a", uint64_t(0xC5));
    p.poke("b", uint64_t(0x9));
    p.eval();
    EXPECT_EQ(p.peek("cat").toU64(), 0xC59u);
    EXPECT_EQ(p.peek("rep").toU64(), 0x9999u);
    EXPECT_EQ(p.peek("sl").toU64(), 0x11u);
    EXPECT_EQ(p.peek("tern").toU64(), 5u);
    p.poke("b", uint64_t(0x8));
    p.eval();
}

TEST(BytecodeTest, ConcatLvaluesSplitTheValue)
{
    Pair p("module m(input wire clk, input wire [11:0] d,\n"
           "         output reg [7:0] hi, output reg [3:0] lo,\n"
           "         output reg [7:0] nhi, output reg [3:0] nlo);\n"
           "always @(posedge clk) begin\n"
           "  {hi, lo} = d;\n"
           "  {nhi, nlo} <= d + 12'd1;\n"
           "end\nendmodule");
    p.poke("d", uint64_t(0xABC));
    p.tick();
    EXPECT_EQ(p.peek("hi").toU64(), 0xABu);
    EXPECT_EQ(p.peek("lo").toU64(), 0xCu);
    EXPECT_EQ(p.peek("nhi").toU64(), 0xABu);
    EXPECT_EQ(p.peek("nlo").toU64(), 0xDu);
}

TEST(BytecodeTest, NonblockingSwapCommitsOldValues)
{
    Pair p("module m(input wire clk, input wire [7:0] d,\n"
           "         input wire ld, output reg [7:0] x,\n"
           "         output reg [7:0] y);\n"
           "always @(posedge clk) begin\n"
           "  if (ld) begin x <= d; y <= ~d; end\n"
           "  else begin x <= y; y <= x; end\n"
           "end\nendmodule");
    p.poke("ld", uint64_t(1));
    p.poke("d", uint64_t(0x42));
    p.tick();
    p.poke("ld", uint64_t(0));
    p.tick();
    EXPECT_EQ(p.peek("x").toU64(), 0xBDu);
    EXPECT_EQ(p.peek("y").toU64(), 0x42u);
    p.tick();
    EXPECT_EQ(p.peek("x").toU64(), 0x42u);
}

TEST(BytecodeTest, DisplayAndFinishMatch)
{
    Pair p("module m(input wire clk, output reg [3:0] n);\n"
           "always @(posedge clk) begin\n"
           "  n <= n + 4'd1;\n"
           "  $display(\"n=%d\", n);\n"
           "  if (n == 4'd3) $finish;\n"
           "end\nendmodule");
    for (int i = 0; i < 6 && !p.interp->finished(); ++i)
        p.tick();
    EXPECT_TRUE(p.bytecode->finished());
    EXPECT_EQ(p.interp->log().size(), p.bytecode->log().size());
    EXPECT_GE(p.interp->log().size(), 4u);
}

TEST(BytecodeTest, NonPowerOfTwoMemoryIndexing)
{
    // Size-5 memory: the interpreter masks indexes to ceil(log2(5)) = 3
    // bits, then drops anything still out of range. Index 8 wraps to 0;
    // indexes 5..7 are dropped on write and read as zero.
    Pair p("module m(input wire clk, input wire [7:0] wa,\n"
           "         input wire [7:0] ra, input wire [15:0] d,\n"
           "         input wire we, output wire [15:0] q);\n"
           "reg [15:0] mem[0:4];\n"
           "always @(posedge clk) if (we) mem[wa] <= d;\n"
           "assign q = mem[ra];\n"
           "endmodule");
    p.poke("we", uint64_t(1));
    for (uint64_t wa : {0u, 3u, 4u, 5u, 7u, 8u, 9u}) {
        p.poke("wa", wa);
        p.poke("d", 0x100 + wa);
        p.tick();
    }
    p.poke("we", uint64_t(0));
    for (uint64_t ra = 0; ra < 10; ++ra) {
        p.poke("ra", ra);
        p.eval();
    }
    p.poke("ra", uint64_t(0));
    p.eval();
    EXPECT_EQ(p.peek("q").toU64(), 0x108u); // 8 wrapped onto 0
    p.poke("ra", uint64_t(5));
    p.eval();
    EXPECT_EQ(p.peek("q").toU64(), 0u); // dropped write, OOR read
    p.poke("ra", uint64_t(9)); // masks to 1, where wa=9 wrote 0x109
    p.eval();
    EXPECT_EQ(p.peek("q").toU64(), 0x109u);
    p.poke("ra", uint64_t(4));
    p.eval();
    EXPECT_EQ(p.peek("q").toU64(), 0x104u);
}

TEST(BytecodeTest, ScalarBitIndexReadWriteAsymmetry)
{
    // Reads truncate the index to uint32 before the range check; writes
    // compare the full 64-bit index. The bytecode backend must replicate
    // both behaviors exactly.
    Pair p("module m(input wire clk, input wire [39:0] i,\n"
           "         input wire [7:0] d, output wire o,\n"
           "         output reg [7:0] w);\n"
           "assign o = d[i];\n"
           "always @(posedge clk) w[i] = 1'b1;\n"
           "endmodule");
    p.poke("d", uint64_t(0x08)); // bit 3 set
    p.poke("i", Bits(40, 0x100000003ULL));
    p.eval();
    // Read: index truncates to 3 -> bit 3 -> 1.
    EXPECT_EQ(p.peek("o").toU64(), 1u);
    // Write: full index 0x100000003 >= 8 -> dropped.
    p.tick();
    EXPECT_EQ(p.peek("w").toU64(), 0u);
    p.poke("i", Bits(40, 6));
    p.tick();
    EXPECT_EQ(p.peek("w").toU64(), 0x40u);
}

TEST(BytecodeTest, ConstantTrueGuardSelectsThenArm)
{
    // Lowering keeps both arms of a guard whose condition is a
    // constant expression; the jump must still pick the live one.
    Pair p("module m(input wire clk, input wire [7:0] a,\n"
           "         output reg [7:0] q);\n"
           "wire [7:0] k = 8'd3 + 8'd4;\n"
           "always @(posedge clk) begin\n"
           "  if (k == 8'd7) q <= a;\n" // provably true guard
           "  else q <= 8'hEE;\n"
           "end\nendmodule");
    p.poke("a", uint64_t(0x5A));
    p.tick();
    EXPECT_EQ(p.peek("q").toU64(), 0x5Au);
}

TEST(BytecodeTest, ProgramStateRegionLayout)
{
    compile::Program prog = lower(
        "module m(input wire clk, input wire [64:0] d,\n"
        "         output reg [64:0] q);\n"
        "reg [15:0] mem[0:2];\n"
        "always @(posedge clk) q <= d;\n"
        "endmodule");
    // Every signal has a scalar slot and every array an element block,
    // all inside the state region.
    ASSERT_EQ(prog.sigOff.size(), prog.arrOff.size());
    for (size_t i = 0; i < prog.sigOff.size(); ++i)
        EXPECT_LT(prog.sigOff[i], prog.stateWords);
    EXPECT_GT(prog.stateWords, 0u);
    EXPECT_GE(prog.slabInit.size(), prog.stateWords);
    // The state region of the initial image is all-zero (constants live
    // behind it).
    for (uint32_t w = 0; w < prog.stateWords; ++w)
        EXPECT_EQ(prog.slabInit[w], 0u) << "word " << w;
}

TEST(BytecodeTest, PokeVisibleToBytecodeAndPeekFlushes)
{
    Pair p("module m(input wire [63:0] a, output wire [63:0] b);\n"
           "assign b = a ^ 64'hFFFF0000FFFF0000;\n"
           "endmodule");
    p.poke("a", uint64_t(0x1234));
    p.eval();
    EXPECT_EQ(p.peek("b").toU64(), 0xFFFF0000FFFF1234ULL);
}
