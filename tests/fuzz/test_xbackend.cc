/**
 * @file
 * The cross-backend fuzz oracle: generated designs must run identically
 * on the interpreter and the compiled bytecode backend, and the oracle
 * must actually catch a backend that diverges.
 */

#include <gtest/gtest.h>

#include "common/testhooks.hh"
#include "compile/backend.hh"
#include "elab/elaborate.hh"
#include "fuzz/generator.hh"
#include "fuzz/oracles.hh"
#include "hdl/parser.hh"
#include "sim/simulator.hh"

using namespace hwdbg;
using namespace hwdbg::fuzz;

TEST(XbackendOracleTest, CleanSweepOverGeneratedDesigns)
{
    // A miniature campaign; the CI fuzz-smoke step and the long-label
    // fuzz_xbackend_500 test run the full-size ones.
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        GeneratedDesign gd = generateDesign(seed, {});
        auto failure = runXbackend(gd, seed, 24);
        ASSERT_FALSE(failure.has_value())
            << "seed " << seed << ": " << failure->detail;
    }
}

TEST(XbackendOracleTest, RegistrationAndNaming)
{
    EXPECT_STREQ(oracleName(Oracle::Xbackend), "xbackend");
    Oracle parsed;
    ASSERT_TRUE(oracleFromName("xbackend", &parsed));
    EXPECT_EQ(parsed, Oracle::Xbackend);
    // Opt-in: the default mask excludes it.
    EXPECT_EQ(OracleOptions().mask & oracleBit(Oracle::Xbackend), 0u);

    OracleOptions opts;
    opts.mask = oracleBit(Oracle::Xbackend);
    GeneratedDesign gd = generateDesign(7, {});
    EXPECT_TRUE(runOracles(gd, 7, opts).empty());
}

TEST(XbackendOracleTest, ComparisonHasTeeth)
{
    // A correct interpreter and a correct lowering can only disagree
    // through stale lowering: width mutations are structural, so the
    // bytecode bakes the comparison width in once, at lowering time,
    // while the interpreter reads the mutation live. Arm one after
    // lowering and check the comparison the oracle relies on sees the
    // divergence — guarding both the oracle's sensitivity and the rule
    // that lowering must re-run when a mutation arms.
    hdl::Design design = hdl::parse(
        "module m(input wire [3:0] a, input wire [3:0] b,\n"
        "         output wire [7:0] k);\n"
        "assign k = (a + b) == 4'd0;\n"
        "endmodule");
    auto mod = elab::elaborate(design, "m").mod;
    sim::Simulator interp(mod);
    sim::Simulator bytecode(mod);
    bytecode.setBackend(compile::makeBytecodeBackend()); // 4-bit compare
    for (sim::Simulator *sim : {&interp, &bytecode}) {
        sim->poke("a", uint64_t(8));
        sim->poke("b", uint64_t(8));
    }

    activeMutation = MUT_SIM_CMP_CTX_WIDTH;
    interp.eval();   // live mutation: 8-bit 16 == 0 is false
    bytecode.eval(); // lowered 4-bit compare: 0 == 0 is true
    Bits ki = interp.peek("k");
    Bits kb = bytecode.peek("k");
    activeMutation = MUT_NONE;

    EXPECT_EQ(ki.toU64(), 0u);
    EXPECT_EQ(kb.toU64(), 1u);
    EXPECT_NE(ki.toU64(), kb.toU64())
        << "planted divergence was not observable";
}
