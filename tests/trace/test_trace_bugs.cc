/**
 * @file
 * Backend-equality smoke over the full testbed: every bug's trigger
 * workload recorded on the interpreter and on the compiled bytecode
 * backend must produce byte-identical hwdbg-trace JSON and VCD (the
 * fuzz xtrace oracle's claim, asserted on the curated bugs).
 */

#include <gtest/gtest.h>

#include "bugbase/testbed.hh"
#include "compile/backend.hh"
#include "trace/json.hh"
#include "trace/run.hh"
#include "trace/vcd.hh"

using namespace hwdbg;
using namespace hwdbg::trace;

TEST(TraceBugsTest, InterpAndBytecodeDumpsAreByteIdentical)
{
    TraceConfig cfg;
    cfg.budgetBytes = 1 << 16;
    for (const auto &bug : bugs::testbedBugs()) {
        SCOPED_TRACE(bug.id);

        TraceDump interp = traceBugWorkload(bug, true, cfg);
        TraceDump bytecode = traceBugWorkload(
            bug, true, cfg, compile::makeBytecodeBackend());
        EXPECT_EQ(interp.backend, "interp");
        EXPECT_EQ(bytecode.backend, "bytecode");

        // The backend label is the one legitimate difference.
        bytecode.backend = interp.backend;
        EXPECT_EQ(toJson(interp), toJson(bytecode));
        EXPECT_EQ(renderVcd(interp), renderVcd(bytecode));

        EXPECT_GT(interp.samples, 0u);
        EXPECT_EQ(checkTraceDumpJson(toJson(interp)), "");
    }
}
