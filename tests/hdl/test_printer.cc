/**
 * @file
 * Tests for the Verilog code generator, including the round-trip
 * property: print(parse(print(x))) == print(x).
 */

#include <gtest/gtest.h>

#include "hdl/parser.hh"
#include "hdl/printer.hh"

using namespace hwdbg::hdl;

namespace
{

std::string
roundTrip(const std::string &src)
{
    Design design = parse(src);
    return printDesign(design);
}

} // namespace

TEST(PrinterTest, ExprPrecedenceParens)
{
    // (a + b) * c must keep its parentheses.
    auto mod = parse("module m();\nwire [7:0] a, b, c, x;\n"
                     "assign x = (a + b) * c;\nendmodule").modules[0];
    const ContAssignItem *assign = nullptr;
    for (const auto &item : mod->items)
        if (item->kind == ItemKind::ContAssign)
            assign = item->as<ContAssignItem>();
    EXPECT_EQ(printExpr(assign->rhs), "(a + b) * c");
}

TEST(PrinterTest, NoRedundantParens)
{
    auto mod = parse("module m();\nwire [7:0] a, b, c, x;\n"
                     "assign x = a + b * c;\nendmodule").modules[0];
    const ContAssignItem *assign = nullptr;
    for (const auto &item : mod->items)
        if (item->kind == ItemKind::ContAssign)
            assign = item->as<ContAssignItem>();
    EXPECT_EQ(printExpr(assign->rhs), "a + b * c");
}

TEST(PrinterTest, CountCodeLines)
{
    EXPECT_EQ(countCodeLines("a\n\nb\n   \nc\n"), 3);
    EXPECT_EQ(countCodeLines(""), 0);
}

struct RoundTripCase
{
    const char *name;
    const char *src;
};

// Print a case by its name; gtest's default byte dump would show the
// pointers, which change from run to run.
void
PrintTo(const RoundTripCase &c, std::ostream *os)
{
    *os << c.name;
}

class PrinterRoundTrip : public ::testing::TestWithParam<RoundTripCase>
{
};

TEST_P(PrinterRoundTrip, PrintParsePrintFixpoint)
{
    std::string first = roundTrip(GetParam().src);
    std::string second = printDesign(parse(first));
    EXPECT_EQ(first, second);
}

static const RoundTripCase round_trip_cases[] = {
    {"empty", "module m(); endmodule"},
    {"ports",
     "module m(input wire clk, input wire [7:0] a, output reg [3:0] b);"
     "endmodule"},
    {"params",
     "module m #(parameter W = 8)(input wire clk);\n"
     "localparam D = W * 2;\nwire [W-1:0] x;\nassign x = D;\nendmodule"},
    {"always",
     "module m(input wire clk, input wire rst);\nreg [3:0] x;\n"
     "always @(posedge clk) begin\n"
     "  if (rst) x <= 4'd0;\n  else x <= x + 4'd1;\nend\nendmodule"},
    {"case",
     "module m(input wire clk);\nreg [1:0] s;\n"
     "always @(posedge clk)\ncase (s)\n 2'd0: s <= 2'd1;\n"
     " 2'd1, 2'd2: s <= 2'd0;\n default: s <= 2'd0;\nendcase\nendmodule"},
    {"memory",
     "module m(input wire clk, input wire [5:0] addr,\n"
     "         input wire [7:0] din, output reg [7:0] dout);\n"
     "reg [7:0] mem [0:63];\n"
     "always @(posedge clk) begin\n"
     "  mem[addr] <= din;\n  dout <= mem[addr];\nend\nendmodule"},
    {"selects",
     "module m();\nwire [15:0] a;\nwire b;\nwire [7:0] c;\n"
     "assign b = a[3];\nassign c = a[15:8];\nendmodule"},
    {"concat",
     "module m(input wire clk);\nreg c;\nreg [7:0] s, t;\n"
     "always @(posedge clk) {c, s} <= {1'h0, t} + 9'h1;\nendmodule"},
    {"ternary",
     "module m();\nwire s;\nwire [7:0] a, b, x;\n"
     "assign x = s ? a : b;\nendmodule"},
    {"unary",
     "module m();\nwire [7:0] a;\nwire x, y, z;\n"
     "assign x = &a;\nassign y = !(|a);\nassign z = ^~a;\nendmodule"},
    {"display",
     "module m(input wire clk);\nreg [7:0] x;\n"
     "always @(posedge clk) begin\n"
     "  $display(\"x=%d at %h\\n\", x, x);\n  $finish;\nend\nendmodule"},
    {"instance",
     "module sub(input wire a, output wire b);\nassign b = a;\n"
     "endmodule\n"
     "module m();\nwire p, q;\nsub u0 (.a(p), .b(q));\nendmodule"},
    {"prim",
     "module m(input wire clk);\nwire [7:0] q;\nwire e, f;\nreg w, r;\n"
     "reg [7:0] d;\n"
     "scfifo #(.WIDTH(8), .DEPTH(16)) u_f (.clock(clk), .data(d),\n"
     "  .wrreq(w), .rdreq(r), .q(q), .empty(e), .full(f));\nendmodule"},
    {"negedge",
     "module m(input wire clk, input wire rst_n);\nreg x;\n"
     "always @(posedge clk or negedge rst_n) x <= 1'h1;\nendmodule"},
};

INSTANTIATE_TEST_SUITE_P(Cases, PrinterRoundTrip,
                         ::testing::ValuesIn(round_trip_cases),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });
