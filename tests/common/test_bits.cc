/**
 * @file
 * Unit and property tests for the Bits arbitrary-width vector.
 */

#include <gtest/gtest.h>

#include <random>

#include "common/bits.hh"
#include "common/logging.hh"

using hwdbg::Bits;
using hwdbg::HdlError;

TEST(BitsTest, ConstructTruncates)
{
    Bits b(4, 0x1f);
    EXPECT_EQ(b.toU64(), 0xfu);
    EXPECT_EQ(b.width(), 4u);
}

TEST(BitsTest, ZeroWidthClampedToOne)
{
    Bits b(0, 1);
    EXPECT_EQ(b.width(), 1u);
}

TEST(BitsTest, ParseHexLiteral)
{
    bool sized = false;
    Bits b = Bits::parseVerilog("8'hff", &sized);
    EXPECT_TRUE(sized);
    EXPECT_EQ(b.width(), 8u);
    EXPECT_EQ(b.toU64(), 0xffu);
}

TEST(BitsTest, ParseBinaryLiteral)
{
    Bits b = Bits::parseVerilog("4'b1010");
    EXPECT_EQ(b.toU64(), 0xau);
}

TEST(BitsTest, ParseDecimalSized)
{
    Bits b = Bits::parseVerilog("12'd129");
    EXPECT_EQ(b.width(), 12u);
    EXPECT_EQ(b.toU64(), 129u);
}

TEST(BitsTest, ParseUnsizedDecimal)
{
    bool sized = true;
    Bits b = Bits::parseVerilog("42", &sized);
    EXPECT_FALSE(sized);
    EXPECT_EQ(b.width(), 32u);
    EXPECT_EQ(b.toU64(), 42u);
}

TEST(BitsTest, ParseUnderscoresIgnored)
{
    Bits b = Bits::parseVerilog("16'hab_cd");
    EXPECT_EQ(b.toU64(), 0xabcdu);
}

TEST(BitsTest, ParseLiteralTruncatesToWidth)
{
    Bits b = Bits::parseVerilog("4'hff");
    EXPECT_EQ(b.toU64(), 0xfu);
}

TEST(BitsTest, ParseWideHex)
{
    Bits b = Bits::parseVerilog("128'hdeadbeefdeadbeefdeadbeefdeadbeef");
    EXPECT_EQ(b.width(), 128u);
    EXPECT_EQ(b.slice(63, 0).toU64(), 0xdeadbeefdeadbeefull);
    EXPECT_EQ(b.slice(127, 64).toU64(), 0xdeadbeefdeadbeefull);
}

TEST(BitsTest, ParseBadLiteralThrows)
{
    EXPECT_THROW(Bits::parseVerilog("8'q12"), HdlError);
    EXPECT_THROW(Bits::parseVerilog("8'h"), HdlError);
    EXPECT_THROW(Bits::parseVerilog("xyz"), HdlError);
}

TEST(BitsTest, AddWrapsAtWidth)
{
    Bits a(8, 0xf0);
    Bits b(8, 0x20);
    EXPECT_EQ(a.add(b).toU64(), 0x10u);
}

TEST(BitsTest, AddCarriesAcrossWords)
{
    Bits a(128, ~uint64_t(0));
    Bits one(128, 1);
    Bits sum = a.add(one);
    EXPECT_EQ(sum.slice(63, 0).toU64(), 0u);
    EXPECT_EQ(sum.slice(127, 64).toU64(), 1u);
}

TEST(BitsTest, SubModular)
{
    Bits a(8, 5);
    Bits b(8, 10);
    EXPECT_EQ(a.sub(b).toU64(), 0xfbu); // -5 mod 256
}

TEST(BitsTest, MulWide)
{
    Bits a(64, 0xffffffffull);
    Bits b(64, 0xffffffffull);
    EXPECT_EQ(a.mul(b).toU64(), 0xfffffffe00000001ull);
}

TEST(BitsTest, DivAndMod)
{
    Bits a(16, 1000);
    Bits b(16, 7);
    EXPECT_EQ(a.divu(b).toU64(), 142u);
    EXPECT_EQ(a.modu(b).toU64(), 6u);
}

TEST(BitsTest, DivByZeroIsAllOnes)
{
    Bits a(8, 10);
    EXPECT_TRUE(a.divu(Bits(8, 0)).isAllOnes());
    EXPECT_TRUE(a.modu(Bits(8, 0)).isAllOnes());
}

TEST(BitsTest, ShiftBeyondWidthIsZero)
{
    Bits a(8, 0xff);
    EXPECT_TRUE(a.shl(8).isZero());
    EXPECT_TRUE(a.shr(9).isZero());
}

TEST(BitsTest, SliceAndSetSlice)
{
    Bits a(16, 0xabcd);
    EXPECT_EQ(a.slice(15, 8).toU64(), 0xabu);
    a.setSlice(15, 8, Bits(8, 0x12));
    EXPECT_EQ(a.toU64(), 0x12cdu);
}

TEST(BitsTest, OutOfRangeBitReadsZero)
{
    Bits a = Bits::allOnes(8);
    EXPECT_FALSE(a.bit(8));
    EXPECT_FALSE(a.bit(1000));
}

TEST(BitsTest, ConcatOrdering)
{
    Bits hi(8, 0xab);
    Bits lo(4, 0x5);
    Bits cat = hi.concat(lo);
    EXPECT_EQ(cat.width(), 12u);
    EXPECT_EQ(cat.toU64(), 0xab5u);
}

TEST(BitsTest, Replicate)
{
    Bits b(4, 0xa);
    EXPECT_EQ(b.replicate(3).toU64(), 0xaaau);
    EXPECT_EQ(b.replicate(3).width(), 12u);
}

TEST(BitsTest, Reductions)
{
    EXPECT_TRUE(Bits::allOnes(5).redAnd());
    EXPECT_FALSE(Bits(5, 0x1e).redAnd());
    EXPECT_TRUE(Bits(5, 2).redOr());
    EXPECT_FALSE(Bits(5, 0).redOr());
    EXPECT_TRUE(Bits(8, 0x7).redXor());
    EXPECT_FALSE(Bits(8, 0x3).redXor());
}

TEST(BitsTest, CompareDifferentWidths)
{
    EXPECT_EQ(Bits(4, 9).compare(Bits(16, 9)), 0);
    EXPECT_LT(Bits(4, 9).compare(Bits(16, 100)), 0);
    EXPECT_GT(Bits(64, 1u << 20).compare(Bits(4, 15)), 0);
}

TEST(BitsTest, DecStringWide)
{
    // 2^80 = 1208925819614629174706176
    Bits b(81, 0);
    b.setBit(80, true);
    EXPECT_EQ(b.toDecString(), "1208925819614629174706176");
}

TEST(BitsTest, HexBinStrings)
{
    Bits b(12, 0xa5f);
    EXPECT_EQ(b.toHexString(), "a5f");
    EXPECT_EQ(b.toBinString(), "101001011111");
    EXPECT_EQ(b.toVerilog(), "12'ha5f");
}

TEST(BitsTest, NegateTwosComplement)
{
    Bits b(8, 1);
    EXPECT_EQ(b.negate().toU64(), 0xffu);
    EXPECT_TRUE(Bits(8, 0).negate().isZero());
}

// ---------------------------------------------------------------------
// Property tests: wide ops agree with native 64-bit arithmetic when the
// width and the operands fit in a word.
// ---------------------------------------------------------------------

// The width is stored as 64 bits so the struct has no padding: gtest
// names each case by the raw bytes of its parameter, and uninitialised
// padding would make those names differ from run to run.
struct ArithCase
{
    uint64_t width;
    uint64_t a;
    uint64_t b;
};

class BitsArithProperty : public ::testing::TestWithParam<ArithCase>
{
};

TEST_P(BitsArithProperty, MatchesNativeModularArithmetic)
{
    const auto &[width, av, bv] = GetParam();
    const uint32_t w = static_cast<uint32_t>(width);
    uint64_t mask = w >= 64 ? ~uint64_t(0) : ((uint64_t(1) << w) - 1);
    Bits a(w, av);
    Bits b(w, bv);
    uint64_t am = av & mask, bm = bv & mask;

    EXPECT_EQ(a.add(b).toU64(), (am + bm) & mask);
    EXPECT_EQ(a.sub(b).toU64(), (am - bm) & mask);
    EXPECT_EQ(a.mul(b).toU64(), (am * bm) & mask);
    if (bm != 0) {
        EXPECT_EQ(a.divu(b).toU64(), (am / bm) & mask);
        EXPECT_EQ(a.modu(b).toU64(), (am % bm) & mask);
    }
    EXPECT_EQ(a.bitAnd(b).toU64(), am & bm);
    EXPECT_EQ(a.bitOr(b).toU64(), am | bm);
    EXPECT_EQ(a.bitXor(b).toU64(), am ^ bm);
    EXPECT_EQ(a.bitNot().toU64(), ~am & mask);
    EXPECT_EQ(a.compare(b), am < bm ? -1 : (am > bm ? 1 : 0));
    for (uint32_t shift : {0u, 1u, 3u, w - 1}) {
        EXPECT_EQ(a.shl(shift).toU64(), (am << shift) & mask);
        EXPECT_EQ(a.shr(shift).toU64(), (am & mask) >> shift);
    }
}

static std::vector<ArithCase>
arithCases()
{
    std::vector<ArithCase> cases;
    std::mt19937_64 rng(12345);
    for (uint32_t w : {1u, 3u, 8u, 13u, 16u, 31u, 32u, 47u, 63u, 64u}) {
        for (int i = 0; i < 8; ++i)
            cases.push_back(ArithCase{w, rng(), rng()});
        cases.push_back(ArithCase{w, 0, 0});
        cases.push_back(ArithCase{w, ~uint64_t(0), 1});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, BitsArithProperty,
                         ::testing::ValuesIn(arithCases()));

// Round-trip property: slices reassemble to the original value.
class BitsSliceProperty : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BitsSliceProperty, SplitConcatRoundTrip)
{
    uint32_t width = GetParam();
    std::mt19937_64 rng(width * 977);
    Bits value(width, 0);
    for (uint32_t i = 0; i < width; ++i)
        value.setBit(i, rng() & 1);

    for (uint32_t split = 1; split < width; split += 3) {
        Bits hi = value.slice(width - 1, split);
        Bits lo = value.slice(split - 1, 0);
        EXPECT_EQ(hi.concat(lo), value) << "width=" << width
                                        << " split=" << split;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitsSliceProperty,
                         ::testing::Values(2u, 5u, 8u, 17u, 64u, 65u,
                                           100u, 128u, 200u));
