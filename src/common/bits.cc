#include "common/bits.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"

namespace hwdbg
{

Bits::Bits(uint32_t width, uint64_t value)
    : width_(width ? width : 1), words_(wordsFor(width ? width : 1), 0)
{
    words_[0] = value;
    normalize();
}

void
Bits::normalize()
{
    uint32_t top_bits = width_ % 64;
    if (top_bits != 0)
        words_.back() &= (~uint64_t(0)) >> (64 - top_bits);
}

Bits
Bits::allOnes(uint32_t width)
{
    Bits result(width);
    for (auto &w : result.words_)
        w = ~uint64_t(0);
    result.normalize();
    return result;
}

Bits
Bits::fromWords(uint32_t width, const uint64_t *words, size_t count)
{
    Bits result(width);
    size_t n = std::min<size_t>(result.words_.size(), count);
    for (size_t i = 0; i < n; ++i)
        result.words_[i] = words[i];
    result.normalize();
    return result;
}

Bits
Bits::parseVerilog(const std::string &text, bool *sized)
{
    // Strip underscores.
    std::string s;
    for (char c : text)
        if (c != '_')
            s.push_back(c);

    size_t tick = s.find('\'');
    if (tick == std::string::npos) {
        // Unsized decimal literal; Verilog treats it as >= 32 bits.
        if (sized)
            *sized = false;
        uint64_t value = 0;
        for (char c : s) {
            if (!std::isdigit(static_cast<unsigned char>(c)))
                fatal("bad decimal literal '%s'", text.c_str());
            value = value * 10 + static_cast<uint64_t>(c - '0');
        }
        uint32_t width = 32;
        while (width < 64 && (value >> width) != 0)
            ++width;
        return Bits(width, value);
    }

    if (sized)
        *sized = true;
    uint32_t width = 0;
    for (size_t i = 0; i < tick; ++i) {
        char c = s[i];
        if (!std::isdigit(static_cast<unsigned char>(c)))
            fatal("bad width in literal '%s'", text.c_str());
        width = width * 10 + static_cast<uint32_t>(c - '0');
    }
    if (width == 0 || width > 65536)
        fatal("unsupported literal width in '%s'", text.c_str());
    if (tick + 1 >= s.size())
        fatal("truncated literal '%s'", text.c_str());

    char base = static_cast<char>(
        std::tolower(static_cast<unsigned char>(s[tick + 1])));
    std::string digits = s.substr(tick + 2);
    if (digits.empty())
        fatal("literal '%s' has no digits", text.c_str());

    Bits result(width);
    auto shift_in = [&](uint32_t bits_per_digit, uint64_t digit) {
        result = result.shl(bits_per_digit);
        Bits add_in(width, digit);
        result = result.bitOr(add_in);
    };

    switch (base) {
      case 'b':
        for (char c : digits) {
            if (c != '0' && c != '1')
                fatal("bad binary digit in '%s'", text.c_str());
            shift_in(1, static_cast<uint64_t>(c - '0'));
        }
        break;
      case 'h':
        for (char c : digits) {
            int v;
            if (std::isdigit(static_cast<unsigned char>(c)))
                v = c - '0';
            else if (c >= 'a' && c <= 'f')
                v = 10 + (c - 'a');
            else if (c >= 'A' && c <= 'F')
                v = 10 + (c - 'A');
            else {
                fatal("bad hex digit in '%s'", text.c_str());
            }
            shift_in(4, static_cast<uint64_t>(v));
        }
        break;
      case 'o':
        for (char c : digits) {
            if (c < '0' || c > '7')
                fatal("bad octal digit in '%s'", text.c_str());
            shift_in(3, static_cast<uint64_t>(c - '0'));
        }
        break;
      case 'd': {
        Bits ten(width, 10);
        for (char c : digits) {
            if (!std::isdigit(static_cast<unsigned char>(c)))
                fatal("bad decimal digit in '%s'", text.c_str());
            result = result.mul(ten).add(
                Bits(width, static_cast<uint64_t>(c - '0')));
        }
        break;
      }
      default:
        fatal("unknown literal base '%c' in '%s'", base, text.c_str());
    }
    return result;
}

bool
Bits::isZero() const
{
    for (uint64_t w : words_)
        if (w != 0)
            return false;
    return true;
}

bool
Bits::isAllOnes() const
{
    return *this == allOnes(width_);
}

bool
Bits::bit(uint32_t idx) const
{
    if (idx >= width_)
        return false;
    return (words_[idx / 64] >> (idx % 64)) & 1;
}

void
Bits::setBit(uint32_t idx, bool value)
{
    if (idx >= width_)
        return;
    uint64_t mask = uint64_t(1) << (idx % 64);
    if (value)
        words_[idx / 64] |= mask;
    else
        words_[idx / 64] &= ~mask;
}

Bits
Bits::slice(uint32_t msb, uint32_t lsb) const
{
    if (msb < lsb)
        std::swap(msb, lsb);
    uint32_t out_width = msb - lsb + 1;
    Bits result(out_width);
    for (uint32_t i = 0; i < out_width; ++i)
        result.setBit(i, bit(lsb + i));
    return result;
}

void
Bits::setSlice(uint32_t msb, uint32_t lsb, const Bits &value)
{
    if (msb < lsb)
        std::swap(msb, lsb);
    uint32_t span = msb - lsb + 1;
    for (uint32_t i = 0; i < span; ++i)
        setBit(lsb + i, value.bit(i));
}

Bits
Bits::resized(uint32_t new_width) const
{
    Bits result(new_width);
    uint32_t nwords = std::min(result.words_.size(), words_.size());
    for (uint32_t i = 0; i < nwords; ++i)
        result.words_[i] = words_[i];
    result.normalize();
    return result;
}

Bits
Bits::concat(const Bits &low) const
{
    Bits result(width_ + low.width_);
    for (uint32_t i = 0; i < low.width_; ++i)
        result.setBit(i, low.bit(i));
    for (uint32_t i = 0; i < width_; ++i)
        result.setBit(low.width_ + i, bit(i));
    return result;
}

Bits
Bits::replicate(uint32_t count) const
{
    if (count == 0)
        fatal("replication count must be positive");
    Bits result = *this;
    for (uint32_t i = 1; i < count; ++i)
        result = result.concat(*this);
    return result;
}

Bits
Bits::add(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    Bits a = resized(out_width);
    Bits b = rhs.resized(out_width);
    unsigned __int128 carry = 0;
    for (size_t i = 0; i < a.words_.size(); ++i) {
        unsigned __int128 sum = carry;
        sum += a.words_[i];
        sum += b.words_[i];
        a.words_[i] = static_cast<uint64_t>(sum);
        carry = sum >> 64;
    }
    a.normalize();
    return a;
}

Bits
Bits::sub(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    return resized(out_width).add(rhs.resized(out_width).negate());
}

Bits
Bits::negate() const
{
    return bitNot().add(Bits(width_, 1));
}

Bits
Bits::mul(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    Bits a = resized(out_width);
    Bits b = rhs.resized(out_width);
    Bits result(out_width);
    size_t nwords = result.words_.size();
    for (size_t i = 0; i < nwords; ++i) {
        if (a.words_[i] == 0)
            continue;
        unsigned __int128 carry = 0;
        for (size_t j = 0; i + j < nwords; ++j) {
            unsigned __int128 cur = result.words_[i + j];
            cur += static_cast<unsigned __int128>(a.words_[i]) * b.words_[j];
            cur += carry;
            result.words_[i + j] = static_cast<uint64_t>(cur);
            carry = cur >> 64;
        }
    }
    result.normalize();
    return result;
}

Bits
Bits::divu(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    if (rhs.isZero())
        return allOnes(out_width);
    // Bit-serial long division; widths here are small in practice.
    Bits dividend = resized(out_width);
    Bits divisor = rhs.resized(out_width);
    Bits quotient(out_width);
    Bits remainder(out_width);
    for (int i = static_cast<int>(out_width) - 1; i >= 0; --i) {
        remainder = remainder.shl(1);
        remainder.setBit(0, dividend.bit(static_cast<uint32_t>(i)));
        if (remainder.compare(divisor) >= 0) {
            remainder = remainder.sub(divisor);
            quotient.setBit(static_cast<uint32_t>(i), true);
        }
    }
    return quotient;
}

Bits
Bits::modu(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    if (rhs.isZero())
        return allOnes(out_width);
    Bits dividend = resized(out_width);
    Bits divisor = rhs.resized(out_width);
    Bits remainder(out_width);
    for (int i = static_cast<int>(out_width) - 1; i >= 0; --i) {
        remainder = remainder.shl(1);
        remainder.setBit(0, dividend.bit(static_cast<uint32_t>(i)));
        if (remainder.compare(divisor) >= 0)
            remainder = remainder.sub(divisor);
    }
    return remainder;
}

Bits
Bits::bitAnd(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    Bits a = resized(out_width);
    Bits b = rhs.resized(out_width);
    for (size_t i = 0; i < a.words_.size(); ++i)
        a.words_[i] &= b.words_[i];
    return a;
}

Bits
Bits::bitOr(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    Bits a = resized(out_width);
    Bits b = rhs.resized(out_width);
    for (size_t i = 0; i < a.words_.size(); ++i)
        a.words_[i] |= b.words_[i];
    return a;
}

Bits
Bits::bitXor(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    Bits a = resized(out_width);
    Bits b = rhs.resized(out_width);
    for (size_t i = 0; i < a.words_.size(); ++i)
        a.words_[i] ^= b.words_[i];
    return a;
}

Bits
Bits::bitNot() const
{
    Bits result = *this;
    for (auto &w : result.words_)
        w = ~w;
    result.normalize();
    return result;
}

Bits
Bits::shl(uint64_t amount) const
{
    Bits result(width_);
    if (amount >= width_)
        return result;
    for (uint32_t i = static_cast<uint32_t>(amount); i < width_; ++i)
        result.setBit(i, bit(i - static_cast<uint32_t>(amount)));
    return result;
}

Bits
Bits::shr(uint64_t amount) const
{
    Bits result(width_);
    if (amount >= width_)
        return result;
    for (uint32_t i = 0; i < width_ - amount; ++i)
        result.setBit(i, bit(i + static_cast<uint32_t>(amount)));
    return result;
}

bool
Bits::redXor() const
{
    return (popcount() & 1) != 0;
}

uint32_t
Bits::popcount() const
{
    uint32_t count = 0;
    for (uint64_t w : words_)
        count += static_cast<uint32_t>(__builtin_popcountll(w));
    return count;
}

int
Bits::compare(const Bits &rhs) const
{
    uint32_t out_width = std::max(width_, rhs.width_);
    Bits a = resized(out_width);
    Bits b = rhs.resized(out_width);
    for (size_t i = a.words_.size(); i-- > 0;) {
        if (a.words_[i] < b.words_[i])
            return -1;
        if (a.words_[i] > b.words_[i])
            return 1;
    }
    return 0;
}

bool
Bits::operator==(const Bits &rhs) const
{
    return compare(rhs) == 0;
}

std::string
Bits::toHexString() const
{
    static const char digits[] = "0123456789abcdef";
    uint32_t nibbles = (width_ + 3) / 4;
    std::string out;
    out.reserve(nibbles);
    for (uint32_t i = nibbles; i-- > 0;) {
        uint32_t lsb = i * 4;
        uint32_t msb = std::min(lsb + 3, width_ - 1);
        out.push_back(digits[slice(msb, lsb).toU64()]);
    }
    return out;
}

std::string
Bits::toBinString() const
{
    std::string out;
    out.reserve(width_);
    for (uint32_t i = width_; i-- > 0;)
        out.push_back(bit(i) ? '1' : '0');
    return out;
}

std::string
Bits::toDecString() const
{
    if (width_ <= 64)
        return std::to_string(toU64());
    Bits value = *this;
    Bits ten(width_, 10);
    std::string out;
    while (!value.isZero()) {
        Bits digit = value.modu(ten);
        out.push_back(static_cast<char>('0' + digit.toU64()));
        value = value.divu(ten);
    }
    if (out.empty())
        return "0";
    std::reverse(out.begin(), out.end());
    return out;
}

std::string
Bits::toVerilog() const
{
    return std::to_string(width_) + "'h" + toHexString();
}

} // namespace hwdbg
