#include "support/serial.hpp"

#include <bit>
#include <cstring>

#include "support/error.hpp"

namespace fgpar {

void ByteWriter::U8(std::uint8_t value) { bytes_.push_back(value); }

void ByteWriter::U32(std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void ByteWriter::U64(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void ByteWriter::I64(std::int64_t value) {
  U64(static_cast<std::uint64_t>(value));
}

void ByteWriter::F64(double value) { U64(std::bit_cast<std::uint64_t>(value)); }

void ByteWriter::Bool(bool value) { U8(value ? 1 : 0); }

void ByteWriter::Str(std::string_view value) {
  U64(value.size());
  bytes_.insert(bytes_.end(), value.begin(), value.end());
}

void ByteWriter::U64Vec(const std::vector<std::uint64_t>& values) {
  U64(values.size());
  for (std::uint64_t v : values) {
    U64(v);
  }
}

const std::uint8_t* ByteReader::Need(std::size_t n) {
  FGPAR_CHECK_MSG(pos_ + n <= size_,
                  "truncated byte stream: need " + std::to_string(n) +
                      " bytes at offset " + std::to_string(pos_) + " of " +
                      std::to_string(size_));
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t ByteReader::U8() { return *Need(1); }

std::uint32_t ByteReader::U32() {
  const std::uint8_t* p = Need(4);
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return value;
}

std::uint64_t ByteReader::U64() {
  const std::uint8_t* p = Need(8);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return value;
}

double ByteReader::F64() { return std::bit_cast<double>(U64()); }

bool ByteReader::Bool() {
  const std::uint8_t v = U8();
  FGPAR_CHECK_MSG(v <= 1, "corrupt byte stream: bool byte is " + std::to_string(v));
  return v != 0;
}

std::string ByteReader::Str() {
  const std::uint64_t n = U64();
  FGPAR_CHECK_MSG(n <= remaining(), "truncated byte stream: string of " +
                                        std::to_string(n) + " bytes with " +
                                        std::to_string(remaining()) + " left");
  const std::uint8_t* p = Need(static_cast<std::size_t>(n));
  return std::string(reinterpret_cast<const char*>(p),
                     static_cast<std::size_t>(n));
}

void ByteReader::CheckFullyConsumed() const {
  FGPAR_CHECK_MSG(pos_ == size_, "byte stream has " +
                                     std::to_string(size_ - pos_) +
                                     " trailing bytes");
}

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int HexNibble(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

template <typename Seq>
std::string HexEncodeSeq(const Seq& bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const auto b : bytes) {
    const std::uint8_t v = static_cast<std::uint8_t>(b);
    out.push_back(kHexDigits[v >> 4]);
    out.push_back(kHexDigits[v & 0xF]);
  }
  return out;
}
}  // namespace

std::string HexEncode(const std::vector<std::uint8_t>& bytes) {
  return HexEncodeSeq(bytes);
}

std::string HexEncode(std::string_view bytes) { return HexEncodeSeq(bytes); }

std::vector<std::uint8_t> HexDecode(std::string_view hex) {
  FGPAR_CHECK_MSG(hex.size() % 2 == 0,
                  "hex string has odd length " + std::to_string(hex.size()));
  std::vector<std::uint8_t> bytes;
  bytes.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = HexNibble(hex[i]);
    const int lo = HexNibble(hex[i + 1]);
    FGPAR_CHECK_MSG(hi >= 0 && lo >= 0,
                    "invalid hex byte at offset " + std::to_string(i));
    bytes.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return bytes;
}

std::string HexDecodeToString(std::string_view hex) {
  const std::vector<std::uint8_t> bytes = HexDecode(hex);
  return std::string(bytes.begin(), bytes.end());
}

std::uint64_t Fnv1a64(const void* data, std::size_t size, std::uint64_t seed) {
  std::uint64_t hash = seed;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t Fnv1a64(std::string_view text, std::uint64_t seed) {
  return Fnv1a64(text.data(), text.size(), seed);
}

}  // namespace fgpar
