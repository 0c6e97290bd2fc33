// Deterministic binary serialization primitives.
//
// ByteWriter/ByteReader produce and consume a flat little-endian byte
// stream, independent of host endianness and padding, so a serialized
// machine snapshot or checkpoint payload is byte-identical across hosts
// and compilers.  The reader is strict: reading past the end, or finishing
// with bytes left over (CheckFullyConsumed), throws fgpar::Error instead of
// silently producing garbage — corrupt or truncated inputs must fail loud.
//
// HexEncode/HexDecode map byte blobs to lowercase hex for line-oriented
// text formats (the sweep checkpoint journal), and Fnv1a64 provides the
// stable content fingerprint used by snapshot identity hashes and
// checkpoint grid fingerprints.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fgpar {

class ByteWriter {
 public:
  void U8(std::uint8_t value);
  void U32(std::uint32_t value);
  void U64(std::uint64_t value);
  void I64(std::int64_t value);
  /// Bit-exact (round-trips NaN payloads and signed zero).
  void F64(double value);
  void Bool(bool value);
  /// Length-prefixed (u64) byte string.
  void Str(std::string_view value);
  /// Length-prefixed (u64) u64 vector.
  void U64Vec(const std::vector<std::uint64_t>& values);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class ByteReader {
 public:
  /// The reader borrows `bytes`; it must outlive the reader.
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  double F64();
  bool Bool();
  std::string Str();

  std::size_t remaining() const { return size_ - pos_; }
  /// Throws if any bytes were left unread (trailing garbage).
  void CheckFullyConsumed() const;

 private:
  const std::uint8_t* Need(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Lowercase hex of a byte blob (two chars per byte).
std::string HexEncode(const std::vector<std::uint8_t>& bytes);
std::string HexEncode(std::string_view bytes);

/// Inverse of HexEncode; throws fgpar::Error on odd length or non-hex
/// characters.
std::vector<std::uint8_t> HexDecode(std::string_view hex);
std::string HexDecodeToString(std::string_view hex);

/// FNV-1a over a byte sequence; stable across hosts.
std::uint64_t Fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ull);
std::uint64_t Fnv1a64(std::string_view text,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

}  // namespace fgpar
