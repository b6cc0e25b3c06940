// Little-endian binary codec shared by every on-disk state format: the
// attacker checkpoint ("PRCK", core/ppo.cc), the defender state blob
// ("PRDF", env/defended.cc) and the whole-file integrity footer
// (util/fsio.cc).
//
// ByteWriter appends fixed-width values to a std::string. ByteReader
// reads them back from a std::string_view with sticky failure: the
// first read that runs past the end marks the reader failed, and every
// later read returns zero/empty without consuming anything. A parser
// therefore reads a whole section and checks ok() once before it acts
// on the values.
//
// Counts are the dangerous fields of a file format: a corrupt or
// hostile count would make the parser allocate (or loop) for elements
// the input cannot possibly contain. ByteReader::Count fails unless
// `count * min_element_bytes` fits in the bytes left, and Floats/Bytes/
// String check their size before they copy, so no read ever asks for
// more memory than the input's own length.
//
// This is the only code in src/ that reinterprets memory as bytes
// (tools/ci_check.sh enforces it).
#ifndef POISONREC_UTIL_BYTES_H_
#define POISONREC_UTIL_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace poisonrec {

// The formats are defined little-endian and values are copied as-is.
static_assert(std::endian::native == std::endian::little,
              "util/bytes assumes a little-endian host");

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Appends after `prefix` (e.g. a payload that gets a footer).
  explicit ByteWriter(std::string prefix) : bytes_(std::move(prefix)) {}

  void U8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(std::uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(std::int32_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  /// float32 payload without a length prefix (the reader knows the
  /// count from the shape that precedes it).
  void Floats(std::span<const float> v) { Raw(v.data(), v.size_bytes()); }
  /// Raw bytes without a length prefix.
  void Bytes(std::string_view v) { bytes_.append(v); }
  /// u64 length, then the bytes.
  void String(std::string_view v) {
    U64(v.size());
    Bytes(v);
  }

  std::string Take() && { return std::move(bytes_); }

 private:
  void Raw(const void* data, std::size_t size);

  std::string bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t U8() { return Scalar<std::uint8_t>(); }
  std::uint32_t U32() { return Scalar<std::uint32_t>(); }
  std::uint64_t U64() { return Scalar<std::uint64_t>(); }
  std::int32_t I32() { return Scalar<std::int32_t>(); }
  double F64() { return Scalar<double>(); }
  /// `count` float32 values (empty on failure).
  std::vector<float> Floats(std::size_t count);
  /// The next `size` bytes, viewing the input (empty on failure).
  std::string_view Bytes(std::size_t size);
  /// A u64-length-prefixed byte string, viewing the input.
  std::string_view String() { return Bytes(Count(1)); }
  /// Reads a u64 element count and fails unless that many elements of
  /// at least `min_element_bytes` each fit in the bytes left. Returns 0
  /// on failure, so a container sized by it stays empty.
  std::uint64_t Count(std::size_t min_element_bytes);

  bool ok() const { return ok_; }
  std::size_t remaining() const { return bytes_.size(); }

 private:
  /// Copies the next `size` bytes to `out`; leaves it untouched (and
  /// the reader failed) when fewer remain or the reader already failed.
  void Read(void* out, std::size_t size);

  template <typename T>
  T Scalar() {
    T v{};
    Read(&v, sizeof(v));
    return v;
  }

  std::string_view bytes_;
  bool ok_ = true;
};

}  // namespace poisonrec

#endif  // POISONREC_UTIL_BYTES_H_
