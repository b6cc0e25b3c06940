#include "util/bytes.h"

#include <algorithm>
#include <cstring>

namespace poisonrec {

void ByteWriter::Raw(const void* data, std::size_t size) {
  bytes_.append(reinterpret_cast<const char*>(data), size);
}

std::string_view ByteReader::Bytes(std::size_t size) {
  if (!ok_ || size > bytes_.size()) {
    ok_ = false;
    return {};
  }
  const std::string_view v = bytes_.substr(0, size);
  bytes_.remove_prefix(size);
  return v;
}

void ByteReader::Read(void* out, std::size_t size) {
  const std::string_view v = Bytes(size);
  if (ok_ && size > 0) std::memcpy(out, v.data(), size);
}

std::vector<float> ByteReader::Floats(std::size_t count) {
  // Bounded before the allocation, and before count * 4 can overflow.
  if (count > bytes_.size() / sizeof(float)) ok_ = false;
  std::vector<float> v(ok_ ? count : 0);
  Read(v.data(), v.size() * sizeof(float));
  return v;
}

std::uint64_t ByteReader::Count(std::size_t min_element_bytes) {
  // Every element occupies at least one byte, so 0 still bounds.
  const std::size_t element_bytes =
      std::max<std::size_t>(min_element_bytes, 1);
  const std::uint64_t count = U64();
  if (ok_ && count > bytes_.size() / element_bytes) ok_ = false;
  return ok_ ? count : 0;
}

}  // namespace poisonrec
