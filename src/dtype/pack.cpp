#include "dtype/pack.hpp"

#include <cstring>
#include <stdexcept>

namespace parcoll::dtype {

namespace {
void check_displacement(std::int64_t disp) {
  if (disp < 0) {
    throw std::invalid_argument("pack/unpack: negative displacement");
  }
}
}  // namespace

bool is_contiguous_run(const Datatype& type, std::uint64_t count) {
  const auto& segs = type.segments();
  return segs.size() == 1 && segs[0].disp == 0 &&
         (count <= 1 || type.extent() == static_cast<std::int64_t>(type.size()));
}

void pack(const void* base, const Datatype& type, std::uint64_t count,
          std::byte* out) {
  const auto* src = static_cast<const std::byte*>(base);
  std::uint64_t pos = 0;
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::int64_t shift = static_cast<std::int64_t>(k) * type.extent();
    for (const Segment& seg : type.segments()) {
      check_displacement(seg.disp + shift);
      std::memcpy(out + pos, src + seg.disp + shift, seg.length);
      pos += seg.length;
    }
  }
}

void unpack(const std::byte* in, const Datatype& type, std::uint64_t count,
            void* base) {
  auto* dst = static_cast<std::byte*>(base);
  std::uint64_t pos = 0;
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::int64_t shift = static_cast<std::int64_t>(k) * type.extent();
    for (const Segment& seg : type.segments()) {
      check_displacement(seg.disp + shift);
      std::memcpy(dst + seg.disp + shift, in + pos, seg.length);
      pos += seg.length;
    }
  }
}

}  // namespace parcoll::dtype
