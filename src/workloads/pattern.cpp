#include "workloads/pattern.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

#include "sim/random.hpp"

namespace parcoll::workloads {

namespace {

/// Expected bytes are generated, and compared, this many at a time in a
/// stack block: the audit never materializes a full-size stream.
constexpr std::uint64_t kBlock = 4096;

/// The pattern of file offsets [offset, offset + n), written to `out`.
void generate(std::byte* out, std::uint64_t offset, std::uint64_t n,
              std::uint64_t salt) {
  const std::uint64_t base = salt * 0x9e3779b97f4a7c15ull + offset;
  for (std::uint64_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>(sim::mix64(base + i) & 0xff);
  }
}

/// True if `bytes` (nullptr: n zeros) carry the pattern of file offsets
/// [offset, offset + n).
bool matches(const std::byte* bytes, std::uint64_t offset, std::uint64_t n,
             std::uint64_t salt) {
  static constexpr std::array<std::byte, kBlock> kZeros{};
  std::array<std::byte, kBlock> expected;
  for (std::uint64_t done = 0; done < n; done += kBlock) {
    const std::uint64_t m = std::min(kBlock, n - done);
    generate(expected.data(), offset + done, m, salt);
    const std::byte* actual = bytes == nullptr ? kZeros.data() : bytes + done;
    if (std::memcmp(actual, expected.data(), m) != 0) {
      return false;
    }
  }
  return true;
}

/// The precondition of fill/check_buffer_for_extents: the buffer's data
/// is exactly as long as the extents it maps to.
void require_matching_size(const dtype::Datatype& memtype, std::uint64_t count,
                           std::span<const fs::Extent> extents,
                           const char* what) {
  std::uint64_t total = 0;
  for (const fs::Extent& extent : extents) total += extent.length;
  if (total != count * memtype.size()) {
    throw std::invalid_argument(std::string(what) +
                                ": extent total != buffer data size");
  }
}

/// Walk `count` x `memtype` and `extents` together in stream order, calling
/// fn(memory displacement, file offset, n) for each run where a memtype
/// segment and an extent overlap; stops early when fn returns false.
/// Requires require_matching_size.
template <class Fn>
bool for_each_run(const dtype::Datatype& memtype, std::uint64_t count,
                  std::span<const fs::Extent> extents, Fn&& fn) {
  std::size_t e = 0;
  std::uint64_t into = 0;  // bytes of extents[e] already walked
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::int64_t shift = static_cast<std::int64_t>(k) * memtype.extent();
    for (const dtype::Segment& seg : memtype.segments()) {
      std::int64_t disp = seg.disp + shift;
      if (disp < 0) {
        throw std::invalid_argument("pattern: negative displacement");
      }
      for (std::uint64_t left = seg.length; left > 0;) {
        while (into == extents[e].length) {
          ++e;
          into = 0;
        }
        const std::uint64_t n = std::min(left, extents[e].length - into);
        if (!fn(disp, extents[e].offset + into, n)) {
          return false;
        }
        disp += static_cast<std::int64_t>(n);
        into += n;
        left -= n;
      }
    }
  }
  return true;
}

}  // namespace

std::byte pattern_byte(std::uint64_t salt, std::uint64_t position) {
  // Cheap but position-sensitive: adjacent offsets give different bytes, so
  // any misplacement (off-by-one, swapped pieces) is caught.
  std::byte b;
  generate(&b, position, 1, salt);
  return b;
}

void fill_stream(std::byte* stream, std::span<const fs::Extent> extents,
                 std::uint64_t salt) {
  for (const fs::Extent& extent : extents) {
    generate(stream, extent.offset, extent.length, salt);
    stream += extent.length;
  }
}

bool check_stream(const std::byte* stream, std::span<const fs::Extent> extents,
                  std::uint64_t salt) {
  for (const fs::Extent& extent : extents) {
    if (!matches(stream, extent.offset, extent.length, salt)) {
      return false;
    }
    stream += extent.length;
  }
  return true;
}

void fill_buffer_for_extents(void* buffer, const dtype::Datatype& memtype,
                             std::uint64_t count,
                             std::span<const fs::Extent> extents,
                             std::uint64_t salt) {
  require_matching_size(memtype, count, extents, "fill_buffer_for_extents");
  auto* base = static_cast<std::byte*>(buffer);
  for_each_run(memtype, count, extents,
               [&](std::int64_t disp, std::uint64_t offset, std::uint64_t n) {
                 generate(base + disp, offset, n, salt);
                 return true;
               });
}

bool check_buffer_for_extents(const void* buffer,
                              const dtype::Datatype& memtype,
                              std::uint64_t count,
                              std::span<const fs::Extent> extents,
                              std::uint64_t salt) {
  require_matching_size(memtype, count, extents, "check_buffer_for_extents");
  const auto* base = static_cast<const std::byte*>(buffer);
  return for_each_run(
      memtype, count, extents,
      [&](std::int64_t disp, std::uint64_t offset, std::uint64_t n) {
        return matches(base + disp, offset, n, salt);
      });
}

bool verify_store(const fs::MemoryStore& store, int file_id,
                  std::span<const fs::Extent> extents, std::uint64_t salt) {
  std::uint64_t total = 0;
  for (const fs::Extent& extent : extents) total += extent.length;
  if (total == 0) return true;  // nothing to check, file may not even exist
  const std::uint64_t size = store.size(file_id);
  for (const fs::Extent& extent : extents) {
    if (extent.end() > size) return false;
    bool ok = true;
    std::uint64_t offset = extent.offset;
    store.for_each_page(file_id, extent.offset, extent.length,
                        [&](const std::byte* bytes, std::uint64_t n) {
                          ok = ok && matches(bytes, offset, n, salt);
                          offset += n;
                        });
    if (!ok) return false;
  }
  return true;
}

}  // namespace parcoll::workloads
