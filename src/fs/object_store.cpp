#include "fs/object_store.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>

namespace parcoll::fs {

void MemoryStore::write(int file_id, std::uint64_t offset,
                        const std::byte* data, std::uint64_t length) {
  File& file = files_[file_id];
  file.size = std::max(file.size, offset + length);
  if (data == nullptr || length == 0) {
    return;
  }
  const std::uint64_t last_page = (offset + length - 1) / kPageSize;
  if (file.pages.size() <= last_page) {
    file.pages.resize(last_page + 1);
  }
  while (length > 0) {
    const std::uint64_t at = offset % kPageSize;
    const std::uint64_t n = std::min(length, kPageSize - at);
    Page& page = file.pages[offset / kPageSize];
    if (page == nullptr) {
      // calloc: the untouched rest of the page must read as zeros, and a
      // fresh mapping comes zeroed without a second pass.
      page.reset(static_cast<std::byte*>(std::calloc(kPageSize, 1)));
      if (page == nullptr) {
        throw std::bad_alloc();
      }
    }
    std::memcpy(page.get() + at, data, n);
    data += n;
    offset += n;
    length -= n;
  }
}

void MemoryStore::read(int file_id, std::uint64_t offset, std::byte* out,
                       std::uint64_t length) {
  if (out != nullptr) {
    copy_out(file_id, offset, out, length);
  }
}

void MemoryStore::copy_out(int file_id, std::uint64_t offset, std::byte* out,
                           std::uint64_t length) const {
  // Holes and bytes past EOF read as zeros (sparse-file semantics).
  for_each_page(file_id, offset, length,
                [&out](const std::byte* bytes, std::uint64_t n) {
                  if (bytes == nullptr) {
                    std::memset(out, 0, n);
                  } else {
                    std::memcpy(out, bytes, n);
                  }
                  out += n;
                });
}

std::uint64_t MemoryStore::size(int file_id) const {
  auto it = files_.find(file_id);
  return it == files_.end() ? 0 : it->second.size;
}

std::uint64_t MemoryStore::content_digest() const {
  // FNV-1a over (id, size, bytes) in ascending file-id order, so the value
  // does not depend on hash-map iteration order. A hole hashes as zeros.
  std::vector<int> ids;
  ids.reserve(files_.size());
  for (const auto& [id, file] : files_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      h = (h ^ ((value >> shift) & 0xff)) * kPrime;
    }
  };
  for (int id : ids) {
    const std::uint64_t file_size = files_.at(id).size;
    mix(static_cast<std::uint64_t>(id));
    mix(file_size);
    for_each_page(id, 0, file_size,
                  [&h](const std::byte* bytes, std::uint64_t n) {
                    if (bytes == nullptr) {
                      for (std::uint64_t i = 0; i < n; ++i) h *= kPrime;
                      return;
                    }
                    for (std::uint64_t i = 0; i < n; ++i) {
                      h = (h ^ static_cast<std::uint64_t>(bytes[i])) * kPrime;
                    }
                  });
  }
  return h;
}

std::vector<std::byte> MemoryStore::contents(int file_id) const {
  auto it = files_.find(file_id);
  if (it == files_.end()) {
    throw std::out_of_range("MemoryStore::contents: unknown file");
  }
  std::vector<std::byte> bytes(it->second.size);
  copy_out(file_id, 0, bytes.data(), bytes.size());
  return bytes;
}

void PhantomStore::write(int file_id, std::uint64_t offset,
                         const std::byte* /*data*/, std::uint64_t length) {
  auto& high = high_water_[file_id];
  high = std::max(high, offset + length);
  bytes_written_ += length;
  ++write_ops_;
}

void PhantomStore::read(int file_id, std::uint64_t offset, std::byte* out,
                        std::uint64_t length) {
  (void)file_id;
  (void)offset;
  if (out != nullptr && length > 0) {
    std::memset(out, 0, length);
  }
  bytes_read_ += length;
  ++read_ops_;
}

std::uint64_t PhantomStore::size(int file_id) const {
  auto it = high_water_.find(file_id);
  return it == high_water_.end() ? 0 : it->second;
}

}  // namespace parcoll::fs
