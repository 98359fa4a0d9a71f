// Byte storage behind the simulated file system.
//
// MemoryStore keeps real file contents so tests can verify, byte for byte,
// that collective I/O protocols put the right data in the right place. The
// bytes live in fixed pages allocated on first write, so holes cost nothing
// and a growing file is never copied.
// PhantomStore keeps only bookkeeping (sizes, request counts) so benches can
// run paper-scale workloads (hundreds of GB of simulated I/O) through the
// identical code path without allocating the payload.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace parcoll::fs {

enum class StoreMode { Memory, Phantom };

class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// Write `length` bytes at `offset`; `data` may be nullptr (phantom write:
  /// bookkeeping only). Files grow as needed; gaps read back as zeros.
  virtual void write(int file_id, std::uint64_t offset, const std::byte* data,
                     std::uint64_t length) = 0;

  /// Read `length` bytes at `offset` into `out` (may be nullptr).
  virtual void read(int file_id, std::uint64_t offset, std::byte* out,
                    std::uint64_t length) = 0;

  /// High-water mark: one past the highest byte ever written.
  [[nodiscard]] virtual std::uint64_t size(int file_id) const = 0;

  /// Digest of every file's id, size, and contents (canonical id order);
  /// the model checker compares it across schedules and fault plans to
  /// assert byte-identical outcomes. Phantom stores hold no bytes: 0.
  [[nodiscard]] virtual std::uint64_t content_digest() const { return 0; }
};

class MemoryStore final : public ObjectStore {
 public:
  /// Files are stored as fixed pages, each allocated on its first write.
  static constexpr std::uint64_t kPageSize = 1ull << 20;

  void write(int file_id, std::uint64_t offset, const std::byte* data,
             std::uint64_t length) override;
  void read(int file_id, std::uint64_t offset, std::byte* out,
            std::uint64_t length) override;
  [[nodiscard]] std::uint64_t size(int file_id) const override;
  [[nodiscard]] std::uint64_t content_digest() const override;

  /// A copy of the whole file (holes as zeros), for test assertions.
  [[nodiscard]] std::vector<std::byte> contents(int file_id) const;

  /// Walk [offset, offset + length) of `file_id` in order, one piece per
  /// page: fn(bytes, n), where `bytes` is nullptr for a page never written
  /// (it reads as n zeros). Unknown files and bytes past EOF are holes.
  template <class Fn>
  void for_each_page(int file_id, std::uint64_t offset, std::uint64_t length,
                     Fn&& fn) const;

 private:
  /// read() for a non-null `out`; also fills contents().
  void copy_out(int file_id, std::uint64_t offset, std::byte* out,
                std::uint64_t length) const;

  struct FreePage {
    void operator()(std::byte* page) const { std::free(page); }
  };
  using Page = std::unique_ptr<std::byte[], FreePage>;
  struct File {
    std::uint64_t size = 0;   // logical size: one past the last byte written
    std::vector<Page> pages;  // index = offset / kPageSize; null = a hole
  };
  std::unordered_map<int, File> files_;
};

template <class Fn>
void MemoryStore::for_each_page(int file_id, std::uint64_t offset,
                                std::uint64_t length, Fn&& fn) const {
  const auto it = files_.find(file_id);
  const std::vector<Page>* pages =
      it == files_.end() ? nullptr : &it->second.pages;
  while (length > 0) {
    const std::uint64_t index = offset / kPageSize;
    const std::uint64_t at = offset % kPageSize;
    const std::uint64_t n = std::min(length, kPageSize - at);
    const std::byte* page = pages != nullptr && index < pages->size()
                                ? (*pages)[index].get()
                                : nullptr;
    fn(page == nullptr ? nullptr : page + at, n);
    offset += n;
    length -= n;
  }
}

class PhantomStore final : public ObjectStore {
 public:
  void write(int file_id, std::uint64_t offset, const std::byte* data,
             std::uint64_t length) override;
  void read(int file_id, std::uint64_t offset, std::byte* out,
            std::uint64_t length) override;
  [[nodiscard]] std::uint64_t size(int file_id) const override;

  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::uint64_t bytes_read() const { return bytes_read_; }
  [[nodiscard]] std::uint64_t write_ops() const { return write_ops_; }
  [[nodiscard]] std::uint64_t read_ops() const { return read_ops_; }

 private:
  std::unordered_map<int, std::uint64_t> high_water_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t write_ops_ = 0;
  std::uint64_t read_ops_ = 0;
};

}  // namespace parcoll::fs
