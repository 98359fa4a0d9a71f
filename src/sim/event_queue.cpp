#include "sim/event_queue.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace parcoll::sim {

namespace {

/// Heap comparator: `true` when `a` runs later than `b`, so std heap
/// algorithms (max-heap by default) keep the earliest event on top.
inline bool later(const QueuedEvent& a, const QueuedEvent& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.seq > b.seq;
}

}  // namespace

void EventQueue::push(const QueuedEvent& event) {
  heap_.push_back(event);
  std::push_heap(heap_.begin(), heap_.end(), later);
  peak_depth_ = std::max(peak_depth_, heap_.size());
}

QueuedEvent EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const QueuedEvent event = heap_.back();
  heap_.pop_back();
  return event;
}

int EventQueue::second_pid_hint() const {
  // The second-minimal event of a binary heap is the lesser of the root's
  // two children.
  if (heap_.size() < 2) return -1;
  if (heap_.size() == 2) return heap_[1].pid;
  return later(heap_[1], heap_[2]) ? heap_[2].pid : heap_[1].pid;
}

std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  std::uint64_t kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%llu",
                  reinterpret_cast<unsigned long long*>(&kib));
      break;
    }
  }
  std::fclose(status);
  return kib * 1024;
#else
  return 0;
#endif
}

}  // namespace parcoll::sim
