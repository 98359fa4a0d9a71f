// Event queue and the event/callback arenas.
//
// Events are 24-byte PODs in one binary min-heap on (time, seq), and
// posted callbacks live in a freelist arena of SmallCallback slots, so the
// dominant wake/sleep events carry nothing but {time, seq, pid}. Every pop
// returns precisely the (time, seq)-minimal event: the engine's one total
// order, which fixes schedules, digests and SchedulePolicy choice points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/callback.hpp"

namespace parcoll::sim {

/// One pending engine event. `pid >= 0` is a process resume; kNoProc (-1)
/// marks a callback event whose body sits in the CallbackArena at `cb`.
struct QueuedEvent {
  double time;
  std::uint64_t seq;
  int pid;
  std::uint32_t cb;
};

inline constexpr std::uint32_t kNoCallback = 0xffffffffu;

/// Freelist arena for posted callbacks: slots are reused, so steady-state
/// posting allocates nothing (beyond a capture too big for SmallCallback's
/// inline buffer).
class CallbackArena {
 public:
  std::uint32_t put(SmallCallback fn) {
    if (free_.empty()) {
      slots_.push_back(std::move(fn));
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(fn);
    return slot;
  }

  /// Move the callback out and recycle its slot.
  SmallCallback take(std::uint32_t slot) {
    SmallCallback fn = std::move(slots_[slot]);
    free_.push_back(slot);
    return fn;
  }

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<SmallCallback> slots_;
  std::vector<std::uint32_t> free_;
};

class EventQueue {
 public:
  /// Insert `event` (seq already assigned by the engine; re-pushing a
  /// popped event — the choice-point path — keeps its original seq, and
  /// with it its exact place in the total order).
  void push(const QueuedEvent& event);

  /// Remove and return the (time, seq)-minimal event.
  QueuedEvent pop();

  /// The (time, seq)-minimal event without removing it (queue must be
  /// non-empty). The engine uses this to prefetch the next fiber's state
  /// while the current event executes.
  [[nodiscard]] QueuedEvent peek() const { return heap_.front(); }

  /// Pid of the event that pops after the minimal one (the lesser of the
  /// root's two children), or -1 when there is none or it is a callback.
  /// Prefetch hint only — never consulted for ordering.
  [[nodiscard]] int second_pid_hint() const;

  /// Timestamp of the minimal event (queue must be non-empty).
  [[nodiscard]] double min_time() const { return heap_.front().time; }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  /// Largest size() so far (engine self-instrumentation).
  [[nodiscard]] std::size_t peak_depth() const { return peak_depth_; }

 private:
  std::vector<QueuedEvent> heap_;  // std heap order under `later`
  std::size_t peak_depth_ = 0;
};

/// Peak resident set size of the calling process in bytes (VmHWM), 0 when
/// unavailable. Host-side instrumentation only — never feeds the model.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace parcoll::sim
