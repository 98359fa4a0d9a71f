// Deterministic fault injection for the simulated Lustre/MPI-IO stack.
//
// A FaultPlan is a seeded, fully reproducible schedule of degraded-mode
// events — OST outage and degradation windows, per-RPC drop/delay
// probabilities, and rank compute stalls. Every probabilistic decision is a
// pure hash of (seed, stream identifiers, draw counter), so a given plan
// produces the identical event sequence on every run, and two protocols
// (ext2ph vs. ParColl) can be compared under *identical* fault conditions.
//
// The plan is queried from hooks in fs::OstModel::serve (outages, drops,
// delays, degradation), the LustreSim RPC path (timeout/backoff/failover),
// the collective entry points (rank stalls), and the ParColl engine
// (aggregator re-election). An empty plan short-circuits at every hook:
// the fault-free path is bit-for-bit and timing-identical to a build
// without the fault layer.
//
// This header is deliberately free of MPI/fs dependencies so both layers
// can include it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace parcoll::obs {
class JsonValue;
}

namespace parcoll::fault {

/// OST `ost` serves nothing in [begin, end): RPCs arriving inside the
/// window receive no reply and the client's timeout machinery kicks in.
struct OstOutage {
  int ost = -1;
  double begin = 0.0;
  double end = 0.0;

  bool operator==(const OstOutage&) const = default;
};

/// OST `ost` runs degraded in [begin, end): service times are multiplied by
/// `factor` on top of the model's own heavy-tailed slowdowns.
struct OstDegrade {
  int ost = -1;
  double begin = 0.0;
  double end = 0.0;
  double factor = 1.0;

  bool operator==(const OstDegrade&) const = default;
};

/// Rank `rank` stalls (e.g. OS noise, a wedged core) for `duration`
/// seconds, applied at the rank's first synchronization point at or after
/// virtual time `at`.
struct RankStall {
  int rank = -1;
  double at = 0.0;
  double duration = 0.0;

  bool operator==(const RankStall&) const = default;
};

/// Latent media corruption: one stored byte on OST `ost` silently flips a
/// bit at virtual time `at`. The flipped site is a seeded hash over the
/// bytes the OST holds at that moment, so the event is deterministic for a
/// given store state. A no-op while the OST holds no data (or in phantom
/// store mode, which keeps no bytes to flip).
struct MediaCorrupt {
  int ost = -1;
  double at = 0.0;

  bool operator==(const MediaCorrupt&) const = default;
};

/// Client-side RPC recovery policy: a lost RPC is detected after `timeout`
/// seconds, retried with capped exponential backoff, and after
/// `max_retries` consecutive failures on one target the I/O fails over to
/// the next surviving OST.
struct RetryPolicy {
  double timeout = 0.05;
  double backoff_base = 0.01;
  double backoff_max = 0.2;
  int max_retries = 3;

  bool operator==(const RetryPolicy&) const = default;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<OstOutage> outages;
  std::vector<OstDegrade> degrades;
  std::vector<RankStall> stalls;
  std::vector<MediaCorrupt> media;
  /// Probability that any one RPC is dropped en route (drawn per attempt).
  double rpc_drop_prob = 0.0;
  /// Probability that an RPC is delayed by rpc_delay_seconds.
  double rpc_delay_prob = 0.0;
  double rpc_delay_seconds = 0.0;
  /// Probability that a write RPC's payload lands on the OST with a silent
  /// bit flip (drawn per stored piece, fresh randomness per retransmit).
  double rpc_corrupt_prob = 0.0;
  /// Probability that a resident bb staging segment decays in the arena
  /// between stage and drain (drawn per staged segment).
  double bb_corrupt_prob = 0.0;
  /// A subgroup re-elects an aggregator whose remaining scheduled stall
  /// exceeds this threshold at collective-entry time.
  double agg_stall_threshold = 0.05;
  RetryPolicy retry;

  /// True when the plan schedules nothing; empty plans are never installed,
  /// so every hook reduces to a null-pointer check.
  [[nodiscard]] bool empty() const;

  [[nodiscard]] bool ost_down(int ost, double at) const;
  [[nodiscard]] double degrade_factor(int ost, double at) const;
  /// Per-attempt drop/delay draws; `draw` is the OST's monotone fault-draw
  /// counter, so retries of a dropped RPC get fresh randomness.
  [[nodiscard]] bool drop_rpc(int ost, std::uint64_t draw) const;
  [[nodiscard]] bool delay_rpc(int ost, std::uint64_t draw) const;
  /// Per-piece write-payload corruption draw (same counter discipline as
  /// drop/delay: the caller supplies a monotone per-OST draw counter).
  [[nodiscard]] bool corrupt_rpc(int ost, std::uint64_t draw) const;
  /// Per-segment bb decay draw; `rank` keys the stream so draws are
  /// schedule-independent (each rank counts its own staged segments).
  [[nodiscard]] bool corrupt_bb(int rank, std::uint64_t draw) const;
  /// Seeded site-selection hash for picking which byte/bit a corruption
  /// event flips; deterministic in (seed, a, b).
  [[nodiscard]] std::uint64_t corrupt_site(std::uint64_t a,
                                           std::uint64_t b) const;
  /// Seconds of scheduled stall remaining for `rank` at time `at` (0 when
  /// none is in progress).
  [[nodiscard]] double stall_remaining(int rank, double at) const;
  [[nodiscard]] bool has_rank_stalls() const { return !stalls.empty(); }
  /// Capped exponential backoff before retry number `attempt` (0-based).
  [[nodiscard]] double backoff(int attempt) const;

  /// Parse a plan from a semicolon-separated spec, e.g.
  ///   "seed=7;ost-outage=3:0.1:0.5;rpc-drop=0.01;rank-stall=5:0.2:1.0;
  ///    ost-degrade=2:0:1:4.0;rpc-delay=0.05:0.01;timeout=0.02;
  ///    max-retries=2;backoff=0.005:0.1;agg-stall-threshold=0.05"
  /// Repeatable keys: ost-outage, ost-degrade, rank-stall. Throws
  /// std::invalid_argument on malformed input.
  static FaultPlan parse(const std::string& spec);

  /// Canonical one-line rendering (stable across identical plans);
  /// round-trips exactly: parse(describe()) == *this.
  [[nodiscard]] std::string describe() const;

  bool operator==(const FaultPlan&) const = default;
};

/// Degraded-mode event counters. Kept per client/rank so a rank can
/// snapshot-and-diff its own counters around an operation without seeing
/// other ranks' interleaved activity. Corruption detections and repairs
/// are the checksum pipeline's to count (fs::IntegrityCounters).
struct FaultCounters {
  std::uint64_t retries = 0;      // RPC attempts that timed out and were resent
  std::uint64_t failovers = 0;    // RPCs redirected to a surviving OST
  std::uint64_t drops = 0;        // RPCs lost to the random drop process
  std::uint64_t delays = 0;       // RPCs hit by the random delay process
  std::uint64_t reelections = 0;  // aggregators replaced by their subgroup
  std::uint64_t stalls = 0;       // rank stall events applied
  std::uint64_t corrupt_injected = 0;  // silent corruption events planted
  double faulted_seconds = 0.0;   // virtual time lost to timeouts/backoff

  /// The field list, written out once: +=, -, json() visit it.
  template <typename Visit>
  static constexpr void fields(Visit&& visit) {
    visit("retries", &FaultCounters::retries);
    visit("failovers", &FaultCounters::failovers);
    visit("drops", &FaultCounters::drops);
    visit("delays", &FaultCounters::delays);
    visit("reelections", &FaultCounters::reelections);
    visit("stalls", &FaultCounters::stalls);
    visit("corrupt_injected", &FaultCounters::corrupt_injected);
    visit("faulted_seconds", &FaultCounters::faulted_seconds);
  }

  FaultCounters& operator+=(const FaultCounters& other);
  [[nodiscard]] FaultCounters operator-(const FaultCounters& before) const;
  [[nodiscard]] obs::JsonValue json() const;
  [[nodiscard]] bool any() const {
    return retries || failovers || drops || delays || reelections || stalls ||
           corrupt_injected;
  }
};

/// Mutable per-run fault bookkeeping, owned by the World.
class FaultState {
 public:
  FaultCounters& of(int client);
  [[nodiscard]] FaultCounters of(int client) const;
  [[nodiscard]] FaultCounters total() const;

 private:
  std::vector<FaultCounters> by_client_;
};

}  // namespace parcoll::fault
