// Host-time probes placed around calls into the simulator's layers from
// outside the library.
//
// Every probe wraps one call to a public, cross-module function of the
// library (the wrappers in engine_wrap.cpp and layer_wraps.cpp are bound by
// the linker's --wrap option, so nothing under src/ changes). A probe
// always counts its call. It also records a duration span, but only when
// the call finished without a fiber switch: the engine's virtual clock and
// executed-event count must read the same before and after. A call that
// yields to other fibers (a collective, a comm_split) interleaves with other
// ranks' work, so its host duration belongs to no single layer and it stays
// a count.
//
// Spans are kept in memory, each with a name, start, end and the index of
// its parent (the innermost span that was open around it), and written out
// once the run is over.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>

namespace parcoll::sim {
class Engine;
}  // namespace parcoll::sim

namespace hostbench {

/// The layer boundaries the benchmark can see. kRun is the harness's own
/// call into workloads::run_*; kSimRun is the engine's event loop.
enum class Layer : std::size_t {
  kRun,
  kSimRun,
  kMakeNodeComm,
  kDefaultAggregators,
  kCommSplit,
  kWriteAtAll,
  kReadAtAll,
  kFill,
  kVerifyStore,
  kCheckBuffer,
  kCollect,
};
inline constexpr std::size_t kNumLayers = 11;

/// Metric-style name of a layer ("node.make_node_comm", ...).
[[nodiscard]] const char* layer_name(Layer layer);

struct LayerTotals {
  std::uint64_t calls = 0;  // every wrapped call
  std::uint64_t spans = 0;  // calls that finished without a fiber switch
  double seconds = 0;       // summed span durations
};

/// Host seconds since process start (steady clock).
[[nodiscard]] double host_now();

/// Times one wrapped call. Construct it right before forwarding to the
/// real function; the destructor closes the call (on exceptions too).
class Probe {
 public:
  explicit Probe(Layer layer);
  ~Probe();
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

 private:
  Layer layer_;
  double start_;
  std::size_t first_child_;  // spans closed before this call opened
  bool watch_engine_;        // opened inside Engine::run (a fiber)
  double virtual_start_ = 0;
  std::uint64_t events_start_ = 0;
};

/// Marks the engine whose fibers the probes watch while Engine::run is on
/// the stack. Calls outside run() are on the main stack and cannot switch
/// fibers. The first scope of the process also stamps
/// first_engine_run_start().
class EngineScope {
 public:
  explicit EngineScope(parcoll::sim::Engine* engine);
  ~EngineScope();
  EngineScope(const EngineScope&) = delete;
  EngineScope& operator=(const EngineScope&) = delete;

 private:
  parcoll::sim::Engine* outer_;
};

/// Host time at which the first Engine::run of the process started
/// (negative before that).
[[nodiscard]] double first_engine_run_start();

/// Install a function called once, when the first Engine::run of the
/// process starts (after first_engine_run_start() is stamped).
void on_first_engine_run(void (*hook)());

/// Byte-true object-store bytes held at collect time, as seen by the
/// traced binary's collect wrapper (0 when nothing recorded it).
void record_store_bytes(std::uint64_t bytes);
[[nodiscard]] std::uint64_t store_bytes();

[[nodiscard]] const std::array<LayerTotals, kNumLayers>& layer_totals();

/// Summed durations of the direct children of spans of `parent` layer.
[[nodiscard]] double child_seconds(Layer parent);

/// Write every span as CSV (index,name,start_s,end_s,parent).
void write_spans(std::FILE* out);

}  // namespace hostbench
