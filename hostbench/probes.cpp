#include "probes.hpp"

#include <chrono>
#include <vector>

#include "sim/engine.hpp"

namespace hostbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  Layer layer = Layer::kRun;
  double start = 0;  // host seconds since the process started
  double end = 0;
  std::int32_t parent = -1;  // index into g_spans, -1 for a root
};

const Clock::time_point g_origin = Clock::now();

parcoll::sim::Engine* g_engine = nullptr;
double g_first_run_start = -1;
void (*g_first_run_hook)() = nullptr;
std::uint64_t g_store_bytes = 0;
std::array<LayerTotals, kNumLayers> g_totals{};
std::vector<Span> g_spans;

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRun:
      return "workloads.run";
    case Layer::kSimRun:
      return "sim.run";
    case Layer::kMakeNodeComm:
      return "node.make_node_comm";
    case Layer::kDefaultAggregators:
      return "mpiio.default_aggregators";
    case Layer::kCommSplit:
      return "mpi.comm_split";
    case Layer::kWriteAtAll:
      return "core.write_at_all";
    case Layer::kReadAtAll:
      return "core.read_at_all";
    case Layer::kFill:
      return "workloads.fill";
    case Layer::kVerifyStore:
      return "workloads.verify_store";
    case Layer::kCheckBuffer:
      return "workloads.check_buffer";
    case Layer::kCollect:
      return "workloads.collect";
  }
  return "?";
}

double host_now() {
  return std::chrono::duration<double>(Clock::now() - g_origin).count();
}

Probe::Probe(Layer layer)
    : layer_(layer),
      start_(host_now()),
      first_child_(g_spans.size()),
      watch_engine_(g_engine != nullptr) {
  if (watch_engine_) {
    virtual_start_ = g_engine->now();
    events_start_ = g_engine->stats().events_executed;
  }
}

Probe::~Probe() {
  const double end = host_now();
  LayerTotals& totals = g_totals[static_cast<std::size_t>(layer_)];
  ++totals.calls;
  if (watch_engine_ && (g_engine->now() != virtual_start_ ||
                        g_engine->stats().events_executed != events_start_)) {
    return;  // the call yielded: other fibers ran inside it
  }
  ++totals.spans;
  totals.seconds += end - start_;
  // Every span that closed while this call was open nests inside it (spans
  // never cross a fiber switch); the ones still without a parent are this
  // span's direct children.
  const auto self = static_cast<std::int32_t>(g_spans.size());
  for (std::size_t i = first_child_; i < g_spans.size(); ++i) {
    if (g_spans[i].parent < 0) {
      g_spans[i].parent = self;
    }
  }
  g_spans.push_back(Span{layer_, start_, end, -1});
}

EngineScope::EngineScope(parcoll::sim::Engine* engine) : outer_(g_engine) {
  g_engine = engine;
  if (g_first_run_start < 0) {
    g_first_run_start = host_now();
    if (g_first_run_hook != nullptr) {
      g_first_run_hook();
    }
  }
}

EngineScope::~EngineScope() { g_engine = outer_; }

double first_engine_run_start() { return g_first_run_start; }

void on_first_engine_run(void (*hook)()) { g_first_run_hook = hook; }

void record_store_bytes(std::uint64_t bytes) { g_store_bytes = bytes; }

std::uint64_t store_bytes() { return g_store_bytes; }

const std::array<LayerTotals, kNumLayers>& layer_totals() { return g_totals; }

double child_seconds(Layer parent) {
  double sum = 0;
  for (const Span& span : g_spans) {
    if (span.parent >= 0 &&
        g_spans[static_cast<std::size_t>(span.parent)].layer == parent) {
      sum += span.end - span.start;
    }
  }
  return sum;
}

void write_spans(std::FILE* out) {
  std::fprintf(out, "index,name,start_s,end_s,parent\n");
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const Span& span = g_spans[i];
    std::fprintf(out, "%zu,%s,%.9f,%.9f,%d\n", i, layer_name(span.layer),
                 span.start, span.end, span.parent);
  }
}

}  // namespace hostbench
