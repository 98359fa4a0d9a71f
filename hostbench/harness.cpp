// One benchmark operation: a single complete simulated run of a named
// workload through the library's public entry points (workloads::run_ior,
// workloads::run_tileio), reported as one JSON line on stdout.
//
//   hostbench --workload NAME [--storage-seed N] [--spans FILE]
//             [--setup-only]
//
// The line carries the host times of the call (set-up until the event loop
// starts, the event loop, the whole call), the run's virtual-time outputs
// for the output check, engine counters and, from the traced binary, the
// per-layer call counts and span seconds. CPU time and peak RSS are not
// measured here: the parent process reads them from this process's rusage
// when it exits, so each operation's peak is its own.
//
// --setup-only ends the process as soon as the event loop starts, printing
// only {"setup_s": ...}: a cheap extra sample of the set-up phase.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "core/file_area.hpp"
#include "obs/json.hpp"
#include "probes.hpp"
#include "workloads/ior.hpp"
#include "workloads/tileio.hpp"

namespace {

namespace pc = parcoll;
using pc::obs::JsonValue;
using pc::workloads::Impl;
using pc::workloads::RunResult;
using pc::workloads::RunSpec;
using hostbench::Layer;

// Host time of the call into workloads::run_*.
double g_call_start = 0;

struct Workload {
  const char* name;
  bool tileio;  // else IOR
  Impl impl;
  int ranks;
  bool byte_true;
  bool write;
  std::uint64_t ior_block;  // IOR bytes per rank (0 = paper default)
};

// The four benchmark workloads, plus a small IOR used only by the RSS
// isolation self-test.
constexpr Workload kWorkloads[] = {
    {"ior-ext2ph-p512", false, Impl::Ext2ph, 512, false, true, 0},
    {"ior-parcoll-p2048", false, Impl::ParColl, 2048, false, true, 0},
    {"tileio-write-bytetrue-p16", true, Impl::ParColl, 16, true, true, 0},
    {"tileio-read-bytetrue-p16", true, Impl::ParColl, 16, true, false, 0},
    {"selftest-ior-p16", false, Impl::Ext2ph, 16, false, true, 16ull << 20},
};

const Workload* find_workload(const char* name) {
  for (const Workload& workload : kWorkloads) {
    if (std::strcmp(workload.name, name) == 0) {
      return &workload;
    }
  }
  return nullptr;
}

RunResult run(const Workload& workload, const RunSpec& spec) {
  if (workload.tileio) {
    return pc::workloads::run_tileio(
        pc::workloads::TileIOConfig::paper(workload.ranks), workload.ranks,
        spec, workload.write);
  }
  pc::workloads::IorConfig config;
  if (workload.ior_block != 0) {
    config.block_size = workload.ior_block;
  }
  return pc::workloads::run_ior(config, workload.ranks, spec, workload.write);
}

JsonValue virtual_outputs(const RunResult& result) {
  JsonValue time = JsonValue::object();
  for (std::size_t i = 0; i < pc::mpi::kNumTimeCats; ++i) {
    const auto cat = static_cast<pc::mpi::TimeCat>(i);
    time.set(pc::mpi::to_string(cat), result.sum[cat]);
  }
  JsonValue virt = JsonValue::object();
  virt.set("elapsed_s", result.elapsed);
  virt.set("total_elapsed_s", result.total_elapsed);
  virt.set("bytes", result.bytes);
  virt.set("fs_rpcs", result.fs_rpcs);
  virt.set("fs_lock_switches", result.fs_lock_switches);
  virt.set("time", time);
  virt.set("schedule", result.schedule_token);
  return virt;
}

JsonValue layers_json() {
  JsonValue layers = JsonValue::object();
  const auto& totals = hostbench::layer_totals();
  for (std::size_t i = 0; i < hostbench::kNumLayers; ++i) {
    JsonValue entry = JsonValue::object();
    entry.set("calls", totals[i].calls);
    entry.set("spans", totals[i].spans);
    entry.set("s", totals[i].seconds);
    layers.set(hostbench::layer_name(static_cast<Layer>(i)), entry);
  }
  return layers;
}

void exit_with_setup_time() {
  std::printf("{\"setup_s\":%.17g}\n",
              hostbench::first_engine_run_start() - g_call_start);
  std::fflush(stdout);
  std::_Exit(0);
}

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload NAME [--storage-seed N] "
               "[--spans FILE] [--setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* name = nullptr;
  const char* spans_path = nullptr;
  std::optional<std::uint64_t> storage_seed;  // unset: the model's default
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      hostbench::on_first_engine_run(exit_with_setup_time);
      continue;
    }
    if (i + 1 >= argc) {
      return usage();
    }
    if (arg == "--workload") {
      name = argv[++i];
    } else if (arg == "--storage-seed") {
      const std::string value = argv[++i];
      std::uint64_t seed = 0;
      const auto [end, error] =
          std::from_chars(value.data(), value.data() + value.size(), seed);
      if (error != std::errc() || end != value.data() + value.size()) {
        return usage();
      }
      storage_seed = seed;
    } else if (arg == "--spans") {
      spans_path = argv[++i];
    } else {
      return usage();
    }
  }
  const Workload* workload = name != nullptr ? find_workload(name) : nullptr;
  if (workload == nullptr) {
    return usage();
  }

  RunSpec spec;
  spec.impl = workload->impl;
  spec.parcoll_groups =
      workload->impl == Impl::ParColl ? pc::core::kAutoGroups : 0;
  spec.byte_true = workload->byte_true;
  spec.intranode = pc::node::IntranodeMode::Auto;
  if (storage_seed) {
    spec.tweak_model = [seed = *storage_seed](pc::machine::MachineModel& model) {
      model.storage.seed = seed;
    };
  }

  RunResult result;
  double end = 0;
  try {
    const hostbench::Probe probe(Layer::kRun);
    g_call_start = hostbench::host_now();
    result = run(*workload, spec);
    end = hostbench::host_now();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hostbench: %s failed: %s\n", workload->name,
                 error.what());
    return 1;
  }

  const auto& totals = hostbench::layer_totals();
  const double run_s =
      totals[static_cast<std::size_t>(Layer::kSimRun)].seconds;
  const double first_run = hostbench::first_engine_run_start();
  const std::uint64_t coll_calls =
      result.stats.collective_writes + result.stats.collective_reads;

  JsonValue host = JsonValue::object();
  host.set("setup_s", first_run >= 0 ? first_run - g_call_start
                                     : end - g_call_start);
  host.set("wall_s", end - g_call_start);
  host.set("run_s", run_s);
  host.set("self_s", run_s - hostbench::child_seconds(Layer::kSimRun));

  JsonValue engine = JsonValue::object();
  engine.set("events", result.engine.events_executed);
  engine.set("events_per_s", result.engine.events_per_second());
  engine.set("peak_queue_depth", result.engine.peak_queue_depth);
  engine.set("stacks_allocated", result.engine.stacks_allocated);
  engine.set("default_stack_bytes", result.engine.default_stack_bytes);

  JsonValue doc = JsonValue::object();
  doc.set("workload", workload->name);
  doc.set("ranks", workload->ranks);
  doc.set("byte_true", workload->byte_true);
  doc.set("traced",
          totals[static_cast<std::size_t>(Layer::kCollect)].calls > 0);
  doc.set("host", host);
  doc.set("virt", virtual_outputs(result));
  doc.set("verified", result.verified);
  doc.set("file_digest", result.file_digest);
  doc.set("coll_calls", coll_calls);
  doc.set("cycles", result.stats.exchange_cycles);
  doc.set("engine", engine);
  doc.set("store_bytes", hostbench::store_bytes());
  doc.set("layers", layers_json());
  std::printf("%s\n", doc.dump().c_str());
  std::fflush(stdout);

  if (spans_path != nullptr) {
    std::FILE* out = std::fopen(spans_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "hostbench: cannot write %s\n", spans_path);
      return 1;
    }
    hostbench::write_spans(out);
    std::fclose(out);
  }
  return 0;
}
