// Ablation — burst-buffer staging tier (asynchronous write-behind drain).
//
// With bb=enable the aggregators' collective writes land in a per-node
// staging arena and return; background drain fibers write the staged
// segments behind to Lustre. The foreground run therefore stops paying
// the filesystem's service time inside the collective — it moves into
// hidden drain seconds — until the arena fills and stage() has to spill
// to the synchronous path.
//
// The sweep crosses drain policy x arena capacity (as a multiple of the
// bytes each node stages per run) against the bb-off baseline. Columns:
// durable = time until the last drain lands (time-to-durability; elapsed
// is the foreground span), drain = hidden background drain seconds,
// dwait = exposed foreground blocking on drains (summed over ranks),
// spills = capacity-pressure fallbacks to the synchronous path.
//
// Every run is byte-true and must reproduce the bb-off baseline's
// content digest exactly — write-behind may only move time, never bytes.
// A digest mismatch fails the bench (nonzero exit).
#include <cinttypes>

#include "bench/common.hpp"
#include "core/file_area.hpp"
#include "workloads/tileio.hpp"

int main(int argc, char** argv) {
  const bool smoke = parcoll::bench::smoke_requested(argc, argv);
  using namespace parcoll;
  using namespace parcoll::bench;

  BenchReport report("abl_burst_buffer", argc, argv);
  const int nprocs = scaled(smoke, 128);
  const auto config = workloads::TileIOConfig::paper(nprocs);

  header("Ablation: burst-buffer staging tier",
         "Tile-IO (P=" + std::to_string(nprocs) +
             "), write-behind drain by policy and arena capacity");
  std::printf("  %-28s %9s %9s %9s %6s %8s %8s %7s\n", "series", "MiB/s",
              "elapsed s", "durable s", "sync%", "drain s", "dwait s",
              "spills");

  const auto make_spec = [&]() {
    workloads::RunSpec spec = parcoll_spec(core::kAutoGroups);
    spec.byte_true = true;  // digests must be meaningful
    return spec;
  };
  const auto print_row = [&](const std::string& series,
                             const workloads::RunResult& result) {
    std::printf("  %-28s %9.1f %9.3f %9.3f %5.1f%% %8.3f %8.3f %7" PRIu64
                "\n",
                series.c_str(), result.bandwidth_mib(), result.elapsed,
                result.total_elapsed, 100.0 * result.sync_fraction(),
                result.stats.time[mpi::TimeCat::Drain],
                result.sum[mpi::TimeCat::DrainWait], result.stats.bb.spills);
    report.add(series, nprocs, result);
  };

  const workloads::RunResult base =
      workloads::run_tileio(config, nprocs, make_spec(), true);
  print_row("bb-off", base);
  std::printf("\n");

  // Capacity as a multiple of the bytes each node stages per run, so the
  // x1/4 point is guaranteed capacity pressure (spills engage) and the x4
  // point is guaranteed headroom regardless of the smoke shrink.
  const auto nnodes = static_cast<std::uint64_t>(
      (nprocs + make_spec().cores_per_node - 1) / make_spec().cores_per_node);
  const std::uint64_t per_node = std::max<std::uint64_t>(
      base.bytes / std::max<std::uint64_t>(nnodes, 1), 1);

  bool digests_ok = true;
  const bb::DrainPolicy policies[] = {
      bb::DrainPolicy::Immediate, bb::DrainPolicy::Watermark,
      bb::DrainPolicy::Deadline, bb::DrainPolicy::Arbitrate};
  const struct {
    const char* label;
    double factor;
  } capacities[] = {{"x1/4", 0.25}, {"x1", 1.0}, {"x4", 4.0}};

  for (const bb::DrainPolicy policy : policies) {
    for (const auto& cap : capacities) {
      workloads::RunSpec spec = make_spec();
      spec.bb.enabled = true;
      spec.bb.policy = policy;
      spec.bb.capacity = std::max<std::uint64_t>(
          static_cast<std::uint64_t>(cap.factor *
                                     static_cast<double>(per_node)),
          64 << 10);
      const auto result = workloads::run_tileio(config, nprocs, spec, true);
      const std::string series =
          std::string("bb-") + bb::to_string(policy) + "/cap" + cap.label;
      print_row(series, result);
      if (result.file_digest != base.file_digest) {
        digests_ok = false;
        std::fprintf(stderr,
                     "DIGEST MISMATCH: %s produced %016" PRIx64
                     ", bb-off baseline %016" PRIx64 "\n",
                     series.c_str(), result.file_digest, base.file_digest);
      }
    }
    std::printf("\n");
  }

  footnote("write-behind converts foreground fs service time into hidden");
  footnote("drain seconds: elapsed and sync% drop vs bb-off while durable");
  footnote("(time-to-durability) absorbs the deferred work. Undersized");
  footnote("arenas (x1/4) spill back to the synchronous path and give the");
  footnote("win back; all digests must equal the bb-off baseline");
  if (!digests_ok) {
    std::fprintf(stderr, "abl_burst_buffer: content digest check FAILED\n");
    return 1;
  }
  return 0;
}
