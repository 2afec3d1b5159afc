// perf_regression — perf-smoke bench of the region execution engine.
//
// Times a fixed Explorer quick sweep (curated TAF + iACT + perforation
// specs x two items-per-thread points) over a synthetic region whose own
// arithmetic is deliberately cheap, so the measurement isolates the
// executor: dispatch, mask computation, AC-state management, the
// coalescing model and the timing model. Application-math-heavy workloads
// (the fig benches) would mask engine regressions; this one exists so the
// perf trajectory of the engine itself is tracked from PR 3 onward.
//
// Two engine paths are timed over the identical workload:
//   batched — serial execution, one call per warp via the batched binding;
//   sharded — the same binding plus team-parallel execution on the host
//             pool.
// The result databases must be byte-identical; the bench fails loudly if
// they are not (the engine's bit-identity contract).
//
// Output: <out-dir>/BENCH_region_exec.json with wall seconds and
// region-invocations/second per path. Wire into CI as a non-gating step.

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "approx/iact.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/scheduler.hpp"
#include "common/simd.hpp"
#include "harness/explorer.hpp"
#include "harness/params.hpp"
#include "offload/device.hpp"
#include "offload/target.hpp"
#include "sim/device.hpp"
#include "sim/launch.hpp"

namespace {

using namespace hpac;

/// The synthetic region: out = a small polynomial of the item index, with
/// a long stable plateau (TAF-friendly), a short varying tail and inputs
/// that repeat with a small period (iACT-friendly).
double region_value(std::uint64_t i) {
  if (i % 97 < 60) return 42.0;
  return 1.0 + static_cast<double>(i % 7) * 0.25;
}

class EngineMicro : public harness::Benchmark {
 public:
  std::string name() const override { return "engine_micro"; }
  std::uint64_t default_items_per_thread() const override { return 8; }
  std::vector<std::uint64_t> memo_items_axis() const override { return {8, 64}; }

  harness::RunOutput run(const pragma::ApproxSpec& spec, std::uint64_t items_per_thread,
                         const sim::DeviceConfig& device) override {
    const std::uint64_t n = kItems;
    offload::Device dev(device);
    approx::RegionExecutor executor(device);
    std::vector<double> out_values(n, 0.0);

    harness::RunOutput output;
    offload::MapScope map_in(dev, n * 2 * sizeof(double), offload::MapDir::kTo);
    offload::MapScope map_out(dev, n * sizeof(double), offload::MapDir::kFrom);

    approx::RegionBinding binding;
    binding.in_dims = 2;
    binding.out_dims = 1;
    binding.in_bytes = 2 * sizeof(double);
    binding.out_bytes = sizeof(double);
    approx::bind_gather(binding, [](std::uint64_t i, double* in) {
      in[0] = static_cast<double>(i % 13);
      in[1] = static_cast<double>((i / 13) % 7);
    });
    approx::bind_accurate(binding, [](std::uint64_t i, double* out) { out[0] = region_value(i); });
    approx::bind_constant_cost(binding, 64.0);
    approx::bind_commit(binding, [&out_values](std::uint64_t i, const double* out) {
      out_values[i] = out[0];
    });
    binding.independent_items = true;

    const sim::LaunchConfig launch =
        sim::launch_for_items_per_thread(n, items_per_thread, threads_per_team());
    const approx::RegionReport report =
        offload::target_parallel_for(dev, executor, spec, binding, n, launch);
    output.stats = report.stats;
    output.timeline = dev.timeline();
    output.qoi = std::move(out_values);
    return output;
  }

  std::unique_ptr<harness::Benchmark> fork() const override {
    return std::make_unique<EngineMicro>(*this);
  }

  static constexpr std::uint64_t kItems = 1u << 16;
};

struct SweepResult {
  double wall_seconds = 0;
  std::uint64_t invocations = 0;
  std::string csv_text;
};

std::vector<pragma::ApproxSpec> curated_specs() {
  std::vector<pragma::ApproxSpec> specs =
      harness::curated_taf_specs(harness::table2::hierarchies());
  for (const auto& spec :
       harness::curated_iact_specs(sim::v100().warp_size, harness::table2::hierarchies())) {
    specs.push_back(spec);
  }
  for (const auto& spec : harness::curated_perfo_specs()) specs.push_back(spec);
  return specs;
}

/// One sweep under the process-wide default tuning already in effect.
SweepResult sweep_once() {
  EngineMicro bench;
  harness::Explorer explorer(bench, sim::v100());
  const std::vector<pragma::ApproxSpec> specs = curated_specs();

  const auto start = std::chrono::steady_clock::now();
  explorer.sweep(specs, bench.memo_items_axis(), /*num_threads=*/1);
  const auto stop = std::chrono::steady_clock::now();

  SweepResult result;
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  for (const auto& record : explorer.db().records()) {
    if (record.feasible) result.invocations += EngineMicro::kItems;
  }
  std::ostringstream os;
  explorer.db().to_csv().write(os);
  result.csv_text = os.str();
  return result;
}

SweepResult run_sweep(const approx::ExecTuning& tuning) {
  const approx::ExecTuning previous = approx::RegionExecutor::default_tuning();
  approx::RegionExecutor::set_default_tuning(tuning);
  SweepResult result = sweep_once();
  approx::RegionExecutor::set_default_tuning(previous);
  return result;
}

/// The nested Campaign x independent_items scenario: an outer two-way
/// (benchmark, device)-shard-style fan-out on the shared scheduler, each
/// shard running a full serial Explorer sweep whose region launches carry
/// `independent_items`. With `inner` pinned to one thread this reproduces
/// the pre-scheduler status quo (the worker-thread gate forced nested
/// launches serial); with the cooperative tuning the inner team shards
/// become stealable tasks that idle outer workers pick up. Wall-clock is
/// the whole outer join; both shards' CSVs must stay byte-identical to
/// the serial sweep.
SweepResult run_nested(const approx::ExecTuning& inner) {
  const approx::ExecTuning previous = approx::RegionExecutor::default_tuning();
  approx::RegionExecutor::set_default_tuning(inner);

  std::vector<SweepResult> shards(2);
  const auto start = std::chrono::steady_clock::now();
  hpac::Scheduler::shared().parallel_for(
      shards.size(), [&](std::size_t, std::size_t s) {
        shards[s] = sweep_once();
      },
      /*max_participants=*/shards.size());
  const auto stop = std::chrono::steady_clock::now();

  approx::RegionExecutor::set_default_tuning(previous);

  SweepResult result;
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  result.invocations = shards[0].invocations + shards[1].invocations;
  result.csv_text = shards[0].csv_text == shards[1].csv_text
                        ? shards[0].csv_text
                        : std::string("<outer shards disagree>");
  return result;
}

/// The iACT table-scan scenario: raw `find_nearest` throughput at the
/// scalar dispatch level vs the widest one the host offers. The scan is
/// the per-invocation cost iACT pays on *every* region execution (paper
/// insight 4) and the target of the SIMD fast-path program; the curated
/// iACT sweeps use table_size 64-ish and small in_dims, so that is the
/// shape timed here. Results must be bit-identical across levels — the
/// bench fails loudly if not, same as the engine paths.
struct ScanBench {
  double off_seconds = 0;
  double best_seconds = 0;
  double speedup = 0;
  const char* best_level = "off";
  bool identical = true;
};

ScanBench bench_iact_scan() {
  constexpr int kTableSize = 64;
  constexpr int kInDims = 4;
  constexpr int kProbes = 1 << 19;
  const simd::Level previous = simd::active_level();

  // Pre-generate probes so RNG cost is outside the timed loop.
  Xoshiro256 rng(2023);
  std::vector<double> probes(static_cast<std::size_t>(kProbes) * kInDims);
  for (double& v : probes) v = rng.uniform(-4.0, 4.0);

  const auto run_at = [&](simd::Level level, std::vector<int>* indices) {
    simd::set_level(level);
    std::vector<double> storage(
        approx::IactTable::storage_doubles(kTableSize, kInDims, 1), 0.0);
    approx::IactTable table(kTableSize, kInDims, 1, approx::Replacement::kRoundRobin, storage);
    Xoshiro256 fill_rng(7);
    std::vector<double> in(kInDims), out{0.0};
    for (int f = 0; f < kTableSize; ++f) {
      for (double& v : in) v = fill_rng.uniform(-4.0, 4.0);
      table.insert(in, out);
    }
    indices->clear();
    indices->reserve(kProbes);
    const auto start = std::chrono::steady_clock::now();
    for (int p = 0; p < kProbes; ++p) {
      const std::span<const double> probe(probes.data() + static_cast<std::size_t>(p) * kInDims,
                                          kInDims);
      indices->push_back(table.find_nearest(probe).index);
    }
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
  };

  ScanBench result;
  std::vector<int> off_indices, best_indices;
  result.off_seconds = run_at(simd::Level::kOff, &off_indices);
  const simd::Level best = simd::max_runtime_level();
  result.best_level = simd::level_name(best);
  if (best == simd::Level::kOff) {
    result.best_seconds = result.off_seconds;
    result.speedup = 1.0;
  } else {
    result.best_seconds = run_at(best, &best_indices);
    result.speedup = result.off_seconds / result.best_seconds;
    result.identical = off_indices == best_indices;
  }
  simd::set_level(previous);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  hpac::bench::Options opts = hpac::bench::parse_options(argc, argv);
  hpac::bench::print_banner(
      "perf_regression — region execution engine smoke",
      "engine overhead must keep shrinking; results must be bit-identical across paths");

  approx::ExecTuning serial;
  serial.max_threads = 1;
  approx::ExecTuning sharded;  // defaults: hardware concurrency, auto thresholds
  sharded.min_teams = 1;
  sharded.min_items = 0;
  sharded.min_teams_per_shard = 1;

  const SweepResult batched = run_sweep(serial);
  const SweepResult parallel = run_sweep(sharded);
  // Nested Campaign x independent_items: serialized inner = the pre-
  // scheduler status quo; cooperative inner = stealable team shards.
  const SweepResult nested_serialized = run_nested(serial);
  const SweepResult nested_cooperative = run_nested(sharded);

  const ScanBench scan = bench_iact_scan();

  const bool identical = batched.csv_text == parallel.csv_text &&
                         parallel.csv_text == nested_serialized.csv_text &&
                         nested_serialized.csv_text == nested_cooperative.csv_text &&
                         scan.identical;
  std::printf("batched             %.3f s  (%.3g inv/s)\n", batched.wall_seconds,
              batched.invocations / batched.wall_seconds);
  std::printf("sharded             %.3f s  (%.3g inv/s)\n", parallel.wall_seconds,
              parallel.invocations / parallel.wall_seconds);
  std::printf("nested serialized   %.3f s  (%.3g inv/s)\n", nested_serialized.wall_seconds,
              nested_serialized.invocations / nested_serialized.wall_seconds);
  std::printf("nested cooperative  %.3f s  (%.3g inv/s)\n", nested_cooperative.wall_seconds,
              nested_cooperative.invocations / nested_cooperative.wall_seconds);
  std::printf("iact scan off       %.3f s\n", scan.off_seconds);
  std::printf("iact scan %-8s  %.3f s  (%.2fx, results %s)\n", scan.best_level,
              scan.best_seconds, scan.speedup,
              scan.identical ? "bit-identical" : "DIVERGED — SIMD BUG");
  std::printf("paths byte-identical: %s\n", identical ? "yes" : "NO — ENGINE BUG");

  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  const std::string path = opts.out_dir + "/BENCH_region_exec.json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"region_exec\",\n"
                 "  \"items_per_config\": %llu,\n"
                 "  \"batched\": {\"wall_seconds\": %.6f, \"items_per_sec\": %.6g},\n"
                 "  \"sharded\": {\"wall_seconds\": %.6f, \"items_per_sec\": %.6g},\n"
                 "  \"nested_serialized\": {\"wall_seconds\": %.6f, \"items_per_sec\": %.6g},\n"
                 "  \"nested_cooperative\": {\"wall_seconds\": %.6f, \"items_per_sec\": %.6g},\n"
                 "  \"iact_find_nearest\": {\"off_seconds\": %.6f, \"best_seconds\": %.6f, "
                 "\"speedup\": %.4f, \"best_level\": \"%s\"},\n"
                 "  \"paths_byte_identical\": %s\n"
                 "}\n",
                 static_cast<unsigned long long>(EngineMicro::kItems), batched.wall_seconds,
                 batched.invocations / batched.wall_seconds, parallel.wall_seconds,
                 parallel.invocations / parallel.wall_seconds,
                 nested_serialized.wall_seconds,
                 nested_serialized.invocations / nested_serialized.wall_seconds,
                 nested_cooperative.wall_seconds,
                 nested_cooperative.invocations / nested_cooperative.wall_seconds,
                 scan.off_seconds, scan.best_seconds, scan.speedup, scan.best_level,
                 identical ? "true" : "false");
    std::fclose(f);
    std::printf("[wrote %s]\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }
  return identical ? 0 : 1;
}
