#include "micro.hpp"

#include <cstdio>
#include <filesystem>
#include <random>
#include <span>

#include "approx/iact.hpp"
#include "approx/region.hpp"
#include "harness/params.hpp"
#include "harness/result_store.hpp"
#include "pragma/parser.hpp"
#include "service/protocol.hpp"
#include "sim/device.hpp"
#include "sim/launch.hpp"
#include "sim/warp.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace hpac;

namespace {

/// Keeps the optimizer from discarding a measured result.
volatile double g_sink = 0;

}  // namespace

void measure_iact_scan(Report& report, std::uint64_t seed) {
  trace::Scope span("approx.iact.find_nearest");
  // iACT input widths of the apps' regions (lulesh 2/3, binomial 3,
  // lavamd 4, blackscholes 5, leukocyte 6, kmeans 8) and Table 2's sizes.
  const std::vector<int> widths{2, 3, 4, 5, 6, 8};
  constexpr int kProbes = 1024;
  constexpr int kRounds = 64;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(0.0, 4.0);
  double sum_ns = 0;
  int combos = 0;
  for (const int size : harness::table2::iact_table_sizes()) {
    for (const int width : widths) {
      std::vector<double> storage(approx::IactTable::storage_doubles(size, width, 1));
      approx::IactTable table(size, width, 1, approx::Replacement::kRoundRobin, storage);
      std::vector<double> row(static_cast<std::size_t>(width));
      const double out = 1.0;
      for (int i = 0; i < size; ++i) {
        for (double& x : row) x = value(rng);
        table.insert(row, std::span<const double>(&out, 1));
      }
      std::vector<double> probes(static_cast<std::size_t>(kProbes) * width);
      for (double& x : probes) x = value(rng);
      const double seconds = median_seconds(5, [&] {
        double acc = 0;
        for (int round = 0; round < kRounds; ++round) {
          for (int p = 0; p < kProbes; ++p) {
            const auto match = table.find_nearest(std::span<const double>(
                probes.data() + static_cast<std::size_t>(p) * width,
                static_cast<std::size_t>(width)));
            acc += match.distance;
          }
        }
        g_sink = acc;
      });
      sum_ns += seconds * 1e9 / (kRounds * kProbes);
      ++combos;
    }
  }
  report.set("approx.iact.find_nearest_ns", sum_ns / combos, "ns");
}

void measure_region_exec(Report& report) {
  trace::Scope span("approx.region_exec");
  constexpr std::uint64_t kItems = 1u << 16;
  const sim::DeviceConfig device = sim::v100();
  const approx::RegionExecutor executor(device);
  std::vector<double> out_values(kItems, 0.0);

  // A cheap region: a long stable plateau (TAF-friendly) and inputs with a
  // short period (iACT-friendly), so the engine's own work dominates.
  const auto value_of = [](std::uint64_t i) {
    return i % 97 < 60 ? 42.0 : 1.0 + static_cast<double>(i % 7) * 0.25;
  };
  approx::RegionBinding binding;
  binding.name = "perfbench.cheap";
  binding.in_dims = 2;
  binding.out_dims = 1;
  binding.in_bytes = 2 * sizeof(double);
  binding.out_bytes = sizeof(double);
  binding.gather_batch = [](std::uint64_t first, sim::LaneMask lanes, std::span<double> in) {
    sim::for_each_lane(lanes, [&](int lane) {
      const std::uint64_t i = first + static_cast<std::uint64_t>(lane);
      in[static_cast<std::size_t>(lane) * 2 + 0] = static_cast<double>(i % 13);
      in[static_cast<std::size_t>(lane) * 2 + 1] = static_cast<double>((i / 13) % 7);
    });
  };
  binding.accurate_batch = [&value_of](std::uint64_t first, sim::LaneMask lanes,
                                       std::span<const double>, std::span<double> out) {
    sim::for_each_lane(lanes, [&](int lane) {
      out[static_cast<std::size_t>(lane)] = value_of(first + static_cast<std::uint64_t>(lane));
    });
  };
  binding.accurate_cost_batch = [](std::uint64_t, sim::LaneMask) { return 64.0; };
  binding.commit_batch = [&out_values](std::uint64_t first, sim::LaneMask lanes,
                                       std::span<const double> out) {
    sim::for_each_lane(lanes, [&](int lane) {
      out_values[first + static_cast<std::uint64_t>(lane)] = out[static_cast<std::size_t>(lane)];
    });
  };

  pragma::ApproxSpec none;
  pragma::ApproxSpec taf;
  taf.technique = pragma::Technique::kTafMemo;
  taf.taf = pragma::TafParams{3, 64, 1.5};
  taf.out_sections.push_back("qoi[i]");
  pragma::ApproxSpec iact;
  iact.technique = pragma::Technique::kIactMemo;
  iact.iact = pragma::IactParams{4, 0.5, 2};
  iact.in_sections.push_back("in[i]");
  iact.out_sections.push_back("qoi[i]");
  pragma::ApproxSpec perfo;
  perfo.technique = pragma::Technique::kPerforation;
  perfo.perfo = pragma::PerfoParams{pragma::PerfoKind::kSmall, 4, 0.0, true};

  const sim::LaunchConfig launch = sim::launch_for_items_per_thread(kItems, 8, 128);
  const std::pair<const char*, const pragma::ApproxSpec*> cases[] = {
      {"none", &none}, {"taf", &taf}, {"iact", &iact}, {"perfo", &perfo}};
  for (const auto& [label, spec] : cases) {
    const double seconds = median_seconds(7, [&] {
      const approx::RegionReport result = executor.run(*spec, binding, kItems, launch);
      g_sink = static_cast<double>(result.stats.accurate_items);
    });
    report.set(std::string("approx.exec_ns_per_item.") + label, seconds * 1e9 / kItems, "ns");
  }
}

void measure_store(Report& report, const std::string& journal, const std::string& scratch_dir) {
  trace::Scope span("harness.store.micro");
  const double open_s = median_seconds(3, [&] {
    trace::Scope open_span("harness.store.open");
    harness::ResultStore store(journal, /*read_only=*/true);
    g_sink = static_cast<double>(store.size());
  });
  report.set("harness.store.open_s", open_s, "s");

  harness::ResultStore source(journal, /*read_only=*/true);
  const harness::ResultStore::Snapshot snap = source.snapshot();
  std::vector<harness::RunRecord> records;
  snap.for_each([&records](const harness::RunRecord& r) { records.push_back(r); });
  if (records.empty()) {
    report.check_failed("store micro: journal " + journal + " is empty");
    return;
  }

  constexpr int kFindRounds = 20;
  const double find_s = median_seconds(5, [&] {
    std::size_t hits = 0;
    for (int round = 0; round < kFindRounds; ++round) {
      for (const auto& r : records) {
        hits += snap.find(r.benchmark, r.device, r.spec_text, r.items_per_thread) != nullptr;
      }
    }
    g_sink = static_cast<double>(hits);
  });
  report.set("harness.store.find_us",
             find_s * 1e6 / (static_cast<double>(records.size()) * kFindRounds), "us");

  const std::string append_path = (fs::path(scratch_dir) / "store_micro.csv").string();
  fs::remove(append_path);
  std::vector<double> append_us;
  append_us.reserve(records.size());
  {
    harness::ResultStore target(append_path);
    for (const auto& r : records) {
      const auto start = std::chrono::steady_clock::now();
      target.append(r);
      append_us.push_back(
          std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
              .count());
    }
    harness::ResultDb canonical;
    for (const auto& r : records) canonical.add(r);
    const auto start = std::chrono::steady_clock::now();
    target.finalize(canonical);
    report.set("harness.store.finalize_s",
               std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(),
               "s");
  }
  report.set("harness.store.append_us_p50", median(append_us), "us");
  fs::remove(append_path);
}

void measure_protocol(Report& report, const harness::TuningQuery& query,
                      const harness::TuningAnswer& answer,
                      const std::vector<std::string>& spec_texts) {
  trace::Scope span("service.protocol.micro");
  constexpr int kOps = 2000;
  const std::string query_body = service::encode_query(query);
  const std::string answer_body = service::encode_answer(answer);
  const double encode_s = median_seconds(5, [&] {
    std::size_t bytes = 0;
    for (int i = 0; i < kOps; ++i) {
      bytes += service::encode_frame(service::MessageType::kQueryRequest,
                                     service::encode_query(query))
                   .size();
      bytes += service::encode_frame(service::MessageType::kQueryReply,
                                     service::encode_answer(answer))
                   .size();
    }
    g_sink = static_cast<double>(bytes);
  });
  report.set("service.protocol.encode_us", encode_s * 1e6 / kOps, "us");
  const double decode_s = median_seconds(5, [&] {
    std::size_t n = 0;
    for (int i = 0; i < kOps; ++i) {
      n += service::decode_query(query_body).items_per_thread;
      n += service::decode_answer(answer_body).record.items_per_thread;
    }
    g_sink = static_cast<double>(n);
  });
  report.set("service.protocol.decode_us", decode_s * 1e6 / kOps, "us");

  constexpr int kParseRounds = 10;
  const double parse_s = median_seconds(5, [&] {
    std::size_t n = 0;
    for (int round = 0; round < kParseRounds; ++round) {
      for (const auto& text : spec_texts) {
        n += static_cast<std::size_t>(pragma::parse_approx(text).technique);
      }
    }
    g_sink = static_cast<double>(n);
  });
  report.set("pragma.parse_us",
             parse_s * 1e6 / (static_cast<double>(spec_texts.size()) * kParseRounds), "us");
}

}  // namespace perfbench
