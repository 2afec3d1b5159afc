// The served session of a trace run: an in-process TuningServer on a Unix
// socket, preloaded from a campaign journal, answering a seeded stream from
// closed-loop TuningClient connections: about 98% hot queries (tuples the
// store holds) and 2% cold ones (tuples missing from it, drawn from cheap
// apps, which the service evaluates and journals). It measures the
// service, tuning and pragma layers; client-observed latency over a socket
// is too sensitive to host scheduling noise to gate on, so the session
// reports per-layer figures only.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iostream>
#include <latch>
#include <random>
#include <thread>

#include "checks.hpp"
#include "harness/params.hpp"
#include "harness/result_store.hpp"
#include "harness/tuning_service.hpp"
#include "micro.hpp"
#include "pragma/parser.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace hpac;

namespace {

/// Apps whose configs evaluate in milliseconds: the source of cold tuples.
const std::vector<std::string> kColdApps{"binomial_options", "blackscholes", "minife"};
constexpr std::size_t kQueries = 15000;
constexpr std::size_t kCold = kQueries / 50;  // 2%

struct Stream {
  std::vector<harness::TuningQuery> queries;
  std::vector<bool> cold;
  std::vector<harness::TuningQuery> warmup;  ///< one per cold (app, device)
  std::vector<harness::TuningQuery> spare_cold;  ///< cold tuples the stream never asks
};

harness::TuningQuery make_query(const std::string& benchmark, const std::string& device,
                                const pragma::ApproxSpec& spec, std::uint64_t ipt) {
  harness::TuningQuery q;
  q.benchmark = benchmark;
  q.device = device;
  q.spec_text = spec.to_string();
  q.items_per_thread = ipt;
  return q;
}

/// Hot tuples are the journal's; cold ones use items-per-thread values the
/// campaign did not sweep, so they are certainly missing from the store.
Stream make_stream(const std::vector<harness::RunRecord>& journaled, std::uint64_t seed) {
  Stream stream;
  std::vector<harness::TuningQuery> hot;
  for (const auto& r : journaled) {
    harness::TuningQuery q;
    q.benchmark = r.benchmark;
    q.device = r.device;
    q.spec_text = r.spec_text;
    q.items_per_thread = r.items_per_thread;
    hot.push_back(std::move(q));
  }
  const std::vector<pragma::ApproxSpec> taf =
      harness::curated_taf_specs(harness::table2::hierarchies());
  std::vector<harness::TuningQuery> cold;
  for (const auto& name : kColdApps) {
    for (const auto& device : kCampaignDevices) {
      stream.warmup.push_back(make_query(name, device, taf.front(), 128));
      for (const auto& spec : taf) {
        for (const std::uint64_t ipt : {16, 32}) {
          cold.push_back(make_query(name, device, spec, ipt));
        }
      }
    }
  }
  std::vector<std::size_t> cold_order = seeded_permutation(cold.size(), seed);
  std::vector<std::size_t> cold_at = seeded_permutation(kQueries, seed ^ 0x5eedull);
  cold_at.resize(kCold);
  std::sort(cold_at.begin(), cold_at.end());
  std::mt19937_64 rng(seed);
  std::size_t next_cold = 0;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const bool is_cold = next_cold < cold_at.size() && cold_at[next_cold] == i;
    if (is_cold) {
      stream.queries.push_back(cold[cold_order[next_cold++]]);
    } else {
      stream.queries.push_back(hot[static_cast<std::size_t>(rng() % hot.size())]);
    }
    stream.cold.push_back(is_cold);
  }
  for (std::size_t i = kCold; i < cold_order.size(); ++i) {
    stream.spare_cold.push_back(cold[cold_order[i]]);
  }
  return stream;
}

/// Declared so the server is destroyed before the store it serves.
struct Served {
  std::unique_ptr<harness::ResultStore> store;
  std::unique_ptr<service::TuningServer> server;
};

/// Store load, server start and baseline warm-up.
Served set_up(const std::string& pristine, const std::string& store_path,
              const std::string& socket_path, const Stream& stream, std::size_t workers,
              Report& report) {
  fs::copy_file(pristine, store_path, fs::copy_options::overwrite_existing);
  Served served;
  {
    trace::Scope span("harness.store.open");
    served.store = std::make_unique<harness::ResultStore>(store_path);
  }
  {
    trace::Scope span("service.server.start");
    service::TuningServer::Options options;
    options.socket_path = socket_path;
    options.service.num_threads = workers;
    served.server = std::make_unique<service::TuningServer>(*served.store, options);
    served.server->start();
  }
  {
    trace::Scope span("harness.tuning.warmup");
    service::TuningClient client(socket_path);
    for (const auto& q : stream.warmup) {
      report.attempt();
      account_answer(report, client.query(q));
    }
  }
  return served;
}

struct Session {
  double wall_s = 0;
  std::vector<harness::TuningAnswer> answers;  ///< by stream index
  std::vector<double> latency_us;              ///< by stream index
  std::vector<char> answered;  ///< not vector<bool>: clients write concurrently
  harness::TuningService::Stats stats;
  std::string canonical_csv;  ///< the store after the pass, sorted by tuple key
};

Session run_session(Served& served, const std::string& socket_path, const Stream& stream,
                    std::size_t connections, Report& report) {
  Session pass;
  const std::size_t n = stream.queries.size();
  pass.answers.resize(n);
  pass.latency_us.assign(n, 0.0);
  pass.answered.assign(n, 0);
  report.attempt(n);
  std::latch connected(static_cast<std::ptrdiff_t>(connections) + 1);
  std::latch go(1);
  std::vector<std::string> errors(connections);
  std::atomic<bool> abandoned{false};
  const auto client_loop = [&](std::size_t c) {
    std::unique_ptr<service::TuningClient> client;
    try {
      service::TuningClient::Options options;
      options.request_timeout_ms = 60000;
      client = std::make_unique<service::TuningClient>(socket_path, options);
    } catch (const std::exception& e) {
      errors[c] = e.what();
    }
    connected.count_down();
    go.wait();
    if (!client || abandoned) return;
    for (std::size_t i = c; i < n; i += connections) {
      trace::Scope span("service.client.query", i);
      const auto start = std::chrono::steady_clock::now();
      try {
        pass.answers[i] = client->query(stream.queries[i]);
        pass.answered[i] = 1;
      } catch (const std::exception& e) {
        if (errors[c].empty()) errors[c] = e.what();
      }
      pass.latency_us[i] =
          std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
              .count();
    }
  };
  std::vector<std::jthread> clients;  // joined on every path, exceptions included
  try {
    for (std::size_t c = 0; c < connections; ++c) clients.emplace_back(client_loop, c);
  } catch (...) {
    abandoned = true;
    go.count_down();
    throw;
  }
  connected.arrive_and_wait();
  const std::int64_t start = trace::now_ns();
  go.count_down();
  for (auto& t : clients) t.join();
  pass.wall_s = seconds_since(start);
  pass.stats = served.server->service().stats();
  served.server->stop();

  // --- failure accounting and output checks ---
  std::uint64_t transport = 0;
  for (std::size_t i = 0; i < n; ++i) transport += pass.answered[i] ? 0 : 1;
  std::string first_error;
  for (const auto& e : errors) {
    if (first_error.empty()) first_error = e;
  }
  report.fail(transport, "client transport errors: " + first_error);
  const harness::ResultStore::Snapshot snap = served.store->snapshot();
  for (std::size_t i = 0; i < n; ++i) {
    if (!pass.answered[i] || !account_answer(report, pass.answers[i])) continue;
    const harness::TuningQuery& q = stream.queries[i];
    const harness::RunRecord& got = pass.answers[i].record;
    if (got.benchmark != q.benchmark || got.device != q.device ||
        got.spec_text != q.spec_text || got.items_per_thread != q.items_per_thread) {
      report.fail(1, "answer " + std::to_string(i) + " is for another tuple");
      continue;
    }
    if (!stream.cold[i]) {
      const harness::RunRecord* stored =
          snap.find(q.benchmark, q.device, q.spec_text, q.items_per_thread);
      if (stored == nullptr || record_row(*stored) != record_row(got)) {
        report.fail(1, "hot answer " + std::to_string(i) + " differs from the store's record");
      }
    }
  }
  std::vector<harness::RunRecord> records;
  snap.for_each([&records](const harness::RunRecord& r) { records.push_back(r); });
  std::sort(records.begin(), records.end(), [](const auto& a, const auto& b) {
    return harness::ResultStore::key_of(a) < harness::ResultStore::key_of(b);
  });
  harness::ResultDb db;
  for (auto& r : records) db.add(std::move(r));
  pass.canonical_csv = db_csv(db);
  return pass;
}

/// Client-observed latency split by query class.
void report_client_split(Report& report, const Stream& stream, const Session& pass) {
  std::vector<double> hot_us, cold_ms;
  for (std::size_t i = 0; i < pass.latency_us.size(); ++i) {
    if (stream.cold[i]) {
      cold_ms.push_back(pass.latency_us[i] * 1e-3);
    } else {
      hot_us.push_back(pass.latency_us[i]);
    }
  }
  report.set("service.client.hot_p50_us", percentile(hot_us, 50), "us");
  report.set("service.client.hot_p99_us", percentile(hot_us, 99), "us");
  report.set("service.client.cold_p50_ms", percentile(cold_ms, 50), "ms");
  report.set("service.client.cold_p90_ms", percentile(cold_ms, 90), "ms");
}

/// In-process TuningService::query on a fresh copy of the preloaded store.
void measure_tuning(Report& report, const std::string& pristine, const std::string& dir,
                    const Stream& stream, std::size_t workers) {
  const std::string path = (fs::path(dir) / "tuning_micro.csv").string();
  fs::copy_file(pristine, path, fs::copy_options::overwrite_existing);
  harness::ResultStore store(path);
  harness::TuningServiceConfig options;
  options.num_threads = workers;
  harness::TuningService service(store, options);
  for (const auto& q : stream.warmup) {
    report.attempt();
    account_answer(report, service.query(q));
  }
  std::vector<double> hot_us;
  for (std::size_t i = 0; i < stream.queries.size() && hot_us.size() < 2000; ++i) {
    if (stream.cold[i]) continue;
    const auto start = std::chrono::steady_clock::now();
    const harness::TuningAnswer answer = service.query(stream.queries[i]);
    hot_us.push_back(
        std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
            .count());
    report.attempt();
    account_answer(report, answer);
  }
  std::vector<double> cold_ms;
  for (std::size_t i = 0; i < stream.spare_cold.size() && cold_ms.size() < 30; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const harness::TuningAnswer answer = service.query(stream.spare_cold[i]);
    cold_ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count());
    report.attempt();
    account_answer(report, answer);
  }
  report.set("harness.tuning.hot_query_us", median(hot_us), "us");
  report.set("harness.tuning.cold_query_ms", median(cold_ms), "ms");
  fs::remove(path);
}

}  // namespace

void measure_serving(const WorkloadConfig& config, const std::string& journal,
                     const std::string& dir, Report& report) {
  const std::string store_path = (fs::path(dir) / "served_store.csv").string();
  const std::string socket_path = (fs::path(dir) / "hpacd.sock").string();
  std::vector<harness::RunRecord> journaled;
  {
    const harness::ResultStore source(journal, /*read_only=*/true);
    source.snapshot().for_each(
        [&journaled](const harness::RunRecord& r) { journaled.push_back(r); });
  }
  if (journaled.empty()) {
    report.check_failed("served session: journal " + journal + " is empty");
    return;
  }
  const Stream stream = make_stream(journaled, config.seed);
  std::cout << "served session: " << stream.queries.size() << " queries (" << kCold
            << " cold) over " << config.connections << " closed-loop connections\n";

  trace::clear();  // the session's spans go to their own file
  trace::set_enabled(true);
  Served served = set_up(journal, store_path, socket_path, stream, config.workers, report);
  const Session pass = run_session(served, socket_path, stream, config.connections, report);
  trace::set_enabled(false);
  served.server.reset();
  served.store.reset();
  trace::dump(trace::collect(), (fs::path(dir) / "served_trace.jsonl").string());

  report_client_split(report, stream, pass);
  report.set("service.client.queries_per_s",
             static_cast<double>(stream.queries.size()) / pass.wall_s, "1/s");
  const auto& stats = pass.stats;
  report.set("harness.tuning.memo_ratio",
             stats.queries == 0
                 ? 0.0
                 : static_cast<double>(stats.memoized) / static_cast<double>(stats.queries),
             "ratio");
  report.set("harness.tuning.evaluated", static_cast<double>(stats.evaluated), "count");
  report.set("harness.tuning.coalesced", static_cast<double>(stats.coalesced), "count");

  // The served store, canonicalized, must survive a save/load round trip;
  // and a fixed sample (the stream's first three cold tuples) must match a
  // serial re-evaluation with the SIMD paths off.
  const std::string canonical_path = (fs::path(dir) / "served_canonical.csv").string();
  write_file(canonical_path, pass.canonical_csv);
  std::string why;
  if (!csv_matches(canonical_path, pass.canonical_csv, why)) report.check_failed(why);
  const harness::ResultDb served_db = harness::ResultDb::load(canonical_path);
  std::size_t sampled = 0;
  for (std::size_t i = 0; i < stream.queries.size() && sampled < 3; ++i) {
    if (!stream.cold[i]) continue;
    ++sampled;
    const harness::TuningQuery& q = stream.queries[i];
    const auto answers = served_db.where([&q](const harness::RunRecord& r) {
      return r.benchmark == q.benchmark && r.device == q.device &&
             r.spec_text == q.spec_text && r.items_per_thread == q.items_per_thread;
    });
    const harness::RunRecord reference = reevaluate_reference(
        q.benchmark, q.device, pragma::parse_approx(q.spec_text), q.items_per_thread);
    report.attempt();
    if (answers.size() != 1 || record_row(answers.front()) != record_row(reference)) {
      report.fail(1, "cold tuple differs from its serial reference: " + q.spec_text);
    }
  }

  measure_tuning(report, journal, dir, stream, config.workers);
  report.set("service.transport_us",
             report.value("service.client.hot_p50_us") -
                 report.value("harness.tuning.hot_query_us"),
             "us");
  std::vector<std::string> texts;
  for (const auto& q : stream.queries) {
    if (texts.size() == 2000) break;
    texts.push_back(q.spec_text);
  }
  harness::TuningAnswer sample_answer;
  sample_answer.status = harness::TuningStatus::kOk;
  sample_answer.memoized = true;
  sample_answer.record = journaled.front();
  measure_protocol(report, stream.queries.front(), sample_answer, texts);
}

}  // namespace perfbench
