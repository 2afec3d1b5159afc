// Self-tests of the benchmark's own helpers: the percentile rule, the CSV
// output check and the hpacd failure accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "config.hpp"
#include "harness/params.hpp"
#include "harness/result_store.hpp"
#include "harness/tuning_service.hpp"
#include "report.hpp"
#include "stats.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

hpac::harness::RunRecord sample_record(const std::string& benchmark, std::uint64_t ipt) {
  hpac::harness::RunRecord r;
  r.benchmark = benchmark;
  r.device = "v100";
  r.set_spec(hpac::harness::curated_perfo_specs().front());
  r.items_per_thread = ipt;
  r.speedup = 1.25;
  r.error_percent = 0.5;
  r.approx_ratio = 0.125;
  return r;
}

}  // namespace

TEST(Percentile, RefusesATailWithFewerThanTenSamplesBeyond) {
  EXPECT_THROW(percentile(ramp(100), 99), std::invalid_argument);   // 1 beyond
  EXPECT_THROW(percentile(ramp(999), 99), std::invalid_argument);   // 9 beyond
  EXPECT_DOUBLE_EQ(percentile(ramp(1000), 99), 990.0);              // 10 beyond
  EXPECT_THROW(percentile(ramp(19), 50), std::invalid_argument);    // 9 beyond
  EXPECT_DOUBLE_EQ(percentile(ramp(20), 50), 10.0);
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Median, EvenAndOddCounts) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(OutputCheck, FailsOnEveryOneByteCsvPerturbation) {
  const fs::path dir = fs::current_path() / ".bench_out" / "selftest";
  fs::create_directories(dir);
  const std::string path = (dir / "db.csv").string();
  hpac::harness::ResultDb db;
  db.add(sample_record("minife", 8));
  db.add(sample_record("kmeans", 64));
  const std::string csv = db_csv(db);
  write_file(path, csv);
  std::string why;
  ASSERT_TRUE(csv_matches(path, csv, why)) << why;
  for (std::size_t i = 0; i < csv.size(); ++i) {
    std::string perturbed = csv;
    perturbed[i] = static_cast<char>(perturbed[i] ^ 0x01);
    write_file(path, perturbed);
    EXPECT_FALSE(csv_matches(path, csv, why)) << "byte " << i;
    EXPECT_NE(fnv1a(perturbed), fnv1a(csv));
  }
  fs::remove_all(dir);
}

static hpac::harness::TuningQuery perfo_query(const std::string& benchmark, std::uint64_t ipt) {
  hpac::harness::TuningQuery q;
  q.benchmark = benchmark;
  q.device = "v100";
  q.spec_text = hpac::harness::curated_perfo_specs().front().to_string();
  q.items_per_thread = ipt;
  return q;
}

TEST(FailureAccounting, DegradedAnswerCountsAsFailed) {
  hpac::harness::ResultStore store;  // in memory
  store.append(sample_record("minife", 8));
  hpac::harness::TuningServiceConfig config;
  config.max_eval_failures = 1;
  config.evaluate_override = [](const hpac::harness::TuningQuery&,
                                const hpac::pragma::ApproxSpec&) -> hpac::harness::RunRecord {
    throw std::runtime_error("evaluator down");
  };
  hpac::harness::TuningService service(store, config);

  Report report;
  report.attempt(2);
  EXPECT_TRUE(account_answer(report, service.query(perfo_query("minife", 8))));
  const auto degraded = service.query(perfo_query("minife", 64));
  ASSERT_EQ(degraded.status, hpac::harness::TuningStatus::kDegraded);
  EXPECT_FALSE(account_answer(report, degraded));
  EXPECT_EQ(report.failed(), 1u);
  EXPECT_DOUBLE_EQ(report.ok_ratio(), 0.5);
  EXPECT_FALSE(report.correct());
}

TEST(FailureAccounting, RejectedAnswerCountsAsFailed) {
  hpac::harness::ResultStore store;
  store.append(sample_record("minife", 8));
  // The first evaluation blocks until released and holds the one-slot
  // admission queue, so a second cold tuple is rejected (the store knows
  // nothing about kmeans to degrade to).
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> first{true};
  hpac::harness::TuningServiceConfig config;
  config.max_pending = 1;
  config.evaluate_override = [&](const hpac::harness::TuningQuery& q,
                                 const hpac::pragma::ApproxSpec&) {
    if (first.exchange(false)) {
      entered.set_value();
      released.wait();
    }
    return sample_record(q.benchmark, q.items_per_thread);
  };
  hpac::harness::TuningService service(store, config);

  hpac::harness::TuningAnswer evaluated;
  std::thread evaluating([&] { evaluated = service.query(perfo_query("kmeans", 8), "a"); });
  entered.get_future().wait();
  const auto rejected = service.query(perfo_query("kmeans", 16), "b");
  release.set_value();
  evaluating.join();

  ASSERT_EQ(rejected.status, hpac::harness::TuningStatus::kRejected);
  Report report;
  report.attempt(2);
  EXPECT_TRUE(account_answer(report, evaluated));
  EXPECT_FALSE(account_answer(report, rejected));
  EXPECT_EQ(report.failed(), 1u);
  EXPECT_DOUBLE_EQ(report.ok_ratio(), 0.5);
}

TEST(WorkloadConfig, RejectsMoreWorkersOrConnectionsThanCpus) {
  WorkloadConfig config = WorkloadConfig::for_host(Workload::kCampaignTafPerfo);
  EXPECT_TRUE(config.isValid());
  config.workers = host_nproc() + 1;
  EXPECT_FALSE(config.isValid());
  config.workers = host_nproc();
  config.connections = host_nproc() + 1;
  EXPECT_FALSE(config.isValid());
  config.connections = 0;
  EXPECT_FALSE(config.isValid());
}
