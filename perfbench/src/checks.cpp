#include "checks.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "approx/region.hpp"
#include "apps/registry.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "harness/explorer.hpp"
#include "sim/device.hpp"

namespace perfbench {

using hpac::harness::RunRecord;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string record_row(const RunRecord& record) {
  std::ostringstream os;
  hpac::write_csv_row(os, record.to_row());
  return os.str();
}

std::string db_csv(const hpac::harness::ResultDb& db) {
  std::ostringstream os;
  db.to_csv().write(os);
  return os.str();
}

bool csv_matches(const std::string& path, const std::string& expected, std::string& why) {
  const std::string on_disk = read_file(path);
  if (on_disk != expected) {
    why = path + ": file differs from the expected CSV";
    return false;
  }
  try {
    const std::string again = db_csv(hpac::harness::ResultDb::load(path));
    if (again == on_disk) return true;
    why = path + ": reloaded CSV re-serializes differently";
  } catch (const std::exception& e) {
    why = path + ": reload failed: " + e.what();
  }
  return false;
}

std::size_t nonfinite_feasible(const std::vector<RunRecord>& records) {
  std::size_t count = 0;
  for (const RunRecord& r : records) {
    if (r.feasible && (!std::isfinite(r.error_percent) || !std::isfinite(r.speedup))) {
      ++count;
    }
  }
  return count;
}

RunRecord reevaluate_reference(const std::string& benchmark, const std::string& device,
                               const hpac::pragma::ApproxSpec& spec,
                               std::uint64_t items_per_thread) {
  const hpac::simd::Level previous_level = hpac::simd::active_level();
  const hpac::approx::ExecTuning previous_tuning =
      hpac::approx::RegionExecutor::default_tuning();
  hpac::approx::ExecTuning serial = previous_tuning;
  serial.max_threads = 1;
  hpac::simd::set_level(hpac::simd::Level::kOff);
  hpac::approx::RegionExecutor::set_default_tuning(serial);
  struct Restore {
    hpac::simd::Level level;
    hpac::approx::ExecTuning tuning;
    ~Restore() {
      hpac::simd::set_level(level);
      hpac::approx::RegionExecutor::set_default_tuning(tuning);
    }
  } restore{previous_level, previous_tuning};

  auto app = hpac::apps::make_benchmark(benchmark);
  hpac::harness::Explorer explorer(*app, hpac::sim::device_by_name(device));
  return explorer.run_config(spec, items_per_thread);
}

bool account_answer(Report& report, const hpac::harness::TuningAnswer& answer) {
  using hpac::harness::TuningStatus;
  if (answer.status == TuningStatus::kOk) return true;
  const char* status = "error";
  switch (answer.status) {
    case TuningStatus::kRejected: status = "rejected"; break;
    case TuningStatus::kDegraded: status = "degraded"; break;
    case TuningStatus::kDeadlineExceeded: status = "deadline"; break;
    default: break;
  }
  report.fail(1, std::string("hpacd answer ") + status + ": " + answer.error);
  return false;
}

}  // namespace perfbench
