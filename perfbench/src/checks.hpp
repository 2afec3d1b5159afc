#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/record.hpp"
#include "harness/tuning_service.hpp"
#include "pragma/spec.hpp"
#include "report.hpp"

namespace perfbench {

std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& bytes);

/// One record as its canonical CSV row (trailing newline included).
std::string record_row(const hpac::harness::RunRecord& record);
/// A whole database as the CSV `ResultDb::save` writes.
std::string db_csv(const hpac::harness::ResultDb& db);

/// Output check: the file at `path` holds exactly `expected`, and reloaded
/// with `ResultDb::load` it re-serializes to exactly the bytes on disk.
/// Otherwise returns false and explains why in `why`.
bool csv_matches(const std::string& path, const std::string& expected, std::string& why);

/// Records that claim to be feasible although their quantity of interest
/// went non-finite (a known defect the benchmark keeps visible).
std::size_t nonfinite_feasible(const std::vector<hpac::harness::RunRecord>& records);

/// Re-evaluate one tuple from scratch on the calling thread with the SIMD
/// fast paths off and region sharding disabled: the reference a sampled
/// record must match byte for byte. Restores both settings afterwards.
hpac::harness::RunRecord reevaluate_reference(const std::string& benchmark,
                                              const std::string& device,
                                              const hpac::pragma::ApproxSpec& spec,
                                              std::uint64_t items_per_thread);

/// Failure accounting of one hpacd answer: anything but kOk (degraded,
/// rejected, error, deadline) counts as one failed operation. Returns
/// true when the answer is kOk.
bool account_answer(Report& report, const hpac::harness::TuningAnswer& answer);

}  // namespace perfbench
