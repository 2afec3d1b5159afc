#pragma once

#include <string>
#include <vector>

#include "harness/record.hpp"
#include "harness/tuning_service.hpp"
#include "report.hpp"

namespace perfbench {

/// approx.iact.find_nearest_ns: mean over Table 2's table sizes and the
/// apps' iACT input widths of the median ns per `IactTable::find_nearest`.
void measure_iact_scan(Report& report, std::uint64_t seed);

/// approx.exec_ns_per_item.{none,taf,iact,perfo}: `RegionExecutor::run`
/// over a cheap binding, median ns per item.
void measure_region_exec(Report& report);

/// harness.store.*: open a copy of `journal` (constructor absorbing it),
/// append its records one by one to a fresh journal, finalize that
/// journal, and `Snapshot::find` every record.
void measure_store(Report& report, const std::string& journal, const std::string& scratch_dir);

/// service.protocol.{encode,decode}_us (one query + one answer per
/// operation) and pragma.parse_us over `spec_texts`.
void measure_protocol(Report& report, const hpac::harness::TuningQuery& query,
                      const hpac::harness::TuningAnswer& answer,
                      const std::vector<std::string>& spec_texts);

}  // namespace perfbench
