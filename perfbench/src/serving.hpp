#pragma once

#include <string>

#include "config.hpp"
#include "report.hpp"

namespace perfbench {

/// The served session of a trace run (see serving.cpp): serves `journal`
/// through hpacd's server and client and reports the service.*,
/// harness.tuning.* and pragma.* per-layer metrics, accounting every
/// answer and output check in `report`. Scratch files go under `dir`.
void measure_serving(const WorkloadConfig& config, const std::string& journal,
                     const std::string& dir, Report& report);

}  // namespace perfbench
