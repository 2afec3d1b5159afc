#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace perfbench {

void Report::set(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    check_failed("metric " + name + " is not finite");
    return;
  }
  for (auto& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

bool Report::has(const std::string& name) const {
  for (const auto& metric : metrics_) {
    if (metric.name == name) return true;
  }
  return false;
}

double Report::value(const std::string& name) const {
  for (const auto& metric : metrics_) {
    if (metric.name == name) return metric.value;
  }
  throw std::out_of_range("no metric " + name);
}

void Report::fail(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  if (notes_.size() < 32) notes_.push_back(why);
}

double Report::ok_ratio() const {
  if (attempted_ == 0) return 0.0;
  return static_cast<double>(attempted_ - std::min(failed_, attempted_)) /
         static_cast<double>(attempted_);
}

void Report::check_failed(const std::string& why) {
  ++check_failures_;
  if (notes_.size() < 32) notes_.push_back(why);
}

void Report::print_table(std::ostream& os) const {
  char line[256];
  for (const auto& metric : metrics_) {
    std::snprintf(line, sizeof line, "  %-56s %18.6f %s\n", metric.name.c_str(),
                  metric.value, metric.unit.c_str());
    os << line;
  }
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    std::snprintf(number, sizeof number, "%.17g", metric.value);
    if (i > 0) out += ", ";
    out += "\"" + metric.name + "\": {\"value\": " + number + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
