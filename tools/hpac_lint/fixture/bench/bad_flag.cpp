// Seeded violations: std::sto* flag parsing throws on garbage and accepts
// trailing junk ("8x" reads as 8).
// This file is a lint fixture — it is never compiled.

#include <string>

long long parse_flag(const std::string& value) {
  return std::stoi(value) + std::stol(value) + std::stoll(value) +
         static_cast<long long>(std::stoul(value) + std::stoull(value));
}
