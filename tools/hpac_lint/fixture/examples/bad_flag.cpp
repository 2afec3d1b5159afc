// Seeded violations: a command-line flag parsed without range or garbage
// checks ("abc" reads as 0, "-3" wraps to a huge unsigned value).
// This file is a lint fixture — it is never compiled.

#include <cstdlib>
#include <string>

unsigned long long parse_flag(const std::string& value) {
  return std::strtoull(value.c_str(), nullptr, 10) + std::strtoul(value.c_str(), nullptr, 10) +
         static_cast<unsigned long long>(std::strtoll(value.c_str(), nullptr, 10));
}
