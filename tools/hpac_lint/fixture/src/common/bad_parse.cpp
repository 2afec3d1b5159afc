// Seeded violations: locale-dependent or unchecked parsing in library code.
// This file is a lint fixture — it is never compiled.

#include <clocale>
#include <cstdio>
#include <cstdlib>
#include <string>

double seeded_violations(const std::string& text) {
  std::setlocale(LC_ALL, "");
  double scanned = 0;
  std::sscanf(text.c_str(), "%lf", &scanned);
  const double a = std::strtod(text.c_str(), nullptr) + std::strtof(text.c_str(), nullptr);
  const long b = std::strtol(text.c_str(), nullptr, 10) + std::atol(text.c_str());
  return scanned + a + static_cast<double>(b) + std::atof(text.c_str()) + std::stod(text) +
         std::stof(text);
}
