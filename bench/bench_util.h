// Shared plumbing for the benchmark harnesses: statistics helpers and
// table formatting, plus canonical deployment builders for the paper's
// experiment setups.

#ifndef HIWAY_BENCH_BENCH_UTIL_H_
#define HIWAY_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/strings.h"

namespace hiway {
namespace bench {

inline double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

inline double StdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mean = Mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

inline double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  size_t mid = xs.size() / 2;
  if (xs.size() % 2 == 1) return xs[mid];
  return 0.5 * (xs[mid - 1] + xs[mid]);
}

/// Welch's two-sample t statistic (the paper reports t-test significance
/// for Fig. 8 and Fig. 9).
inline double WelchT(const std::vector<double>& a,
                     const std::vector<double>& b) {
  if (a.size() < 2 || b.size() < 2) return 0.0;
  double va = StdDev(a) * StdDev(a) / static_cast<double>(a.size());
  double vb = StdDev(b) * StdDev(b) / static_cast<double>(b.size());
  if (va + vb <= 0.0) return 0.0;
  return (Mean(a) - Mean(b)) / std::sqrt(va + vb);
}

/// "--quick" (or HIWAY_BENCH_QUICK=1) trims repetition counts so the whole
/// bench suite stays minutes, not hours; the paper-scale counts remain the
/// default for single benches.
inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") return true;
  }
  const char* env = std::getenv("HIWAY_BENCH_QUICK");
  return env != nullptr && std::string(env) == "1";
}

/// "--json" asks a bench for one machine-readable JSON object (CI
/// artifacts, bench/trajectories/) instead of its tables.
inline bool JsonMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") return true;
  }
  return false;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%s\n", std::string(title.size(), '=').c_str());
}

inline void PrintRule(int width = 78) {
  std::printf("%s\n", std::string(static_cast<size_t>(width), '-').c_str());
}

}  // namespace bench
}  // namespace hiway

#endif  // HIWAY_BENCH_BENCH_UTIL_H_
