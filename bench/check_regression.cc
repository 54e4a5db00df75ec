// Perf-regression gate: diffs a fresh run summary against a committed
// baseline.
//
//   check_regression <baseline.json> <current.json> [--tolerance=0.02]
//                    [--wall-tolerance=0.25] [--json=DIFF.json]
//
// A tolerance must be a finite, non-negative decimal number; any other
// value (e.g. --tolerance=abc) exits 2 with the usage line, like a missing
// or unreadable file.
//
// Both files are flat {"key": number} objects (what bench_workload_scaleout
// --summary-json= writes; baselines live under bench/baselines/). Counter
// keys must match exactly — the engine's event counters are integer-exact on
// every platform. Time-like keys (suffix _ns/_s/_seconds/_qps/_pct) get a
// relative tolerance band, because simulated times route through libm and
// may drift in the last ulp across C libraries. Wall-clock keys
// (wall_seconds / *_wall_seconds, the host-time records the harness writes
// into *_perf.json) are compared ONE-SIDED: only a slowdown beyond
// --wall-tolerance (default 25%) fails, with a typed "wall_clock" finding —
// speedups pass silently. Exits nonzero on any regression, missing key, or
// new key (schema changes need a committed baseline update).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

#include "src/common/file_util.h"
#include "src/telemetry/regression.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: check_regression <baseline.json> <current.json> "
               "[--tolerance=0.02] [--wall-tolerance=0.25] "
               "[--json=DIFF.json]\n");
  return 2;
}

// Parses a tolerance flag value: the whole string must be one finite,
// non-negative decimal number (no sign, no spaces, no suffix).
bool ParseTolerance(std::string_view text, double* out) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || text[0] == '-' || ec != std::errc() || ptr != end ||
      !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* current_path = nullptr;
  const char* json_path = nullptr;
  treebench::telemetry::RegressionOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    double* tolerance = nullptr;
    std::string_view value;
    if (arg.starts_with("--tolerance=")) {
      tolerance = &opts.time_tolerance;
      value = arg.substr(12);
    } else if (arg.starts_with("--wall-tolerance=")) {
      tolerance = &opts.wall_tolerance;
      value = arg.substr(17);
    }
    if (tolerance != nullptr) {
      if (!ParseTolerance(value, tolerance)) {
        std::fprintf(stderr, "bad tolerance value: %s\n", argv[i]);
        return Usage();
      }
    } else if (arg.starts_with("--json=")) {
      json_path = argv[i] + 7;
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (current_path == nullptr) {
      current_path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (baseline_path == nullptr || current_path == nullptr) return Usage();

  auto baseline_text = treebench::ReadFile(baseline_path);
  if (!baseline_text.ok()) {
    std::fprintf(stderr, "%s\n", baseline_text.status().ToString().c_str());
    return 2;
  }
  auto current_text = treebench::ReadFile(current_path);
  if (!current_text.ok()) {
    std::fprintf(stderr, "%s\n", current_text.status().ToString().c_str());
    return 2;
  }

  auto baseline = treebench::telemetry::ParseFlatJson(*baseline_text);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s: %s\n", baseline_path,
                 baseline.status().ToString().c_str());
    return 2;
  }
  auto current = treebench::telemetry::ParseFlatJson(*current_text);
  if (!current.ok()) {
    std::fprintf(stderr, "%s: %s\n", current_path,
                 current.status().ToString().c_str());
    return 2;
  }

  treebench::telemetry::RegressionResult result =
      treebench::telemetry::CompareRuns(*baseline, *current, opts);
  std::printf("%s", result.report.c_str());
  if (json_path != nullptr) {
    // Machine-readable diff for CI annotation, written pass or fail.
    const treebench::Status s =
        treebench::WriteFile(json_path, result.DiffJson());
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
  }
  if (!result.ok) {
    std::fprintf(stderr, "check_regression: %d of %d keys out of bounds\n",
                 result.failures, result.keys_checked);
    return 1;
  }
  return 0;
}
