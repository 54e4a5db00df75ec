#ifndef TREEBENCH_BENCH_COMMON_BENCH_UTIL_H_
#define TREEBENCH_BENCH_COMMON_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/benchdb/derby.h"
#include "src/common/status.h"
#include "src/harness/cell_runner.h"
#include "src/stats/stat_store.h"

namespace treebench::bench {

/// Command-line options of every bench, as parsed by ParseArgs.
struct BenchOptions {
  /// Divides paper-scale cardinalities (and the modeled RAM/caches) by this
  /// factor. 1 = paper scale.
  uint32_t scale = 1;
  /// --scale=0: the bench's CI smoke configuration (scale 64 plus whatever
  /// sizes the bench itself shrinks).
  bool smoke = false;
  /// Cell-runner workers; 0 = the host's hardware concurrency.
  uint32_t jobs = 0;
  /// Sweep sizes; 0 = the bench's own default.
  uint32_t clients = 0;
  uint32_t queries = 0;
  uint32_t servers = 0;
  /// Artifact paths and directories; "" = not requested.
  std::string stats_json_path;
  std::string perf_json_path;
  std::string trace_json_path;
  std::string summary_json_path;
  std::string json_path;
  std::string telemetry_dir;
  std::string query_log_dir;
  bool verbose = false;
};

/// The bench front end. Every bench accepts every flag below; --scale and
/// --perf-json act in all of them, and each bench's header names the other
/// flags it reads (the rest are ignored there).
///
///   --scale=N            N >= 1 divides paper scale by N; 0 = smoke
///                        (smoke = true, scale = 64); absent = the bench's
///                        `default_scale`
///   --jobs=N             cell-runner workers, 1..1023 (absent: env
///                        TREEBENCH_JOBS, same parser and bound, else
///                        hardware concurrency)
///   --clients=N          sweep client count(s), N >= 1
///   --queries=N          measured queries per client, N >= 1
///   --servers=N          sweep server count(s), N >= 1
///   --stats-json=PATH    StatStore records as a JSON array
///   --perf-json=PATH     host perf record: wall_seconds, peak_rss_kb and,
///                        for cell benches, jobs / cells / pool_occupancy /
///                        per-cell wall seconds; written at process exit
///   --trace-json=PATH    EXPLAIN ANALYZE trace export
///   --summary-json=PATH  flat {"key": number} summary for check_regression
///   --json=PATH          workload reports as a JSON array
///   --telemetry-dir=DIR  per-run telemetry time series and traces
///   --query-log-dir=DIR  per-run query flight-recorder logs
///   --verbose            extra diagnostic output
///
/// An unknown flag, an empty value, or a malformed or out-of-range number
/// (in a flag or in TREEBENCH_JOBS) exits 2 with a one-line usage message
/// before any work starts.
/// --perf-json also starts the wall-clock timer and registers the exit-time
/// writer; if that write fails the process exits 1.
BenchOptions ParseArgs(int argc, char** argv, uint32_t default_scale = 1);

/// The parser behind ParseArgs, without its side effects: returns
/// InvalidArgument instead of exiting, and registers no perf writer.
Result<BenchOptions> TryParseArgs(int argc, const char* const* argv,
                                  uint32_t default_scale = 1);

/// Writes one requested artifact: an empty `path` means not requested and
/// returns true. On success prints "wrote <what> to <path>"; on failure
/// prints the error to stderr and returns false, and the bench must then
/// exit nonzero.
bool WriteArtifact(const std::string& path, const std::string& content,
                   const std::string& what);

/// Prints a ruled table: header row then rows; columns auto-sized.
void PrintTable(const std::string& title,
                const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows);

/// Formats "x1.23" style ratios as the paper's tables do.
std::string Ratio(double value, double best);

/// Builds a Derby database for a bench, printing progress to bench::Out()
/// (virtual-time figures only, so the message is byte-stable across hosts
/// and --jobs values). Seconds reported by subsequent runs are multiplied
/// by `opts.scale` for comparison against paper-scale numbers (the machine
/// is scaled with the data, so costs scale ~linearly). On build failure:
/// inside a cell body the error is thrown (the cell runner rethrows it on
/// the main thread after the pool drains); on the main thread the process
/// exits 1, as before.
std::unique_ptr<DerbyDb> BuildDerbyOrDie(uint64_t providers,
                                         uint32_t avg_children,
                                         ClusteringStrategy clustering,
                                         const BenchOptions& opts);

/// Records the pool shape of a finished CellRunner (jobs, per-cell
/// wall-clock, occupancy) for the exit-time *_perf.json writer. Called by
/// BenchCells::RunAll(); main thread only.
void RecordHarnessPerf(const CellRunner& runner);

/// Paper reference values for one Figure 11-14 style grid: rows are the
/// (sel patients, sel providers) pairs (10,10),(10,90),(90,10),(90,90);
/// columns are NL, NOJOIN, PHJ, CHJ. Negative = not reported.
struct PaperGrid {
  double seconds[4][4];
};

/// Runs the canonical tree query for all four algorithms over the grid,
/// prints measured-vs-paper seconds (scaled to paper scale) and appends a
/// StatRecord per run.
void RunTreeQueryGrid(DerbyDb& derby, const std::string& db_label,
                      const PaperGrid& paper, const BenchOptions& opts,
                      StatStore* stats);

/// Writes the stat store as JSON to opts.stats_json_path when set; false
/// when that write failed.
bool MaybeExportStatsJson(const StatStore& stats, const BenchOptions& opts);

}  // namespace treebench::bench

#endif  // TREEBENCH_BENCH_COMMON_BENCH_UTIL_H_
