#include "common/bench_util.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/cell_harness.h"
#include "src/common/file_util.h"
#include "src/common/string_util.h"
#include "src/query/tree_query.h"

namespace treebench::bench {

namespace {

// Host-side perf record, written at process exit so every bench gets it for
// free from ParseArgs (no per-bench plumbing, and the timer covers the
// whole run including exports).
std::string g_perf_json_path;                        // NOLINT
std::chrono::steady_clock::time_point g_perf_start;  // NOLINT

// Pool shape of the last BenchCells run, merged into the perf record.
// Written from RecordHarnessPerf on the main thread only.
struct HarnessPerf {
  bool recorded = false;
  uint32_t jobs = 0;
  double occupancy = 0.0;
  std::vector<CellRunner::CellResult> cells;
};
HarnessPerf g_harness_perf;  // NOLINT

long PeakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return ru.ru_maxrss / 1024;  // bytes on macOS
#else
  return ru.ru_maxrss;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

void WritePerfJson() {
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    g_perf_start)
          .count();
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"wall_seconds\": %.3f,\n  \"peak_rss_kb\": %ld", wall,
                PeakRssKb());
  std::string json = buf;
  if (g_harness_perf.recorded) {
    std::snprintf(buf, sizeof(buf),
                  ",\n  \"jobs\": %u,\n  \"cells\": %zu,\n  "
                  "\"pool_occupancy\": %.3f",
                  g_harness_perf.jobs, g_harness_perf.cells.size(),
                  g_harness_perf.occupancy);
    json += buf;
    json += ",\n  \"cell_wall_seconds\": {";
    for (size_t i = 0; i < g_harness_perf.cells.size(); ++i) {
      const CellRunner::CellResult& c = g_harness_perf.cells[i];
      std::snprintf(buf, sizeof(buf), ": %.3f", c.wall_seconds);
      json += (i == 0 ? "\n    \"" : ",\n    \"") + c.label + "\"" + buf;
    }
    json += "\n  }";
  }
  json += "\n}\n";
  const Status s = WriteFile(g_perf_json_path, json);
  if (!s.ok()) {
    // Runs inside exit(): the exit status can only be changed by ending the
    // process here, after flushing what the bench already printed.
    std::fprintf(stderr, "perf json export failed: %s\n",
                 s.ToString().c_str());
    std::fflush(nullptr);
    std::_Exit(1);
  }
}

// Parses a decimal flag value in [lo, hi]; no sign, no spaces, no suffix.
bool ParseNumber(std::string_view text, uint64_t lo, uint64_t hi,
                 uint32_t* out) {
  uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || v < lo || v > hi) {
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

// The flag table; bench_util.h documents each flag.
struct NumberFlag {
  std::string_view name;
  uint32_t BenchOptions::*field;
  uint64_t lo, hi;
};
constexpr NumberFlag kNumberFlags[] = {
    {"--scale=", &BenchOptions::scale, 0, UINT32_MAX},
    {"--jobs=", &BenchOptions::jobs, 1, 1023},
    {"--clients=", &BenchOptions::clients, 1, UINT32_MAX},
    {"--queries=", &BenchOptions::queries, 1, UINT32_MAX},
    {"--servers=", &BenchOptions::servers, 1, UINT32_MAX},
};
struct PathFlag {
  std::string_view name;
  std::string BenchOptions::*field;
};
constexpr PathFlag kPathFlags[] = {
    {"--stats-json=", &BenchOptions::stats_json_path},
    {"--perf-json=", &BenchOptions::perf_json_path},
    {"--trace-json=", &BenchOptions::trace_json_path},
    {"--summary-json=", &BenchOptions::summary_json_path},
    {"--json=", &BenchOptions::json_path},
    {"--telemetry-dir=", &BenchOptions::telemetry_dir},
    {"--query-log-dir=", &BenchOptions::query_log_dir},
};

std::string Usage() {
  std::string usage;
  for (const NumberFlag& f : kNumberFlags) {
    usage += " [" + std::string(f.name) + "N]";
  }
  for (const PathFlag& f : kPathFlags) {
    usage += " [" + std::string(f.name) + "PATH]";
  }
  return usage + " [--verbose]";
}

}  // namespace

Result<BenchOptions> TryParseArgs(int argc, const char* const* argv,
                                  uint32_t default_scale) {
  BenchOptions opts;
  opts.scale = default_scale;
  // The environment default goes through --jobs's parser and bound; an
  // explicit --jobs then overrides it.
  if (const char* env = std::getenv("TREEBENCH_JOBS")) {
    if (!ParseNumber(env, 1, 1023, &opts.jobs)) {
      return Status::InvalidArgument("bad value in TREEBENCH_JOBS=" +
                                     std::string(env));
    }
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    bool known = arg == "--verbose";
    if (known) opts.verbose = true;
    for (const NumberFlag& f : kNumberFlags) {
      if (!arg.starts_with(f.name)) continue;
      known = true;
      if (!ParseNumber(arg.substr(f.name.size()), f.lo, f.hi,
                       &(opts.*f.field))) {
        return Status::InvalidArgument("bad value in " + std::string(arg));
      }
    }
    for (const PathFlag& f : kPathFlags) {
      if (!arg.starts_with(f.name)) continue;
      known = true;
      opts.*f.field = arg.substr(f.name.size());
      if ((opts.*f.field).empty()) {
        return Status::InvalidArgument("empty value in " + std::string(arg));
      }
    }
    if (!known) {
      return Status::InvalidArgument("unknown flag " + std::string(arg));
    }
  }
  opts.smoke = opts.scale == 0;
  if (opts.smoke) opts.scale = 64;
  return opts;
}

BenchOptions ParseArgs(int argc, char** argv, uint32_t default_scale) {
  Result<BenchOptions> parsed = TryParseArgs(argc, argv, default_scale);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s; usage: %s%s\n", argv[0],
                 parsed.status().message().c_str(), argv[0],
                 Usage().c_str());
    std::exit(2);
  }
  BenchOptions opts = std::move(parsed).value();
  if (!opts.perf_json_path.empty() && g_perf_json_path.empty()) {
    g_perf_json_path = opts.perf_json_path;
    g_perf_start = std::chrono::steady_clock::now();
    std::atexit(WritePerfJson);
  }
  return opts;
}

bool WriteArtifact(const std::string& path, const std::string& content,
                   const std::string& what) {
  if (path.empty()) return true;
  const Status s = WriteFile(path, content);
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", s.ToString().c_str());
    return false;
  }
  std::fprintf(Out(), "wrote %s to %s\n", what.c_str(), path.c_str());
  return true;
}

void RecordHarnessPerf(const CellRunner& runner) {
  g_harness_perf.recorded = true;
  g_harness_perf.jobs = runner.jobs();
  g_harness_perf.occupancy = runner.occupancy();
  g_harness_perf.cells = runner.results();
}

void PrintTable(const std::string& title,
                const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> widths(header.size());
  for (size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  FILE* out = Out();
  std::fprintf(out, "\n== %s ==\n", title.c_str());
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::fprintf(out, "%-*s  ", static_cast<int>(widths[c]),
                   row[c].c_str());
    }
    std::fprintf(out, "\n");
  };
  print_row(header);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  std::fprintf(out, "%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows) print_row(row);
}

std::string Ratio(double value, double best) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", best > 0 ? value / best : 0.0);
  return buf;
}

std::unique_ptr<DerbyDb> BuildDerbyOrDie(uint64_t providers,
                                         uint32_t avg_children,
                                         ClusteringStrategy clustering,
                                         const BenchOptions& opts) {
  DerbyConfig cfg;
  cfg.providers = providers;
  cfg.avg_children = avg_children;
  cfg.clustering = clustering;
  cfg.scale = opts.scale;
  // No host-time figures here: this line lands in deterministic bench
  // output, which must be byte-identical across machines and --jobs values.
  std::fprintf(Out(), "building derby %llux%u (%s clustering, scale %u)...",
               static_cast<unsigned long long>(providers), avg_children,
               std::string(ClusteringName(clustering)).c_str(), opts.scale);
  std::fflush(Out());
  auto result = BuildDerby(cfg);
  if (!result.ok()) {
    if (Out() != stdout) {
      // Inside a cell: let the runner surface the error on the main thread
      // after the pool drains (exiting from a worker thread is unsafe).
      throw std::runtime_error("derby build failed: " +
                               result.status().ToString());
    }
    std::fprintf(stderr, "FATAL: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  std::fprintf(Out(), " done (%.0fs simulated load)\n",
               result->get()->load_seconds);
  return std::move(result).value();
}

void RunTreeQueryGrid(DerbyDb& derby, const std::string& db_label,
                      const PaperGrid& paper, const BenchOptions& opts,
                      StatStore* stats) {
  static constexpr double kSels[4][2] = {
      {10, 10}, {10, 90}, {90, 10}, {90, 90}};
  static constexpr TreeJoinAlgo kAlgos[4] = {
      TreeJoinAlgo::kNL, TreeJoinAlgo::kNOJOIN, TreeJoinAlgo::kPHJ,
      TreeJoinAlgo::kCHJ};

  std::vector<std::vector<std::string>> rows;
  for (int r = 0; r < 4; ++r) {
    TreeQuerySpec spec =
        DerbyTreeQuery(derby, kSels[r][0], kSels[r][1]);
    double measured[4];
    for (int a = 0; a < 4; ++a) {
      auto run = RunTreeQuery(derby.db.get(), spec, kAlgos[a]);
      if (!run.ok()) {
        std::fprintf(stderr, "FATAL: %s\n",
                     run.status().ToString().c_str());
        std::exit(1);
      }
      measured[a] = run->seconds * opts.scale;
      if (stats != nullptr) {
        StatRecord rec;
        rec.database = db_label;
        rec.cluster = std::string(ClusteringName(derby.db->clustering()));
        rec.algo = std::string(AlgoName(kAlgos[a]));
        rec.query_text =
            "select tuple(n: p.name, a: pa.age) from p in Providers, "
            "pa in p.clients where pa.mrn < k1 and p.upin < k2";
        rec.selectivity_patients_pct = kSels[r][0];
        rec.selectivity_providers_pct = kSels[r][1];
        rec.result_count = run->result_count;
        rec.server_cache_bytes =
            derby.db->cache().config().server_bytes;
        rec.client_cache_bytes =
            derby.db->cache().config().client_bytes;
        rec.FillFrom(run->metrics, run->seconds * opts.scale);
        stats->Add(rec);
      }
    }
    double best = *std::min_element(measured, measured + 4);
    for (int a = 0; a < 4; ++a) {
      const double paper_s = paper.seconds[r][a];
      char sel[32];
      std::snprintf(sel, sizeof(sel), "%2.0f / %2.0f", kSels[r][0],
                    kSels[r][1]);
      rows.push_back({a == 0 ? sel : "",
                      std::string(AlgoName(kAlgos[a])),
                      FormatSeconds(measured[a]), Ratio(measured[a], best),
                      paper_s >= 0 ? FormatSeconds(paper_s) : "-",
                      paper_s >= 0 ? Ratio(measured[a], paper_s) : "-"});
    }
  }
  PrintTable(db_label + " — time per algorithm (simulated seconds, paper scale)",
             {"sel pat/prov", "algo", "measured(s)", "xbest", "paper(s)",
              "measured/paper"},
             rows);
}

bool MaybeExportStatsJson(const StatStore& stats, const BenchOptions& opts) {
  if (opts.stats_json_path.empty()) return true;
  Status s = stats.ExportJson(opts.stats_json_path);
  if (!s.ok()) {
    std::fprintf(stderr, "json export failed: %s\n", s.ToString().c_str());
    return false;
  }
  std::fprintf(Out(), "wrote %zu stat records to %s\n", stats.size(),
               opts.stats_json_path.c_str());
  return true;
}

}  // namespace treebench::bench
