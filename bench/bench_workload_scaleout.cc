// Multi-client scale-out: runs the workload simulator (src/workload) over
// the 2,000 x ~1,000 Derby database for client counts 1, 2, 4, ... 64 on
// the class-clustered and composition-clustered organizations, and reports
// throughput, latency percentiles, queueing delay at the shared server, and
// fairness. Before each sweep it proves the 1-client degenerate case: a
// one-query workload must reproduce the plain single-client query path's
// Metrics counter-for-counter with zero rpc_queue_wait_ns (a hard check —
// the bench fails otherwise).
//
// Expected shape: throughput grows sublinearly with clients (the single
// simulated server saturates and rpc_queue_wait_ns grows), while the shared
// server cache gives skewed (Zipf) workloads fewer disk reads per client
// than N independent cold runs would pay.
//
// The sweep is enumerated as hermetic bench cells — one (clustering x
// client-count) unit, each building its own database — executed on the
// cell-runner pool (docs/parallel_harness.md) and merged in submission
// order, so output and artifacts are byte-identical at any --jobs value.
//
// Flags read (bench/common/bench_util.h), with their meaning here:
//   --jobs, --stats-json
//   --clients=N          sweep client counts {1, N}
//   --queries=N          measured queries per client (default 8)
//   --json=PATH          deterministic JSON array of every WorkloadReport
//   --summary-json=PATH  flat summary of every swept run, gated against
//                        bench/baselines/workload_scaleout_c{4,8}.json
//   --telemetry-dir=DIR  per swept run: <cluster>_c<N>.timeseries.{csv,
//                        jsonl}, a Perfetto trace <cluster>_c<N>.chrome.json
//                        (ui.perfetto.dev) and folded stacks
//                        <cluster>_c<N>.folded
//   --query-log-dir=DIR  per swept run, with the query flight recorder on
//                        (docs/observability.md):
//                        <cluster>_c<N>.querylog.{jsonl,csv} and the
//                        tail-latency report <cluster>_c<N>.tail.txt
// Smoke (--scale=0) also shrinks the client counts to {1, 4} and the
// queries to 3 per client.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/cell_harness.h"
#include "src/common/file_util.h"
#include "src/common/string_util.h"
#include "src/cost/trace.h"
#include "src/query/executor.h"
#include "src/query/oql/parser.h"
#include "src/telemetry/regression.h"
#include "src/telemetry/trace_export.h"
#include "src/workload/client_session.h"
#include "src/workload/sim_scheduler.h"

namespace treebench::bench {
namespace {

WorkloadSpec SweepSpec(uint32_t clients, uint32_t queries) {
  WorkloadSpec spec;
  spec.num_clients = clients;
  spec.queries_per_client = queries;
  spec.zipf_theta = 0.6;          // head-heavy: shared server cache pays off
  spec.tree_query_fraction = 0.2;
  spec.selection_pct = 2;
  spec.tree_child_sel_pct = 10;
  spec.tree_parent_sel_pct = 10;
  spec.think_time_ns = 0;         // closed loop, maximum contention
  spec.cold_start = true;
  spec.seed = 42;
  return spec;
}

/// Proves the degenerate case: a 1-client 1-query workload produces exactly
/// the Metrics of the plain single-client path (BeginMeasuredRun +
/// RunBoundPlan) on the same query, with zero queueing. Returns false (and
/// prints the first differing counter) on mismatch.
bool CheckOneClientExact(DerbyDb& derby) {
  WorkloadSpec spec = SweepSpec(/*clients=*/1, /*queries=*/1);
  spec.cold_per_query = true;  // the paper's per-query cold methodology

  // The session's first generated query, replayed deterministically.
  std::string oql;
  {
    ClientSession probe(0, spec, derby);
    oql = probe.NextQuery().oql;
  }

  auto report = RunWorkload(&derby, spec);
  if (!report.ok()) {
    std::fprintf(stderr, "FATAL: workload: %s\n",
                 report.status().ToString().c_str());
    return false;
  }

  // Reference: the pre-existing single-client path on the identical query.
  Database* db = derby.db.get();
  auto ast = oql::Parse(oql);
  if (!ast.ok()) return false;
  auto bound = Bind(db, *ast);
  if (!bound.ok()) return false;
  auto plan = ChoosePlan(db, *bound, spec.strategy);
  if (!plan.ok()) return false;
  if (!db->BeginMeasuredRun().ok()) return false;
  auto run = RunBoundPlan(db, *bound, *plan, /*cold=*/false);
  if (!run.ok()) return false;

  bool exact = true;
  for (const MetricsField& f : MetricsFieldTable()) {
    const uint64_t got = report->totals.*(f.member);
    const uint64_t want = run->metrics.*(f.member);
    if (got != want) {
      std::fprintf(stderr, "1-client mismatch: %s workload=%llu single=%llu\n",
                   f.name, (unsigned long long)got,
                   (unsigned long long)want);
      exact = false;
    }
  }
  if (report->totals.rpc_queue_wait_ns != 0) {
    std::fprintf(stderr, "1-client run queued (%llu ns) — must be 0\n",
                 (unsigned long long)report->totals.rpc_queue_wait_ns);
    exact = false;
  }
  std::fprintf(Out(), "1-client exactness check: %s (query: %s)\n",
               exact ? "PASS" : "FAIL", oql.c_str());
  return exact;
}

/// Out-slot of one (clustering x client-count) sweep cell. Each slot is
/// written by exactly one cell; the main thread reads them only after the
/// pool drains.
struct SweepOut {
  bool ok = false;
  WorkloadReport report;
  uint64_t server_cache_bytes = 0;
  uint64_t client_cache_bytes = 0;
};

int Main(int argc, char** argv) {
  const BenchOptions opts = ParseArgs(argc, argv);
  const uint32_t queries = opts.queries > 0 ? opts.queries
                           : opts.smoke     ? 3
                                            : 8;

  std::vector<uint32_t> counts;
  if (opts.clients > 0) {
    counts = {1, opts.clients};
  } else if (opts.smoke) {
    counts = {1, 4};
  } else {
    counts = {1, 2, 4, 8, 16, 32, 64};
  }

  const std::vector<ClusteringStrategy> clusterings = {
      ClusteringStrategy::kClassClustered, ClusteringStrategy::kComposition};

  // Cell enumeration: per clustering, one 1-client exactness gate cell plus
  // one sweep cell per client count. Every cell builds its own database
  // (the sweeps run cold_start, so a fresh build reproduces the shared-
  // database counters exactly).
  BenchCells cells(opts.jobs);
  // Not vector<bool>: its bit-packing would let two cells race on one byte.
  std::vector<uint8_t> gate_ok(clusterings.size(), 0);
  std::vector<std::vector<SweepOut>> sweeps(clusterings.size());
  for (auto& per_cluster : sweeps) per_cluster.resize(counts.size());

  for (size_t ci = 0; ci < clusterings.size(); ++ci) {
    const ClusteringStrategy clustering = clusterings[ci];
    const std::string cluster_label = std::string(ClusteringName(clustering));
    cells.Add("gate_" + cluster_label, [&, ci, clustering] {
      auto derby = BuildDerbyOrDie(2000, 1000, clustering, opts);
      gate_ok[ci] = CheckOneClientExact(*derby) ? 1 : 0;
      return gate_ok[ci] != 0 ? 0 : 1;
    });
    for (size_t ni = 0; ni < counts.size(); ++ni) {
      const uint32_t n = counts[ni];
      const std::string run_label = cluster_label + "_c" + std::to_string(n);
      cells.Add(run_label, [&, ci, ni, n, clustering, run_label] {
        auto derby = BuildDerbyOrDie(2000, 1000, clustering, opts);
        SweepOut& out = sweeps[ci][ni];
        const bool want_telemetry = !opts.telemetry_dir.empty();
        WorkloadTelemetry tel;
        // Folded stacks come from the span tree, so a trace session wraps
        // the run when telemetry is requested (neither changes any counter).
        std::unique_ptr<TraceSession> trace_session;
        if (want_telemetry) {
          trace_session = std::make_unique<TraceSession>(&derby->db->sim());
        }
        WorkloadSpec sweep_spec = SweepSpec(n, queries);
        // The flight recorder is a pure observer: counters and latencies
        // are identical with and without it (test-enforced), so enabling it
        // for the artifact export does not perturb the sweep.
        if (!opts.query_log_dir.empty()) sweep_spec.query_log = true;
        auto report = RunWorkload(derby.get(), sweep_spec,
                                  want_telemetry ? &tel : nullptr);
        if (!report.ok()) {
          std::fprintf(stderr, "FATAL: workload (%u clients): %s\n", n,
                       report.status().ToString().c_str());
          return 1;
        }
        bool files_ok = true;
        auto write = [&files_ok](const std::string& path,
                                 const std::string& content) {
          const Status st = WriteFile(path, content);
          if (!st.ok()) {
            std::fprintf(stderr, "FATAL: %s\n", st.ToString().c_str());
            files_ok = false;
          }
        };
        if (want_telemetry) {
          const std::string base = opts.telemetry_dir + "/" + run_label;
          write(base + ".timeseries.csv", tel.series.ToCsv());
          write(base + ".timeseries.jsonl", tel.series.ToJsonl());
          write(base + ".chrome.json", tel.ChromeTraceJson());
          std::unique_ptr<TraceNode> span_root = trace_session->Take();
          write(base + ".folded",
                span_root != nullptr
                    ? telemetry::TraceToFoldedStacks(*span_root)
                    : std::string());
          std::fprintf(Out(),
                       "telemetry: %s.{timeseries.csv,timeseries.jsonl,"
                       "chrome.json,folded} (%zu samples, %zu slices)\n",
                       base.c_str(), tel.series.num_samples(),
                       tel.query_slices.size());
        }
        if (!opts.query_log_dir.empty()) {
          const std::string base = opts.query_log_dir + "/" + run_label;
          write(base + ".querylog.jsonl", report->query_log.ToJsonl());
          write(base + ".querylog.csv", report->query_log.ToCsv());
          write(base + ".tail.txt", report->tail.ToString());
          std::fprintf(Out(),
                       "query log: %s.{querylog.jsonl,querylog.csv,tail.txt} "
                       "(%zu records)\n",
                       base.c_str(), report->query_log.records().size());
        }
        out.server_cache_bytes = derby->db->cache().config().server_bytes;
        out.client_cache_bytes = derby->db->cache().config().client_bytes;
        out.report = std::move(*report);
        out.ok = files_ok;
        return files_ok ? 0 : 1;
      });
    }
  }
  const bool cells_ok = cells.RunAll();

  // Merge on the main thread, in enumeration order: tables, summary keys,
  // stat records, and the report JSON array come out exactly as the
  // sequential program produced them.
  StatStore stats;
  telemetry::FlatRun summary;
  std::string json = "[\n";
  bool first_json = true;
  bool all_exact = true;
  bool telemetry_ok = true;

  for (size_t ci = 0; ci < clusterings.size(); ++ci) {
    const std::string cluster_label =
        std::string(ClusteringName(clusterings[ci]));
    all_exact = gate_ok[ci] && all_exact;

    std::vector<std::vector<std::string>> rows;
    double qps1 = 0;
    for (size_t ni = 0; ni < counts.size(); ++ni) {
      const uint32_t n = counts[ni];
      SweepOut& out = sweeps[ci][ni];
      if (!out.ok) {
        telemetry_ok = false;
        continue;
      }
      const WorkloadReport& report = out.report;
      const std::string run_label = cluster_label + "_c" + std::to_string(n);
      if (!opts.summary_json_path.empty()) {
        const Metrics& t = report.totals;
        summary.Set(run_label + "_total_queries",
                    static_cast<double>(report.total_queries));
        summary.Set(run_label + "_disk_reads",
                    static_cast<double>(t.disk_reads));
        summary.Set(run_label + "_rpc_count",
                    static_cast<double>(t.rpc_count));
        summary.Set(run_label + "_handle_gets",
                    static_cast<double>(t.handle_gets));
        summary.Set(run_label + "_client_cache_evictions",
                    static_cast<double>(t.client_cache_evictions));
        summary.Set(run_label + "_server_cache_evictions",
                    static_cast<double>(t.server_cache_evictions));
        summary.Set(run_label + "_span_seconds", report.span_seconds);
        summary.Set(run_label + "_throughput_qps", report.throughput_qps);
        summary.Set(run_label + "_p50_s",
                    report.latencies.Quantile(0.50) / 1e9);
        summary.Set(run_label + "_p95_s",
                    report.latencies.Quantile(0.95) / 1e9);
        summary.Set(run_label + "_p99_s",
                    report.latencies.Quantile(0.99) / 1e9);
        summary.Set(run_label + "_queue_wait_s",
                    static_cast<double>(t.rpc_queue_wait_ns) / 1e9);
      }
      if (n == 1) qps1 = report.throughput_qps;
      const double speedup = qps1 > 0 ? report.throughput_qps / qps1 : 0;
      rows.push_back(
          {WithThousands(n), FormatSeconds(report.throughput_qps, 3),
           FormatSeconds(speedup, 2),
           FormatSeconds(report.latencies.Quantile(0.50) / 1e9),
           FormatSeconds(report.latencies.Quantile(0.95) / 1e9),
           FormatSeconds(report.latencies.Quantile(0.99) / 1e9),
           FormatSeconds(
               static_cast<double>(report.totals.rpc_queue_wait_ns) / 1e9),
           FormatSeconds(report.server_utilization, 3),
           FormatSeconds(report.fairness_ratio, 3),
           WithThousands(report.totals.disk_reads)});

      StatRecord rec;
      rec.database = "derby-2e3x1e3";
      rec.cluster = cluster_label;
      rec.algo = "workload";
      rec.query_text = "mixed selection/tree workload (zipf 0.6)";
      rec.num_clients = n;
      rec.throughput_qps = report.throughput_qps;
      rec.latency_p50_s = report.latencies.Quantile(0.50) / 1e9;
      rec.latency_p95_s = report.latencies.Quantile(0.95) / 1e9;
      rec.latency_p99_s = report.latencies.Quantile(0.99) / 1e9;
      rec.result_count = report.total_queries;
      rec.server_cache_bytes = out.server_cache_bytes;
      rec.client_cache_bytes = out.client_cache_bytes;
      rec.FillFrom(report.totals, report.span_seconds);
      stats.Add(rec);

      if (!first_json) json += ",\n";
      json += report.ToJson();
      first_json = false;
    }
    PrintTable(
        cluster_label + " — scale-out (simulated, " +
            std::to_string(queries) + " queries/client)",
        {"clients", "qps", "speedup", "p50(s)", "p95(s)", "p99(s)",
         "queue wait(s)", "server util", "fairness", "disk reads"},
        rows);
  }
  json += "]\n";

  std::printf(
      "\nexpected: sublinear speedup (single server saturates; queue wait "
      "grows with clients) while zipf sharing keeps per-client disk reads "
      "below N independent cold runs\n");

  bool ok = cells_ok && all_exact && telemetry_ok;
  ok = WriteArtifact(opts.json_path, json, "workload reports") && ok;
  ok = WriteArtifact(opts.summary_json_path, summary.ToJson(),
                     "run summary") &&
       ok;
  ok = MaybeExportStatsJson(stats, opts) && ok;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
