// Update-transaction mix: sweeps WorkloadSpec::update_ratio over the Derby
// database for the class- and composition-clustered organizations and 1..N
// clients, reporting throughput, latency, lock waiting, undo/redo volume
// and write amplification (docs/transaction_model.md).
//
// Before each sweep it enforces the HARD update_ratio=0 bit-identity gate:
// the ratio-0 workload report must be byte-for-byte identical with and
// without an (idle) TxnManager installed as the cache's page-lock hook. A
// single differing byte — one counter, one latency digit — fails the bench.
//
// Every (clustering x ratio x clients) sweep point is a hermetic bench cell
// with its own freshly built database (committed updates rewrite
// Patients.random_integer in place, so sharing a database would make each
// run's counters depend on which runs came before it — hermetic cells make
// every point independently reproducible AND free to execute on the --jobs
// pool; docs/parallel_harness.md).
//
// Expected shape: throughput degrades as update_ratio grows (updates pay
// extent/index scans plus logging), lock_wait_ns appears only with >= 2
// clients, and undo_bytes stays proportional to the distinct pages each
// transaction dirties while redo_bytes tracks the update count.
//
// Flags read (bench/common/bench_util.h), with their meaning here:
//   --jobs, --stats-json
//   --clients=N          sweep client counts {1, N}
//   --queries=N          measured queries per client (default 8)
//   --summary-json=PATH  flat summary of every swept run, gated against
//                        bench/baselines/update_mix_smoke.json
// Smoke (--scale=0) also shrinks the client counts to {1, 4} and the
// queries to 3 per client.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/cell_harness.h"
#include "src/common/string_util.h"
#include "src/telemetry/regression.h"
#include "src/txn/txn_manager.h"
#include "src/workload/sim_scheduler.h"

namespace treebench::bench {
namespace {

WorkloadSpec MixSpec(uint32_t clients, uint32_t queries, double ratio) {
  WorkloadSpec spec;
  spec.num_clients = clients;
  spec.queries_per_client = queries;
  spec.zipf_theta = 0.6;  // readers and writers collide on the hot windows
  spec.tree_query_fraction = 0.2;
  spec.update_ratio = ratio;
  spec.selection_pct = 2;
  spec.tree_child_sel_pct = 10;
  spec.tree_parent_sel_pct = 10;
  spec.think_time_ns = 0;
  spec.cold_start = true;
  spec.seed = 42;
  return spec;
}

/// The hard gate: a ratio-0 workload must produce a byte-identical report
/// whether or not an idle TxnManager sits in the page-access path. Builds
/// its own fresh databases so committed updates from other cells cannot
/// leak in.
bool CheckRatioZeroBitIdentity(ClusteringStrategy clustering,
                               const BenchOptions& opts, uint32_t clients,
                               uint32_t queries) {
  WorkloadSpec spec = MixSpec(clients, queries, /*ratio=*/0);

  auto plain_db = BuildDerbyOrDie(2000, 1000, clustering, opts);
  auto plain = RunWorkload(plain_db.get(), spec);
  if (!plain.ok()) {
    std::fprintf(stderr, "FATAL: ratio-0 run: %s\n",
                 plain.status().ToString().c_str());
    return false;
  }

  auto hooked_db = BuildDerbyOrDie(2000, 1000, clustering, opts);
  TxnManager idle(hooked_db->db.get());
  idle.Install();
  auto hooked = RunWorkload(hooked_db.get(), spec);
  idle.Uninstall();
  if (!hooked.ok()) {
    std::fprintf(stderr, "FATAL: hooked ratio-0 run: %s\n",
                 hooked.status().ToString().c_str());
    return false;
  }

  const std::string a = plain->ToJson();
  const std::string b = hooked->ToJson();
  const bool identical = a == b;
  std::fprintf(Out(), "ratio-0 bit-identity gate (%s, %u clients): %s\n",
               std::string(ClusteringName(clustering)).c_str(), clients,
               identical ? "PASS" : "FAIL");
  if (!identical) {
    size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
    std::fprintf(stderr, "reports diverge at byte %zu:\n  plain:  %.60s\n"
                         "  hooked: %.60s\n",
                 i, a.c_str() + (i < a.size() ? i : a.size()),
                 b.c_str() + (i < b.size() ? i : b.size()));
  }
  return identical;
}

/// Out-slot of one (clustering x ratio x clients) sweep cell.
struct MixOut {
  bool ok = false;
  WorkloadReport report;
  uint64_t server_cache_bytes = 0;
  uint64_t client_cache_bytes = 0;
};

int Main(int argc, char** argv) {
  const BenchOptions opts =
      ParseArgs(argc, argv, /*default_scale=*/1, kSummaryJsonFlag);
  const uint32_t queries = opts.queries > 0 ? opts.queries
                           : opts.smoke     ? 3
                                            : 8;

  std::vector<uint32_t> counts;
  if (opts.clients > 0) {
    counts = {1, opts.clients};
  } else if (opts.smoke) {
    counts = {1, 4};
  } else {
    counts = {1, 4, 16};
  }
  const std::vector<double> ratios = {0, 0.25, 0.5};

  const std::vector<ClusteringStrategy> clusterings = {
      ClusteringStrategy::kClassClustered, ClusteringStrategy::kComposition};

  BenchCells cells(opts.jobs);
  // Not vector<bool>: its bit-packing would let two cells race on one byte.
  std::vector<uint8_t> gate_ok(clusterings.size(), 0);
  std::vector<std::vector<MixOut>> sweeps(clusterings.size());
  for (auto& per_cluster : sweeps) {
    per_cluster.resize(ratios.size() * counts.size());
  }

  for (size_t ci = 0; ci < clusterings.size(); ++ci) {
    const ClusteringStrategy clustering = clusterings[ci];
    const std::string cluster_label = std::string(ClusteringName(clustering));
    cells.Add("gate_" + cluster_label, [&, ci, clustering] {
      gate_ok[ci] = CheckRatioZeroBitIdentity(clustering, opts, counts.back(),
                                              queries)
                        ? 1
                        : 0;
      return gate_ok[ci] != 0 ? 0 : 1;
    });
    for (size_t ri = 0; ri < ratios.size(); ++ri) {
      for (size_t ni = 0; ni < counts.size(); ++ni) {
        const double ratio = ratios[ri];
        const uint32_t n = counts[ni];
        const size_t slot = ri * counts.size() + ni;
        const std::string run_label =
            cluster_label + "_r" + std::to_string(int(ratio * 100)) + "_c" +
            std::to_string(n);
        cells.Add(run_label, [&, ci, slot, ratio, n, clustering] {
          auto derby = BuildDerbyOrDie(2000, 1000, clustering, opts);
          MixOut& out = sweeps[ci][slot];
          auto report = RunWorkload(derby.get(), MixSpec(n, queries, ratio));
          if (!report.ok()) {
            std::fprintf(stderr,
                         "FATAL: workload (ratio %.2f, %u clients): %s\n",
                         ratio, n, report.status().ToString().c_str());
            return 1;
          }
          out.server_cache_bytes = derby->db->cache().config().server_bytes;
          out.client_cache_bytes = derby->db->cache().config().client_bytes;
          out.report = std::move(*report);
          out.ok = true;
          return 0;
        });
      }
    }
  }
  const bool cells_ok = cells.RunAll();
  if (!cells_ok) return 1;

  StatStore stats;
  telemetry::FlatRun summary;
  bool gates_pass = true;

  for (size_t ci = 0; ci < clusterings.size(); ++ci) {
    const std::string cluster_label =
        std::string(ClusteringName(clusterings[ci]));
    gates_pass = gate_ok[ci] && gates_pass;

    std::vector<std::vector<std::string>> rows;
    for (size_t ri = 0; ri < ratios.size(); ++ri) {
      for (size_t ni = 0; ni < counts.size(); ++ni) {
        const double ratio = ratios[ri];
        const uint32_t n = counts[ni];
        const MixOut& out = sweeps[ci][ri * counts.size() + ni];
        if (!out.ok) return 1;
        const WorkloadReport& report = out.report;
        const Metrics& t = report.totals;
        const std::string run_label =
            cluster_label + "_r" + std::to_string(int(ratio * 100)) + "_c" +
            std::to_string(n);

        if (!opts.summary_json_path.empty()) {
          summary.Set(run_label + "_total_queries",
                      static_cast<double>(report.total_queries));
          summary.Set(run_label + "_failed_queries",
                      static_cast<double>(report.failed_queries));
          summary.Set(run_label + "_disk_reads",
                      static_cast<double>(t.disk_reads));
          summary.Set(run_label + "_disk_writes",
                      static_cast<double>(t.disk_writes));
          summary.Set(run_label + "_rpc_count",
                      static_cast<double>(t.rpc_count));
          summary.Set(run_label + "_txn_commits",
                      static_cast<double>(t.txn_commits));
          summary.Set(run_label + "_txn_aborts",
                      static_cast<double>(t.txn_aborts));
          summary.Set(run_label + "_deadlocks",
                      static_cast<double>(t.deadlocks));
          summary.Set(run_label + "_lock_waits",
                      static_cast<double>(t.lock_waits));
          summary.Set(run_label + "_logical_updates",
                      static_cast<double>(t.logical_updates));
          summary.Set(run_label + "_undo_bytes",
                      static_cast<double>(t.undo_bytes));
          summary.Set(run_label + "_redo_bytes",
                      static_cast<double>(t.redo_bytes));
          summary.Set(run_label + "_dirty_writebacks",
                      static_cast<double>(t.dirty_page_writebacks));
          summary.Set(run_label + "_throughput_qps", report.throughput_qps);
          summary.Set(run_label + "_p50_s",
                      report.latencies.Quantile(0.50) / 1e9);
          summary.Set(run_label + "_p95_s",
                      report.latencies.Quantile(0.95) / 1e9);
          summary.Set(run_label + "_lock_wait_s",
                      static_cast<double>(t.lock_wait_ns) / 1e9);
        }

        // Write amplification: pages shipped back to the server per logical
        // attribute update (0 when the run had no updates).
        const double wamp =
            t.logical_updates > 0
                ? static_cast<double>(t.dirty_page_writebacks) /
                      static_cast<double>(t.logical_updates)
                : 0;
        rows.push_back(
            {FormatSeconds(ratio, 2), WithThousands(n),
             FormatSeconds(report.throughput_qps, 3),
             FormatSeconds(report.latencies.Quantile(0.50) / 1e9),
             FormatSeconds(report.latencies.Quantile(0.95) / 1e9),
             WithThousands(t.txn_commits), WithThousands(t.txn_aborts),
             FormatSeconds(static_cast<double>(t.lock_wait_ns) / 1e9),
             WithThousands(t.undo_bytes), WithThousands(t.redo_bytes),
             FormatSeconds(wamp, 2)});

        StatRecord rec;
        rec.database = "derby-2e3x1e3";
        rec.cluster = cluster_label;
        rec.algo = "update_mix";
        rec.query_text =
            "mixed selection/tree/update workload (zipf 0.6, ratio " +
            std::to_string(ratio) + ")";
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
      }
    }
    PrintTable(cluster_label + " — update mix (simulated, " +
                   std::to_string(queries) + " queries/client)",
               {"ratio", "clients", "qps", "p50(s)", "p95(s)", "commits",
                "aborts", "lock wait(s)", "undo B", "redo B", "w-amp"},
               rows);
  }

  std::printf(
      "\nexpected: throughput falls as update_ratio grows; lock waiting "
      "appears only with >= 2 clients; undo tracks dirtied pages, redo "
      "tracks update count\n");

  bool ok = WriteArtifact(opts.summary_json_path, summary.ToJson(),
                          "run summary") &&
            gates_pass;
  ok = MaybeExportStatsJson(stats, opts) && ok;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
