// Sharded page-service scale-out: partitions the Derby page service across
// N simulated page servers (src/catalog/placement.h) and sweeps servers x
// clients on the class-clustered organization, reporting throughput, tail
// latency, per-shard queueing and load balance. Before the sweep it proves
// the subsystem's identity gate: a num_servers=1, replication=off run must
// reproduce the inherited single-server engine byte-for-byte (hard check —
// the bench fails otherwise).
//
// A second phase runs the failover campaign: with primary/backup
// replication on, a scheduled kServerCrash kills shard 0 mid-workload; the
// run must complete every query with zero client-visible failures, record
// at least one failover, and produce bit-identical artifacts across two
// independent runs (all hard checks). A no-replication contrast run shows
// what the crash window costs without a backup. Both runs carry an
// availability SLO: replication must keep the burn-rate alerter silent
// while the unprotected run must fire it (hard checks; see
// docs/observability.md).
//
// Every run — the identity gate, each server count, the three failover
// campaigns — is a hermetic bench cell with its own database build (all
// specs run cold_start, so fresh builds reproduce the shared-database
// counters exactly); cells execute on the --jobs pool and all gates are
// evaluated at merge time in submission order (docs/parallel_harness.md).
// The determinism gate falls out naturally: the replicated campaign and the
// repeat cell are two independently built databases whose report JSON must
// match byte-for-byte.
//
// Expected shape: adding servers relieves the station bottleneck (queue
// wait falls, throughput rises toward the think-time bound) at the price of
// losing cross-client locality of the single shared server cache; hash
// placement keeps per-shard admissions within a tight band.
//
// Flags read (bench/common/bench_util.h), with their meaning here:
//   --jobs, --stats-json
//   --servers=N          sweep server counts {1, N}
//   --clients=N          client count of every run (default 8)
//   --queries=N          measured queries per client (default 6)
//   --json=PATH          deterministic JSON array of every WorkloadReport
//   --summary-json=PATH  flat summary of every run, gated against
//                        bench/baselines/shard_scaleout_smoke.json
// Smoke (--scale=0) also shrinks the server counts to {1, 2, 4} and the
// queries to 3 per client.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/cell_harness.h"
#include "src/common/string_util.h"
#include "src/telemetry/regression.h"
#include "src/workload/sim_scheduler.h"

namespace treebench::bench {
namespace {

WorkloadSpec BaseSpec(uint32_t clients, uint32_t queries) {
  WorkloadSpec spec;
  spec.num_clients = clients;
  spec.queries_per_client = queries;
  spec.zipf_theta = 0.6;
  spec.tree_query_fraction = 0.2;
  spec.selection_pct = 2;
  spec.think_time_ns = 0;  // closed loop, maximum station contention
  spec.cold_start = true;
  spec.seed = 42;
  return spec;
}

/// The identity gate: an explicit num_servers=1, replication=off spec must
/// reproduce the inherited default placement byte-for-byte (report JSON
/// compares every counter of every client). Hard check.
bool CheckSingleServerIdentity(DerbyDb& derby, uint32_t clients,
                               uint32_t queries) {
  WorkloadSpec inherit = BaseSpec(clients, queries);
  auto a = RunWorkload(&derby, inherit);

  WorkloadSpec explicit_one = BaseSpec(clients, queries);
  explicit_one.num_servers = 1;
  explicit_one.replication = false;
  auto b = RunWorkload(&derby, explicit_one);

  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "FATAL: identity gate run failed: %s / %s\n",
                 a.status().ToString().c_str(),
                 b.status().ToString().c_str());
    return false;
  }
  const bool exact = a->ToJson() == b->ToJson();
  std::fprintf(Out(), "single-server identity gate: %s\n",
               exact ? "PASS" : "FAIL");
  if (!exact) {
    std::fprintf(stderr,
                 "num_servers=1 replication=off diverged from the inherited "
                 "single-server engine\n");
  }
  return exact;
}

/// Out-slot of one workload cell.
struct RunOut {
  bool ok = false;
  WorkloadReport report;
  uint64_t server_cache_bytes = 0;
  uint64_t client_cache_bytes = 0;
  double recovery_ns = 0;
};

void RecordRun(StatStore* stats, telemetry::FlatRun* summary,
               const std::string& run_label, const RunOut& out) {
  const WorkloadReport& report = out.report;
  StatRecord rec;
  rec.database = "derby-2e3x1e3";
  rec.cluster = "class";
  rec.algo = "shard_scaleout";
  rec.query_text = run_label;
  rec.num_clients = report.spec.num_clients;
  rec.throughput_qps = report.throughput_qps;
  rec.latency_p50_s = report.latencies.Quantile(0.50) / 1e9;
  rec.latency_p95_s = report.latencies.Quantile(0.95) / 1e9;
  rec.latency_p99_s = report.latencies.Quantile(0.99) / 1e9;
  rec.result_count = report.total_queries;
  rec.server_cache_bytes = out.server_cache_bytes;
  rec.client_cache_bytes = out.client_cache_bytes;
  rec.FillFrom(report.totals, report.span_seconds);
  stats->Add(rec);

  if (summary == nullptr) return;
  const Metrics& t = report.totals;
  summary->Set(run_label + "_total_queries",
               static_cast<double>(report.total_queries));
  summary->Set(run_label + "_failed_queries",
               static_cast<double>(report.failed_queries));
  summary->Set(run_label + "_disk_reads", static_cast<double>(t.disk_reads));
  summary->Set(run_label + "_rpc_count", static_cast<double>(t.rpc_count));
  summary->Set(run_label + "_span_seconds", report.span_seconds);
  summary->Set(run_label + "_throughput_qps", report.throughput_qps);
  summary->Set(run_label + "_p95_s",
               report.latencies.Quantile(0.95) / 1e9);
  summary->Set(run_label + "_queue_wait_s",
               static_cast<double>(t.rpc_queue_wait_ns) / 1e9);
  summary->Set(run_label + "_server_crashes",
               static_cast<double>(t.server_crashes));
  summary->Set(run_label + "_failovers", static_cast<double>(t.failovers));
  summary->Set(run_label + "_degraded_reads",
               static_cast<double>(t.degraded_reads));
  summary->Set(run_label + "_replica_writes",
               static_cast<double>(t.replica_writes));
}

int Main(int argc, char** argv) {
  const BenchOptions opts =
      ParseArgs(argc, argv, /*default_scale=*/1, kSummaryJsonFlag | kJsonFlag);
  const uint32_t queries = opts.queries > 0 ? opts.queries
                           : opts.smoke     ? 3
                                            : 6;
  const uint32_t clients = opts.clients > 0 ? opts.clients : 8;

  std::vector<uint32_t> server_counts;
  if (opts.servers > 0) {
    server_counts = {1, opts.servers};
  } else if (opts.smoke) {
    server_counts = {1, 2, 4};
  } else {
    server_counts = {1, 2, 4, 8};
  }

  // A scheduled crash kills shard 0 mid-run (phase 2). With replication the
  // run must complete every query (hard check); without, the crash window
  // is client-visible. Both runs carry an availability SLO
  // (docs/observability.md): replication must keep the crash invisible to
  // the burn-rate alerter, while the unprotected run must fire. Pure
  // observer — the objective changes no counter, only the "slo" section.
  auto failover_spec = [&](uint32_t servers, bool replication) {
    WorkloadSpec spec = BaseSpec(clients, queries);
    spec.num_servers = servers;
    spec.replication = replication;
    spec.crashes.push_back({/*shard=*/0, /*at_ns=*/1e6});
    telemetry::SloObjective avail;
    avail.name = "availability";
    avail.kind = telemetry::SloKind::kAvailability;
    avail.target = 0.9;
    avail.long_window_ns = 1e9;
    avail.short_window_ns = 0.25e9;
    avail.burn_threshold = 2.0;
    spec.slo_objectives.push_back(avail);
    return spec;
  };

  auto build = [&] {
    return BuildDerbyOrDie(2000, 1000, ClusteringStrategy::kClassClustered,
                           opts);
  };
  auto run_cell = [&](RunOut& out, const WorkloadSpec& spec,
                      const char* what) {
    auto derby = build();
    auto report = RunWorkload(derby.get(), spec);
    if (!report.ok()) {
      std::fprintf(stderr, "FATAL: %s: %s\n", what,
                   report.status().ToString().c_str());
      return 1;
    }
    out.server_cache_bytes = derby->db->cache().config().server_bytes;
    out.client_cache_bytes = derby->db->cache().config().client_bytes;
    out.recovery_ns = derby->db->sim().model().server_recovery_ns;
    out.report = std::move(*report);
    out.ok = true;
    return 0;
  };

  BenchCells cells(opts.jobs);
  // Not vector<bool>: its bit-packing would let two cells race on one byte.
  uint8_t gate_ok = 0;
  std::vector<RunOut> sweep(server_counts.size());
  RunOut replicated_out, unprotected_out, det_repeat_out;

  cells.Add("gate", [&] {
    auto derby = build();
    gate_ok = CheckSingleServerIdentity(*derby, clients, queries) ? 1 : 0;
    return gate_ok != 0 ? 0 : 1;
  });
  for (size_t si = 0; si < server_counts.size(); ++si) {
    const uint32_t servers = server_counts[si];
    cells.Add("s" + std::to_string(servers) + "_c" + std::to_string(clients),
              [&, si, servers] {
                WorkloadSpec spec = BaseSpec(clients, queries);
                spec.num_servers = servers;
                return run_cell(sweep[si], spec, "workload sweep");
              });
  }
  cells.Add("failover_replicated", [&] {
    return run_cell(replicated_out, failover_spec(3, true),
                    "replicated failover campaign");
  });
  cells.Add("failover_unprotected", [&] {
    return run_cell(unprotected_out, failover_spec(2, false),
                    "unprotected failover campaign");
  });
  cells.Add("failover_det_repeat", [&] {
    return run_cell(det_repeat_out, failover_spec(3, true),
                    "failover determinism repeat");
  });
  if (!cells.RunAll()) return 1;

  StatStore stats;
  telemetry::FlatRun summary;
  telemetry::FlatRun* sump =
      opts.summary_json_path.empty() ? nullptr : &summary;
  std::string json = "[\n";
  bool first_json = true;
  bool ok = gate_ok != 0;

  // ---- Phase 1: servers x clients scale-out ----
  std::vector<std::vector<std::string>> rows;
  double qps1 = 0;
  for (size_t si = 0; si < server_counts.size(); ++si) {
    const uint32_t servers = server_counts[si];
    const RunOut& out = sweep[si];
    if (!out.ok) return 1;
    const WorkloadReport& report = out.report;
    if (servers == 1) qps1 = report.throughput_qps;

    // Load balance across the fleet: busiest / least-busy shard by
    // admitted RPCs (1.0 = perfectly even; meaningless for one server).
    uint64_t min_admitted = ~0ull, max_admitted = 0;
    for (const ShardReport& sh : report.shards) {
      min_admitted = std::min(min_admitted, sh.admitted);
      max_admitted = std::max(max_admitted, sh.admitted);
    }
    const double imbalance =
        min_admitted > 0 ? static_cast<double>(max_admitted) /
                               static_cast<double>(min_admitted)
                         : 0;

    rows.push_back(
        {WithThousands(servers), WithThousands(clients),
         FormatSeconds(report.throughput_qps, 3),
         FormatSeconds(qps1 > 0 ? report.throughput_qps / qps1 : 0, 2),
         FormatSeconds(report.latencies.Quantile(0.95) / 1e9),
         FormatSeconds(
             static_cast<double>(report.totals.rpc_queue_wait_ns) / 1e9),
         FormatSeconds(report.server_utilization, 3),
         FormatSeconds(imbalance, 2),
         WithThousands(report.totals.disk_reads)});

    const std::string run_label = "s" + std::to_string(servers) + "_c" +
                                  std::to_string(clients);
    RecordRun(&stats, sump, run_label, out);
    if (!first_json) json += ",\n";
    json += report.ToJson();
    first_json = false;
  }
  PrintTable("class — shard scale-out (simulated, " +
                 std::to_string(queries) + " queries/client, " +
                 std::to_string(clients) + " clients)",
             {"servers", "clients", "qps", "speedup", "p95(s)",
              "queue wait(s)", "fleet util", "imbalance", "disk reads"},
             rows);

  // ---- Phase 2: fault-injected failover campaign ----
  if (!replicated_out.ok || !unprotected_out.ok || !det_repeat_out.ok) {
    return 1;
  }
  const WorkloadReport& replicated = replicated_out.report;
  const WorkloadReport& unprotected = unprotected_out.report;
  if (replicated.failed_queries != 0 || replicated.totals.failovers < 1 ||
      replicated.totals.server_crashes != 1) {
    std::fprintf(stderr,
                 "FATAL: replicated failover run: %llu failed queries, "
                 "%llu failovers, %llu crashes (want 0 / >=1 / 1)\n",
                 (unsigned long long)replicated.failed_queries,
                 (unsigned long long)replicated.totals.failovers,
                 (unsigned long long)replicated.totals.server_crashes);
    ok = false;
  }

  // SLO gates: replication keeps the availability alert silent; the
  // unprotected crash window must trip the burn-rate alerter. (The clear —
  // which needs the run to outlive the 2s recovery — is hard-gated in
  // bench_fault_campaign's longer SLO campaign, not here.)
  if (!replicated.slo_alerts.empty()) {
    std::fprintf(stderr,
                 "FATAL: replicated failover run raised %zu availability "
                 "alert(s) — replication should have absorbed the crash\n",
                 replicated.slo_alerts.size());
    ok = false;
  }
  bool unprotected_fired = false;
  for (const telemetry::SloAlertEvent& e : unprotected.slo_alerts) {
    if (e.objective == "availability" && e.fired) unprotected_fired = true;
  }
  if (!unprotected_fired) {
    std::fprintf(stderr,
                 "FATAL: unprotected failover run never fired the "
                 "availability alert despite client-visible failures\n");
    ok = false;
  }
  std::printf("failover slo gates: %s\n",
              !replicated.slo_alerts.empty() || !unprotected_fired
                  ? "FAIL"
                  : "PASS");

  // Determinism gate: the identical campaign on an independently built
  // database must produce bit-identical artifacts. The replicated campaign
  // cell and the repeat cell each built their own database, so comparing
  // their reports is exactly the two-independent-builds check.
  {
    const bool identical =
        replicated.ToJson() == det_repeat_out.report.ToJson();
    std::printf("failover determinism gate: %s\n",
                identical ? "PASS" : "FAIL");
    ok = ok && identical;
  }

  auto blackholed = [](const WorkloadReport& r) {
    for (const FaultSiteReport& f : r.fault_sites) {
      if (std::strcmp(f.site, "server_blackhole") == 0) return f.injected;
    }
    return uint64_t{0};
  };
  PrintTable(
      "shard-0 crash at t=1ms, recovery " +
          FormatSeconds(replicated_out.recovery_ns / 1e9) +
          "s (simulated)",
      {"config", "failed", "crashes", "failovers", "degraded reads",
       "blackholed", "qps"},
      {{"3 servers, replicated",
        WithThousands(replicated.failed_queries),
        WithThousands(replicated.totals.server_crashes),
        WithThousands(replicated.totals.failovers),
        WithThousands(replicated.totals.degraded_reads),
        WithThousands(blackholed(replicated)),
        FormatSeconds(replicated.throughput_qps, 3)},
       {"2 servers, no replication",
        WithThousands(unprotected.failed_queries),
        WithThousands(unprotected.totals.server_crashes),
        WithThousands(unprotected.totals.failovers),
        WithThousands(unprotected.totals.degraded_reads),
        WithThousands(blackholed(unprotected)),
        FormatSeconds(unprotected.throughput_qps, 3)}});

  RecordRun(&stats, sump, "failover_replicated", replicated_out);
  RecordRun(&stats, sump, "failover_unprotected", unprotected_out);
  for (const RunOut* out : {&replicated_out, &unprotected_out}) {
    if (!first_json) json += ",\n";
    json += out->report.ToJson();
    first_json = false;
  }
  json += "]\n";

  std::printf(
      "\nexpected: more servers shrink queue wait toward zero (throughput "
      "saturates at the client think bound); replication turns a crashed "
      "primary into degraded backup reads with ZERO failed queries, while "
      "the unprotected configuration fails every query that hits the dead "
      "shard's recovery window\n");

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
