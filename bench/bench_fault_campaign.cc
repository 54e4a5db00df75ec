// Fault campaign: how much do transient faults cost? Runs the canonical
// Derby tree query fault-free, then under seeded RPC/disk fault campaigns of
// increasing intensity, and reports the cost delta: retries absorbed by the
// backoff path, time spent backing off, re-reads, and hard failures. A
// second table measures the checkpointed-recovery loader: an uninterrupted
// bulk load vs one killed by RPC bursts and replayed from its checkpoints.
//
// A third phase is the SLO campaign (docs/observability.md): a multi-client
// workload with a scheduled shard crash runs under an availability SLO with
// multi-window burn-rate alerting. Hard gates: the alert must FIRE during
// the outage at a bit-stable virtual timestamp (two independent same-seed
// runs must produce byte-identical reports), CLEAR after the crashed server
// recovers, and a fault-free contrast run must raise zero alerts.
//
// Cell decomposition (docs/parallel_harness.md): each fault intensity is a
// hermetic cell with its own database build (the probe query runs cold, so
// per-run counters match the old shared-database loop; the cumulative
// fallback metrics reported for a *failed* run now cover only that cell's
// build + run instead of every prior campaign). The loader campaign is one
// cell — the faulty load's burst schedule is derived from the clean load's
// RPC count, a causal chain that cannot be split. The SLO campaign is three
// cells (two independent same-seed crash runs for the determinism gate, one
// fault-free contrast run on its own build); all gates, tables and the flat
// summary are evaluated at merge time in submission order.
//
// Flags read (bench/common/bench_util.h): --jobs, --stats-json (one record
// per campaign run), and --summary-json (the campaign's flat summary, gated
// against bench/baselines/slo_smoke.json). Smoke (--scale=0) is scale 64
// only.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/cell_harness.h"
#include "src/benchdb/loader.h"
#include "src/common/string_util.h"
#include "src/cost/fault_injector.h"
#include "src/query/tree_query.h"
#include "src/telemetry/regression.h"
#include "src/workload/sim_scheduler.h"

namespace treebench::bench {
namespace {

struct CampaignRow {
  std::string label;
  std::string outcome;
  double seconds = 0;
  Metrics metrics;
  uint64_t injected = 0;
  uint64_t server_cache_bytes = 0;
  uint64_t client_cache_bytes = 0;
  bool ok = false;
};

CampaignRow RunCampaign(DerbyDb& derby, const std::string& label,
                        double rpc_p, double disk_read_p, uint64_t seed) {
  Database& db = *derby.db;
  FaultInjector& faults = db.sim().faults();
  if (rpc_p > 0 || disk_read_p > 0) {
    faults.Arm(seed);
    faults.SetProbability(FaultSite::kRpc, rpc_p);
    faults.SetProbability(FaultSite::kDiskRead, disk_read_p);
  } else {
    faults.Disarm();
  }

  TreeQuerySpec spec = DerbyTreeQuery(derby, 90, 10);
  Result<QueryRunStats> run =
      RunTreeQuery(&db, spec, TreeJoinAlgo::kNL);

  CampaignRow row;
  row.label = label;
  if (run.ok()) {
    row.outcome = "ok";
    row.seconds = run->seconds;
    row.metrics = run->metrics;
  } else {
    // The query died; the partial metrics up to the failure still live in
    // the sim context (build included, since the cell owns the database).
    row.outcome = StatusCodeName(run.status().code());
    row.seconds = db.sim().elapsed_seconds();
    row.metrics = db.sim().metrics();
  }
  row.injected = faults.injected(FaultSite::kRpc) +
                 faults.injected(FaultSite::kDiskRead);
  row.server_cache_bytes = db.cache().config().server_bytes;
  row.client_cache_bytes = db.cache().config().client_bytes;
  faults.Disarm();
  row.ok = true;
  return row;
}

/// Out-slot of the (single) loader-campaign cell.
struct LoaderOut {
  bool ok = false;
  int objects = 0;
  uint32_t commit_every = 0;
  double clean_seconds = 0;
  double faulty_seconds = 0;
  uint64_t replayed_objects = 0;
  uint64_t checkpoint_replays = 0;
  Metrics clean_metrics;
  Metrics faulty_metrics;
  uint64_t server_cache_bytes = 0;
  uint64_t client_cache_bytes = 0;
};

int LoaderCampaign(const BenchOptions& opts, LoaderOut* out) {
  // Keep enough objects (and a small enough client cache) that the load
  // itself generates steady RPC traffic for the bursts to land in.
  const int kObjects =
      std::max(800, static_cast<int>(20000 / opts.scale));
  const uint32_t kCommitEvery = std::max(50, kObjects / 8);
  auto make_db = []() {
    DatabaseOptions dbo;
    dbo.cache.client_bytes = 16 * kPageSize;
    dbo.cache.server_bytes = 8 * kPageSize;
    return dbo;
  };
  auto setup = [](Database* db, uint16_t* cls, uint16_t* file) {
    *cls = db->CreateClass("Item", {{"k", AttrType::kInt32},
                                    {"pad", AttrType::kString}})
               .value();
    db->CreateCollection("Items").value();
    *file = db->CreateFile("items");
  };
  auto item = [](int i) {
    return ObjectData{static_cast<int32_t>(i),
                      std::string(400, static_cast<char>('a' + i % 26))};
  };
  LoadOptions lopts;
  lopts.commit_every = kCommitEvery;
  lopts.checkpoint_recovery = true;
  auto check = [](const Status& s) {
    if (!s.ok()) {
      // Thrown (not abort()): the cell runner propagates the error to the
      // main thread after draining the pool.
      throw std::runtime_error("loader campaign failed: " + s.ToString());
    }
  };

  // Uninterrupted load.
  Database clean(make_db());
  uint16_t ccls = 0, cfile = 0;
  setup(&clean, &ccls, &cfile);
  uint64_t rpc_before = clean.sim().metrics().rpc_count;
  double t0 = clean.sim().elapsed_seconds();
  {
    Loader loader(&clean, lopts);
    CreateOptions co;
    co.file_id = cfile;
    for (int i = 0; i < kObjects; ++i) {
      loader.CreateObject(ccls, item(i), co, "Items").value();
    }
    check(loader.Commit());
  }
  double clean_seconds = clean.sim().elapsed_seconds() - t0;
  uint64_t clean_rpcs = clean.sim().metrics().rpc_count - rpc_before;

  // Killed-and-replayed load: three RPC bursts, each long enough to
  // exhaust the 4-attempt retry budget, spread across the load.
  Database faulty(make_db());
  uint16_t fcls = 0, ffile = 0;
  setup(&faulty, &fcls, &ffile);
  double f0 = faulty.sim().elapsed_seconds();
  Loader loader(&faulty, lopts);
  faulty.sim().faults().Arm(7);
  for (uint64_t quarter : {1, 2, 3}) {  // at 1/4, 1/2 and 3/4 of the load
    faulty.sim().faults().Schedule(
        {FaultSite::kRpc, clean_rpcs * quarter / 4, 0.0, 4});
  }
  CreateOptions co;
  co.file_id = ffile;
  uint64_t replayed_objects = 0;
  uint64_t next = 0;
  while (next < static_cast<uint64_t>(kObjects)) {
    Status s =
        loader.CreateObject(fcls, item(static_cast<int>(next)), co, "Items")
            .status();
    if (!s.ok()) {
      check(loader.RollbackToCheckpoint());
      replayed_objects += next - loader.objects_created();
      next = loader.objects_created();
      continue;
    }
    next = loader.objects_created();
  }
  faulty.sim().faults().Disarm();
  check(loader.Commit());
  double faulty_seconds = faulty.sim().elapsed_seconds() - f0;

  out->objects = kObjects;
  out->commit_every = kCommitEvery;
  out->clean_seconds = clean_seconds;
  out->faulty_seconds = faulty_seconds;
  out->replayed_objects = replayed_objects;
  out->checkpoint_replays = faulty.sim().metrics().checkpoint_replays;
  out->clean_metrics = clean.sim().metrics();
  out->faulty_metrics = faulty.sim().metrics();
  out->server_cache_bytes = clean.cache().config().server_bytes;
  out->client_cache_bytes = clean.cache().config().client_bytes;
  out->ok = true;
  return 0;
}

// ---- Phase 3: SLO campaign (query flight recorder + burn-rate alerts) ----

/// The campaign workload: 4 clients of Zipf range selections over a 2-shard
/// unreplicated page service, shard 0 crashing at t=1ms. Half the pages
/// live on the dead shard, so roughly half the queries fail until the
/// server rejoins at crash + CostModel::server_recovery_ns — a windowed
/// error rate far above the 20% the availability objective's burn
/// threshold tolerates (budget 0.1 x burn 2).
WorkloadSpec SloSpec(bool with_crash) {
  WorkloadSpec spec;
  spec.num_clients = 4;
  spec.queries_per_client = 60;
  spec.zipf_theta = 0.6;
  spec.tree_query_fraction = 0;  // selections only: short, uniform latencies
  spec.selection_pct = 2;
  spec.think_time_ns = 5e7;  // paces the run well past the 2s recovery
  spec.cold_start = true;
  spec.seed = 42;
  spec.num_servers = 2;
  spec.replication = false;
  if (with_crash) spec.crashes.push_back({/*shard=*/0, /*at_ns=*/1e6});
  spec.query_log = true;

  // Availability only: simulated latencies depend on scale and saturation,
  // so a fixed latency threshold could not keep the fault-free contrast run
  // alert-free at every --scale (kLatency objectives are exercised by the
  // obs unit tests and stay WorkloadSpec-configurable).
  telemetry::SloObjective avail;
  avail.name = "availability";
  avail.kind = telemetry::SloKind::kAvailability;
  avail.target = 0.9;
  avail.long_window_ns = 1e9;
  avail.short_window_ns = 0.25e9;
  avail.burn_threshold = 2.0;
  spec.slo_objectives.push_back(avail);
  return spec;
}

/// Out-slot of one SLO-campaign cell.
struct SloOut {
  bool ok = false;
  WorkloadReport report;
  double recovery_ns = 0;
  uint64_t server_cache_bytes = 0;
  uint64_t client_cache_bytes = 0;
};

int RunSloCell(const BenchOptions& opts, bool with_crash, const char* what,
               SloOut* out) {
  auto derby = BuildDerbyOrDie(2000, 1000,
                               ClusteringStrategy::kClassClustered, opts);
  auto run = RunWorkload(derby.get(), SloSpec(with_crash));
  if (!run.ok()) {
    std::fprintf(stderr, "FATAL: slo campaign (%s): %s\n", what,
                 run.status().ToString().c_str());
    return 1;
  }
  out->report = *std::move(run);
  out->recovery_ns = 1e6 + derby->db->sim().model().server_recovery_ns;
  out->server_cache_bytes = derby->db->cache().config().server_bytes;
  out->client_cache_bytes = derby->db->cache().config().client_bytes;
  out->ok = true;
  return 0;
}

bool SloMerge(const SloOut& a, const SloOut& b, const SloOut& clean,
              StatStore* stats, telemetry::FlatRun* summary) {
  const WorkloadReport& run_a = a.report;
  bool ok = true;

  // Gate 1: bit-stable alerting — two independent same-seed runs must
  // produce byte-identical reports (alert timestamps included).
  const bool identical = run_a.ToJson() == b.report.ToJson();
  std::printf("slo determinism gate: %s\n", identical ? "PASS" : "FAIL");
  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: same-seed slo campaign runs diverged — alert "
                 "timestamps are not bit-stable\n");
    ok = false;
  }

  // Gate 2: the availability alert fires during the outage and clears
  // after the crashed server rejoins.
  const double recovery_ns = a.recovery_ns;
  double first_fire_ns = -1, last_clear_ns = -1;
  uint64_t avail_events = 0;
  for (const telemetry::SloAlertEvent& e : run_a.slo_alerts) {
    if (e.objective != "availability") continue;
    ++avail_events;
    if (e.fired && first_fire_ns < 0) first_fire_ns = e.t_ns;
    if (!e.fired) last_clear_ns = e.t_ns;
  }
  bool avail_active_at_end = false;
  uint64_t avail_fired = 0;
  for (const telemetry::SloObjectiveSummary& s : run_a.slo_objectives) {
    if (s.name != "availability") continue;
    avail_active_at_end = s.active_at_end;
    avail_fired = s.alerts_fired;
  }
  if (first_fire_ns < 0) {
    std::fprintf(stderr,
                 "FATAL: availability alert never fired despite the shard-0 "
                 "outage\n");
    ok = false;
  } else if (first_fire_ns > recovery_ns) {
    std::fprintf(stderr,
                 "FATAL: availability alert fired at %.6fs, after the "
                 "server already recovered (%.6fs)\n",
                 first_fire_ns / 1e9, recovery_ns / 1e9);
    ok = false;
  }
  if (avail_active_at_end || last_clear_ns < recovery_ns) {
    std::fprintf(stderr,
                 "FATAL: availability alert did not clear after recovery "
                 "(last clear %.6fs, recovery %.6fs, active_at_end=%d)\n",
                 last_clear_ns / 1e9, recovery_ns / 1e9,
                 avail_active_at_end ? 1 : 0);
    ok = false;
  }

  // Gate 3: the fault-free contrast run raises no alerts at all.
  if (!clean.report.slo_alerts.empty()) {
    std::fprintf(stderr,
                 "FATAL: fault-free run raised %zu alert(s) — the objective "
                 "thresholds are mis-tuned\n",
                 clean.report.slo_alerts.size());
    ok = false;
  }
  std::printf("slo alert gates: %s\n", ok ? "PASS" : "FAIL");

  // The deterministic alert timeline, as the report JSON carries it.
  std::vector<std::vector<std::string>> alert_rows;
  for (const telemetry::SloAlertEvent& e : run_a.slo_alerts) {
    alert_rows.push_back({e.objective, e.fired ? "FIRE" : "CLEAR",
                          FormatSeconds(e.t_ns / 1e9),
                          FormatSeconds(e.burn_long, 2),
                          FormatSeconds(e.burn_short, 2)});
  }
  PrintTable("slo campaign — alert timeline (shard-0 crash at t=1ms, "
             "recovery " + FormatSeconds(recovery_ns / 1e9) + "s)",
             {"objective", "event", "t(s)", "burn long", "burn short"},
             alert_rows);

  // Tail attribution from the flight recorder: where do the slowest
  // queries spend their time vs the median?
  std::printf("\n%s\n", run_a.tail.ToString().c_str());

  StatRecord rec;
  rec.database = "derby-2e3x1e3";
  rec.cluster = "class";
  rec.algo = "slo_campaign";
  rec.query_text = "zipf selections, 2 shards, shard-0 crash at 1ms";
  rec.num_clients = run_a.spec.num_clients;
  rec.throughput_qps = run_a.throughput_qps;
  rec.latency_p50_s = run_a.latencies.Quantile(0.50) / 1e9;
  rec.latency_p95_s = run_a.latencies.Quantile(0.95) / 1e9;
  rec.latency_p99_s = run_a.latencies.Quantile(0.99) / 1e9;
  rec.result_count = run_a.total_queries;
  rec.server_cache_bytes = a.server_cache_bytes;
  rec.client_cache_bytes = a.client_cache_bytes;
  rec.FillFrom(run_a.totals, run_a.span_seconds);
  stats->Add(rec);

  if (summary != nullptr) {
    summary->Set("slo_total_queries",
                 static_cast<double>(run_a.total_queries));
    summary->Set("slo_failed_queries",
                 static_cast<double>(run_a.failed_queries));
    summary->Set("slo_alert_events",
                 static_cast<double>(run_a.slo_alerts.size()));
    summary->Set("slo_avail_alerts_fired", static_cast<double>(avail_fired));
    summary->Set("slo_first_fire_t_s", first_fire_ns / 1e9);
    summary->Set("slo_last_clear_t_s", last_clear_ns / 1e9);
    for (const telemetry::SloObjectiveSummary& s : run_a.slo_objectives) {
      summary->Set("slo_" + s.name + "_attainment_pct", 100.0 * s.attainment);
    }
    summary->Set("slo_tail_gap_s",
                 (run_a.tail.p99_ns - run_a.tail.p50_ns) / 1e9);
    summary->Set("slo_disk_reads",
                 static_cast<double>(run_a.totals.disk_reads));
    summary->Set("slo_rpc_count",
                 static_cast<double>(run_a.totals.rpc_count));
  }
  return ok;
}

int Main(int argc, char** argv) {
  BenchOptions opts =
      ParseArgs(argc, argv, /*default_scale=*/1, kSummaryJsonFlag);

  struct Intensity {
    std::string slug;
    std::string label;
    double rpc_p;
    double disk_p;
  };
  const std::vector<Intensity> campaigns = {
      {"fault_free", "fault-free", 0.0, 0.0},
      {"rpc_0p1", "rpc 0.1%", 0.001, 0.0},
      {"rpc_1", "rpc 1%", 0.01, 0.0},
      {"rpc_1_disk_0p1", "rpc 1% + disk 0.1%", 0.01, 0.001},
      {"rpc_5", "rpc 5%", 0.05, 0.0},
  };

  BenchCells cells(opts.jobs);
  std::vector<CampaignRow> results(campaigns.size());
  LoaderOut loader_out;
  SloOut slo_a, slo_b, slo_clean;

  for (size_t i = 0; i < campaigns.size(); ++i) {
    const Intensity& in = campaigns[i];
    cells.Add("campaign_" + in.slug, [&, i, in] {
      DerbyConfig cfg;
      cfg.providers = 2000;
      cfg.avg_children = 1000;
      cfg.clustering = ClusteringStrategy::kClassClustered;
      cfg.scale = opts.scale;
      auto derby = BuildDerby(cfg);
      if (!derby.ok()) {
        std::fprintf(stderr, "FATAL: derby build (%s): %s\n",
                     in.label.c_str(), derby.status().ToString().c_str());
        return 1;
      }
      results[i] = RunCampaign(**derby, in.label, in.rpc_p, in.disk_p,
                               /*seed=*/1);
      return 0;
    });
  }
  cells.Add("loader_recovery",
            [&] { return LoaderCampaign(opts, &loader_out); });
  cells.Add("slo_crash_a",
            [&] { return RunSloCell(opts, /*with_crash=*/true, "a", &slo_a); });
  cells.Add("slo_crash_b",
            [&] { return RunSloCell(opts, /*with_crash=*/true, "b", &slo_b); });
  cells.Add("slo_clean", [&] {
    return RunSloCell(opts, /*with_crash=*/false, "clean", &slo_clean);
  });

  if (!cells.RunAll()) return 1;
  for (const CampaignRow& r : results) {
    if (!r.ok) return 1;
  }
  if (!loader_out.ok || !slo_a.ok || !slo_b.ok || !slo_clean.ok) return 1;

  StatStore stats;

  // ---- Query campaign table ----
  const CampaignRow& base = results.front();
  std::vector<std::vector<std::string>> rows;
  for (const CampaignRow& r : results) {
    StatRecord rec;
    rec.database = "derby-2e3x1e3";
    rec.cluster = "class";
    rec.algo = "fault_campaign";
    rec.query_text = "NL 90/10 under " + r.label +
                     " (outcome: " + r.outcome + ")";
    rec.selectivity_patients_pct = 90;
    rec.selectivity_providers_pct = 10;
    rec.result_count = r.injected;
    rec.server_cache_bytes = r.server_cache_bytes;
    rec.client_cache_bytes = r.client_cache_bytes;
    rec.FillFrom(r.metrics, r.seconds);
    stats.Add(rec);
    rows.push_back({r.label, r.outcome,
                    FormatSeconds(r.seconds * opts.scale),
                    base.seconds > 0 ? Ratio(r.seconds, base.seconds) : "-",
                    WithThousands(r.injected),
                    WithThousands(r.metrics.rpc_retries),
                    WithThousands(r.metrics.rpc_failures),
                    WithThousands(r.metrics.disk_read_faults),
                    FormatSeconds(
                        static_cast<double>(r.metrics.retry_backoff_ns) /
                        1e9 * opts.scale)});
  }
  PrintTable(
      "NL 90/10 on 2e3x2e6 class cluster under seeded fault campaigns",
      {"campaign", "outcome", "time (s)", "vs clean", "injected", "retries",
       "failures", "disk faults", "backoff (s)"},
      rows);
  std::printf(
      "\nexpected: RPC fault rates up to a few percent are fully absorbed\n"
      "by the 4-attempt backoff path at a modest time premium (an RPC is\n"
      "abandoned only after 4 consecutive losses). Disk faults are not\n"
      "retried, so even a 0.1%% disk rate aborts the cold run early with\n"
      "Unavailable. Every run of a given campaign is bit-identical\n"
      "(seeded injector).\n");

  // ---- Loader campaign table ----
  std::printf("\n");
  auto record_load = [&](const std::string& label, const Metrics& m,
                         double seconds, uint64_t replayed) {
    StatRecord rec;
    rec.database = "loader-" + std::to_string(loader_out.objects) + "obj";
    rec.cluster = "class";
    rec.algo = "loader_recovery";
    rec.query_text = label;
    rec.result_count = replayed;
    rec.server_cache_bytes = loader_out.server_cache_bytes;
    rec.client_cache_bytes = loader_out.client_cache_bytes;
    rec.FillFrom(m, seconds);
    stats.Add(rec);
  };
  record_load("uninterrupted bulk load", loader_out.clean_metrics,
              loader_out.clean_seconds, 0);
  record_load("3 RPC bursts, checkpoint replay", loader_out.faulty_metrics,
              loader_out.faulty_seconds, loader_out.replayed_objects);

  PrintTable(
      "checkpointed bulk load: uninterrupted vs killed-and-replayed (" +
          WithThousands(loader_out.objects) + " objects, commit every " +
          WithThousands(loader_out.commit_every) + ")",
      {"load", "time (s)", "vs clean", "kills", "replayed objs",
       "final objs"},
      {{"uninterrupted", FormatSeconds(loader_out.clean_seconds * opts.scale),
        Ratio(loader_out.clean_seconds, loader_out.clean_seconds), "0", "0",
        WithThousands(loader_out.objects)},
       {"3 RPC bursts",
        FormatSeconds(loader_out.faulty_seconds * opts.scale),
        Ratio(loader_out.faulty_seconds, loader_out.clean_seconds),
        WithThousands(loader_out.checkpoint_replays),
        WithThousands(loader_out.replayed_objects),
        WithThousands(loader_out.objects)}});
  std::printf(
      "\nexpected: each kill costs at most one batch of re-driven work, so\n"
      "the replay overhead is bounded by kills x commit interval; both\n"
      "databases hold identical objects (see fault_injection_test).\n");

  // ---- SLO campaign gates + tables ----
  std::printf("\n");
  telemetry::FlatRun summary;
  const bool slo_ok =
      SloMerge(slo_a, slo_b, slo_clean, &stats,
               opts.summary_json_path.empty() ? nullptr : &summary);
  bool written = WriteArtifact(opts.summary_json_path, summary.ToJson(),
                               "slo campaign summary");
  written = MaybeExportStatsJson(stats, opts) && written;
  return slo_ok && written ? 0 : 1;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
