#include "src/workload/sim_scheduler.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "src/cost/fault_injector.h"
#include "src/cost/server_station.h"
#include "src/cost/station_registry.h"
#include "src/query/binder.h"
#include "src/query/dml.h"
#include "src/query/executor.h"
#include "src/query/oql/parser.h"
#include "src/query/optimizer.h"
#include "src/recluster/heat_tracker.h"
#include "src/recluster/reorganizer.h"
#include "src/telemetry/query_log.h"
#include "src/telemetry/slo.h"
#include "src/workload/client_session.h"

namespace treebench {

namespace {

/// Binds one session's clock, client cache and handle table onto the shared
/// engine for the duration of a scope; restores the previous bindings on
/// every exit path. Engine code keeps charging through the same
/// SimContext/TwoLevelCache/ObjectStore pointers it always held — only the
/// state behind them changes.
class SessionBinding {
 public:
  SessionBinding(Database* db, ClientSession* s)
      : SessionBinding(db, &s->clock, &s->client_cache, &s->handles) {}

  /// Raw-triple form for non-session clients of the engine — the background
  /// Reorganizer owns the same (clock, cache, handles) triple.
  SessionBinding(Database* db, SimClock* clock, LruPageCache* cache,
                 HandleTable* handles)
      : db_(db),
        prev_clock_(db->sim().BindClock(clock)),
        prev_cache_(db->cache().BindClientCache(cache)),
        prev_ht_(db->store().BindHandleTable(handles)) {}

  ~SessionBinding() {
    db_->store().BindHandleTable(prev_ht_);
    db_->cache().BindClientCache(prev_cache_);
    db_->sim().BindClock(prev_clock_);
  }

  SessionBinding(const SessionBinding&) = delete;
  SessionBinding& operator=(const SessionBinding&) = delete;

 private:
  Database* db_;
  SimClock* prev_clock_;
  LruPageCache* prev_cache_;
  HandleTable* prev_ht_;
};

Status ValidateSpec(const WorkloadSpec& spec) {
  if (spec.num_clients == 0) {
    return Status::InvalidArgument("workload: num_clients must be >= 1");
  }
  if (spec.queries_per_client == 0) {
    return Status::InvalidArgument("workload: queries_per_client must be >= 1");
  }
  if (spec.zipf_theta < 0 || spec.zipf_theta >= 1) {
    return Status::InvalidArgument("workload: zipf_theta must be in [0, 1)");
  }
  if (spec.tree_query_fraction < 0 || spec.tree_query_fraction > 1) {
    return Status::InvalidArgument(
        "workload: tree_query_fraction must be in [0, 1]");
  }
  if (spec.update_ratio < 0 || spec.update_ratio > 1) {
    return Status::InvalidArgument(
        "workload: update_ratio must be in [0, 1]");
  }
  if (spec.selection_pct <= 0 || spec.selection_pct > 100) {
    return Status::InvalidArgument(
        "workload: selection_pct must be in (0, 100]");
  }
  if (spec.num_servers > 0) {
    PlacementOptions po;
    po.num_servers = spec.num_servers;
    po.replication = spec.replication;
    po.policy = spec.placement_policy;
    po.range_block_pages = spec.range_block_pages;
    TB_RETURN_IF_ERROR(PlacementMap::Validate(po));
  } else if (spec.replication) {
    return Status::InvalidArgument(
        "workload: replication requires num_servers >= 2 in the spec "
        "(num_servers = 0 inherits the database's placement untouched)");
  }
  for (const ServerCrashSpec& c : spec.crashes) {
    if (c.at_ns < 0) {
      return Status::InvalidArgument("workload: crash at_ns must be >= 0");
    }
  }
  TB_RETURN_IF_ERROR(telemetry::ValidateSloObjectives(spec.slo_objectives));
  if (spec.recluster_interval_ns < 0 || spec.recluster_min_heat < 0 ||
      spec.recluster_min_span < 0) {
    return Status::InvalidArgument(
        "workload: recluster overrides must be >= 0 (0 keeps the CostModel "
        "default)");
  }
  return Status::OK();
}

struct PreparedQuery {
  BoundQuery bound = BoundSelection{};
  PlanChoice plan;
  /// Set for update statements: they carry a BoundDml instead of a plan.
  bool is_dml = false;
  BoundDml dml = BoundUpdate{};
};

/// Telemetry state threaded through the event loop. `probe_now` is the
/// latest virtual time offered to the sampler — the forward-clamped max of
/// query completions, matching the recorder's own clamping of non-monotone
/// completion times.
struct TelemetryHooks {
  WorkloadTelemetry* t = nullptr;
  double probe_now = 0;

  /// Query flight recorder + SLO engine (docs/observability.md). Null —
  /// the default — is the pre-recorder code path: no snapshots, no record
  /// assembly, nothing allocated. Both are pure observers of state the
  /// loop already computes, so enabling them perturbs no counter and no
  /// virtual timestamp (tests/workload_obs_test.cc asserts this).
  telemetry::QueryLogRecorder* qlog = nullptr;
  telemetry::SloMonitor* slo = nullptr;
  /// For the recorder's shards-touched attribution: per-shard admitted()
  /// snapshots taken around each query (the loop runs queries atomically,
  /// so any admission delta belongs to the running query).
  const StationRegistry* stations = nullptr;
  std::vector<uint64_t> admitted_before;
};

/// Registers every probe column on the recorder. All lambdas only read
/// session / cache / station state; none touches the SimContext.
void InstallProbes(WorkloadTelemetry* t, Database* db,
                   const WorkloadSpec& spec,
                   const std::vector<std::unique_ptr<ClientSession>>& sessions,
                   const StationRegistry& stations, const HeatTracker* heat,
                   const Reorganizer* reorg) {
  t->series.set_interval_ns(t->sample_interval_ns);
  auto sum_counter = [&sessions](uint64_t Metrics::* field) {
    uint64_t total = 0;
    for (const auto& s : sessions) total += s->clock.metrics.*field;
    return total;
  };

  t->series.AddRate("disk_reads_per_s",
                    [sum_counter] { return sum_counter(&Metrics::disk_reads); });
  t->series.AddRate("rpcs_per_s",
                    [sum_counter] { return sum_counter(&Metrics::rpc_count); });
  t->series.AddRate("handle_gets_per_s", [sum_counter] {
    return sum_counter(&Metrics::handle_gets);
  });
  t->series.AddRate("batched_rpcs_per_s", [sum_counter] {
    return sum_counter(&Metrics::batched_rpcs);
  });
  t->series.AddGauge("readahead_hits", [sum_counter] {
    return static_cast<double>(sum_counter(&Metrics::readahead_hits));
  });
  t->series.AddGauge("readahead_wasted", [sum_counter] {
    return static_cast<double>(sum_counter(&Metrics::readahead_wasted));
  });

  t->series.AddGauge("client_cache_pages", [&sessions] {
    uint64_t pages = 0;
    for (const auto& s : sessions) pages += s->client_cache.size();
    return static_cast<double>(pages);
  });
  t->series.AddGauge("server_cache_pages", [db] {
    return static_cast<double>(db->cache().ServerCachePages());
  });
  t->series.AddGauge("client_cache_evictions", [sum_counter] {
    return static_cast<double>(sum_counter(&Metrics::client_cache_evictions));
  });
  t->series.AddGauge("server_cache_evictions", [sum_counter] {
    return static_cast<double>(sum_counter(&Metrics::server_cache_evictions));
  });
  // Backlog as observed by admissions within the sampling window (the PASTA
  // arrival view — see PeakInFlightSinceMark): the reservation timeline
  // drains as the event loop advances, so arrival-observed peaks are the
  // faithful contention gauge, not a probe at the sample timestamp. The
  // event loop resets the window whenever the recorder emits a row.
  t->series.AddGauge("server_in_flight", [&stations] {
    return static_cast<double>(stations.PeakInFlightAcrossShards());
  });
  t->series.AddGauge("server_queue_depth", [&stations] {
    return static_cast<double>(stations.PeakQueueDepthAcrossShards());
  });
  // Per-shard decomposition + fault-campaign probes, only under a sharded
  // placement so classic runs keep their exact column set.
  if (stations.size() > 1) {
    for (uint32_t i = 0; i < stations.size(); ++i) {
      const ServerStation* st = &stations.Station(i);
      std::string prefix = "shard" + std::to_string(i) + "_";
      t->series.AddGauge(prefix + "in_flight", [st] {
        return static_cast<double>(st->PeakInFlightSinceMark());
      });
      t->series.AddGauge(prefix + "queue_wait_s",
                         [st] { return st->queue_wait_ns() / 1e9; });
      t->series.AddGauge(prefix + "busy_s",
                         [st] { return st->busy_ns() / 1e9; });
    }
    const SimContext* sim = &db->sim();
    t->series.AddGauge("server_crashes", [sim] {
      return static_cast<double>(
          sim->faults().injected(FaultSite::kServerCrash));
    });
    t->series.AddGauge("blackholed_rpcs", [sim] {
      return static_cast<double>(
          sim->faults().injected(FaultSite::kServerBlackhole));
    });
    t->series.AddGauge("failovers", [sum_counter] {
      return static_cast<double>(sum_counter(&Metrics::failovers));
    });
    t->series.AddGauge("degraded_reads", [sum_counter] {
      return static_cast<double>(sum_counter(&Metrics::degraded_reads));
    });
  }
  // Transaction probes, only for update-mix specs so read-only runs keep
  // their exact column set (the update_ratio=0 bit-identity gate).
  if (spec.update_ratio > 0) {
    t->series.AddGauge("txn_commits", [sum_counter] {
      return static_cast<double>(sum_counter(&Metrics::txn_commits));
    });
    t->series.AddGauge("txn_aborts", [sum_counter] {
      return static_cast<double>(sum_counter(&Metrics::txn_aborts));
    });
    t->series.AddGauge("deadlocks", [sum_counter] {
      return static_cast<double>(sum_counter(&Metrics::deadlocks));
    });
    t->series.AddGauge("lock_wait_s", [sum_counter] {
      return sum_counter(&Metrics::lock_wait_ns) / 1e9;
    });
    t->series.AddGauge("undo_bytes", [sum_counter] {
      return static_cast<double>(sum_counter(&Metrics::undo_bytes));
    });
    t->series.AddGauge("redo_bytes", [sum_counter] {
      return static_cast<double>(sum_counter(&Metrics::redo_bytes));
    });
    t->series.AddGauge("dirty_writebacks", [sum_counter] {
      return static_cast<double>(
          sum_counter(&Metrics::dirty_page_writebacks));
    });
  }
  // Reclustering probes, only when the run has a reorganizer — another
  // column-set gate (the recluster=false bit-identity invariant).
  if (spec.recluster && heat != nullptr && reorg != nullptr) {
    // The headline gauge: mean distinct pages per composition traversal.
    // Falls toward the group size / page capacity ratio as migration
    // co-locates the hot paths.
    t->series.AddGauge("clustering_quality",
                       [heat] { return heat->MeanSpan(); });
    t->series.AddGauge("heat_samples", [sum_counter] {
      return static_cast<double>(sum_counter(&Metrics::heat_samples));
    });
    t->series.AddGauge("pages_migrated", [reorg] {
      return static_cast<double>(reorg->clock.metrics.pages_migrated);
    });
    t->series.AddGauge("objects_migrated", [reorg] {
      return static_cast<double>(reorg->clock.metrics.objects_migrated);
    });
    t->series.AddGauge("migration_aborts", [reorg] {
      return static_cast<double>(reorg->clock.metrics.migration_aborts);
    });
    // Per-shard clustering quality under a sharded placement: one Perfetto
    // counter track per shard, attributed by the parent page's primary.
    if (stations.size() > 1) {
      for (uint32_t i = 0; i < stations.size(); ++i) {
        t->series.AddGauge(
            "shard" + std::to_string(i) + "_clustering_quality",
            [heat, i] { return heat->MeanSpanForShard(i); });
      }
    }
  }
  t->series.AddGauge("resident_handles", [&sessions] {
    uint64_t n = 0;
    for (const auto& s : sessions) n += s->handles.handles.size();
    return static_cast<double>(n);
  });
  t->series.AddGauge("transient_hwm_bytes", [&sessions] {
    uint64_t hwm = 0;
    for (const auto& s : sessions) {
      hwm = std::max(hwm, s->clock.transient_hwm_bytes);
    }
    return static_cast<double>(hwm);
  });
  t->series.AddGauge("handle_hwm_bytes", [&sessions] {
    uint64_t hwm = 0;
    for (const auto& s : sessions) {
      hwm = std::max(hwm, s->clock.handle_hwm_bytes);
    }
    return static_cast<double>(hwm);
  });
  t->series.AddGauge("latency_p50_s",
                     [t] { return t->running_latencies.Quantile(0.50) / 1e9; });
  t->series.AddGauge("latency_p95_s",
                     [t] { return t->running_latencies.Quantile(0.95) / 1e9; });
  t->series.AddGauge("latency_p99_s",
                     [t] { return t->running_latencies.Quantile(0.99) / 1e9; });
}

/// Parses, binds and plans one generated query on the currently bound
/// session. With the injector disarmed, failures here are spec bugs and
/// surface as hard errors; under an armed fault campaign the caller counts
/// them as client-visible query failures (binding reads catalog pages, so a
/// crashed page server without a replica can kill preparation too).
/// Mirrors ExecuteOql's ordering: preparation happens BEFORE the measured
/// region (and before any cold restart), so its page touches do not land in
/// the measured counters — that is what keeps a 1-client workload
/// counter-identical to the plain single-client path.
Result<PreparedQuery> Prepare(Database* db, const WorkloadSpec& spec,
                              const GeneratedQuery& gq) {
  PreparedQuery prep;
  if (gq.is_update) {
    prep.is_dml = true;
    oql::Statement stmt;
    TB_ASSIGN_OR_RETURN(stmt, oql::ParseStatement(gq.oql));
    TB_ASSIGN_OR_RETURN(prep.dml, BindDml(db, stmt));
    return prep;
  }
  oql::Query ast;
  TB_ASSIGN_OR_RETURN(ast, oql::Parse(gq.oql));
  TB_ASSIGN_OR_RETURN(prep.bound, Bind(db, ast));
  if (spec.force_plan) {
    prep.plan.is_tree = gq.is_tree;
    prep.plan.selection_mode = spec.forced_selection_mode;
    prep.plan.algo = spec.forced_algo;
    prep.plan.rationale = "forced by WorkloadSpec";
  } else {
    TB_ASSIGN_OR_RETURN(prep.plan, ChoosePlan(db, prep.bound, spec.strategy));
  }
  return prep;
}

/// The discrete-event loop: pop the (time, client) pair with the smallest
/// time (ties by client id — total determinism), run that client's next
/// query atomically under its bindings, push its next event.
/// Runs one prepared update statement as its own transaction on the bound
/// session: Begin (client-attributed), the DML body under the lock hook,
/// Commit — or Abort (rollback through the undo log) when the body fails.
/// Returns the statement's outcome: OK if it committed, else the body's (or
/// the failed machinery's) status. Begin/Commit/Abort machinery failures
/// are engine bugs and also surface as hard errors through *hard_error.
Status RunUpdateTxn(Database* db, TxnManager* txns, const PreparedQuery& prep,
                    uint32_t client_id, Status* hard_error) {
  Result<Transaction*> txn = txns->Begin(client_id);
  if (!txn.ok()) {
    *hard_error = txn.status();
    return txn.status();
  }
  Result<DmlStats> ran = RunDml(db, txns, prep.dml);
  if (ran.ok()) {
    Status commit = txns->Commit(*txn);
    if (!commit.ok()) *hard_error = commit;
    return commit;
  }
  Status abort = txns->Abort(*txn);
  if (!abort.ok()) *hard_error = abort;
  return ran.status();
}

Status RunEventLoop(Database* db, const WorkloadSpec& spec,
                    const std::vector<std::unique_ptr<ClientSession>>& sessions,
                    TxnManager* txns, Reorganizer* reorg,
                    double reorg_interval_ns, TelemetryHooks* hooks) {
  using Event = std::pair<double, uint32_t>;  // (virtual ns, client id)
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
  for (const auto& s : sessions) heap.emplace(0.0, s->id());

  const uint32_t total_per_client =
      spec.warmup_queries_per_client + spec.queries_per_client;

  // The background reorganizer is one more closed-loop event source, with
  // an id past every client (ties resolve clients-first, deterministically).
  // Its first wake-up is one interval in — clients get to build heat first.
  const uint32_t reorg_id = static_cast<uint32_t>(sessions.size());
  if (reorg != nullptr) heap.emplace(reorg_interval_ns, reorg_id);

  auto any_client_live = [&] {
    for (const auto& s : sessions) {
      if (s->queries_issued < total_per_client) return true;
    }
    return false;
  };

  while (!heap.empty()) {
    auto [when, id] = heap.top();
    heap.pop();

    if (reorg != nullptr && id == reorg_id) {
      // Background maintenance round: runs on the reorganizer's own clock /
      // cache / handle table, contends on the shared stations like any
      // client, and re-arms only while foreground work remains (the run
      // ends at the last client completion, as it always did).
      reorg->clock.clock_ns = std::max(reorg->clock.clock_ns, when);
      const double t0 = reorg->clock.clock_ns;
      {
        SessionBinding binding(db, &reorg->clock, &reorg->client_cache,
                               &reorg->handles);
        TB_RETURN_IF_ERROR(reorg->RunRound());
      }
      if (hooks->t != nullptr) {
        hooks->t->query_slices.push_back(
            {/*track=*/hooks->t->num_clients + 1 + hooks->t->num_shards,
             "recluster", t0, reorg->clock.clock_ns - t0, /*args=*/{}});
      }
      if (hooks->qlog != nullptr) {
        hooks->qlog->AddReorgRound(t0, reorg->clock.clock_ns);
      }
      if (any_client_live()) {
        heap.emplace(reorg->clock.clock_ns + reorg_interval_ns, reorg_id);
      }
      continue;
    }

    ClientSession* s = sessions[id].get();
    SessionBinding binding(db, s);

    GeneratedQuery gq = s->NextQuery();
    // Shards-touched attribution for the flight recorder: per-shard
    // admitted() snapshots bracketing the same region as the m0 Metrics
    // snapshot (re-taken after preparation when it succeeds, below).
    auto snapshot_admitted = [hooks] {
      if (hooks->qlog == nullptr || hooks->stations == nullptr) return;
      hooks->admitted_before.resize(hooks->stations->size());
      for (uint32_t sh = 0; sh < hooks->stations->size(); ++sh) {
        hooks->admitted_before[sh] = hooks->stations->Station(sh).admitted();
      }
    };
    snapshot_admitted();
    const double prep_start_ns = s->clock.clock_ns;
    const Metrics prep_start_metrics = s->clock.metrics;
    auto prepared = Prepare(db, spec, gq);
    if (!prepared.ok() && !db->sim().faults().armed()) {
      // Not a fault campaign: a preparation failure is a spec/engine bug.
      return prepared.status();
    }
    bool prep_ok = prepared.ok();
    PreparedQuery prep;
    if (prep_ok) prep = std::move(prepared).value();

    if (prep_ok && spec.cold_per_query) {
      // The single-client paper methodology: server shutdown before every
      // query, after preparation (exactly ExecuteOql's parse/bind/plan ->
      // BeginMeasuredRun -> run ordering). Runs with the session bound, so
      // it empties this session's cache and handles plus the shared server
      // cache — and, like Database::BeginMeasuredRun, it clears the
      // session's fractional swap debt so each query starts from the same
      // memory-model state.
      TB_RETURN_IF_ERROR(db->ColdRestart());
      s->clock.swap_debt = 0;
    }

    // Measure from here: restart/flush and preparation above are setup
    // (the paper excludes them), so the [t0, t1] interval is exactly the
    // RunBoundPlan execution. A query whose PREPARATION died on an injected
    // fault instead takes the prepare work as its failed interval: the
    // charges happened, the result never arrived.
    const double t0 = prep_ok ? s->clock.clock_ns : prep_start_ns;
    const Metrics m0 = prep_ok ? s->clock.metrics : prep_start_metrics;
    if (prep_ok) snapshot_admitted();
    Status ran = Status::OK();
    if (prep_ok && prep.is_dml) {
      Status hard_error = Status::OK();
      ran = RunUpdateTxn(db, txns, prep, id, &hard_error);
      if (!hard_error.ok()) return hard_error;
    } else if (prep_ok) {
      ran = RunBoundPlan(db, prep.bound, prep.plan, /*cold=*/false).status();
    }
    if (!ran.ok() && !db->sim().faults().armed() && !ran.IsAborted() &&
        !ran.IsUnavailable()) {
      // Not a fault campaign, and not the lock manager's deadlock victim
      // (kAborted) or would-block (kUnavailable): an engine bug.
      return ran;
    }
    const bool ok = prep_ok && ran.ok();
    const double t1 = s->clock.clock_ns;
    const bool measured = s->queries_issued >= spec.warmup_queries_per_client;

    // Assemble the flight-recorder record first: its delta also feeds the
    // Perfetto slice args below. Everything here only READS state the loop
    // already computed — no counter, no clock, no rng is touched.
    telemetry::QueryRecord qrec;
    if (hooks->qlog != nullptr) {
      qrec.client = id;
      qrec.seq = s->queries_issued;
      qrec.kind = gq.is_update ? "update" : (gq.is_tree ? "tree" : "selection");
      if (!prep_ok) {
        qrec.algo = "unprepared";
      } else if (prep.is_dml) {
        qrec.algo = "txn";
      } else if (prep.plan.is_tree) {
        qrec.algo = std::string(AlgoName(prep.plan.algo));
      } else {
        qrec.algo = std::string(SelectionModeName(prep.plan.selection_mode));
      }
      qrec.measured = measured;
      qrec.ok = ok;
      qrec.aborted = prep_ok && prep.is_dml && !ok;
      qrec.start_ns = t0;
      qrec.end_ns = t1;
      qrec.delta = s->clock.metrics.Diff(m0);
      qrec.deadlock_victim = qrec.aborted && qrec.delta.deadlocks > 0;
      if (hooks->stations != nullptr) {
        for (uint32_t sh = 0; sh < hooks->stations->size(); ++sh) {
          if (hooks->stations->Station(sh).admitted() >
              hooks->admitted_before[sh]) {
            ++qrec.shards_touched;
          }
        }
      }
    }

    if (hooks->t != nullptr) {
      // Record the slice / latency / sample BEFORE the report bookkeeping so
      // the running histogram matches the report's at every completion.
      hooks->probe_now = std::max(hooks->probe_now, t1);
      telemetry::TraceSlice slice{
          /*track=*/id + 1,
          gq.is_update ? "update" : (gq.is_tree ? "tree" : "selection"), t0,
          t1 - t0, /*args=*/{}};
      if (hooks->qlog != nullptr) slice.args = telemetry::SliceArgsJson(qrec);
      hooks->t->query_slices.push_back(std::move(slice));
      if (measured && ok) hooks->t->running_latencies.Record(t1 - t0);
      if (hooks->t->series.Tick(t1) && db->sim().stations() != nullptr) {
        // A row was emitted: open a fresh peak-backlog window on every
        // shard.
        db->sim().stations()->ResetPeakMarks();
      }
    }
    if (hooks->qlog != nullptr) hooks->qlog->Add(std::move(qrec));
    // SLO objectives see every measured completion (ok or failed) at its
    // completion tick — the same population as the report rollups.
    if (hooks->slo != nullptr && measured) {
      hooks->slo->OnQuery(t1, t1 - t0, ok);
    }

    if (measured) {
      if (!s->measuring) {
        s->measuring = true;
        s->measure_start_ns = t0;
      }
      // Failed (fault-injected) queries keep their partial charges: the
      // work happened, only the result never arrived.
      s->measured_metrics += s->clock.metrics.Diff(m0);
      if (ok) {
        s->latencies.Record(t1 - t0);
        ++s->measured_queries;
      } else {
        ++s->failed_queries;
      }
      s->completion_seconds.push_back(t1 / 1e9);
      s->last_completion_ns = t1;
    }
    ++s->queries_issued;

    if (s->queries_issued < total_per_client) {
      s->clock.clock_ns += s->NextThinkNs();
      heap.emplace(s->clock.clock_ns, s->id());
    }
  }
  return Status::OK();
}

WorkloadReport AssembleReport(
    const WorkloadSpec& spec,
    const std::vector<std::unique_ptr<ClientSession>>& sessions,
    const StationRegistry& stations, Database* db, const HeatTracker* heat,
    const Reorganizer* reorg) {
  WorkloadReport rep;
  rep.spec = spec;

  if (reorg != nullptr && heat != nullptr) {
    rep.has_recluster = true;
    rep.recluster = reorg->clock.metrics;
    rep.recluster_rounds = reorg->rounds();
    rep.clustering_quality = heat->MeanSpan();
  }

  double min_start = 0, max_end = 0;
  bool first = true;
  for (const auto& s : sessions) {
    ClientReport c;
    c.client_id = s->id();
    c.queries = s->measured_queries;
    c.failed_queries = s->failed_queries;
    c.start_seconds = s->measure_start_ns / 1e9;
    c.end_seconds = s->last_completion_ns / 1e9;
    const double span = c.end_seconds - c.start_seconds;
    c.qps = span > 0 ? static_cast<double>(c.queries) / span : 0;
    c.latencies = s->latencies;
    c.completion_seconds = std::move(s->completion_seconds);
    c.metrics = s->measured_metrics;

    rep.total_queries += c.queries;
    rep.failed_queries += c.failed_queries;
    rep.latencies.Merge(c.latencies);
    rep.totals += c.metrics;
    if (first || c.start_seconds < min_start) min_start = c.start_seconds;
    if (first || c.end_seconds > max_end) max_end = c.end_seconds;
    if (first || c.qps < rep.min_client_qps) rep.min_client_qps = c.qps;
    if (first || c.qps > rep.max_client_qps) rep.max_client_qps = c.qps;
    first = false;

    rep.clients.push_back(std::move(c));
  }

  rep.span_seconds = max_end - min_start;
  rep.throughput_qps = rep.span_seconds > 0
                           ? static_cast<double>(rep.total_queries) /
                                 rep.span_seconds
                           : 0;
  rep.fairness_ratio =
      rep.max_client_qps > 0 ? rep.min_client_qps / rep.max_client_qps : 0;
  rep.server_busy_seconds = stations.TotalBusyNs() / 1e9;
  // Includes warmup-phase service in the numerator; exact when the spec has
  // no warmup, an upper-bound approximation otherwise.
  rep.server_utilization = rep.span_seconds > 0
                               ? rep.server_busy_seconds / rep.span_seconds
                               : 0;

  // Per-shard breakdown: monotone station counters + cache crash epochs
  // only, so telemetry (which resets peak windows) cannot perturb it.
  for (uint32_t i = 0; i < stations.size(); ++i) {
    const ServerStation& st = stations.Station(i);
    ShardReport sh;
    sh.shard = i;
    sh.admitted = st.admitted();
    sh.busy_seconds = st.busy_ns() / 1e9;
    sh.queue_wait_seconds = st.queue_wait_ns() / 1e9;
    sh.crashes = i < db->cache().NumShards() ? db->cache().ShardCrashEpoch(i)
                                             : 0;
    rep.shards.push_back(sh);
  }

  // Fault ledger (cumulative since the injector was last armed; all-zero —
  // and omitted from the JSON — for disarmed runs).
  const FaultInjector& faults = db->sim().faults();
  for (int i = 0; i < kNumFaultSites; ++i) {
    FaultSite site = static_cast<FaultSite>(i);
    rep.fault_sites.push_back(
        {FaultSiteName(site), faults.ops(site), faults.injected(site)});
  }
  return rep;
}

}  // namespace

std::string WorkloadTelemetry::ChromeTraceJson() const {
  telemetry::ChromeTraceBuilder b;
  b.SetProcessName("treebench workload");
  for (uint32_t i = 0; i < num_clients; ++i) {
    b.SetThreadName(i + 1, "client " + std::to_string(i));
  }
  // One server track per shard; the classic single server keeps its plain
  // "server" name.
  for (uint32_t sh = 0; sh < num_shards; ++sh) {
    b.SetThreadName(num_clients + 1 + sh,
                    num_shards == 1 ? std::string("server")
                                    : "server " + std::to_string(sh));
  }
  if (has_reorganizer) {
    b.SetThreadName(num_clients + 1 + num_shards, "reorganizer");
  }
  // SLO alert transitions render as instant events on their own track,
  // placed after every other track. The track (and its name metadata)
  // exists only when objectives actually ran, so traces without an SLO
  // config keep their exact byte shape.
  const uint32_t alerts_tid =
      num_clients + 1 + num_shards + (has_reorganizer ? 1 : 0);
  if (!slo_alerts.empty()) b.SetThreadName(alerts_tid, "alerts");
  for (const telemetry::TraceSlice& s : query_slices) {
    b.AddSlice(s.track, s.name, s.start_ns, s.dur_ns, s.args);
  }
  for (const telemetry::SloAlertEvent& a : slo_alerts) {
    char args[96];
    std::snprintf(args, sizeof(args),
                  "{\"burn_long\":%.9g,\"burn_short\":%.9g}", a.burn_long,
                  a.burn_short);
    b.AddInstant(alerts_tid,
                 a.objective + (a.fired ? " FIRE" : " CLEAR"), a.t_ns, args);
  }
  for (uint32_t sh = 0; sh < server_service.size(); ++sh) {
    for (const auto& [start, end] : server_service[sh]) {
      b.AddSlice(num_clients + 1 + sh, "service", start, end - start);
    }
  }
  // Counter tracks: rows outer so events are (nearly) time-sorted.
  for (size_t r = 0; r < series.num_samples(); ++r) {
    for (size_t c = 0; c < series.num_columns(); ++c) {
      b.AddCounter(series.columns()[c], series.SampleTimeNs(r),
                   series.Value(r, c));
    }
  }
  return b.ToJson();
}

Result<WorkloadReport> RunWorkload(DerbyDb* derby, const WorkloadSpec& spec,
                                   WorkloadTelemetry* telemetry) {
  TB_RETURN_IF_ERROR(ValidateSpec(spec));
  Database* db = derby->db.get();

  std::vector<std::unique_ptr<ClientSession>> sessions;
  sessions.reserve(spec.num_clients);
  for (uint32_t i = 0; i < spec.num_clients; ++i) {
    sessions.push_back(std::make_unique<ClientSession>(i, spec, *derby));
  }

  // Install the run's placement (docs/replication_model.md). num_servers ==
  // 0 inherits the database's current shard configuration untouched — zero
  // reconfiguration charges — which is what keeps default-spec runs
  // bit-identical to the classic engine. An explicit placement is restored
  // on every exit path below.
  const PlacementOptions prev_placement = db->placement().options();
  const bool reconfigured = spec.num_servers > 0;
  if (reconfigured) {
    PlacementOptions po;
    po.num_servers = spec.num_servers;
    po.replication = spec.replication;
    po.policy = spec.placement_policy;
    po.range_block_pages = spec.range_block_pages;
    TB_RETURN_IF_ERROR(db->ConfigureShards(po));
  }
  auto restore_placement = [&]() -> Status {
    return reconfigured ? db->ConfigureShards(prev_placement) : Status::OK();
  };
  for (const ServerCrashSpec& c : spec.crashes) {
    if (c.shard >= db->cache().NumShards()) {
      TB_RETURN_IF_ERROR(restore_placement());
      return Status::InvalidArgument(
          "workload: crash shard out of range for the run's placement");
    }
  }

  // Every client starts cold: both shared cache levels (and the engine's
  // own default bindings) are emptied before the first event. The sessions'
  // own caches/handle tables are born empty.
  if (spec.cold_start || spec.cold_per_query) {
    Status st = db->ColdRestart();
    if (!st.ok()) {
      (void)restore_placement();
      return st;
    }
  }

  // Arm the crash schedule AFTER the cold restart: scheduled crashes
  // trigger against the observing client's clock, and the restart's flush
  // runs on the database's own (much further advanced) clock — arming
  // earlier would let it consume the schedule prematurely.
  const bool armed_here =
      !spec.crashes.empty() && !db->sim().faults().armed();
  if (armed_here) db->sim().faults().Arm(spec.seed ^ 0x5ca1ab1ec0ffeeull);
  for (const ServerCrashSpec& c : spec.crashes) {
    ScheduledFault f;
    f.site = FaultSite::kServerCrash;
    f.after_ns = c.at_ns;
    f.target = c.shard;
    f.count = 1;
    db->sim().faults().Schedule(f);
  }

  // Install the run's vectored-fetch batch size; restored on every exit
  // path below so benches sweeping the knob do not leak it across runs.
  const uint32_t prev_batch = db->sim().model().max_fetch_batch_pages;
  db->sim().set_max_fetch_batch_pages(spec.max_fetch_batch_pages);

  // Install the page-server fleet's service stations — one per shard — for
  // the duration of the run. The default service time is below the minimum
  // RPC round-trip spacing, so a single closed-loop client never queues
  // behind itself — queueing delay appears only under real multi-client
  // contention (and only per shard: shards queue independently).
  StationRegistry stations(db->cache().NumShards(),
                           db->sim().model().server_service_ns,
                           db->sim().model().server_max_in_flight);
  StationRegistry* prev_stations = db->sim().stations();
  db->sim().set_stations(&stations);

  // Transaction machinery exists for the run ONLY when something writes:
  // an update mix, or the background reorganizer (whose migrations are
  // journal-backed transactions). A read-only recluster-off spec binds no
  // lock hook and allocates no manager, so the read-only engine runs the
  // exact code path it always did.
  std::unique_ptr<TxnManager> txns;
  if (spec.update_ratio > 0 || spec.recluster) {
    txns = std::make_unique<TxnManager>(db);
    txns->Install();
  }

  // Online adaptive reclustering (docs/clustering_model.md): the heat
  // tracker hooks the object-access path, the reorganizer becomes one more
  // event source in the loop. recluster=false binds NOTHING — the observer
  // pointer stays wherever the caller left it (normally null), which is the
  // engine's bit-identity guarantee.
  std::unique_ptr<HeatTracker> heat;
  std::unique_ptr<Reorganizer> reorg;
  ObjectAccessObserver* prev_observer = nullptr;
  double reorg_interval_ns = 0;
  if (spec.recluster) {
    heat = std::make_unique<HeatTracker>(&db->sim());
    if (stations.size() > 1) {
      const PlacementMap* pm = &db->placement();
      heat->SetShardResolver(stations.size(), [pm](uint64_t page_key) {
        return pm->PrimaryShard(page_key);
      });
    }
    prev_observer = db->store().BindAccessObserver(heat.get());
    reorg = std::make_unique<Reorganizer>(db, txns.get(), heat.get(),
                                          /*client_id=*/spec.num_clients);
    reorg->set_page_budget(spec.recluster_page_budget);
    reorg->set_thresholds(spec.recluster_min_heat, spec.recluster_min_span);
    reorg_interval_ns = spec.recluster_interval_ns > 0
                            ? spec.recluster_interval_ns
                            : db->sim().model().recluster_interval_ns;
  }

  // Query flight recorder + SLO engine: both flag-off by default, both pure
  // observers. With the flags off neither is allocated and the loop takes
  // the exact pre-recorder path (the off-mode byte-identity contract).
  std::unique_ptr<telemetry::QueryLogRecorder> qlog;
  if (spec.query_log) qlog = std::make_unique<telemetry::QueryLogRecorder>();
  std::unique_ptr<telemetry::SloMonitor> slo;
  if (!spec.slo_objectives.empty()) {
    slo = std::make_unique<telemetry::SloMonitor>(spec.slo_objectives);
  }

  TelemetryHooks hooks{.t = telemetry,
                       .probe_now = 0,
                       .qlog = qlog.get(),
                       .slo = slo.get(),
                       .stations = &stations,
                       .admitted_before = {}};
  if (telemetry != nullptr) {
    telemetry->num_clients = spec.num_clients;
    telemetry->num_shards = stations.size();
    telemetry->has_reorganizer = reorg != nullptr;
    telemetry->server_service.resize(stations.size());
    for (uint32_t i = 0; i < stations.size(); ++i) {
      stations.Station(i).set_service_log(&telemetry->server_service[i]);
    }
    InstallProbes(telemetry, db, spec, sessions, stations, heat.get(),
                  reorg.get());
  }

  Status loop_status = RunEventLoop(db, spec, sessions, txns.get(),
                                    reorg.get(), reorg_interval_ns, &hooks);

  if (spec.recluster) db->store().BindAccessObserver(prev_observer);
  if (txns != nullptr) txns->Uninstall();

  if (telemetry != nullptr) {
    // Final sample at the last completion, then detach the probes — they
    // capture sessions/stations, which die with this scope.
    telemetry->series.Finish(hooks.probe_now);
    telemetry->series.DropProbes();
    for (uint32_t i = 0; i < stations.size(); ++i) {
      stations.Station(i).set_service_log(nullptr);
    }
  }

  // The report reads the fault ledger before the injector is disarmed or
  // the placement restored (the restore's flush must not pollute the run's
  // shard counters).
  WorkloadReport report =
      AssembleReport(spec, sessions, stations, db, heat.get(), reorg.get());

  if (qlog != nullptr) {
    qlog->Finalize();
    report.has_query_log = true;
    report.tail = telemetry::TailReport::Build(*qlog, /*top_k=*/5);
    report.query_log = std::move(*qlog);
  }
  if (slo != nullptr) {
    report.has_slo = true;
    report.slo_objectives = slo->Summaries();
    report.slo_alerts = slo->alerts();
    if (telemetry != nullptr) telemetry->slo_alerts = report.slo_alerts;
  }

  // Teardown: drop every session's handles while its table is bound so the
  // simulated handle memory registered against the machine is released.
  // Session caches are simply destroyed (their unflushed pages vanish, like
  // a client process exiting) — they were never registered against RAM.
  for (const auto& s : sessions) {
    SessionBinding binding(db, s.get());
    db->store().DropAllHandles();
  }
  if (reorg != nullptr) {
    SessionBinding binding(db, &reorg->clock, &reorg->client_cache,
                           &reorg->handles);
    db->store().DropAllHandles();
  }
  db->sim().set_stations(prev_stations);
  db->sim().set_max_fetch_batch_pages(prev_batch);
  if (armed_here) db->sim().faults().Disarm();
  Status restore_status = restore_placement();
  TB_RETURN_IF_ERROR(loop_status);
  TB_RETURN_IF_ERROR(restore_status);

  return report;
}

}  // namespace treebench
