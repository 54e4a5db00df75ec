#include "src/cache/two_level_cache.h"

#include <algorithm>
#include <string>
#include <utility>

namespace treebench {

TwoLevelCache::TwoLevelCache(DiskManager* disk, SimContext* sim,
                             CacheConfig config, PlacementOptions placement)
    : disk_(disk),
      sim_(sim),
      config_(config),
      own_client_(config.client_pages()),
      client_(&own_client_),
      placement_(placement) {
  RebuildShards(placement_.num_servers());
  // The simulated workstation hosts the client and (as in the paper's
  // testbed) one co-located server; additional shards model *remote* server
  // machines whose RAM is not this workstation's, so the registration is
  // independent of the shard count.
  sim_->RegisterFixedMemory(
      static_cast<int64_t>(config.client_bytes + config.server_bytes));
}

TwoLevelCache::~TwoLevelCache() {
  sim_->RegisterFixedMemory(
      -static_cast<int64_t>(config_.client_bytes + config_.server_bytes));
}

void TwoLevelCache::RebuildShards(uint32_t num_servers) {
  if (num_servers == 0) num_servers = 1;
  shards_.clear();
  shards_.reserve(num_servers);
  for (uint32_t i = 0; i < num_servers; ++i) {
    shards_.push_back(std::make_unique<ServerShard>(config_.server_pages()));
  }
}

uint32_t TwoLevelCache::ServerCachePages() const {
  uint32_t total = 0;
  for (const auto& s : shards_) total += s->cache.size();
  return total;
}

uint32_t TwoLevelCache::ServerCacheCapacity() const {
  uint32_t total = 0;
  for (const auto& s : shards_) total += s->cache.capacity();
  return total;
}

Status TwoLevelCache::Reconfigure(const PlacementOptions& opts) {
  TB_RETURN_IF_ERROR(PlacementMap::Validate(opts));
  // Same placement: keep everything warm and charge nothing — this is what
  // lets a spec pin the default config without perturbing the run.
  if (opts == placement_.options()) return Status::OK();
  // Dirty pages drain through the placement that owns them before the
  // partitions are torn down.
  Status st = FlushAll();
  placement_ = PlacementMap(opts);
  RebuildShards(placement_.num_servers());
  return st;
}

Result<const uint8_t*> TwoLevelCache::GetPage(uint16_t file_id,
                                              uint32_t page_id) {
  TB_RETURN_IF_ERROR(Ensure(file_id, page_id, /*for_write=*/false));
  // The const overload: a read hands out no writable bytes, so the page's
  // verification memo survives it.
  return std::as_const(*disk_).RawPage(file_id, page_id);
}

Result<uint8_t*> TwoLevelCache::GetPageForWrite(uint16_t file_id,
                                                uint32_t page_id) {
  TB_RETURN_IF_ERROR(Ensure(file_id, page_id, /*for_write=*/true));
  return disk_->RawPage(file_id, page_id);
}

void TwoLevelCache::PollCrash(uint32_t shard) {
  FaultInjector& faults = sim_->faults();
  if (!faults.armed()) return;
  ServerShard& s = *shards_[shard];
  double now = sim_->elapsed_ns();
  // Inside the window the shard is already dead; a second crash would be
  // indistinguishable.
  if (s.crash_epoch != 0 && now >= s.crashed_at && now < s.crashed_until) {
    return;
  }
  if (!faults.ShouldFail(FaultSite::kServerCrash, now, shard)) return;
  ++sim_->metrics().server_crashes;
  s.crashed_at = now;
  s.crashed_until = now + sim_->model().server_recovery_ns;
  ++s.crash_epoch;
  // The partition rejoins cold. Its dirty pages are restored from the
  // replica / recovery log during the window — not separately charged, the
  // recovery window is the modeled cost.
  s.cache.Clear();
}

void TwoLevelCache::NoteFailover(uint32_t primary) {
  SimClock* clock = sim_->bound_clock();
  std::vector<uint64_t>& seen = clock->failover_seen;
  if (seen.size() < shards_.size()) seen.resize(shards_.size(), 0);
  uint64_t epoch = shards_[primary]->crash_epoch;
  if (seen[primary] >= epoch) return;  // this client already reconnected
  seen[primary] = epoch;
  // The request that discovered the dead primary went out and timed out...
  sim_->faults().NoteForced(FaultSite::kServerBlackhole);
  sim_->ChargeRpcLost(kPageSize);
  // ...then the client declares the server dead and re-establishes its
  // session against the backup replica.
  double penalty =
      sim_->model().failover_detect_ns + sim_->model().failover_reconnect_ns;
  sim_->Charge(penalty);
  Metrics& m = sim_->metrics();
  m.failover_wait_ns += static_cast<uint64_t>(penalty);
  ++m.failovers;
}

uint32_t TwoLevelCache::RouteRead(uint64_t key) {
  // Classic configuration with no campaign armed: zero routing work.
  if (placement_.single_server() && !sim_->faults().armed()) return 0;
  uint32_t primary = placement_.PrimaryShard(key);
  PollCrash(primary);
  if (!ShardDown(primary)) return primary;
  if (!placement_.replication()) {
    // No failover target: the caller's RPC blackholes until recovery.
    return primary;
  }
  uint32_t backup = placement_.BackupShard(primary);
  PollCrash(backup);
  NoteFailover(primary);
  if (ShardDown(backup)) return backup;  // both replicas dead; RPC will fail
  ++sim_->metrics().degraded_reads;
  return backup;
}

Status TwoLevelCache::Ensure(uint16_t file_id, uint32_t page_id,
                             bool for_write) {
  uint64_t key = Key(file_id, page_id);
  // The lock precedes the access: a transaction blocked (or killed as a
  // deadlock victim) on the page lock never touches the cache levels.
  if (lock_hook_ != nullptr) {
    TB_RETURN_IF_ERROR(lock_hook_->OnPageAccess(key, for_write));
  }
  if (client_->Touch(key)) {
    sim_->ChargeClientCacheHit();
    // First demand access to a page FetchPages brought in: the readahead
    // paid off. Later accesses are ordinary cache hits.
    if (!prefetched_.empty() && prefetched_.erase(key) != 0) {
      sim_->ChargeReadaheadHit();
    }
  } else {
    // Client-cache page fault: one RPC ships the page from its shard. The
    // request travels first (a lost RPC costs no server work), then the
    // server materializes the page. Charged through the SimContext so an
    // active MetricScope attributes the fault to the span touching the page.
    sim_->ChargeClientCacheMiss();
    for (uint32_t round = 0;; ++round) {
      uint32_t serving = RouteRead(key);
      Status st = RpcToServer(kPageSize, serving);
      if (st.ok()) st = EnsureAtServer(key, serving);
      if (st.ok()) break;
      // Another client's poll may have fired the crash between routing and
      // send; with a replica available, route again instead of failing.
      if (!placement_.replication() || round >= kMaxRerouteRounds ||
          !ShardDown(serving)) {
        return st;
      }
    }
    LruPageCache::Evicted ev = client_->Insert(key);
    if (ev.valid) {
      sim_->ChargeClientCacheEviction();
      NotePrefetchEviction(ev.key);
    }
    if (ev.valid && ev.dirty) TB_RETURN_IF_ERROR(WriteBackToServer(ev.key));
  }
  if (for_write) {
    client_->MarkDirty(key);
    disk_->NoteWrite(file_id, page_id);
  }
  return Status::OK();
}

Status TwoLevelCache::RpcToServer(uint64_t bytes, uint32_t shard) {
  const RetryPolicy& rp = config_.retry;
  Metrics& m = sim_->metrics();
  sim_->set_active_shard(shard);
  double backoff = rp.initial_backoff_ns;
  for (uint32_t attempt = 0; attempt < rp.max_attempts; ++attempt) {
    if (attempt > 0) {
      double wait = std::min(backoff, rp.max_backoff_ns);
      sim_->Charge(wait);
      m.retry_backoff_ns += static_cast<uint64_t>(wait);
      backoff *= rp.backoff_multiplier;
    }
    if (ShardDown(shard)) {
      // Blackholed: the request crosses the wire into a dead server. No
      // station admission, no reply, one fault-ledger entry.
      sim_->faults().NoteForced(FaultSite::kServerBlackhole);
      sim_->ChargeRpcLost(bytes);
      if (attempt + 1 < rp.max_attempts) ++m.rpc_retries;
      continue;
    }
    bool failed =
        sim_->faults().ShouldFail(FaultSite::kRpc, sim_->elapsed_ns());
    // The attempt consumes wire time whether or not the reply arrives.
    sim_->ChargeRpc(bytes);
    if (!failed) return Status::OK();
    if (attempt + 1 < rp.max_attempts) ++m.rpc_retries;
  }
  ++m.rpc_failures;
  return Status::Unavailable("rpc to server failed after retries");
}

Status TwoLevelCache::EnsureAtServer(uint64_t key, uint32_t shard) {
  Metrics& m = sim_->metrics();
  sim_->set_active_shard(shard);
  LruPageCache& cache = shards_[shard]->cache;
  if (cache.Touch(key)) {
    sim_->ChargeServerCacheHit();
    return Status::OK();
  }
  sim_->ChargeServerCacheMiss();
  // Under a multi-client workload the server performs this disk read while
  // holding its shard's service station: later arrivals queue behind it.
  if (sim_->station() != nullptr) {
    sim_->station()->ExtendService(sim_->model().disk_read_page_ns);
  }
  if (sim_->faults().ShouldFail(FaultSite::kDiskRead, sim_->elapsed_ns())) {
    ++m.disk_read_faults;
    sim_->ChargeDiskRead();
    return Status::Unavailable("disk read failed");
  }
  sim_->ChargeDiskRead();
  uint16_t file_id = static_cast<uint16_t>(key >> 32);
  uint32_t page_id = static_cast<uint32_t>(key);
  TB_ASSIGN_OR_RETURN(bool coherent, disk_->VerifyForFill(file_id, page_id));
  if (!coherent) {
    ++m.corruptions_detected;
    return Status::Corruption("page checksum mismatch on cache fill (file " +
                              std::to_string(file_id) + " page " +
                              std::to_string(page_id) + ")");
  }
  LruPageCache::Evicted ev = cache.Insert(key);
  if (ev.valid) sim_->ChargeServerCacheEviction();
  if (ev.valid && ev.dirty) TB_RETURN_IF_ERROR(WriteToDisk(ev.key, shard));
  return Status::OK();
}

Status TwoLevelCache::ShipWriteTo(uint64_t key, uint32_t shard) {
  // One RPC down; the page becomes dirty in the shard's partition (written
  // to disk on server-level eviction or flush).
  TB_RETURN_IF_ERROR(RpcToServer(kPageSize, shard));
  LruPageCache& cache = shards_[shard]->cache;
  if (!cache.Touch(key)) {
    LruPageCache::Evicted ev = cache.Insert(key, /*dirty=*/true);
    if (ev.valid) sim_->ChargeServerCacheEviction();
    if (ev.valid && ev.dirty) TB_RETURN_IF_ERROR(WriteToDisk(ev.key, shard));
  } else {
    cache.MarkDirty(key);
  }
  return Status::OK();
}

Status TwoLevelCache::WriteBackToServer(uint64_t key) {
  // Every dirty client page shipped down — eviction victim or flush — is
  // one unit of page-level write amplification.
  sim_->ChargeDirtyWriteback();
  if (placement_.single_server() && !sim_->faults().armed()) {
    return ShipWriteTo(key, 0);
  }
  uint32_t primary = placement_.PrimaryShard(key);
  PollCrash(primary);
  if (!placement_.replication()) {
    // Dead primary, no replica: the ship blackholes and surfaces
    // kUnavailable after retries, like any other access to a down shard.
    return ShipWriteTo(key, primary);
  }
  uint32_t backup = placement_.BackupShard(primary);
  PollCrash(backup);
  bool primary_up = !ShardDown(primary);
  bool backup_up = !ShardDown(backup);
  if (!primary_up && !backup_up) return ShipWriteTo(key, primary);
  if (primary_up) {
    TB_RETURN_IF_ERROR(ShipWriteTo(key, primary));
  } else {
    NoteFailover(primary);
  }
  if (backup_up) {
    TB_RETURN_IF_ERROR(ShipWriteTo(key, backup));
    ++sim_->metrics().replica_writes;
  } else {
    // The backup's copy is rebuilt during its recovery window; the skipped
    // ship still shows up in the fault ledger.
    sim_->faults().NoteForced(FaultSite::kServerBlackhole);
  }
  return Status::OK();
}

Status TwoLevelCache::WriteToDisk(uint64_t key, uint32_t shard) {
  Metrics& m = sim_->metrics();
  sim_->set_active_shard(shard);
  // Server-side disk write: holds the shard's station like a read does.
  if (sim_->station() != nullptr) {
    sim_->station()->ExtendService(sim_->model().disk_write_page_ns);
  }
  if (sim_->faults().ShouldFail(FaultSite::kDiskWrite, sim_->elapsed_ns())) {
    ++m.disk_write_faults;
    sim_->ChargeDiskWrite();
    return Status::Unavailable("disk write failed");
  }
  uint16_t file_id = static_cast<uint16_t>(key >> 32);
  uint32_t page_id = static_cast<uint32_t>(key);
  TB_ASSIGN_OR_RETURN(uint8_t* raw, disk_->StampPage(file_id, page_id));
  if (sim_->faults().ShouldFail(FaultSite::kPageWriteCorruption,
                                sim_->elapsed_ns())) {
    // Silent bit rot on the way to the platter: the stored image no longer
    // matches its freshly stamped trailer, so the next fill detects it.
    raw[kPageSize / 2] ^= 0xA5;
  }
  sim_->ChargeDiskWrite();
  return Status::OK();
}

Result<std::pair<uint32_t, uint8_t*>> TwoLevelCache::NewPage(
    uint16_t file_id) {
  uint32_t page_id = disk_->AllocatePage(file_id);
  uint64_t key = Key(file_id, page_id);
  LruPageCache::Evicted ev = client_->Insert(key, /*dirty=*/true);
  if (ev.valid) {
    sim_->ChargeClientCacheEviction();
    NotePrefetchEviction(ev.key);
  }
  if (ev.valid && ev.dirty) TB_RETURN_IF_ERROR(WriteBackToServer(ev.key));
  TB_ASSIGN_OR_RETURN(uint8_t* raw, disk_->RawPage(file_id, page_id));
  disk_->NoteWrite(file_id, page_id);
  return std::pair<uint32_t, uint8_t*>(page_id, raw);
}

Status TwoLevelCache::FetchShardBatch(uint32_t shard,
                                      std::vector<uint64_t> pending,
                                      bool allow_reroute,
                                      std::vector<uint64_t>* reroute) {
  const RetryPolicy& rp = config_.retry;
  Metrics& m = sim_->metrics();
  double backoff = rp.initial_backoff_ns;
  for (uint32_t attempt = 0; attempt < rp.max_attempts; ++attempt) {
    if (attempt > 0) {
      double wait = std::min(backoff, rp.max_backoff_ns);
      sim_->Charge(wait);
      m.retry_backoff_ns += static_cast<uint64_t>(wait);
      backoff *= rp.backoff_multiplier;
    }
    if (ShardDown(shard)) {
      if (allow_reroute) {
        // The serving replica died under this batch; hand the keys back for
        // fresh routing (toward the backup) instead of burning attempts
        // against a blackhole.
        reroute->insert(reroute->end(), pending.begin(), pending.end());
        return Status::OK();
      }
      sim_->faults().NoteForced(FaultSite::kServerBlackhole);
      sim_->set_active_shard(shard);
      sim_->ChargeRpcLost(pending.size() *
                          static_cast<uint64_t>(kPageSize));
      if (attempt + 1 < rp.max_attempts) m.rpc_retries += pending.size();
      continue;
    }
    // Every page of the group request draws its own transient-fault
    // outcome — the same per-site sequence a loop of single fetches would
    // consume — but the wire is charged once for the whole request.
    std::vector<uint64_t> shipped;
    std::vector<uint64_t> failed;
    shipped.reserve(pending.size());
    for (uint64_t key : pending) {
      if (sim_->faults().ShouldFail(FaultSite::kRpc, sim_->elapsed_ns())) {
        failed.push_back(key);
      } else {
        shipped.push_back(key);
      }
    }
    sim_->set_active_shard(shard);
    sim_->ChargeRpcBatch(pending.size(),
                         pending.size() * static_cast<uint64_t>(kPageSize));
    for (uint64_t key : shipped) {
      sim_->ChargeClientCacheMiss();
      TB_RETURN_IF_ERROR(EnsureAtServer(key, shard));
      LruPageCache::Evicted ev = client_->Insert(key);
      if (ev.valid) {
        sim_->ChargeClientCacheEviction();
        NotePrefetchEviction(ev.key);
      }
      if (ev.valid && ev.dirty) TB_RETURN_IF_ERROR(WriteBackToServer(ev.key));
      prefetched_.insert(key);
    }
    if (failed.empty()) return Status::OK();
    if (attempt + 1 < rp.max_attempts) m.rpc_retries += failed.size();
    pending = std::move(failed);
  }
  m.rpc_failures += pending.size();
  return Status::Unavailable("group rpc to server failed after retries");
}

Status TwoLevelCache::FetchPages(std::span<const uint64_t> keys) {
  // Pages already resident need no fetch; Contains is a costless peek (no
  // LRU promotion), so the later demand access still pays its normal hit.
  std::vector<uint64_t> pending;
  pending.reserve(keys.size());
  {
    std::unordered_set<uint64_t> seen;
    seen.reserve(keys.size());
    for (uint64_t key : keys) {
      if (client_->Contains(key)) continue;
      if (seen.insert(key).second) pending.push_back(key);
    }
  }
  if (pending.empty()) return Status::OK();

  if (placement_.single_server() && !sim_->faults().armed()) {
    std::vector<uint64_t> unused;
    return FetchShardBatch(0, std::move(pending), /*allow_reroute=*/false,
                           &unused);
  }

  // Split the batch per serving shard — a group RPC is one wire message to
  // ONE server. Groups are ordered by first appearance in `pending`, so the
  // charge sequence is a pure function of the key order.
  for (uint32_t round = 0; !pending.empty(); ++round) {
    std::vector<std::pair<uint32_t, std::vector<uint64_t>>> groups;
    for (uint64_t key : pending) {
      uint32_t serving = RouteRead(key);
      auto it = std::find_if(
          groups.begin(), groups.end(),
          [serving](const auto& g) { return g.first == serving; });
      if (it == groups.end()) {
        groups.emplace_back(serving, std::vector<uint64_t>{key});
      } else {
        it->second.push_back(key);
      }
    }
    pending.clear();
    bool allow_reroute =
        placement_.replication() && round < kMaxRerouteRounds;
    for (auto& [shard, group_keys] : groups) {
      TB_RETURN_IF_ERROR(FetchShardBatch(shard, std::move(group_keys),
                                         allow_reroute, &pending));
    }
  }
  return Status::OK();
}

void TwoLevelCache::DiscardKeys(std::span<const uint64_t> keys) {
  for (uint64_t key : keys) {
    NotePrefetchEviction(key);
    client_->Erase(key);
    for (auto& s : shards_) s->cache.Erase(key);
  }
}

Status TwoLevelCache::FlushKeys(std::span<const uint64_t> keys) {
  for (uint64_t key : keys) {
    if (!client_->ClearDirty(key)) continue;
    TB_RETURN_IF_ERROR(WriteBackToServer(key));
  }
  return Status::OK();
}

Status TwoLevelCache::FlushAll() {
  Status first_error = Status::OK();
  auto note = [&first_error](const Status& s) {
    if (first_error.ok() && !s.ok()) first_error = s;
  };
  // Dirty client pages ship down the regular write-back path (which also
  // routes them to their shard and replicates when configured).
  client_->FlushDirty([&](uint64_t key) { note(WriteBackToServer(key)); });
  for (uint32_t shard = 0; shard < shards_.size(); ++shard) {
    shards_[shard]->cache.FlushDirty(
        [&](uint64_t key) { note(WriteToDisk(key, shard)); });
  }
  return first_error;
}

Status TwoLevelCache::Shutdown() {
  Status st = FlushAll();
  DrainPrefetchedAsWasted();
  client_->Clear();
  for (auto& s : shards_) s->cache.Clear();
  return st;
}

void TwoLevelCache::DropAll() {
  DrainPrefetchedAsWasted();
  client_->Clear();
  for (auto& s : shards_) s->cache.Clear();
}

}  // namespace treebench
