#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/benchdb/derby.h"
#include "src/benchdb/loader.h"
#include "src/cache/two_level_cache.h"
#include "src/cost/fault_injector.h"
#include "src/query/executor.h"
#include "src/query/tree_query.h"

namespace treebench {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector unit behaviour
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DisarmedNeverFires) {
  FaultInjector f;
  f.SetProbability(FaultSite::kRpc, 1.0);
  f.Schedule({FaultSite::kRpc, 0, 0.0, 100});
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(f.ShouldFail(FaultSite::kRpc, 0.0));
  }
}

TEST(FaultInjectorTest, ScheduledFaultFiresAtExactOp) {
  FaultInjector f;
  f.Arm(1);
  f.Schedule({FaultSite::kDiskRead, /*at_op=*/3, /*after_ns=*/0.0,
              /*count=*/2});
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) {
    fired.push_back(f.ShouldFail(FaultSite::kDiskRead, 0.0));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, false, true, true, false,
                                      false, false}));
  EXPECT_EQ(f.ops(FaultSite::kDiskRead), 8u);
  EXPECT_EQ(f.injected(FaultSite::kDiskRead), 2u);
}

TEST(FaultInjectorTest, TimeGatedFaultWaitsForClock) {
  FaultInjector f;
  f.Arm(1);
  ScheduledFault fault;
  fault.site = FaultSite::kRpc;
  fault.after_ns = 100.0;
  f.Schedule(fault);
  EXPECT_FALSE(f.ShouldFail(FaultSite::kRpc, 50.0));
  EXPECT_TRUE(f.ShouldFail(FaultSite::kRpc, 150.0));
  EXPECT_FALSE(f.ShouldFail(FaultSite::kRpc, 200.0));  // count exhausted
}

TEST(FaultInjectorTest, ProbabilityStreamIsSeedDeterministic) {
  auto draw = [](uint64_t seed) {
    FaultInjector f;
    f.Arm(seed);
    f.SetProbability(FaultSite::kRpc, 0.3);
    std::vector<bool> v;
    for (int i = 0; i < 64; ++i) v.push_back(f.ShouldFail(FaultSite::kRpc, 0));
    return v;
  };
  EXPECT_EQ(draw(42), draw(42));
  EXPECT_NE(draw(42), draw(43));
}

// ---------------------------------------------------------------------------
// Acceptance (d): transient RPC faults absorbed by retry/backoff, with the
// retry count and latency visible in the SimContext metrics.
// ---------------------------------------------------------------------------

class FaultyCacheTest : public ::testing::Test {
 protected:
  FaultyCacheTest() {
    file_ = disk_.CreateFile("data");
    CacheConfig cfg;
    cfg.client_bytes = 4 * kPageSize;
    cfg.server_bytes = 2 * kPageSize;
    cache_ = std::make_unique<TwoLevelCache>(&disk_, &sim_, cfg);
    for (int i = 0; i < 16; ++i) disk_.AllocatePage(file_);
  }

  DiskManager disk_;
  SimContext sim_;
  uint16_t file_ = 0;
  std::unique_ptr<TwoLevelCache> cache_;
};

TEST_F(FaultyCacheTest, TransientRpcFaultsAbsorbedWithBackoff) {
  sim_.faults().Arm(7);
  // The 2nd RPC fails twice, then succeeds on the 3rd attempt.
  sim_.faults().Schedule({FaultSite::kRpc, /*at_op=*/1, 0.0, /*count=*/2});

  ASSERT_TRUE(cache_->GetPage(file_, 0).ok());
  ASSERT_TRUE(cache_->GetPage(file_, 1).ok());  // absorbs two faults
  ASSERT_TRUE(cache_->GetPage(file_, 2).ok());

  const Metrics& m = sim_.metrics();
  EXPECT_EQ(m.rpc_retries, 2u);
  EXPECT_EQ(m.rpc_failures, 0u);
  EXPECT_GT(m.retry_backoff_ns, 0u);
  // 1 ms + 2 ms of exponential backoff were charged to simulated time.
  EXPECT_EQ(m.retry_backoff_ns, 3000000u);
  // The failed attempts were real RPCs: 3 pages + 2 re-sends.
  EXPECT_EQ(m.rpc_count, 5u);
}

TEST_F(FaultyCacheTest, RetryExhaustionSurfacesUnavailable) {
  sim_.faults().Arm(7);
  // Four consecutive failures exhaust the default 4-attempt policy.
  sim_.faults().Schedule({FaultSite::kRpc, /*at_op=*/0, 0.0, /*count=*/4});
  Result<const uint8_t*> got = cache_->GetPage(file_, 0);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable());
  EXPECT_EQ(sim_.metrics().rpc_failures, 1u);
  EXPECT_EQ(sim_.metrics().rpc_retries, 3u);

  // The campaign over, the page is served normally.
  sim_.faults().Disarm();
  EXPECT_TRUE(cache_->GetPage(file_, 0).ok());
}

TEST_F(FaultyCacheTest, DiskReadFaultSurfacesUnavailable) {
  sim_.faults().Arm(7);
  sim_.faults().Schedule({FaultSite::kDiskRead, /*at_op=*/0, 0.0, 1});
  Result<const uint8_t*> got = cache_->GetPage(file_, 0);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable());
  EXPECT_EQ(sim_.metrics().disk_read_faults, 1u);
}

// ---------------------------------------------------------------------------
// Acceptance (b): a corrupted page is detected via its checksum and the
// error surfaces as kCorruption.
// ---------------------------------------------------------------------------

TEST_F(FaultyCacheTest, CorruptedPageDetectedAtCacheFill) {
  // Write through the cache and flush so the trailer is stamped.
  uint8_t* data = cache_->GetPageForWrite(file_, 3).value();
  data[100] = 0xAB;
  ASSERT_TRUE(cache_->Shutdown().ok());
  EXPECT_TRUE(VerifyPageChecksum(disk_.RawPage(file_, 3).value()));

  // Flip one byte behind the engine's back.
  disk_.RawPage(file_, 3).value()[100] ^= 0xFF;

  Result<const uint8_t*> got = cache_->GetPage(file_, 3);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption());
  EXPECT_EQ(sim_.metrics().corruptions_detected, 1u);
}

TEST_F(FaultyCacheTest, InjectedWriteCorruptionCaughtOnReread) {
  sim_.faults().Arm(7);
  sim_.faults().Schedule(
      {FaultSite::kPageWriteCorruption, /*at_op=*/0, 0.0, 1});
  cache_->GetPageForWrite(file_, 5).value()[0] = 1;
  ASSERT_TRUE(cache_->FlushAll().ok());  // corrupts the page on its way down
  cache_->DropAll();
  Result<const uint8_t*> got = cache_->GetPage(file_, 5);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Trailer coherence: one client's in-place writes are the newest page image,
// so another client's fill from disk must not see them as corruption, while
// real corruption of a coherent page still fails that fill.
// ---------------------------------------------------------------------------

TEST_F(FaultyCacheTest, AnotherClientFillsPagesWrittenInPlace) {
  // The owned client writes an existing page and a new one; both stay
  // dirty there, their trailers not yet stamped.
  cache_->GetPageForWrite(file_, 3).value()[100] = 0xAB;
  auto [fresh, bytes] = cache_->NewPage(file_).value();
  bytes[100] = 0xCD;
  // Two other reads push page 3 out of the 2-page server cache (clean).
  ASSERT_TRUE(cache_->GetPage(file_, 0).ok());
  ASSERT_TRUE(cache_->GetPage(file_, 1).ok());
  EXPECT_TRUE(disk_.TrailerStale(file_, 3));
  EXPECT_TRUE(disk_.TrailerStale(file_, fresh));

  // A second client misses at both levels and fills both pages from disk.
  LruPageCache other(4);
  cache_->BindClientCache(&other);
  Result<const uint8_t*> page3 = cache_->GetPage(file_, 3);
  ASSERT_TRUE(page3.ok()) << page3.status().ToString();
  EXPECT_EQ((*page3)[100], 0xAB);
  Result<const uint8_t*> page_new = cache_->GetPage(file_, fresh);
  ASSERT_TRUE(page_new.ok()) << page_new.status().ToString();
  EXPECT_EQ((*page_new)[100], 0xCD);
  EXPECT_EQ(sim_.metrics().corruptions_detected, 0u);
  // The fills stamped the trailers.
  EXPECT_FALSE(disk_.TrailerStale(file_, 3));
  EXPECT_TRUE(VerifyPageChecksum(disk_.RawPage(file_, 3).value()));
  cache_->BindClientCache(nullptr);
}

TEST_F(FaultyCacheTest, CorruptionAfterALazyStampIsStillDetected) {
  cache_->GetPageForWrite(file_, 3).value()[100] = 0xAB;
  ASSERT_TRUE(cache_->GetPage(file_, 0).ok());
  ASSERT_TRUE(cache_->GetPage(file_, 1).ok());
  LruPageCache other(4);
  cache_->BindClientCache(&other);
  ASSERT_TRUE(cache_->GetPage(file_, 3).ok());  // the lazy stamp

  // A flip behind the engine's back fails the next fill.
  disk_.RawPage(file_, 3).value()[200] ^= 0x5A;
  cache_->DropAll();
  Result<const uint8_t*> got = cache_->GetPage(file_, 3);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption());
  EXPECT_EQ(sim_.metrics().corruptions_detected, 1u);
  disk_.RawPage(file_, 3).value()[200] ^= 0x5A;  // repair
  ASSERT_TRUE(cache_->GetPage(file_, 3).ok());

  // Injected write corruption lands after the disk write's stamp, so a
  // later fill catches it too.
  sim_.faults().Arm(7);
  sim_.faults().Schedule(
      {FaultSite::kPageWriteCorruption, /*at_op=*/0, 0.0, 1});
  cache_->GetPageForWrite(file_, 3).value()[100] = 0x11;
  ASSERT_TRUE(cache_->FlushAll().ok());
  EXPECT_EQ(sim_.faults().injected(FaultSite::kPageWriteCorruption), 1u);
  EXPECT_FALSE(disk_.TrailerStale(file_, 3));
  cache_->DropAll();
  got = cache_->GetPage(file_, 3);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption());
  EXPECT_EQ(sim_.metrics().corruptions_detected, 2u);
  cache_->BindClientCache(nullptr);
}

DerbyConfig SmallDerby() {
  DerbyConfig cfg;
  cfg.providers = 60;
  cfg.avg_children = 3;
  cfg.seed = 17;
  return cfg;
}

TEST(FaultExecutorTest, CorruptionSurfacesThroughExecutor) {
  auto derby = BuildDerby(SmallDerby()).value();
  Database& db = *derby->db;
  // Locate a patient object's page, then push everything to disk so the
  // page carries a freshly stamped checksum.
  Rid victim = db.GetCollection("Patients").value()->At(10).value();
  ASSERT_TRUE(db.ColdRestart().ok());
  db.disk().RawPage(victim.file_id, victim.page_id).value()[64] ^= 0x5A;

  auto run = ExecuteOql(&db, "select pa.age from pa in Patients "
                        "where pa.num < 400000",
                        OptimizerStrategy::kHeuristic);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsCorruption());
  EXPECT_GE(db.sim().metrics().corruptions_detected, 1u);
}

// ---------------------------------------------------------------------------
// Acceptance (a): the same seed and fault schedule produce bit-identical
// cost metrics across independent runs.
// ---------------------------------------------------------------------------

TEST(FaultDeterminismTest, IdenticalCampaignsProduceIdenticalMetrics) {
  auto campaign = []() {
    auto derby = BuildDerby(SmallDerby()).value();
    Database& db = *derby->db;
    db.sim().faults().Arm(99);
    db.sim().faults().SetProbability(FaultSite::kRpc, 0.05);
    db.sim().faults().SetProbability(FaultSite::kDiskRead, 0.02);

    TreeQuerySpec spec = DerbyTreeQuery(*derby, 80, 80);
    spec.cold = true;
    std::string codes;
    for (TreeJoinAlgo algo : {TreeJoinAlgo::kNL, TreeJoinAlgo::kPHJ,
                              TreeJoinAlgo::kCHJ}) {
      Result<QueryRunStats> run = RunTreeQuery(&db, spec, algo);
      codes += run.ok() ? "ok;" : (run.status().ToString() + ";");
    }
    // injected() counts since arming — unlike metrics, it is not reset by
    // each measured run's clock reset, so it sees the whole campaign.
    uint64_t injected = db.sim().faults().injected(FaultSite::kRpc) +
                        db.sim().faults().injected(FaultSite::kDiskRead);
    return std::make_tuple(codes, db.sim().metrics(), db.sim().elapsed_ns(),
                           injected);
  };

  auto [codes1, metrics1, ns1, injected1] = campaign();
  auto [codes2, metrics2, ns2, injected2] = campaign();
  EXPECT_EQ(codes1, codes2);
  EXPECT_EQ(ns1, ns2);
  EXPECT_TRUE(metrics1 == metrics2);
  EXPECT_EQ(injected1, injected2);
  // The campaign actually exercised the fault paths.
  EXPECT_GT(injected1, 0u);
}

// ---------------------------------------------------------------------------
// Acceptance (c): a bulk load killed mid-way resumes from the last
// checkpoint and produces a database identical to an uninterrupted load.
// ---------------------------------------------------------------------------

class ResumableLoadTest : public ::testing::Test {
 protected:
  static constexpr int kObjects = 100;

  static DatabaseOptions SmallDb() {
    DatabaseOptions opts;
    opts.cache.client_bytes = 8 * kPageSize;
    opts.cache.server_bytes = 4 * kPageSize;
    return opts;
  }

  // Object contents are a pure function of the index, so a replayed batch
  // recreates byte-identical records.
  static ObjectData Item(int i) {
    return ObjectData{static_cast<int32_t>(i),
                      std::string(400, static_cast<char>('a' + i % 26))};
  }

  static void Setup(Database* db, uint16_t* cls, uint16_t* file) {
    *cls = db->CreateClass("Item", {{"k", AttrType::kInt32},
                                    {"pad", AttrType::kString}})
               .value();
    db->CreateCollection("Items").value();
    *file = db->CreateFile("items");
  }

  static Status Feed(Loader* loader, uint16_t cls, uint16_t file, int i) {
    CreateOptions opts;
    opts.file_id = file;
    return loader->CreateObject(cls, Item(i), opts, "Items").status();
  }
};

TEST_F(ResumableLoadTest, RestartFromCheckpointMatchesUninterruptedLoad) {
  LoadOptions lopts;
  lopts.commit_every = 25;
  lopts.checkpoint_recovery = true;

  // ---- Control: uninterrupted load ----
  Database control(SmallDb());
  uint16_t ccls = 0, cfile = 0;
  Setup(&control, &ccls, &cfile);
  uint64_t rpcs_before_load = control.sim().metrics().rpc_count;
  uint64_t load_rpcs = 0;
  {
    Loader loader(&control, lopts);
    for (int i = 0; i < kObjects; ++i) {
      ASSERT_TRUE(Feed(&loader, ccls, cfile, i).ok());
    }
    load_rpcs = control.sim().metrics().rpc_count - rpcs_before_load;
    // The kill point below must fall strictly inside the feeding phase.
    ASSERT_GT(load_rpcs, 8u);
    ASSERT_TRUE(loader.Commit().ok());
  }

  // ---- Faulty: the RPC path dies mid-load; resume from the checkpoint ----
  Database faulty(SmallDb());
  uint16_t fcls = 0, ffile = 0;
  Setup(&faulty, &fcls, &ffile);
  Loader loader(&faulty, lopts);
  faulty.sim().faults().Arm(3);
  // A burst of 4 RPC faults halfway through the load exhausts the retry
  // budget exactly once, killing whatever CreateObject is in flight. (The
  // injector's op counter starts at arming, so control-run RPC counts from
  // the same point locate mid-load.)
  faulty.sim().faults().Schedule({FaultSite::kRpc, /*at_op=*/load_rpcs / 2,
                                  0.0, /*count=*/4});
  int rollbacks = 0;
  uint64_t next = 0;
  while (next < kObjects) {
    Status s = Feed(&loader, fcls, ffile, static_cast<int>(next));
    if (!s.ok()) {
      ASSERT_TRUE(s.IsUnavailable()) << s.ToString();
      ASSERT_TRUE(loader.RollbackToCheckpoint().ok());
      ++rollbacks;
      ASSERT_LT(rollbacks, 10);  // the one scheduled burst cannot recur
      next = loader.objects_created();
      continue;
    }
    next = loader.objects_created();
  }
  faulty.sim().faults().Disarm();
  ASSERT_TRUE(loader.Commit().ok());

  // The injected failure really interrupted the load mid-batch...
  EXPECT_EQ(rollbacks, 1);
  EXPECT_EQ(faulty.sim().metrics().checkpoint_replays, 1u);
  EXPECT_EQ(faulty.sim().metrics().rpc_failures, 1u);

  // ...yet the replayed database matches the control: same page counts,
  // same collection, same object contents.
  EXPECT_EQ(faulty.disk().NumPages(ffile), control.disk().NumPages(cfile));
  PersistentCollection* ccol = control.GetCollection("Items").value();
  PersistentCollection* fcol = faulty.GetCollection("Items").value();
  ASSERT_EQ(fcol->Count().value(), ccol->Count().value());
  ASSERT_EQ(fcol->Count().value(), static_cast<uint64_t>(kObjects));
  EXPECT_EQ(faulty.disk().NumPages(fcol->file_id()),
            control.disk().NumPages(ccol->file_id()));
  for (int i = 0; i < kObjects; ++i) {
    Rid crid = ccol->At(i).value();
    Rid frid = fcol->At(i).value();
    EXPECT_EQ(crid, frid) << "object " << i;
    ObjectHandle* ch = control.store().Get(crid).value();
    ObjectHandle* fh = faulty.store().Get(frid).value();
    EXPECT_EQ(control.store().GetInt32(ch, 0).value(),
              faulty.store().GetInt32(fh, 0).value());
    EXPECT_EQ(control.store().GetString(ch, 1).value(),
              faulty.store().GetString(fh, 1).value());
    control.store().Unref(ch);
    faulty.store().Unref(fh);
  }
}

TEST_F(ResumableLoadTest, RollbackRequiresCheckpointing) {
  Database db(SmallDb());
  uint16_t cls = 0, file = 0;
  Setup(&db, &cls, &file);
  LoadOptions lopts;  // checkpoint_recovery off
  Loader loader(&db, lopts);
  ASSERT_TRUE(Feed(&loader, cls, file, 0).ok());
  EXPECT_TRUE(loader.RollbackToCheckpoint().IsInvalidArgument());
}

}  // namespace
}  // namespace treebench
