// Seeded stateful test of page-checksum trailer coherence. Random sequences
// of in-place page writes from two client caches, fills, FlushAll, DropAll,
// a scheduled server crash and update transactions (abort or commit) run
// against one Database, with test-injected byte flips on coherent pages.
// After every step:
//  - no fill reports kCorruption unless the page carries an injected flip;
//  - every flip of a coherent page fails its next fill with kCorruption;
//  - every page whose trailer DiskManager does not mark stale verifies.
// Every operation's result is checked and tallied per operation kind, so a
// failure names the step and the mix that led to it. Runs under the
// sanitizer CI lane (ctest -L fuzz).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "src/cache/lru_page_cache.h"
#include "src/catalog/database.h"
#include "src/common/random.h"
#include "src/cost/fault_injector.h"
#include "src/storage/page.h"
#include "src/txn/txn_manager.h"

namespace treebench {
namespace {

enum Op : int { kRead, kWrite, kNewPage, kFlush, kDrop, kFlip, kCrash,
                kTxn, kNumOps };
constexpr const char* kOpNames[kNumOps] = {
    "read", "write", "new_page", "flush", "drop", "flip", "crash", "txn"};

struct Tally {
  std::array<uint64_t, kNumOps> ops{};
  uint64_t unavailable = 0;
  uint64_t flips = 0;
  uint64_t flips_caught = 0;

  std::string Summary() const {
    std::string s;
    for (int i = 0; i < kNumOps; ++i) {
      s += std::string(kOpNames[i]) + "=" + std::to_string(ops[i]) + " ";
    }
    return s + "unavailable=" + std::to_string(unavailable) +
           " flips=" + std::to_string(flips) +
           " caught=" + std::to_string(flips_caught);
  }
};

DatabaseOptions TinyCaches() {
  DatabaseOptions opts;
  opts.cache.client_bytes = 6 * kPageSize;
  opts.cache.server_bytes = 4 * kPageSize;
  return opts;
}

class TrailerFuzz {
 public:
  explicit TrailerFuzz(uint64_t seed)
      : db_(TinyCaches()), rng_(seed), txns_(&db_) {
    file_ = db_.disk().CreateFile("fuzz");
    for (int i = 0; i < 24; ++i) db_.disk().AllocatePage(file_);
    // Armed with no probabilities: only the scheduled crashes fire.
    db_.sim().faults().Arm(seed);
  }

  // Runs `steps` random operations; stops at the first violated check.
  void Run(int steps) {
    for (step_ = 0; step_ < steps && !::testing::Test::HasFailure();
         ++step_) {
      Step();
      CheckCoherentPagesVerify();
    }
    EXPECT_EQ(db_.sim().metrics().corruptions_detected, tally_.flips_caught)
        << tally_.Summary();
  }

  const Tally& tally() const { return tally_; }
  const Metrics& metrics() { return db_.sim().metrics(); }

 private:
  uint64_t Key(uint32_t page) const {
    return TwoLevelCache::PageKey(file_, page);
  }
  uint32_t RandomPage() {
    return static_cast<uint32_t>(rng_.Uniform(db_.disk().NumPages(file_)));
  }
  void BindRandomClient() {
    db_.cache().BindClientCache(&clients_[rng_.Uniform(2)]);
  }
  std::string Where() const {
    return "step " + std::to_string(step_) + ": " + tally_.Summary();
  }

  void Step() {
    // Writes and reads dominate; the rest perturb cache and disk state.
    static constexpr std::array<uint64_t, kNumOps> kWeights = {
        30, 30, 5, 6, 4, 10, 2, 5};
    uint64_t total = 0;
    for (uint64_t w : kWeights) total += w;
    uint64_t draw = rng_.Uniform(total);
    int op = 0;
    while (draw >= kWeights[op]) {
      draw -= kWeights[op];
      ++op;
    }
    ++tally_.ops[op];
    BindRandomClient();
    switch (op) {
      case kRead:
        Access(RandomPage(), /*write=*/false);
        break;
      case kWrite:
        Access(RandomPage(), /*write=*/true);
        break;
      case kNewPage:
        NewPage();
        break;
      case kFlush:
        Expect(db_.cache().FlushAll(), "FlushAll");
        break;
      case kDrop:
        db_.cache().DropAll();
        break;
      case kFlip:
        Flip();
        break;
      case kCrash:
        Crash();
        break;
      case kTxn:
        RunTransaction();
        break;
    }
  }

  // Write-back and flush paths may meet the crashed server; nothing else
  // may fail.
  void Expect(const Status& st, const char* what) {
    if (st.IsUnavailable()) {
      ++tally_.unavailable;
      return;
    }
    EXPECT_TRUE(st.ok()) << what << ": " << st.ToString() << " at "
                         << Where();
  }

  // One client access; checks its outcome against the flips in place.
  // Returns the page bytes, or nullptr if the access failed.
  uint8_t* Access(uint32_t page, bool write) {
    Status st;
    uint8_t* bytes = nullptr;
    if (write) {
      Result<uint8_t*> got = db_.cache().GetPageForWrite(file_, page);
      st = got.status();
      if (got.ok()) bytes = *got;
    } else {
      Result<const uint8_t*> got = db_.cache().GetPage(file_, page);
      st = got.status();
    }
    auto flip = flips_.find(page);
    if (flip != flips_.end()) {
      if (st.IsUnavailable()) {
        ++tally_.unavailable;  // never reached the disk; still armed
        return nullptr;
      }
      EXPECT_TRUE(st.IsCorruption())
          << "flip of page " << page << " missed by its fill ("
          << st.ToString() << ") at " << Where();
      ++tally_.flips_caught;
      // Repair: the stored image matches its trailer again.
      db_.disk().RawPage(file_, page).value()[flip->second.offset] ^=
          flip->second.mask;
      flips_.erase(flip);
      return nullptr;
    }
    EXPECT_FALSE(st.IsCorruption())
        << "false corruption on page " << page << " at " << Where();
    Expect(st, write ? "GetPageForWrite" : "GetPage");
    if (bytes != nullptr) Scribble(bytes);
    return bytes;
  }

  // An in-place write of a few payload bytes.
  void Scribble(uint8_t* bytes) {
    uint64_t n = 1 + rng_.Uniform(8);
    for (uint64_t i = 0; i < n; ++i) {
      bytes[rng_.Uniform(kPageChecksumOffset)] =
          static_cast<uint8_t>(rng_.Next());
    }
  }

  void NewPage() {
    Result<std::pair<uint32_t, uint8_t*>> got = db_.cache().NewPage(file_);
    Expect(got.status(), "NewPage");
    if (got.ok()) Scribble(got->second);
  }

  // Flips one payload byte of a coherent page behind the engine's back and
  // drops every cached copy of it, so its next access must fill from disk.
  void Flip() {
    uint32_t page = RandomPage();
    if (db_.disk().TrailerStale(file_, page) || flips_.count(page) != 0) {
      return;  // not coherent (or already flipped): nothing to detect
    }
    FlipRecord rec{static_cast<uint32_t>(rng_.Uniform(kPageChecksumOffset)),
                   static_cast<uint8_t>(1 + rng_.Uniform(255))};
    db_.disk().RawPage(file_, page).value()[rec.offset] ^= rec.mask;
    flips_.emplace(page, rec);
    ++tally_.flips;
    const uint64_t key = Key(page);
    LruPageCache* bound = db_.cache().BindClientCache(&clients_[0]);
    db_.cache().DiscardKeys({&key, 1});
    db_.cache().BindClientCache(&clients_[1]);
    db_.cache().DiscardKeys({&key, 1});
    db_.cache().BindClientCache(bound);
  }

  // The server dies at the next routed access, drops its cache cold, and
  // rejoins once the clock passes its recovery window.
  void Crash() {
    FaultInjector& faults = db_.sim().faults();
    faults.Schedule({FaultSite::kServerCrash,
                     faults.ops(FaultSite::kServerCrash), 0.0, 1});
    const uint64_t epoch = db_.cache().ShardCrashEpoch(0);
    // A client miss routes (and polls the crash); the client cache holds
    // fewer pages than the file, so a missing page exists.
    uint32_t page = RandomPage();
    while (db_.cache().InClientCache(file_, page)) {
      page = (page + 1) % db_.disk().NumPages(file_);
    }
    Access(page, /*write=*/false);
    ASSERT_GT(db_.cache().ShardCrashEpoch(0), epoch) << Where();
    db_.sim().Charge(db_.sim().model().server_recovery_ns);
  }

  // One journal-backed transaction on the bound client: a few writes and
  // maybe a new page, then abort (physical rollback) or commit.
  void RunTransaction() {
    txns_.Install();
    Result<Transaction*> txn = txns_.Begin();
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    uint64_t writes = 1 + rng_.Uniform(4);
    for (uint64_t i = 0; i < writes; ++i) Access(RandomPage(), true);
    if (rng_.OneIn(0.5)) NewPage();
    if (rng_.OneIn(0.6)) {
      Expect(txns_.Abort(*txn), "Abort");
    } else {
      Expect(txns_.Commit(*txn), "Commit");
    }
    txns_.Uninstall();
  }

  void CheckCoherentPagesVerify() {
    const DiskManager& disk = db_.disk();
    for (uint32_t p = 0; p < disk.NumPages(file_); ++p) {
      if (disk.TrailerStale(file_, p) || flips_.count(p) != 0) continue;
      EXPECT_TRUE(VerifyPageChecksum(disk.RawPage(file_, p).value()))
          << "page " << p << " not marked stale but incoherent at "
          << Where();
    }
  }

  struct FlipRecord {
    uint32_t offset;
    uint8_t mask;
  };

  // Declared first so they outlive the cache that binds them.
  std::array<LruPageCache, 2> clients_{LruPageCache(6), LruPageCache(6)};
  Database db_;
  Lrand48 rng_;
  TxnManager txns_;
  uint16_t file_ = 0;
  std::map<uint32_t, FlipRecord> flips_;  // flipped pages awaiting a fill
  Tally tally_;
  int step_ = 0;
};

TEST(TrailerFuzzTest, RandomSequencesKeepTrailersHonest) {
  for (uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TrailerFuzz fuzz(seed);
    fuzz.Run(1500);
    // The mix reached every operation and the checks had work to do.
    const Tally& t = fuzz.tally();
    for (int op = 0; op < kNumOps; ++op) {
      EXPECT_GT(t.ops[op], 0u) << kOpNames[op];
    }
    EXPECT_GT(t.flips_caught, 0u) << t.Summary();
    EXPECT_GT(fuzz.metrics().server_crashes, 0u) << t.Summary();
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(TrailerFuzzTest, SameSeedSameRun) {
  TrailerFuzz a(11);
  TrailerFuzz b(11);
  a.Run(800);
  b.Run(800);
  EXPECT_EQ(a.tally().Summary(), b.tally().Summary());
  EXPECT_EQ(a.metrics().disk_reads, b.metrics().disk_reads);
  EXPECT_EQ(a.metrics().disk_writes, b.metrics().disk_writes);
  EXPECT_EQ(a.metrics().corruptions_detected,
            b.metrics().corruptions_detected);
}

}  // namespace
}  // namespace treebench
