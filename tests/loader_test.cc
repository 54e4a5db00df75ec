#include "src/benchdb/loader.h"

#include <gtest/gtest.h>

namespace treebench {
namespace {

class LoaderTest : public ::testing::Test {
 protected:
  LoaderTest() {
    cls_ = db_.CreateClass("Item", {{"k", AttrType::kInt32}}).value();
    db_.CreateCollection("Items").value();
    file_ = db_.CreateFile("items");
  }

  CreateOptions Opts() {
    CreateOptions o;
    o.file_id = file_;
    o.preallocate_index_header = true;
    return o;
  }

  Database db_;
  uint16_t cls_ = 0, file_ = 0;
};

TEST_F(LoaderTest, TransactionOffChargesNoLogOrCommit) {
  LoadOptions lopts;
  lopts.transactions = false;
  Loader loader(&db_, lopts);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        loader.CreateObject(cls_, ObjectData{i}, Opts(), "Items").ok());
  }
  ASSERT_TRUE(loader.Commit().ok());
  EXPECT_EQ(db_.sim().metrics().commits, 0u);
  EXPECT_EQ(loader.objects_created(), 100u);
  EXPECT_EQ(db_.GetCollection("Items").value()->Count().value(), 100u);
}

TEST_F(LoaderTest, AutoCommitsEveryN) {
  LoadOptions lopts;
  lopts.transactions = true;
  lopts.commit_every = 10;
  Loader loader(&db_, lopts);
  for (int i = 0; i < 95; ++i) {
    ASSERT_TRUE(
        loader.CreateObject(cls_, ObjectData{i}, Opts(), "Items").ok());
  }
  EXPECT_EQ(db_.sim().metrics().commits, 9u);
  ASSERT_TRUE(loader.Commit().ok());
  EXPECT_EQ(db_.sim().metrics().commits, 10u);
}

TEST_F(LoaderTest, OutOfMemoryWithoutCommits) {
  LoadOptions lopts;
  lopts.transactions = true;
  lopts.commit_every = 1000000;
  lopts.max_uncommitted = 50;
  Loader loader(&db_, lopts);
  Status last = Status::OK();
  int created = 0;
  for (int i = 0; i < 100 && last.ok(); ++i) {
    const ObjectData data{i};
    last = loader.CreateObject(cls_, data, Opts(), "Items").status();
    if (last.ok()) ++created;
  }
  EXPECT_TRUE(last.IsResourceExhausted());
  EXPECT_EQ(created, 50);
  // Committing clears the trap.
  ASSERT_TRUE(loader.Commit().ok());
  EXPECT_TRUE(
      loader.CreateObject(cls_, ObjectData{1000}, Opts(), "Items").ok());
}

TEST_F(LoaderTest, MaintainsPredeclaredIndexes) {
  ASSERT_TRUE(db_.CreateIndex("idx_k", "Items", "Item", "k",
                              IndexBuildMode::kPredeclared, true)
                  .ok());
  LoadOptions lopts;
  lopts.transactions = false;
  Loader loader(&db_, lopts);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        loader.CreateObject(cls_, ObjectData{i * 2}, Opts(), "Items").ok());
  }
  IndexInfo* idx = db_.FindIndexByName("idx_k");
  EXPECT_EQ(idx->tree->CountEntries().value(), 200u);
  EXPECT_EQ(idx->tree->Lookup(100).value().size(), 1u);
  EXPECT_TRUE(idx->tree->Lookup(101).value().empty());
}

TEST_F(LoaderTest, LogBytesChargedWhenTransactional) {
  LoadOptions lopts;
  lopts.transactions = true;
  Loader loader(&db_, lopts);
  double before = db_.sim().elapsed_ns();
  ASSERT_TRUE(loader.CreateObject(cls_, ObjectData{1}, Opts()).ok());
  double with_log = db_.sim().elapsed_ns() - before;

  LoadOptions off;
  off.transactions = false;
  Loader loader2(&db_, off);
  before = db_.sim().elapsed_ns();
  ASSERT_TRUE(loader2.CreateObject(cls_, ObjectData{2}, Opts()).ok());
  double without_log = db_.sim().elapsed_ns() - before;
  EXPECT_GT(with_log, without_log);
}

}  // namespace
}  // namespace treebench
