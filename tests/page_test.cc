#include "src/storage/page.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/random.h"

namespace treebench {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string ToStr(std::span<const uint8_t> s) {
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}

class PageTest : public ::testing::Test {
 protected:
  PageTest() : page_(buf_) { page_.Init(); }
  uint8_t buf_[kPageSize] = {};
  Page page_;
};

TEST_F(PageTest, FreshPageIsEmpty) {
  EXPECT_EQ(page_.slot_count(), 0);
  EXPECT_EQ(page_.FreeSpace(), kPageChecksumOffset - Page::kHeaderSize);
}

TEST_F(PageTest, InsertAndGet) {
  auto rec = Bytes("hello world");
  auto slot = page_.Insert(rec);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(*slot, 0);
  auto got = page_.Get(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToStr(*got), "hello world");
}

TEST_F(PageTest, MultipleRecordsGetDistinctSlots) {
  for (int i = 0; i < 10; ++i) {
    auto slot = page_.Insert(Bytes("rec" + std::to_string(i)));
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(*slot, i);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ToStr(*page_.Get(static_cast<uint16_t>(i))),
              "rec" + std::to_string(i));
  }
}

TEST_F(PageTest, GetInvalidSlotIsNotFound) {
  EXPECT_TRUE(page_.Get(0).status().IsNotFound());
  page_.Insert(Bytes("x")).value();
  EXPECT_TRUE(page_.Get(1).status().IsNotFound());
}

TEST_F(PageTest, DeleteTombstones) {
  page_.Insert(Bytes("a")).value();
  page_.Insert(Bytes("b")).value();
  ASSERT_TRUE(page_.Delete(0).ok());
  EXPECT_FALSE(page_.IsLive(0));
  EXPECT_TRUE(page_.Get(0).status().IsNotFound());
  EXPECT_EQ(ToStr(*page_.Get(1)), "b");  // other slots unaffected
  EXPECT_TRUE(page_.Delete(0).IsNotFound());  // double delete
}

TEST_F(PageTest, UpdateInPlaceSameSize) {
  page_.Insert(Bytes("abcd")).value();
  ASSERT_TRUE(page_.Update(0, Bytes("wxyz")).ok());
  EXPECT_EQ(ToStr(*page_.Get(0)), "wxyz");
}

TEST_F(PageTest, UpdateShrinks) {
  page_.Insert(Bytes("abcdef")).value();
  ASSERT_TRUE(page_.Update(0, Bytes("xy")).ok());
  EXPECT_EQ(ToStr(*page_.Get(0)), "xy");
}

TEST_F(PageTest, UpdateGrowthIsRejected) {
  page_.Insert(Bytes("ab")).value();
  Status s = page_.Update(0, Bytes("abcdef"));
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_EQ(ToStr(*page_.Get(0)), "ab");  // unchanged
}

TEST_F(PageTest, FillsUntilExhausted) {
  std::vector<uint8_t> rec(100, 0xAB);
  int inserted = 0;
  while (true) {
    auto slot = page_.Insert(rec);
    if (!slot.ok()) {
      EXPECT_TRUE(slot.status().IsResourceExhausted());
      break;
    }
    ++inserted;
  }
  // 100-byte payload + 4-byte slot entry: expect ~39 records in 4092 bytes.
  EXPECT_GT(inserted, 35);
  EXPECT_LT(inserted, 41);
  // All inserted records still readable.
  for (int i = 0; i < inserted; ++i) {
    ASSERT_TRUE(page_.Get(static_cast<uint16_t>(i)).ok());
  }
}

TEST_F(PageTest, MaxRecordFitsExactly) {
  std::vector<uint8_t> rec(Page::kMaxRecordSize, 0x7);
  auto slot = page_.Insert(rec);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(page_.FreeSpace(), 0u);
  EXPECT_EQ(page_.Get(0)->size(), Page::kMaxRecordSize);
}

TEST_F(PageTest, FreeSpaceAccounting) {
  uint32_t before = page_.FreeSpace();
  page_.Insert(Bytes("0123456789")).value();
  EXPECT_EQ(page_.FreeSpace(), before - 10 - Page::kSlotEntrySize);
}

// Bit-at-a-time CRC32 (reflected, polynomial 0xEDB88320): the definition
// the table-driven Crc32 must reproduce exactly.
uint32_t ReferenceCrc32(const uint8_t* data, uint32_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (uint32_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Lrand48 rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.Next() >> 7);
  return out;
}

TEST(Crc32Test, KnownAnswers) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // 8 spare bytes in front let every start offset 0..7 read a full buffer;
  // lengths 0..64 cover the empty input, tail-only inputs and every tail
  // length behind the 8-byte body.
  std::vector<uint8_t> buf = RandomBytes(8 + 4100, 42);
  for (uint32_t offset = 0; offset < 8; ++offset) {
    const uint8_t* p = buf.data() + offset;
    for (uint32_t len = 0; len <= 64; ++len) {
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len))
          << "offset=" << offset << " len=" << len;
    }
    for (uint32_t len : {kPageChecksumOffset, 4100u}) {
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32Test, StampedPageVerifiesAndEveryByteFlipIsDetected) {
  std::vector<uint8_t> page = RandomBytes(kPageSize, 7);
  StampPageChecksum(page.data());
  ASSERT_TRUE(VerifyPageChecksum(page.data()));
  EXPECT_EQ(PageChecksum(page.data()),
            ReferenceCrc32(page.data(), kPageChecksumOffset));
  // Any single-byte change, in the body or in the trailer itself, must be
  // caught (a CRC detects every error burst of 32 bits or less).
  for (uint32_t i = 0; i < kPageSize; ++i) {
    page[i] ^= 0x5A;
    EXPECT_FALSE(VerifyPageChecksum(page.data())) << "byte " << i;
    page[i] ^= 0x5A;
  }
  EXPECT_TRUE(VerifyPageChecksum(page.data()));
}

}  // namespace
}  // namespace treebench
