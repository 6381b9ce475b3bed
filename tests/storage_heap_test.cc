#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/rng.h"
#include "numbered.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_table.h"

namespace qatk::db {
namespace {

class HeapTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<InMemoryDiskManager>();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 64);
    auto first = HeapTable::Create(pool_.get());
    ASSERT_TRUE(first.ok());
    table_ = std::make_unique<HeapTable>(pool_.get(), *first);
  }

  std::unique_ptr<InMemoryDiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<HeapTable> table_;
};

TEST_F(HeapTableTest, InsertAndGet) {
  auto rid = table_->Insert("hello world");
  ASSERT_TRUE(rid.ok());
  auto value = table_->Get(*rid);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "hello world");
}

TEST_F(HeapTableTest, EmptyRecord) {
  auto rid = table_->Insert("");
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*table_->Get(*rid), "");
}

TEST_F(HeapTableTest, ManyRecordsSpanPages) {
  std::map<int, Rid> rids;
  for (int i = 0; i < 2000; ++i) {
    std::string record = Numbered("record-", i) +
                         std::string(i % 50, 'x');
    auto rid = table_->Insert(record);
    ASSERT_TRUE(rid.ok()) << rid.status();
    rids[i] = *rid;
  }
  // Spot-check retrieval.
  for (int i = 0; i < 2000; i += 97) {
    std::string expected = Numbered("record-", i) +
                           std::string(i % 50, 'x');
    EXPECT_EQ(*table_->Get(rids[i]), expected);
  }
  EXPECT_GT(disk_->num_pages(), 5u) << "records should span multiple pages";
}

TEST_F(HeapTableTest, DeleteThenGetFails) {
  Rid rid = *table_->Insert("doomed");
  ASSERT_TRUE(table_->Delete(rid).ok());
  EXPECT_TRUE(table_->Get(rid).status().IsKeyError());
}

TEST_F(HeapTableTest, DoubleDeleteFails) {
  Rid rid = *table_->Insert("x");
  ASSERT_TRUE(table_->Delete(rid).ok());
  EXPECT_FALSE(table_->Delete(rid).ok());
}

TEST_F(HeapTableTest, DeletedSlotIdIsReused) {
  Rid a = *table_->Insert("aaaa");
  ASSERT_TRUE(table_->Delete(a).ok());
  Rid b = *table_->Insert("bbbb");
  EXPECT_EQ(a.page_id, b.page_id);
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_EQ(*table_->Get(b), "bbbb");
}

TEST_F(HeapTableTest, UpdateInPlaceWhenSmaller) {
  Rid rid = *table_->Insert("long original record");
  auto new_rid = table_->Update(rid, "short");
  ASSERT_TRUE(new_rid.ok());
  EXPECT_EQ(*new_rid, rid);
  EXPECT_EQ(*table_->Get(rid), "short");
}

TEST_F(HeapTableTest, UpdateGrowingMayMove) {
  Rid rid = *table_->Insert("tiny");
  std::string big(200, 'z');
  auto new_rid = table_->Update(rid, big);
  ASSERT_TRUE(new_rid.ok());
  EXPECT_EQ(*table_->Get(*new_rid), big);
}

TEST_F(HeapTableTest, OverflowRecordRoundTrip) {
  // Larger than one page: exercises the overflow chain.
  std::string big;
  for (int i = 0; i < 3000; ++i) big += Numbered("chunk", i) + "|";
  ASSERT_GT(big.size(), 2 * kPageSize);
  auto rid = table_->Insert(big);
  ASSERT_TRUE(rid.ok()) << rid.status();
  auto value = table_->Get(*rid);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, big);
}

TEST_F(HeapTableTest, OverflowBoundaryExactPageMultiple) {
  // Record sizes straddling the inline limit.
  for (size_t size : {kMaxInlineRecord - 1, kMaxInlineRecord,
                      kMaxInlineRecord + 1, kPageSize, 2 * kPageSize}) {
    std::string record(size, 'q');
    auto rid = table_->Insert(record);
    ASSERT_TRUE(rid.ok()) << "size " << size << ": " << rid.status();
    EXPECT_EQ(table_->Get(*rid)->size(), size);
  }
}

TEST_F(HeapTableTest, ScanVisitsAllLiveRecords) {
  std::set<std::string> expected;
  for (int i = 0; i < 500; ++i) {
    std::string r = Numbered("rec", i);
    table_->Insert(r).ValueOrDie();
    expected.insert(r);
  }
  // Delete some.
  HeapTable::Iterator it = table_->Scan();
  Rid rid;
  std::string record;
  std::vector<Rid> to_delete;
  int idx = 0;
  while (it.Next(&rid, &record)) {
    if (idx++ % 3 == 0) {
      to_delete.push_back(rid);
      expected.erase(record);
    }
  }
  ASSERT_TRUE(it.status().ok());
  for (const Rid& r : to_delete) ASSERT_TRUE(table_->Delete(r).ok());

  std::set<std::string> seen;
  HeapTable::Iterator it2 = table_->Scan();
  while (it2.Next(&rid, &record)) seen.insert(record);
  ASSERT_TRUE(it2.status().ok());
  EXPECT_EQ(seen, expected);
}

TEST_F(HeapTableTest, ScanEmptyTable) {
  HeapTable::Iterator it = table_->Scan();
  Rid rid;
  std::string record;
  EXPECT_FALSE(it.Next(&rid, &record));
  EXPECT_TRUE(it.status().ok());
}

// Randomized property: interleaved inserts/deletes/updates mirror a std::map.
TEST_F(HeapTableTest, RandomizedMirrorsReferenceModel) {
  Rng rng(12345);
  std::map<std::string, Rid> live;  // payload -> rid
  int next_id = 0;
  for (int step = 0; step < 3000; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.6 || live.empty()) {
      size_t len = rng.NextBounded(300);
      std::string payload =
          Numbered("p", next_id++) + "-" + std::string(len, 'a');
      Rid rid = *table_->Insert(payload);
      live[payload] = rid;
    } else if (dice < 0.85) {
      auto it = live.begin();
      std::advance(it, rng.NextBounded(live.size()));
      ASSERT_TRUE(table_->Delete(it->second).ok());
      live.erase(it);
    } else {
      auto it = live.begin();
      std::advance(it, rng.NextBounded(live.size()));
      std::string new_payload = Numbered("u", next_id++);
      Rid new_rid = *table_->Update(it->second, new_payload);
      live.erase(it);
      live[new_payload] = new_rid;
    }
  }
  // Verify all live payloads retrievable and scan matches.
  std::set<std::string> expected;
  for (const auto& [payload, rid] : live) {
    EXPECT_EQ(*table_->Get(rid), payload);
    expected.insert(payload);
  }
  std::set<std::string> seen;
  HeapTable::Iterator it = table_->Scan();
  Rid rid;
  std::string record;
  while (it.Next(&rid, &record)) seen.insert(record);
  ASSERT_TRUE(it.status().ok());
  EXPECT_EQ(seen, expected);
}

TEST(BufferPoolTest, EvictionKeepsDataIntact) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 4);  // Tiny pool forces eviction.
  auto first = HeapTable::Create(&pool);
  ASSERT_TRUE(first.ok());
  HeapTable table(&pool, *first);
  std::vector<Rid> rids;
  for (int i = 0; i < 400; ++i) {
    std::string record(100, static_cast<char>('a' + i % 26));
    rids.push_back(*table.Insert(record));
  }
  EXPECT_GT(pool.eviction_count(), 0u);
  for (int i = 0; i < 400; i += 37) {
    std::string expected(100, static_cast<char>('a' + i % 26));
    EXPECT_EQ(*table.Get(rids[i]), expected);
  }
}

TEST(BufferPoolTest, AllPinnedFails) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 2);
  Page* a = *pool.NewPage();
  Page* b = *pool.NewPage();
  auto c = pool.NewPage();
  EXPECT_TRUE(c.status().IsOutOfRange());
  ASSERT_TRUE(pool.UnpinPage(a->page_id(), false).ok());
  ASSERT_TRUE(pool.UnpinPage(b->page_id(), false).ok());
  EXPECT_TRUE(pool.NewPage().ok());
}

TEST(BufferPoolTest, HitAndMissCounters) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 8);
  Page* a = *pool.NewPage();
  PageId id = a->page_id();
  ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  uint64_t misses_before = pool.miss_count();
  Page* again = *pool.FetchPage(id);
  EXPECT_EQ(pool.miss_count(), misses_before);  // Cached: hit.
  EXPECT_GT(pool.hit_count(), 0u);
  ASSERT_TRUE(pool.UnpinPage(again->page_id(), false).ok());
}

TEST(BufferPoolTest, UnpinUnknownPageFails) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 4);
  EXPECT_TRUE(pool.UnpinPage(999, false).IsKeyError());
}

TEST(FileDiskManagerTest, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/qdb_disk_test.db";
  std::remove(path.c_str());
  {
    auto disk = FileDiskManager::Open(path);
    ASSERT_TRUE(disk.ok());
    PageId id = *(*disk)->AllocatePage();
    char buf[kPageSize];
    std::memset(buf, 0x5A, kPageSize);
    ASSERT_TRUE((*disk)->WritePage(id, buf).ok());
    ASSERT_TRUE((*disk)->Sync().ok());
  }
  {
    auto disk = FileDiskManager::Open(path);
    ASSERT_TRUE(disk.ok());
    EXPECT_EQ((*disk)->num_pages(), 1u);
    char buf[kPageSize];
    ASSERT_TRUE((*disk)->ReadPage(0, buf).ok());
    EXPECT_EQ(static_cast<unsigned char>(buf[100]), 0x5A);
  }
  std::remove(path.c_str());
}

TEST(FileDiskManagerTest, ReadPastEndFails) {
  std::string path = ::testing::TempDir() + "/qdb_disk_test2.db";
  std::remove(path.c_str());
  auto disk = FileDiskManager::Open(path);
  ASSERT_TRUE(disk.ok());
  char buf[kPageSize];
  EXPECT_TRUE((*disk)->ReadPage(5, buf).IsOutOfRange());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qatk::db
