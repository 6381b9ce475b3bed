#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/rng.h"
#include "numbered.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace qatk::db {
namespace {

class BPlusTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<InMemoryDiskManager>();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 256);
    auto root = BPlusTree::Create(pool_.get());
    ASSERT_TRUE(root.ok());
    tree_ = std::make_unique<BPlusTree>(pool_.get(), *root);
  }

  static Rid MakeRid(uint32_t n) { return Rid{n, n * 7 + 1}; }

  std::unique_ptr<InMemoryDiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BPlusTree> tree_;
};

TEST_F(BPlusTreeTest, InsertAndGet) {
  ASSERT_TRUE(tree_->Insert("hello", MakeRid(1)).ok());
  auto rid = tree_->Get("hello");
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*rid, MakeRid(1));
}

TEST_F(BPlusTreeTest, GetMissingIsKeyError) {
  ASSERT_TRUE(tree_->Insert("a", MakeRid(1)).ok());
  EXPECT_TRUE(tree_->Get("b").status().IsKeyError());
  EXPECT_TRUE(tree_->Get("").status().IsKeyError());
}

TEST_F(BPlusTreeTest, DuplicateInsertRejected) {
  ASSERT_TRUE(tree_->Insert("k", MakeRid(1)).ok());
  EXPECT_TRUE(tree_->Insert("k", MakeRid(2)).IsAlreadyExists());
}

TEST_F(BPlusTreeTest, OversizedKeyRejected) {
  std::string huge(kMaxBPTreeKey + 1, 'x');
  EXPECT_TRUE(tree_->Insert(huge, MakeRid(1)).IsInvalid());
}

TEST_F(BPlusTreeTest, EmptyKeyWorks) {
  ASSERT_TRUE(tree_->Insert("", MakeRid(9)).ok());
  EXPECT_EQ(*tree_->Get(""), MakeRid(9));
}

TEST_F(BPlusTreeTest, ManyInsertsForceSplits) {
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    std::string key = Numbered("key-", i * 31 % n) + "-suffix";
    ASSERT_TRUE(tree_->Insert(key, MakeRid(i)).ok()) << i;
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  EXPECT_EQ(*tree_->CountEntries(), static_cast<size_t>(n));
  for (int i = 0; i < n; i += 173) {
    std::string key = Numbered("key-", i * 31 % n) + "-suffix";
    EXPECT_EQ(*tree_->Get(key), MakeRid(i));
  }
  EXPECT_GT(disk_->num_pages(), 10u) << "tree should have split many times";
}

TEST_F(BPlusTreeTest, LongKeysForceEarlySplits) {
  for (int i = 0; i < 200; ++i) {
    std::string key(900, 'k');
    key += std::to_string(i);
    ASSERT_TRUE(tree_->Insert(key, MakeRid(i)).ok()) << i;
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  EXPECT_EQ(*tree_->CountEntries(), 200u);
}

TEST_F(BPlusTreeTest, ScanRangeOrderedAndBounded) {
  for (int i = 0; i < 100; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%03d", i);
    ASSERT_TRUE(tree_->Insert(buf, MakeRid(i)).ok());
  }
  std::vector<std::string> keys;
  ASSERT_TRUE(tree_
                  ->ScanRange("k010", "k020",
                              [&](std::string_view k, const Rid&) {
                                keys.emplace_back(k);
                                return true;
                              })
                  .ok());
  ASSERT_EQ(keys.size(), 10u);
  EXPECT_EQ(keys.front(), "k010");
  EXPECT_EQ(keys.back(), "k019");
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST_F(BPlusTreeTest, ScanRangeEarlyStop) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree_->Insert(Numbered("k", 100 + i), MakeRid(i)).ok());
  }
  int count = 0;
  ASSERT_TRUE(tree_
                  ->ScanRange("", "",
                              [&](std::string_view, const Rid&) {
                                return ++count < 7;
                              })
                  .ok());
  EXPECT_EQ(count, 7);
}

TEST_F(BPlusTreeTest, ScanPrefix) {
  ASSERT_TRUE(tree_->Insert("part:A:1", MakeRid(1)).ok());
  ASSERT_TRUE(tree_->Insert("part:A:2", MakeRid(2)).ok());
  ASSERT_TRUE(tree_->Insert("part:B:1", MakeRid(3)).ok());
  ASSERT_TRUE(tree_->Insert("paru", MakeRid(4)).ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(tree_
                  ->ScanPrefix("part:A:",
                               [&](std::string_view k, const Rid&) {
                                 keys.emplace_back(k);
                                 return true;
                               })
                  .ok());
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "part:A:1");
  EXPECT_EQ(keys[1], "part:A:2");
}

TEST_F(BPlusTreeTest, ScanPrefixWith0xFFBytes) {
  std::string k1 = std::string("\xFF\xFF", 2) + "a";
  std::string k2 = std::string("\xFF\xFF", 2) + "b";
  ASSERT_TRUE(tree_->Insert(k1, MakeRid(1)).ok());
  ASSERT_TRUE(tree_->Insert(k2, MakeRid(2)).ok());
  int count = 0;
  ASSERT_TRUE(tree_
                  ->ScanPrefix(std::string("\xFF\xFF", 2),
                               [&](std::string_view, const Rid&) {
                                 ++count;
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(count, 2);
}

TEST_F(BPlusTreeTest, DeleteRemovesKey) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree_->Insert(Numbered("k", i), MakeRid(i)).ok());
  }
  ASSERT_TRUE(tree_->Delete("k250").ok());
  EXPECT_TRUE(tree_->Get("k250").status().IsKeyError());
  EXPECT_TRUE(tree_->Delete("k250").IsKeyError());
  EXPECT_EQ(*tree_->CountEntries(), 499u);
  ASSERT_TRUE(tree_->CheckInvariants().ok());
}

TEST_F(BPlusTreeTest, ReinsertAfterDelete) {
  ASSERT_TRUE(tree_->Insert("x", MakeRid(1)).ok());
  ASSERT_TRUE(tree_->Delete("x").ok());
  ASSERT_TRUE(tree_->Insert("x", MakeRid(2)).ok());
  EXPECT_EQ(*tree_->Get("x"), MakeRid(2));
}

TEST_F(BPlusTreeTest, DeleteSpaceIsReclaimedOnPressure) {
  // Fill one leaf, delete everything, refill: the rebuild-on-full path must
  // reclaim orphaned cell space rather than splitting forever.
  for (int round = 0; round < 20; ++round) {
    std::vector<std::string> keys;
    for (int i = 0; i < 40; ++i) {
      std::string key(80, 'a' + (i % 26));
      key += std::to_string(round);
      key += Numbered("_", i);
      keys.push_back(key);
      ASSERT_TRUE(tree_->Insert(key, MakeRid(i)).ok());
    }
    for (const std::string& key : keys) {
      ASSERT_TRUE(tree_->Delete(key).ok());
    }
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  EXPECT_EQ(*tree_->CountEntries(), 0u);
}

// Randomized differential test against std::map.
class BPlusTreeRandomTest : public BPlusTreeTest,
                            public ::testing::WithParamInterface<uint64_t> {};

TEST_P(BPlusTreeRandomTest, MirrorsReferenceModel) {
  Rng rng(GetParam());
  std::map<std::string, Rid> model;
  for (int step = 0; step < 4000; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.7 || model.empty()) {
      std::string key = Numbered("k", rng.NextBounded(2000));
      key.append(rng.NextBounded(60), 'p');
      Rid rid = MakeRid(static_cast<uint32_t>(step));
      Status st = tree_->Insert(key, rid);
      if (model.count(key) > 0) {
        EXPECT_TRUE(st.IsAlreadyExists()) << key;
      } else {
        ASSERT_TRUE(st.ok()) << st.ToString();
        model[key] = rid;
      }
    } else if (dice < 0.9) {
      auto it = model.begin();
      std::advance(it, rng.NextBounded(model.size()));
      ASSERT_TRUE(tree_->Delete(it->first).ok());
      model.erase(it);
    } else {
      // Random lookups.
      std::string key = Numbered("k", rng.NextBounded(2000));
      auto found = tree_->Get(key);
      if (model.count(key) > 0) {
        ASSERT_TRUE(found.ok());
        EXPECT_EQ(*found, model[key]);
      } else {
        EXPECT_TRUE(found.status().IsKeyError());
      }
    }
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  // Final: full scan matches model exactly, in order.
  std::vector<std::pair<std::string, Rid>> scanned;
  ASSERT_TRUE(tree_
                  ->ScanRange("", "",
                              [&](std::string_view k, const Rid& r) {
                                scanned.emplace_back(std::string(k), r);
                                return true;
                              })
                  .ok());
  ASSERT_EQ(scanned.size(), model.size());
  size_t i = 0;
  for (const auto& [key, rid] : model) {
    EXPECT_EQ(scanned[i].first, key);
    EXPECT_EQ(scanned[i].second, rid);
    ++i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST_F(BPlusTreeTest, SmallBufferPoolStillCorrect) {
  // The tree must work with heavy eviction pressure.
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 8);
  auto root = BPlusTree::Create(&pool);
  ASSERT_TRUE(root.ok());
  BPlusTree tree(&pool, *root);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Insert(Numbered("key", i), MakeRid(i)).ok()) << i;
  }
  EXPECT_GT(pool.eviction_count(), 0u);
  for (int i = 0; i < 2000; i += 111) {
    EXPECT_EQ(*tree.Get(Numbered("key", i)), MakeRid(i));
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

}  // namespace
}  // namespace qatk::db
