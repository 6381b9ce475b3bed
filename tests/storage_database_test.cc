#include <gtest/gtest.h>

#include <set>

#include "numbered.h"
#include "storage/database.h"
#include "storage/executor.h"

namespace qatk::db {
namespace {

Schema PartsSchema() {
  return Schema({{"part_id", TypeId::kString},
                 {"error_code", TypeId::kString},
                 {"qty", TypeId::kInt64}});
}

Tuple PartRow(const std::string& part, const std::string& code, int64_t qty) {
  return Tuple({Value(part), Value(code), Value(qty)});
}

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::OpenInMemory(256);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, CreateTableAndInsert) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  auto rid = db_->Insert("parts", PartRow("P1", "E7", 3));
  ASSERT_TRUE(rid.ok());
  auto row = db_->Get("parts", *rid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->value(0).AsString(), "P1");
  EXPECT_EQ(row->value(2).AsInt64(), 3);
}

TEST_F(DatabaseTest, DuplicateTableRejected) {
  ASSERT_TRUE(db_->CreateTable("t", PartsSchema()).ok());
  EXPECT_TRUE(db_->CreateTable("t", PartsSchema()).IsAlreadyExists());
}

TEST_F(DatabaseTest, InvalidNamesRejected) {
  EXPECT_TRUE(db_->CreateTable("", PartsSchema()).IsInvalid());
  EXPECT_TRUE(db_->CreateTable("has space", PartsSchema()).IsInvalid());
}

TEST_F(DatabaseTest, UnknownTableIsKeyError) {
  EXPECT_TRUE(db_->Insert("nope", PartRow("a", "b", 1)).status().IsKeyError());
  EXPECT_TRUE(db_->GetTable("nope").status().IsKeyError());
}

TEST_F(DatabaseTest, InsertTypeMismatchRejected) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  Tuple bad({Value(static_cast<int64_t>(1)), Value("E"), Value("not int")});
  EXPECT_TRUE(db_->Insert("parts", bad).status().IsInvalid());
}

TEST_F(DatabaseTest, IndexLookupFindsAllDuplicates) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  ASSERT_TRUE(db_->CreateIndex("idx_part", "parts", {"part_id"}).ok());
  for (int i = 0; i < 50; ++i) {
    std::string part = Numbered("P", i % 5);
    ASSERT_TRUE(
        db_->Insert("parts", PartRow(part, Numbered("E", i), 1)).ok());
  }
  int count = 0;
  ASSERT_TRUE(db_->ScanIndexEquals("idx_part", {Value("P2")},
                                   [&](const Rid&) {
                                     ++count;
                                     return true;
                                   })
                  .ok());
  EXPECT_EQ(count, 10);
}

TEST_F(DatabaseTest, IndexBackfillsExistingRows) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db_->Insert("parts", PartRow("P1", "E", i)).ok());
  }
  ASSERT_TRUE(db_->CreateIndex("late_idx", "parts", {"part_id"}).ok());
  int count = 0;
  ASSERT_TRUE(db_->ScanIndexEquals("late_idx", {Value("P1")},
                                   [&](const Rid&) {
                                     ++count;
                                     return true;
                                   })
                  .ok());
  EXPECT_EQ(count, 30);
}

TEST_F(DatabaseTest, CompositeIndexPrefixLookup) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  ASSERT_TRUE(
      db_->CreateIndex("idx2", "parts", {"part_id", "error_code"}).ok());
  ASSERT_TRUE(db_->Insert("parts", PartRow("P1", "E1", 1)).ok());
  ASSERT_TRUE(db_->Insert("parts", PartRow("P1", "E2", 2)).ok());
  ASSERT_TRUE(db_->Insert("parts", PartRow("P2", "E1", 3)).ok());
  int full = 0;
  ASSERT_TRUE(db_->ScanIndexEquals("idx2", {Value("P1"), Value("E2")},
                                   [&](const Rid&) {
                                     ++full;
                                     return true;
                                   })
                  .ok());
  EXPECT_EQ(full, 1);
  int prefix = 0;
  ASSERT_TRUE(db_->ScanIndexEquals("idx2", {Value("P1")},
                                   [&](const Rid&) {
                                     ++prefix;
                                     return true;
                                   })
                  .ok());
  EXPECT_EQ(prefix, 2);
}

TEST_F(DatabaseTest, SimilarStringKeysDoNotCrossMatch) {
  // "P" + "1x" must not collide with "P1" + "x" in the composite encoding.
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  ASSERT_TRUE(
      db_->CreateIndex("idx2", "parts", {"part_id", "error_code"}).ok());
  ASSERT_TRUE(db_->Insert("parts", PartRow("P", "1x", 1)).ok());
  ASSERT_TRUE(db_->Insert("parts", PartRow("P1", "x", 2)).ok());
  int count = 0;
  ASSERT_TRUE(db_->ScanIndexEquals("idx2", {Value("P1"), Value("x")},
                                   [&](const Rid&) {
                                     ++count;
                                     return true;
                                   })
                  .ok());
  EXPECT_EQ(count, 1);
}

TEST_F(DatabaseTest, DeleteMaintainsIndexes) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  ASSERT_TRUE(db_->CreateIndex("idx", "parts", {"part_id"}).ok());
  Rid rid = *db_->Insert("parts", PartRow("P9", "E9", 9));
  ASSERT_TRUE(db_->Delete("parts", rid).ok());
  int count = 0;
  ASSERT_TRUE(db_->ScanIndexEquals("idx", {Value("P9")},
                                   [&](const Rid&) {
                                     ++count;
                                     return true;
                                   })
                  .ok());
  EXPECT_EQ(count, 0);
  EXPECT_EQ(*db_->CountRows("parts"), 0u);
}

TEST_F(DatabaseTest, ScanTableVisitsEverything) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  std::set<std::string> expected;
  for (int i = 0; i < 100; ++i) {
    std::string code = Numbered("E", i);
    ASSERT_TRUE(db_->Insert("parts", PartRow("P", code, i)).ok());
    expected.insert(code);
  }
  std::set<std::string> seen;
  ASSERT_TRUE(db_->ScanTable("parts", [&](const Rid&, const Tuple& t) {
    seen.insert(t.value(1).AsString());
    return true;
  }).ok());
  EXPECT_EQ(seen, expected);
}

TEST_F(DatabaseTest, FilePersistenceRoundTrip) {
  std::string path = ::testing::TempDir() + "/qdb_database_test.db";
  std::remove(path.c_str());
  {
    auto db = Database::OpenFile(path, 128);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->CreateTable("parts", PartsSchema()).ok());
    ASSERT_TRUE((*db)->CreateIndex("idx", "parts", {"part_id"}).ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          (*db)->Insert("parts", PartRow(Numbered("P", i % 7),
                                         Numbered("E", i), i))
              .ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  {
    auto db = Database::OpenFile(path, 128);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_EQ(*(*db)->CountRows("parts"), 200u);
    int count = 0;
    ASSERT_TRUE((*db)->ScanIndexEquals("idx", {Value("P3")},
                                       [&](const Rid&) {
                                         ++count;
                                         return true;
                                       })
                    .ok());
    EXPECT_GT(count, 20);
  }
  std::remove(path.c_str());
}

TEST(LikeMatchTest, Wildcards) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%o"));
  EXPECT_TRUE(LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_TRUE(LikeMatch("hello", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_FALSE(LikeMatch("hello", "h_loo"));
  EXPECT_FALSE(LikeMatch("hello", "hell"));
  EXPECT_TRUE(LikeMatch("aXbXc", "a%b%c"));
  EXPECT_TRUE(LikeMatch("abc", "a%b%c"));
  EXPECT_FALSE(LikeMatch("acb", "a%b%c"));
  // Backtracking case: '%' must be able to give characters back.
  EXPECT_TRUE(LikeMatch("mississippi", "%issip%"));
}

TEST_F(DatabaseTest, UpdateMaintainsIndexesAndData) {
  ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
  ASSERT_TRUE(db_->CreateIndex("idx", "parts", {"part_id"}).ok());
  Rid rid = *db_->Insert("parts", PartRow("P1", "E1", 1));
  Rid new_rid = *db_->Update("parts", rid, PartRow("P2", "E2", 5));
  auto row = db_->Get("parts", new_rid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->value(0).AsString(), "P2");
  int p1 = 0;
  int p2 = 0;
  ASSERT_TRUE(db_->ScanIndexEquals("idx", {Value("P1")}, [&](const Rid&) {
    ++p1;
    return true;
  }).ok());
  ASSERT_TRUE(db_->ScanIndexEquals("idx", {Value("P2")}, [&](const Rid&) {
    ++p2;
    return true;
  }).ok());
  EXPECT_EQ(p1, 0);
  EXPECT_EQ(p2, 1);
}

// ---------------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------------

class ExecutorTest : public DatabaseTest {
 protected:
  void SetUp() override {
    DatabaseTest::SetUp();
    ASSERT_TRUE(db_->CreateTable("parts", PartsSchema()).ok());
    ASSERT_TRUE(db_->CreateIndex("idx_part", "parts", {"part_id"}).ok());
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(db_->Insert("parts", PartRow(Numbered("P", i % 3),
                                               Numbered("E", i % 10),
                                               i))
                      .ok());
    }
  }
};

TEST_F(ExecutorTest, SeqScanWithPredicate) {
  Predicate pred;
  pred.AddTerm("qty", CompareOp::kGe, Value(static_cast<int64_t>(50)));
  SeqScanExecutor scan(db_.get(), "parts", pred);
  auto rows = CollectAll(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
}

TEST_F(ExecutorTest, IndexScanMatchesSeqScan) {
  Predicate empty;
  IndexScanExecutor iscan(db_.get(), "idx_part", {Value("P1")}, empty);
  auto via_index = CollectAll(&iscan);
  ASSERT_TRUE(via_index.ok());

  Predicate pred;
  pred.AddTerm("part_id", CompareOp::kEq, Value("P1"));
  SeqScanExecutor sscan(db_.get(), "parts", pred);
  auto via_scan = CollectAll(&sscan);
  ASSERT_TRUE(via_scan.ok());
  EXPECT_EQ(via_index->size(), via_scan->size());
  EXPECT_EQ(via_index->size(), 20u);
}

TEST_F(ExecutorTest, ProjectSelectsColumns) {
  Predicate empty;
  auto scan = std::make_unique<SeqScanExecutor>(db_.get(), "parts", empty);
  ProjectExecutor project(std::move(scan), {"error_code"});
  auto rows = CollectAll(&project);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 60u);
  EXPECT_EQ((*rows)[0].size(), 1u);
  EXPECT_EQ(project.output_schema().num_columns(), 1u);
  EXPECT_EQ(project.output_schema().column(0).name, "error_code");
}

TEST_F(ExecutorTest, AggregateGroupByCount) {
  Predicate empty;
  auto scan = std::make_unique<SeqScanExecutor>(db_.get(), "parts", empty);
  AggregateExecutor agg(std::move(scan), {"part_id"},
                        {{AggKind::kCountStar, "", "n"}});
  auto rows = CollectAll(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  for (const Tuple& row : *rows) {
    EXPECT_EQ(row.value(1).AsInt64(), 20);
  }
}

TEST_F(ExecutorTest, AggregateSumMinMax) {
  Predicate empty;
  auto scan = std::make_unique<SeqScanExecutor>(db_.get(), "parts", empty);
  AggregateExecutor agg(std::move(scan), {},
                        {{AggKind::kSum, "qty", "total"},
                         {AggKind::kMin, "qty", "lo"},
                         {AggKind::kMax, "qty", "hi"}});
  auto rows = CollectAll(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].value(0).AsInt64(), 59 * 60 / 2);
  EXPECT_EQ((*rows)[0].value(1).AsInt64(), 0);
  EXPECT_EQ((*rows)[0].value(2).AsInt64(), 59);
}

TEST_F(ExecutorTest, GlobalAggregateOnEmptyInput) {
  Predicate pred;
  pred.AddTerm("qty", CompareOp::kLt, Value(static_cast<int64_t>(0)));
  auto scan = std::make_unique<SeqScanExecutor>(db_.get(), "parts", pred);
  AggregateExecutor agg(std::move(scan), {},
                        {{AggKind::kCountStar, "", "n"}});
  auto rows = CollectAll(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].value(0).AsInt64(), 0);
}

TEST_F(ExecutorTest, SortAscendingDescending) {
  Predicate empty;
  auto scan = std::make_unique<SeqScanExecutor>(db_.get(), "parts", empty);
  SortExecutor sort(std::move(scan), {{"qty", /*descending=*/true}});
  auto rows = CollectAll(&sort);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 60u);
  EXPECT_EQ((*rows)[0].value(2).AsInt64(), 59);
  EXPECT_EQ((*rows)[59].value(2).AsInt64(), 0);
}

TEST_F(ExecutorTest, LimitAndOffset) {
  Predicate empty;
  auto scan = std::make_unique<SeqScanExecutor>(db_.get(), "parts", empty);
  auto sort = std::make_unique<SortExecutor>(
      std::move(scan), std::vector<SortKey>{{"qty", false}});
  LimitExecutor limit(std::move(sort), 5, 10);
  auto rows = CollectAll(&limit);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);
  EXPECT_EQ((*rows)[0].value(2).AsInt64(), 10);
  EXPECT_EQ((*rows)[4].value(2).AsInt64(), 14);
}

TEST_F(ExecutorTest, IndexRangeScanBoundsRespected) {
  Predicate residual;
  residual.AddTerm("qty", CompareOp::kGe, Value(static_cast<int64_t>(10)));
  residual.AddTerm("qty", CompareOp::kLe, Value(static_cast<int64_t>(20)));
  ASSERT_TRUE(db_->CreateIndex("idx_qty", "parts", {"qty"}).ok());
  IndexRangeScanExecutor scan(db_.get(), "idx_qty",
                              Value(static_cast<int64_t>(10)),
                              Value(static_cast<int64_t>(20)),
                              /*upper_inclusive=*/true, residual);
  auto rows = CollectAll(&scan);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 11u);  // qty 10..20 inclusive.
  // Index order: ascending by qty.
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_LE((*rows)[i - 1].value(2).AsInt64(),
              (*rows)[i].value(2).AsInt64());
  }
}

TEST_F(ExecutorTest, IndexRangeScanUnboundedSides) {
  ASSERT_TRUE(db_->CreateIndex("idx_qty", "parts", {"qty"}).ok());
  Predicate empty;
  IndexRangeScanExecutor all(db_.get(), "idx_qty", Value(), Value(),
                             false, empty);
  auto rows = CollectAll(&all);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 60u);
}

TEST_F(ExecutorTest, FilterExecutorComposable) {
  Predicate empty;
  auto scan = std::make_unique<SeqScanExecutor>(db_.get(), "parts", empty);
  Predicate pred;
  pred.AddTerm("qty", CompareOp::kLt, Value(static_cast<int64_t>(3)));
  FilterExecutor filter(std::move(scan), pred);
  auto rows = CollectAll(&filter);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // qty 0, 1, 2.
}

TEST_F(ExecutorTest, HashJoinMatchesNestedLoopReference) {
  ASSERT_TRUE(db_->CreateTable(
                      "codes", Schema({{"error_code", TypeId::kString},
                                       {"severity", TypeId::kInt64}}))
                  .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Insert("codes",
                            Tuple({Value(Numbered("E", i)),
                                   Value(static_cast<int64_t>(i % 3))}))
                    .ok());
  }
  Predicate empty;
  HashJoinExecutor join(
      std::make_unique<SeqScanExecutor>(db_.get(), "parts", empty),
      std::make_unique<SeqScanExecutor>(db_.get(), "codes", empty),
      "error_code", "error_code");
  auto rows = CollectAll(&join);
  ASSERT_TRUE(rows.ok()) << rows.status();

  // Reference nested loop.
  size_t expected = 0;
  ASSERT_TRUE(db_->ScanTable("parts", [&](const Rid&, const Tuple& left) {
    db_->ScanTable("codes", [&](const Rid&, const Tuple& right) {
      if (left.value(1) == right.value(0)) ++expected;
      return true;
    }).Abort();
    return true;
  }).ok());
  EXPECT_EQ(rows->size(), expected);
  EXPECT_GT(expected, 0u);
  // Joined schema: parts columns then codes columns with suffix.
  EXPECT_EQ(join.output_schema().num_columns(), 5u);
  EXPECT_TRUE(join.output_schema().HasColumn("error_code_r"));
}

TEST_F(ExecutorTest, HashJoinUnknownKeyFails) {
  Predicate empty;
  HashJoinExecutor join(
      std::make_unique<SeqScanExecutor>(db_.get(), "parts", empty),
      std::make_unique<SeqScanExecutor>(db_.get(), "parts", empty),
      "missing", "part_id");
  EXPECT_TRUE(join.Open().IsKeyError());
}

TEST_F(ExecutorTest, PredicateNullSemantics) {
  ASSERT_TRUE(db_->Insert("parts", Tuple({Value("PX"), Value(), Value()}))
                  .ok());
  Predicate is_null;
  is_null.AddTerm("error_code", CompareOp::kEq, Value());
  SeqScanExecutor scan(db_.get(), "parts", is_null);
  auto rows = CollectAll(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);

  Predicate lt_null;
  lt_null.AddTerm("qty", CompareOp::kLt, Value());
  SeqScanExecutor scan2(db_.get(), "parts", lt_null);
  auto rows2 = CollectAll(&scan2);
  ASSERT_TRUE(rows2.ok());
  EXPECT_EQ(rows2->size(), 0u) << "ordered comparison vs NULL is never true";
}

}  // namespace
}  // namespace qatk::db
