#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>

#include "common/fault.h"
#include "numbered.h"
#include "storage/database.h"
#include "storage/wal.h"

namespace qatk::db {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveDbFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".journal").c_str());
}

// ---------------------------------------------------------------------------
// Crc32 / WalFile
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // Standard test vector: CRC-32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

TEST(WalFileTest, AppendReadRoundTrip) {
  std::string path = TempPath("wal_roundtrip.wal");
  std::remove(path.c_str());
  auto wal = WalFile::Open(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(*(*wal)->Empty());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, "payload-1").ok());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kDelete, "payload-2").ok());
  ASSERT_TRUE(
      (*wal)->Append(WalRecordType::kCreateTable, std::string("\0x\0", 3))
          .ok());
  auto records = (*wal)->ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].type, WalRecordType::kInsert);
  EXPECT_EQ((*records)[0].payload, "payload-1");
  EXPECT_EQ((*records)[2].payload.size(), 3u);
  EXPECT_FALSE(*(*wal)->Empty());
  ASSERT_TRUE((*wal)->Truncate().ok());
  EXPECT_TRUE(*(*wal)->Empty());
  std::remove(path.c_str());
}

TEST(WalFileTest, TornTailIgnored) {
  std::string path = TempPath("wal_torn.wal");
  std::remove(path.c_str());
  {
    auto wal = WalFile::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, "intact").ok());
  }
  // Simulate a crash mid-append: raw garbage after the intact record.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x20\x00\x00\x00partial";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  auto wal = WalFile::Open(path);
  ASSERT_TRUE(wal.ok());
  auto records = (*wal)->ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "intact");
  std::remove(path.c_str());
}

TEST(WalFileTest, CorruptCrcStopsReplay) {
  std::string path = TempPath("wal_crc.wal");
  std::remove(path.c_str());
  {
    auto wal = WalFile::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, "first").ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, "second").ok());
  }
  // Flip one payload byte of the second record.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -3, SEEK_END);  // Inside "second" payload CRC region.
    int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  auto wal = WalFile::Open(path);
  auto records = (*wal)->ReadAll();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u) << "corrupt record and tail must be cut";
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Crash recovery end-to-end
// ---------------------------------------------------------------------------

Schema TestSchema() {
  return Schema({{"k", TypeId::kString}, {"v", TypeId::kInt64}});
}

Tuple Row(const std::string& k, int64_t v) {
  return Tuple({Value(k), Value(v)});
}

std::map<std::string, int64_t> Snapshot(Database* db,
                                        const std::string& table) {
  std::map<std::string, int64_t> rows;
  QATK_CHECK_OK(db->ScanTable(table, [&](const Rid&, const Tuple& t) {
    rows[t.value(0).AsString()] = t.value(1).AsInt64();
    return true;
  }));
  return rows;
}

TEST(CrashRecoveryTest, UncheckpointedInsertsSurviveCrash) {
  std::string path = TempPath("crash_basic.qdb");
  RemoveDbFiles(path);
  {
    auto db = Database::OpenFile(path, 128);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->CreateTable("t", TestSchema()).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*db)->Insert("t", Row(Numbered("k", i), i)).ok());
    }
    // Crash: no Checkpoint; the Database is simply destroyed.
  }
  auto db = Database::OpenFile(path, 128);
  ASSERT_TRUE(db.ok()) << db.status();
  auto rows = Snapshot(db->get(), "t");
  ASSERT_EQ(rows.size(), 50u);
  EXPECT_EQ(rows["k17"], 17);
  RemoveDbFiles(path);
}

TEST(CrashRecoveryTest, NoDuplicatesWhenDirtyPagesWereEvicted) {
  // The critical undo/redo interaction: with a tiny pool, dirty pages are
  // evicted into the base file before the crash. Recovery must first roll
  // those pages back (journal) and then redo the logged inserts — rows
  // must appear exactly once.
  std::string path = TempPath("crash_evict.qdb");
  RemoveDbFiles(path);
  {
    auto db = Database::OpenFile(path, 8);  // Tiny pool forces evictions.
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->CreateTable("t", TestSchema()).ok());
    ASSERT_TRUE((*db)->CreateIndex("t_by_k", "t", {"k"}).ok());
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE((*db)->Insert("t", Row(Numbered("k", i), i)).ok());
    }
    EXPECT_GT((*db)->buffer_pool()->eviction_count(), 0u)
        << "test needs eviction pressure to be meaningful";
    // Crash without checkpoint.
  }
  auto db = Database::OpenFile(path, 64);
  ASSERT_TRUE(db.ok()) << db.status();
  auto rows = Snapshot(db->get(), "t");
  EXPECT_EQ(rows.size(), 400u) << "every insert exactly once";
  EXPECT_EQ(*(*db)->CountRows("t"), 400u);
  // Index consistent too.
  int found = 0;
  ASSERT_TRUE((*db)->ScanIndexEquals("t_by_k", {Value("k123")},
                                     [&](const Rid&) {
                                       ++found;
                                       return true;
                                     })
                  .ok());
  EXPECT_EQ(found, 1);
  RemoveDbFiles(path);
}

TEST(CrashRecoveryTest, OpsAfterCheckpointReplayOnTop) {
  std::string path = TempPath("crash_after_ckpt.qdb");
  RemoveDbFiles(path);
  {
    auto db = Database::OpenFile(path, 64);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable("t", TestSchema()).ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*db)->Insert("t", Row(Numbered("pre", i), i)).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    for (int i = 0; i < 15; ++i) {
      ASSERT_TRUE(
          (*db)->Insert("t", Row(Numbered("post", i), i)).ok());
    }
    // Crash.
  }
  auto db = Database::OpenFile(path, 64);
  ASSERT_TRUE(db.ok()) << db.status();
  auto rows = Snapshot(db->get(), "t");
  EXPECT_EQ(rows.size(), 35u);
  EXPECT_EQ(rows.count("pre3"), 1u);
  EXPECT_EQ(rows.count("post14"), 1u);
  RemoveDbFiles(path);
}

TEST(CrashRecoveryTest, DeletesReplayed) {
  std::string path = TempPath("crash_delete.qdb");
  RemoveDbFiles(path);
  {
    auto db = Database::OpenFile(path, 64);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable("t", TestSchema()).ok());
    std::vector<Rid> rids;
    for (int i = 0; i < 10; ++i) {
      rids.push_back(*(*db)->Insert("t", Row(Numbered("k", i), i)));
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->Delete("t", rids[3]).ok());
    ASSERT_TRUE((*db)->Delete("t", rids[7]).ok());
    // Crash.
  }
  auto db = Database::OpenFile(path, 64);
  ASSERT_TRUE(db.ok()) << db.status();
  auto rows = Snapshot(db->get(), "t");
  EXPECT_EQ(rows.size(), 8u);
  EXPECT_EQ(rows.count("k3"), 0u);
  EXPECT_EQ(rows.count("k7"), 0u);
  RemoveDbFiles(path);
}

TEST(CrashRecoveryTest, DdlReplayed) {
  std::string path = TempPath("crash_ddl.qdb");
  RemoveDbFiles(path);
  {
    auto db = Database::OpenFile(path, 64);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable("t", TestSchema()).ok());
    ASSERT_TRUE((*db)->CreateIndex("idx", "t", {"k"}).ok());
    ASSERT_TRUE((*db)->Insert("t", Row("x", 1)).ok());
    // Crash before any checkpoint records the DDL in the catalog.
  }
  auto db = Database::OpenFile(path, 64);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->ListTables().size(), 1u);
  EXPECT_EQ((*db)->ListIndexes().size(), 1u);
  int found = 0;
  ASSERT_TRUE((*db)->ScanIndexEquals("idx", {Value("x")},
                                     [&](const Rid&) {
                                       ++found;
                                       return true;
                                     })
                  .ok());
  EXPECT_EQ(found, 1);
  RemoveDbFiles(path);
}

TEST(CrashRecoveryTest, CheckpointTruncatesLogs) {
  std::string path = TempPath("crash_trunc.qdb");
  RemoveDbFiles(path);
  auto db = Database::OpenFile(path, 64);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable("t", TestSchema()).ok());
  ASSERT_TRUE((*db)->Insert("t", Row("a", 1)).ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  auto wal = WalFile::Open(path + ".wal");
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(*(*wal)->Empty());
  RemoveDbFiles(path);
}

TEST(CrashRecoveryTest, RepeatedCrashCycles) {
  std::string path = TempPath("crash_cycles.qdb");
  RemoveDbFiles(path);
  size_t expected = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    auto db = Database::OpenFile(path, 16);
    ASSERT_TRUE(db.ok()) << "cycle " << cycle << ": " << db.status();
    if (cycle == 0) {
      ASSERT_TRUE((*db)->CreateTable("t", TestSchema()).ok());
    }
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE((*db)->Insert("t",
                                Row(Numbered("c", cycle) + "_" +
                                        std::to_string(i),
                                    i))
                      .ok());
      ++expected;
    }
    EXPECT_EQ(*(*db)->CountRows("t"), expected);
    // Crash every cycle; each reopen replays and re-checkpoints.
  }
  auto db = Database::OpenFile(path, 64);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(*(*db)->CountRows("t"), expected);
  RemoveDbFiles(path);
}

// ---------------------------------------------------------------------------
// Torn-tail coverage: every record type, every byte offset
// ---------------------------------------------------------------------------

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(WalFileTest, TornTailAtEveryByteOffsetForEveryRecordType) {
  const WalRecordType kAllTypes[] = {
      WalRecordType::kCreateTable, WalRecordType::kCreateIndex,
      WalRecordType::kInsert, WalRecordType::kDelete, WalRecordType::kUpdate,
  };
  for (WalRecordType type : kAllTypes) {
    std::string path = TempPath(
        "wal_torn_all_" +
        std::to_string(static_cast<unsigned>(type)) + ".wal");
    std::remove(path.c_str());
    {
      auto wal = WalFile::Open(path);
      ASSERT_TRUE(wal.ok());
      ASSERT_TRUE((*wal)->Append(WalRecordType::kInsert, "first").ok());
      ASSERT_TRUE((*wal)->Append(WalRecordType::kUpdate, "second").ok());
      ASSERT_TRUE((*wal)->Append(type, "final-record-payload").ok());
    }
    std::string full = SlurpFile(path);
    // Frame layout: [len u32][type u8][payload][crc u32].
    size_t final_frame = 4 + 1 + std::strlen("final-record-payload") + 4;
    ASSERT_GT(full.size(), final_frame);
    size_t prefix = full.size() - final_frame;
    // Cut the log at every byte of the final frame: from "frame entirely
    // gone" up to "one byte short of intact". ReadAll must return exactly
    // the two intact records every time — never an error, never a
    // half-parsed third record.
    for (size_t cut = prefix; cut < full.size(); ++cut) {
      WriteBytes(path, full.substr(0, cut));
      auto wal = WalFile::Open(path);
      ASSERT_TRUE(wal.ok());
      auto records = (*wal)->ReadAll();
      ASSERT_TRUE(records.ok())
          << "type " << static_cast<unsigned>(type) << " cut at " << cut;
      ASSERT_EQ(records->size(), 2u)
          << "type " << static_cast<unsigned>(type) << " cut at " << cut;
      EXPECT_EQ((*records)[0].payload, "first");
      EXPECT_EQ((*records)[1].payload, "second");
    }
    // Sanity: the untruncated log still yields all three.
    WriteBytes(path, full);
    auto wal = WalFile::Open(path);
    ASSERT_TRUE(wal.ok());
    auto records = (*wal)->ReadAll();
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), 3u);
    EXPECT_EQ((*records)[2].type, type);
    std::remove(path.c_str());
  }
}

TEST(CrashRecoveryTest, CrashBetweenWalTruncateAndJournalReset) {
  // Checkpoint() flushes pages, truncates the WAL, then resets the
  // journal. A crash inside that window leaves a dirty journal next to an
  // empty WAL; rolling the journal back there would undo the freshly
  // committed checkpoint with no redo log to rebuild it. Recovery must
  // recognize the state and keep the flushed pages.
  std::string path = TempPath("crash_mid_ckpt.qdb");
  RemoveDbFiles(path);
  FaultInjector fault;
  // journal.begin fires at: initial creation Begin(0), creation-checkpoint
  // Begin, and then the explicit Checkpoint below — countdown 2 crashes
  // the third, after its WAL truncation already happened.
  fault.AddFault({"journal.begin", 2, FaultKind::kCrash, 0.0});
  {
    Database::OpenOptions open;
    open.pool_pages = 8;  // Evictions populate the journal.
    open.fault = &fault;
    auto db = Database::OpenFile(path, open);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->CreateTable("t", TestSchema()).ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*db)->Insert("t", Row(Numbered("k", i), i)).ok());
    }
    Status st = (*db)->Checkpoint();
    ASSERT_FALSE(st.ok()) << "checkpoint must hit the injected crash";
    ASSERT_TRUE(fault.crashed());
  }
  // Confirm the crash really landed inside the window: WAL empty, journal
  // still carrying the pre-checkpoint images.
  {
    std::ifstream wal(path + ".wal", std::ios::binary | std::ios::ate);
    ASSERT_TRUE(wal.good());
    EXPECT_EQ(wal.tellg(), std::streampos(0));
    std::ifstream journal(path + ".journal", std::ios::binary | std::ios::ate);
    ASSERT_TRUE(journal.good());
    EXPECT_GT(journal.tellg(), std::streampos(16));
  }
  auto db = Database::OpenFile(path, 64);
  ASSERT_TRUE(db.ok()) << db.status();
  auto rows = Snapshot(db->get(), "t");
  EXPECT_EQ(rows.size(), 200u) << "mid-checkpoint crash lost committed rows";
  EXPECT_EQ(rows["k123"], 123);
  RemoveDbFiles(path);
}

}  // namespace
}  // namespace qatk::db
