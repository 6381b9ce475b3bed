// Durability contract of RecommendationService::Open (DESIGN.md §13):
// ack-after-fsync logging, snapshot + replay recovery, idempotent replay
// in the checkpoint window, crash-tail tolerance for every service-log
// record type, the snapshot format, and the seeded service-level crash
// torture.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/logging.h"
#include "quest/recommendation_service.h"
#include "quest/service_log.h"
#include "quest/service_torture.h"
#include "taxonomy/taxonomy.h"

namespace qatk::quest {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WipeDataDir(const std::string& data_dir) {
  std::remove(ServiceLogPath(data_dir).c_str());
  std::remove(ServiceSnapshotPath(data_dir).c_str());
  std::remove((ServiceSnapshotPath(data_dir) + ".tmp").c_str());
}

/// A small taxonomy over SmallCorpus's words. Its multiword synonyms
/// ("brake disc", "worn out") also get expansion variants.
const tax::Taxonomy* TestTaxonomy() {
  static const tax::Taxonomy taxonomy = [] {
    const std::vector<std::pair<tax::Category, std::vector<std::string>>>
        concepts = {
            {tax::Category::kComponent, {"disc", "brake disc", "rotor"}},
            {tax::Category::kComponent, {"lock", "door lock"}},
            {tax::Category::kComponent, {"actuator"}},
            {tax::Category::kComponent, {"sensor"}},
            {tax::Category::kSymptom, {"wear", "worn", "scored", "worn out"}},
            {tax::Category::kSymptom, {"crack", "hairline crack"}},
            {tax::Category::kSymptom, {"drift", "drifts", "drifting"}},
            {tax::Category::kLocation, {"surface", "braking surface", "rim"}},
            {tax::Category::kSymptom, {"cold"}},
        };
    tax::Taxonomy built;
    int64_t id = 1;
    for (const auto& [category, synonyms] : concepts) {
      tax::Concept cpt;
      cpt.id = id++;
      cpt.category = category;
      cpt.label = synonyms[0];
      cpt.synonyms[text::Language::kEnglish] = synonyms;
      QATK_CHECK_OK(built.Add(std::move(cpt)));
    }
    return built;
  }();
  return &taxonomy;
}

RecommendationService::Options ServiceOptions(FaultInjector* fault) {
  RecommendationService::Options options;
  options.fault = fault;
  return options;
}

Result<std::unique_ptr<RecommendationService>> OpenService(
    const std::string& data_dir, FaultInjector* fault = nullptr) {
  return RecommendationService::Open(TestTaxonomy(), ServiceOptions(fault),
                                     data_dir);
}

kb::DataBundle Bundle(const std::string& part, const std::string& code,
                      const std::string& mechanic,
                      const std::string& supplier) {
  kb::DataBundle bundle;
  bundle.reference_number = "ref-" + mechanic.substr(0, 4);
  bundle.article_code = "art-9";
  bundle.part_id = part;
  bundle.error_code = code;
  bundle.responsibility_code = "r1";
  bundle.mechanic_report = mechanic;
  bundle.supplier_report = supplier;
  bundle.final_oem_report = "final " + mechanic;
  return bundle;
}

kb::Corpus SmallCorpus() {
  kb::Corpus corpus;
  corpus.part_descriptions["P1"] = "front brake disc";
  corpus.part_descriptions["P2"] = "door lock actuator";
  corpus.error_descriptions["E1"] = "surface worn beyond limit";
  corpus.error_descriptions["E2"] = "hairline crack detected";
  corpus.error_descriptions["E3"] = "sensor reading drifts";
  corpus.bundles.push_back(
      Bundle("P1", "E1", "disc surface scored and worn", "wear confirmed"));
  corpus.bundles.push_back(
      Bundle("P1", "E1", "heavy wear on braking surface", "worn out"));
  corpus.bundles.push_back(
      Bundle("P1", "E2", "crack across the disc rim", "crack confirmed"));
  corpus.bundles.push_back(
      Bundle("P2", "E3", "lock sensor reports drift", "drift measured"));
  corpus.bundles.push_back(
      Bundle("P2", "E3", "actuator sensor drifting cold", "sensor drift"));
  return corpus;
}

void AppendDoubleBits(std::string* out, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  out->append(buf);
}

/// Compact behavioural fingerprint (generation excluded); equal strings
/// mean the two services serve identically. Mirrors the richer one inside
/// service_torture.cc.
std::string Fingerprint(const RecommendationService& service) {
  auto state = service.Snapshot();
  std::string fp = service.trained() ? "T\n" : "U\n";
  for (const kb::KnowledgeNode* node : state->knowledge.AllNodes()) {
    fp += node->part_id + "|" + node->error_code + "|";
    for (int64_t f : node->features) fp += std::to_string(f) + ",";
    fp += "|" + std::to_string(node->instance_count) + "\n";
  }
  for (const auto& [part, codes] : state->frequency.counts()) {
    (void)codes;
    fp += part + ":";
    for (const core::ScoredCode& scored : service.FullListForPart(part)) {
      fp += scored.error_code + "=";
      AppendDoubleBits(&fp, scored.score);
      fp += ",";
    }
    fp += "\n";
    if (service.trained()) {
      Result<RecommendationService::Recommendation> rec =
          service.RecommendForText(part, "worn crack sensor drift surface");
      if (rec.ok()) {
        for (const core::ScoredCode& scored : rec.ValueOrDie().top) {
          fp += scored.error_code + "=";
          AppendDoubleBits(&fp, scored.score);
          fp += ",";
        }
      } else {
        fp += "<" + rec.status().ToString() + ">";
      }
      fp += "\n";
    }
  }
  for (const auto& [key, value] :
       state->compose_context.error_descriptions()) {
    fp += key + "=" + value + ";";
  }
  for (const auto& [part, codes] : state->manual_codes) {
    fp += part + "->";
    for (const std::string& code : codes) fp += code + ",";
  }
  return fp;
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Recovery round trips
// ---------------------------------------------------------------------------

TEST(ServiceDurabilityTest, MutationsSurviveReopen) {
  const std::string dir = TempPath("svc_roundtrip");
  WipeDataDir(dir);
  {
    auto service = OpenService(dir);
    ASSERT_TRUE(service.ok()) << service.status();
    RecommendationService* svc = service.ValueOrDie().get();
    ASSERT_TRUE(svc->Train(SmallCorpus()).ok());
    ASSERT_TRUE(
        svc->ConfirmAssignment(
               Bundle("P1", "", "fresh crack on disc", "crack seen"), "E2")
            .ok());
    ASSERT_TRUE(
        svc->DefineErrorCode("P2", "E9", "new actuator failure mode").ok());
    EXPECT_EQ(svc->durability().last_lsn, 3u);
    // Destroyed without Checkpoint: recovery must come from the log alone.
  }
  auto reopened = OpenService(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  RecommendationService* svc = reopened.ValueOrDie().get();
  EXPECT_TRUE(svc->trained());
  const RecommendationService::DurabilityStats stats = svc->durability();
  EXPECT_TRUE(stats.durable);
  EXPECT_FALSE(stats.recovered_snapshot);
  EXPECT_EQ(stats.replayed_records, 3u);
  EXPECT_EQ(stats.last_lsn, 3u);

  // Bit-identical to an uncrashed ephemeral service with the same history.
  RecommendationService reference(TestTaxonomy(), ServiceOptions(nullptr));
  ASSERT_TRUE(reference.Train(SmallCorpus()).ok());
  ASSERT_TRUE(reference
                  .ConfirmAssignment(
                      Bundle("P1", "", "fresh crack on disc", "crack seen"),
                      "E2")
                  .ok());
  ASSERT_TRUE(
      reference.DefineErrorCode("P2", "E9", "new actuator failure mode").ok());
  EXPECT_EQ(Fingerprint(*svc), Fingerprint(reference));
  auto described = svc->DescribeCode("E9");
  ASSERT_TRUE(described.ok());
  EXPECT_EQ(described.ValueOrDie(), "new actuator failure mode");
  WipeDataDir(dir);
}

TEST(ServiceDurabilityTest, CheckpointShortcutsReplay) {
  const std::string dir = TempPath("svc_ckpt");
  WipeDataDir(dir);
  std::string want;
  {
    auto service = OpenService(dir);
    ASSERT_TRUE(service.ok()) << service.status();
    RecommendationService* svc = service.ValueOrDie().get();
    ASSERT_TRUE(svc->Train(SmallCorpus()).ok());
    ASSERT_TRUE(svc->DefineErrorCode("P1", "E8", "rotor imbalance").ok());
    ASSERT_TRUE(svc->Checkpoint().ok());
    want = Fingerprint(*svc);
  }
  {
    auto log = ServiceLog::Open(ServiceLogPath(dir));
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE(*log.ValueOrDie()->Empty()) << "checkpoint must truncate";
  }
  auto reopened = OpenService(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const RecommendationService::DurabilityStats stats =
      reopened.ValueOrDie()->durability();
  EXPECT_TRUE(stats.recovered_snapshot);
  EXPECT_EQ(stats.replayed_records, 0u);
  EXPECT_EQ(stats.last_lsn, 2u);
  EXPECT_EQ(Fingerprint(*reopened.ValueOrDie()), want);
  WipeDataDir(dir);
}

TEST(ServiceDurabilityTest, CheckpointOnEphemeralServiceIsInvalid) {
  RecommendationService service(TestTaxonomy(), ServiceOptions(nullptr));
  EXPECT_FALSE(service.durable());
  EXPECT_TRUE(service.Checkpoint().IsInvalid());
}

// Crash between the snapshot rename and the log truncate: the log still
// holds records the snapshot already covers. Replay must skip them by lsn
// — and a second reopen (double replay) must change nothing.
TEST(ServiceDurabilityTest, CheckpointWindowCrashReplaysIdempotently) {
  const std::string dir = TempPath("svc_ckpt_window");
  WipeDataDir(dir);
  std::string want;
  FaultInjector fault;
  fault.AddFault({"service.log.truncate", 0, FaultKind::kCrash, 0.0});
  {
    auto service = OpenService(dir, &fault);
    ASSERT_TRUE(service.ok()) << service.status();
    RecommendationService* svc = service.ValueOrDie().get();
    ASSERT_TRUE(svc->Train(SmallCorpus()).ok());
    ASSERT_TRUE(
        svc->ConfirmAssignment(
               Bundle("P2", "", "drift worse when cold", "confirmed"), "E3")
            .ok());
    want = Fingerprint(*svc);
    Status ckpt = svc->Checkpoint();
    ASSERT_FALSE(ckpt.ok()) << "truncate crash must surface";
    ASSERT_TRUE(fault.crashed());
  }
  // The snapshot landed; the log was never truncated.
  {
    auto log = ServiceLog::Open(ServiceLogPath(dir));
    ASSERT_TRUE(log.ok());
    EXPECT_FALSE(*log.ValueOrDie()->Empty());
  }
  for (int reopen = 0; reopen < 2; ++reopen) {
    auto recovered = OpenService(dir);
    ASSERT_TRUE(recovered.ok()) << "reopen " << reopen << ": "
                                << recovered.status();
    const RecommendationService::DurabilityStats stats =
        recovered.ValueOrDie()->durability();
    EXPECT_TRUE(stats.recovered_snapshot);
    EXPECT_EQ(stats.replayed_records, 0u)
        << "snapshot-covered records must be skipped by lsn";
    EXPECT_EQ(stats.last_lsn, 2u);
    EXPECT_EQ(Fingerprint(*recovered.ValueOrDie()), want)
        << "reopen " << reopen;
  }
  WipeDataDir(dir);
}

TEST(ServiceDurabilityTest, TransientFsyncFailureLeavesNoTrace) {
  const std::string dir = TempPath("svc_fsync_fail");
  WipeDataDir(dir);
  FaultInjector fault;
  fault.AddFault({"service.log.fsync", 0, FaultKind::kTransient, 0.0});
  {
    auto service = OpenService(dir, &fault);
    ASSERT_TRUE(service.ok()) << service.status();
    RecommendationService* svc = service.ValueOrDie().get();
    Status first = svc->Train(SmallCorpus());
    ASSERT_TRUE(first.IsUnavailable()) << first;
    EXPECT_FALSE(svc->trained()) << "failed append must not publish";
    EXPECT_EQ(svc->durability().last_lsn, 0u);
    // The injector consumed its one fault; the retry goes through.
    ASSERT_TRUE(svc->Train(SmallCorpus()).ok());
    EXPECT_EQ(svc->durability().last_lsn, 1u);
  }
  auto reopened = OpenService(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.ValueOrDie()->durability().replayed_records, 1u)
      << "the un-acked first attempt must have been rolled back";
  EXPECT_TRUE(reopened.ValueOrDie()->trained());
  WipeDataDir(dir);
}

TEST(ServiceDurabilityTest, CorruptSnapshotIsDataLoss) {
  const std::string dir = TempPath("svc_snap_corrupt");
  WipeDataDir(dir);
  {
    auto service = OpenService(dir);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE(service.ValueOrDie()->Train(SmallCorpus()).ok());
    ASSERT_TRUE(service.ValueOrDie()->Checkpoint().ok());
  }
  // Flip one byte in the snapshot payload.
  const std::string snap_path = ServiceSnapshotPath(dir);
  std::string bytes = SlurpFile(snap_path);
  ASSERT_GT(bytes.size(), 32u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  WriteBytes(snap_path, bytes);
  auto snapshot = ReadSnapshot(snap_path);
  EXPECT_TRUE(snapshot.status().IsDataLoss()) << snapshot.status();
  auto reopened = OpenService(dir);
  EXPECT_TRUE(reopened.status().IsDataLoss())
      << "a corrupt snapshot must fail loudly, not silently retrain";
  WipeDataDir(dir);
}

TEST(ServiceDurabilityTest, MissingSnapshotIsKeyError) {
  EXPECT_TRUE(
      ReadSnapshot(TempPath("svc_no_such_snapshot")).status().IsKeyError());
}

// ---------------------------------------------------------------------------
// Snapshot format
// ---------------------------------------------------------------------------

/// The history every format test checkpoints: a train, a confirm and a
/// define.
void ApplyFormatHistory(RecommendationService* service) {
  ASSERT_TRUE(service->Train(SmallCorpus()).ok());
  ASSERT_TRUE(service
                  ->ConfirmAssignment(
                      Bundle("P1", "", "fresh crack on disc", "crack seen"),
                      "E2")
                  .ok());
  ASSERT_TRUE(
      service->DefineErrorCode("P2", "E9", "new actuator failure mode").ok());
}

/// service.snapshot after ApplyFormatHistory and a Checkpoint, as written
/// by commit dc7774d, whose service still carried a word vocabulary (empty
/// for bag-of-concepts) in every state.
constexpr char kGoldenSnapshotHex[] =
    "71736e70310a9066920f0300000000000000010000000005000000020000005031020000"
    "004531030000000100000000000000050000000000000008000000000000000200000000"
    "000000020000005031020000004532030000000100000000000000060000000000000008"
    "000000000000000100000000000000020000005032020000004533040000000200000000"
    "000000030000000000000004000000000000000700000000000000010000000000000002"
    "000000503202000000453305000000020000000000000003000000000000000400000000"
    "000000070000000000000009000000000000000100000000000000020000005031020000"
    "004532020000000100000000000000060000000000000001000000000000000200000002"
    "000000503102000000020000004531020000000000000002000000453202000000000000"
    "000200000050320100000002000000453302000000000000000200000002000000503110"
    "00000066726f6e74206272616b65206469736302000000503212000000646f6f72206c6f"
    "636b206163747561746f7204000000020000004531190000007375726661636520776f72"
    "6e206265796f6e64206c696d697402000000453217000000686169726c696e6520637261"
    "636b2064657465637465640200000045331500000073656e736f722072656164696e6720"
    "647269667473020000004539190000006e6577206163747561746f72206661696c757265"
    "206d6f646501000000020000005032010000000200000045390500000000000000000000"
    "000200000000000000030000000000000004000000000000000500000000000000060000"
    "0000000000";

std::string FromHex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

std::string ToHex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xF]);
  }
  return hex;
}

/// Snapshot file layout: magic, CRC-32 of the payload (u32 LE), payload.
/// The payload opens with last_lsn (u64), trained (u8) and the vocabulary
/// count (u32).
constexpr size_t kMagicLen = 6;
constexpr size_t kVocabularyCountAt = kMagicLen + 4 + 8 + 1;

void AppendU32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

/// `snapshot` with `words` spliced in as its vocabulary (ids in order)
/// and the checksum recomputed: a word-model snapshot.
std::string WithVocabulary(const std::string& snapshot,
                           const std::vector<std::string>& words) {
  std::string entries;
  AppendU32(&entries, static_cast<uint32_t>(words.size()));
  for (size_t id = 0; id < words.size(); ++id) {
    AppendU32(&entries, static_cast<uint32_t>(words[id].size()));
    entries += words[id];
    AppendU32(&entries, static_cast<uint32_t>(id));  // u64 id, low half.
    AppendU32(&entries, 0);
  }
  std::string payload = snapshot.substr(kMagicLen + 4);
  payload.replace(kVocabularyCountAt - kMagicLen - 4, 4, entries);
  std::string blob = snapshot.substr(0, kMagicLen);
  AppendU32(&blob, Crc32(payload));
  return blob + payload;
}

// The writer's bytes equal the golden ones: the vocabulary count stays in
// the format, written as 0.
TEST(SnapshotFormatTest, WriterMatchesGoldenBytes) {
  const std::string dir = TempPath("svc_format_write");
  WipeDataDir(dir);
  {
    auto service = OpenService(dir);
    ASSERT_TRUE(service.ok()) << service.status();
    ApplyFormatHistory(service.ValueOrDie().get());
    ASSERT_TRUE(service.ValueOrDie()->Checkpoint().ok());
  }
  EXPECT_EQ(ToHex(SlurpFile(ServiceSnapshotPath(dir))), kGoldenSnapshotHex);
  WipeDataDir(dir);
}

// A snapshot in the golden format opens and serves exactly like a service
// that ran the same history.
TEST(SnapshotFormatTest, GoldenSnapshotOpensAndFingerprintsIdentically) {
  const std::string dir = TempPath("svc_format_open");
  WipeDataDir(dir);
  ASSERT_TRUE(EnsureDataDir(dir).ok());
  WriteBytes(ServiceSnapshotPath(dir), FromHex(kGoldenSnapshotHex));
  auto opened = OpenService(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const RecommendationService::DurabilityStats stats =
      opened.ValueOrDie()->durability();
  EXPECT_TRUE(stats.recovered_snapshot);
  EXPECT_EQ(stats.replayed_records, 0u);
  EXPECT_EQ(stats.last_lsn, 3u);

  RecommendationService reference(TestTaxonomy(), ServiceOptions(nullptr));
  ApplyFormatHistory(&reference);
  EXPECT_EQ(Fingerprint(*opened.ValueOrDie()), Fingerprint(reference));
  WipeDataDir(dir);
}

// A word-model snapshot (non-empty vocabulary) is refused by name, never
// opened with its vocabulary skipped.
TEST(SnapshotFormatTest, WordModelVocabularyFailsOpen) {
  const std::string dir = TempPath("svc_format_vocab");
  WipeDataDir(dir);
  ASSERT_TRUE(EnsureDataDir(dir).ok());
  WriteBytes(ServiceSnapshotPath(dir),
             WithVocabulary(FromHex(kGoldenSnapshotHex), {"disc", "crack"}));
  auto snapshot = ReadSnapshot(ServiceSnapshotPath(dir));
  EXPECT_TRUE(snapshot.status().IsInvalid()) << snapshot.status();
  auto opened = OpenService(dir);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalid()) << opened.status();
  EXPECT_NE(opened.status().message().find("word-model vocabulary of 2"),
            std::string::npos)
      << opened.status();
  WipeDataDir(dir);
}

// ---------------------------------------------------------------------------
// Crash-tail contract, per record type (mirrors storage_wal_test.cc)
// ---------------------------------------------------------------------------

Status AppendRecordOfType(ServiceLog* log, ServiceRecordType type,
                          uint64_t lsn) {
  switch (type) {
    case ServiceRecordType::kTrainManifest:
      return log->AppendTrain(lsn, SmallCorpus());
    case ServiceRecordType::kConfirmAssignment:
      return log->AppendConfirm(
          lsn, Bundle("P1", "", "torn tail probe", "probe"), "E1",
          /*ordinal=*/7);
    case ServiceRecordType::kDefineErrorCode:
      return log->AppendDefine(lsn, "P1", "E7", "torn tail code");
  }
  return Status::Internal("unreachable");
}

TEST(ServiceLogTest, TornTailAtEveryByteOffsetForEveryRecordType) {
  const ServiceRecordType kAllTypes[] = {
      ServiceRecordType::kTrainManifest,
      ServiceRecordType::kConfirmAssignment,
      ServiceRecordType::kDefineErrorCode,
  };
  for (ServiceRecordType type : kAllTypes) {
    const std::string path =
        TempPath("svc_log_torn_" +
                 std::to_string(static_cast<unsigned>(type)) + ".log");
    std::remove(path.c_str());
    {
      auto log = ServiceLog::Open(path);
      ASSERT_TRUE(log.ok());
      ASSERT_TRUE(log.ValueOrDie()->AppendDefine(1, "P1", "E5", "first").ok());
      ASSERT_TRUE(
          log.ValueOrDie()
              ->AppendConfirm(2, Bundle("P2", "", "second rec", "sup"), "E3",
                              /*ordinal=*/9)
              .ok());
    }
    const std::string prefix = SlurpFile(path);
    {
      auto log = ServiceLog::Open(path);
      ASSERT_TRUE(log.ok());
      ASSERT_TRUE(AppendRecordOfType(log.ValueOrDie().get(), type, 3).ok());
    }
    const std::string full = SlurpFile(path);
    ASSERT_GT(full.size(), prefix.size());
    // Cut the final frame at every byte: ReadAll must always return exactly
    // the two intact records — never an error, never a partial third.
    for (size_t cut = prefix.size(); cut < full.size(); ++cut) {
      WriteBytes(path, full.substr(0, cut));
      auto log = ServiceLog::Open(path);
      ASSERT_TRUE(log.ok());
      auto records = log.ValueOrDie()->ReadAll();
      ASSERT_TRUE(records.ok())
          << ServiceRecordTypeToString(type) << " cut at " << cut << ": "
          << records.status();
      ASSERT_EQ(records.ValueOrDie().size(), 2u)
          << ServiceRecordTypeToString(type) << " cut at " << cut;
      EXPECT_EQ(records.ValueOrDie()[0].lsn, 1u);
      EXPECT_EQ(records.ValueOrDie()[1].lsn, 2u);
    }
    // Sanity: untruncated, all three decode.
    WriteBytes(path, full);
    auto log = ServiceLog::Open(path);
    ASSERT_TRUE(log.ok());
    auto records = log.ValueOrDie()->ReadAll();
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records.ValueOrDie().size(), 3u);
    EXPECT_EQ(records.ValueOrDie()[2].type, type);
    EXPECT_EQ(records.ValueOrDie()[2].lsn, 3u);
    std::remove(path.c_str());
  }
}

TEST(ServiceLogTest, CorruptCrcCutsTailForEveryRecordType) {
  const ServiceRecordType kAllTypes[] = {
      ServiceRecordType::kTrainManifest,
      ServiceRecordType::kConfirmAssignment,
      ServiceRecordType::kDefineErrorCode,
  };
  for (ServiceRecordType type : kAllTypes) {
    const std::string path =
        TempPath("svc_log_crc_" +
                 std::to_string(static_cast<unsigned>(type)) + ".log");
    std::remove(path.c_str());
    {
      auto log = ServiceLog::Open(path);
      ASSERT_TRUE(log.ok());
      ASSERT_TRUE(log.ValueOrDie()->AppendDefine(1, "P3", "E4", "keep").ok());
      ASSERT_TRUE(AppendRecordOfType(log.ValueOrDie().get(), type, 2).ok());
    }
    // Flip a byte inside the final record's payload region.
    std::string bytes = SlurpFile(path);
    ASSERT_GT(bytes.size(), 16u);
    const size_t victim = bytes.size() - 12;  // Payload, before the CRC.
    bytes[victim] = static_cast<char>(bytes[victim] ^ 0xFF);
    WriteBytes(path, bytes);
    auto log = ServiceLog::Open(path);
    ASSERT_TRUE(log.ok());
    auto records = log.ValueOrDie()->ReadAll();
    ASSERT_TRUE(records.ok()) << ServiceRecordTypeToString(type);
    ASSERT_EQ(records.ValueOrDie().size(), 1u)
        << ServiceRecordTypeToString(type)
        << ": corrupt record and tail must be cut";
    EXPECT_EQ(records.ValueOrDie()[0].lsn, 1u);
    std::remove(path.c_str());
  }
}

TEST(ServiceLogTest, RecordsRoundTripAllFields) {
  const std::string path = TempPath("svc_log_roundtrip.log");
  std::remove(path.c_str());
  auto log = ServiceLog::Open(path);
  ASSERT_TRUE(log.ok());
  kb::Corpus corpus = SmallCorpus();
  ASSERT_TRUE(log.ValueOrDie()->AppendTrain(1, corpus).ok());
  kb::DataBundle bundle =
      Bundle("P2", "", "exact field check", "supplier text");
  bundle.initial_oem_report = "initial text";
  ASSERT_TRUE(
      log.ValueOrDie()->AppendConfirm(2, bundle, "E2", /*ordinal=*/41).ok());
  ASSERT_TRUE(log.ValueOrDie()->AppendDefine(3, "P9", "E42", "described").ok());
  auto records = log.ValueOrDie()->ReadAll();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.ValueOrDie().size(), 3u);
  const ServiceRecord& train = records.ValueOrDie()[0];
  EXPECT_EQ(train.type, ServiceRecordType::kTrainManifest);
  EXPECT_EQ(train.corpus.bundles.size(), corpus.bundles.size());
  EXPECT_EQ(train.corpus.part_descriptions, corpus.part_descriptions);
  EXPECT_EQ(train.corpus.error_descriptions, corpus.error_descriptions);
  EXPECT_EQ(train.corpus.bundles[0].mechanic_report,
            corpus.bundles[0].mechanic_report);
  const ServiceRecord& confirm = records.ValueOrDie()[1];
  EXPECT_EQ(confirm.type, ServiceRecordType::kConfirmAssignment);
  EXPECT_EQ(confirm.lsn, 2u);
  EXPECT_EQ(confirm.error_code, "E2");
  EXPECT_EQ(confirm.ordinal, 41u);
  EXPECT_EQ(confirm.bundle.part_id, "P2");
  EXPECT_EQ(confirm.bundle.initial_oem_report, "initial text");
  EXPECT_EQ(confirm.bundle.supplier_report, "supplier text");
  const ServiceRecord& define = records.ValueOrDie()[2];
  EXPECT_EQ(define.type, ServiceRecordType::kDefineErrorCode);
  EXPECT_EQ(define.part_id, "P9");
  EXPECT_EQ(define.code, "E42");
  EXPECT_EQ(define.description, "described");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Seeded service-level crash torture
// ---------------------------------------------------------------------------

TEST(ServiceCrashTortureTest, SeededSchedules) {
  // The full 1000-schedule sweep runs in scripts/check.sh's durability
  // stage under ASan+UBSan (via bench_crash_recovery); tier-1 keeps a
  // fast-but-meaningful slice.
  const uint64_t kSchedules = 250;
  ServiceTortureOptions options;
  options.data_dir = TempPath("svc_torture");
  uint64_t crashed = 0;
  uint64_t replayed = 0;
  for (uint64_t seed = 1; seed <= kSchedules; ++seed) {
    options.seed = seed;
    ServiceTortureReport report = RunServiceCrashSchedule(options);
    ASSERT_TRUE(report.ok)
        << "seed " << seed << ": " << report.detail << "\nschedule:\n"
        << report.schedule;
    if (report.crashed) ++crashed;
    replayed += report.replayed_records;
  }
  EXPECT_GT(crashed, kSchedules / 4)
      << "most schedules should genuinely crash mid-workload";
  EXPECT_GT(replayed, 0u) << "recovery must actually replay records";
  WipeDataDir(options.data_dir);
}

}  // namespace
}  // namespace qatk::quest
