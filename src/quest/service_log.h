#ifndef QATK_QUEST_SERVICE_LOG_H_
#define QATK_QUEST_SERVICE_LOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/framed_log.h"
#include "common/result.h"
#include "kb/data_bundle.h"
#include "kb/knowledge_base.h"

namespace qatk::quest {

/// Logical mutation kinds recorded in the durable service log. Every
/// record is a *logical* mutation (the inputs of a RecommendationService
/// writer call), not a physical state diff: replaying the records through
/// the normal mutation methods rebuilds a bit-identical TrainedState
/// because training, interning, and index freezing are deterministic.
enum class ServiceRecordType : uint8_t {
  /// The full training corpus of a Train/Retrain call.
  kTrainManifest = 1,
  /// One ConfirmAssignment(bundle, error_code) call.
  kConfirmAssignment = 2,
  /// One DefineErrorCode(part_id, code, description) call.
  kDefineErrorCode = 3,
};

const char* ServiceRecordTypeToString(ServiceRecordType type);

/// One decoded service-log record. Which fields are meaningful depends on
/// `type` (see ServiceRecordType); `lsn` is always set.
struct ServiceRecord {
  /// Monotone log sequence number assigned by the service at append time.
  /// The snapshot stores the last lsn it covers, so replay after a crash
  /// in the checkpoint window (snapshot written, log not yet truncated)
  /// skips records the snapshot already contains — replay is idempotent.
  uint64_t lsn = 0;
  ServiceRecordType type = ServiceRecordType::kConfirmAssignment;

  // kTrainManifest
  kb::Corpus corpus;

  // kConfirmAssignment
  kb::DataBundle bundle;
  std::string error_code;
  /// Cluster ordinal assigned by the coordinator (0 when single-node; see
  /// RecommendationService::ConfirmAssignment). Persisted so replay
  /// reproduces the exact cross-shard tie-breaking order.
  uint64_t ordinal = 0;

  // kDefineErrorCode
  std::string part_id;
  std::string code;
  std::string description;
};

/// \brief The durable mutation log of a RecommendationService data dir:
/// a CRC-framed append-only log (shared framing with the storage WAL, see
/// common/framed_log.h) with fsync-backed appends.
///
/// Ack-after-fsync contract: Append* returns OK only after the record is
/// framed, written, flushed, and fsynced — a mutation acknowledged to a
/// client can never be lost by a crash. A failed append leaves the
/// in-memory state untouched (the service logs before publishing), so an
/// unacknowledged mutation can surface after recovery only when the crash
/// hit the fsync itself — the one genuinely indeterminate window, which
/// the torture harness accepts as fully-applied-or-fully-absent.
///
/// Fault-injection points: "service.log.append" (may tear the frame),
/// "service.log.fsync", and "service.log.truncate".
class ServiceLog {
 public:
  static Result<std::unique_ptr<ServiceLog>> Open(const std::string& path);

  ServiceLog(const ServiceLog&) = delete;
  ServiceLog& operator=(const ServiceLog&) = delete;

  Status AppendTrain(uint64_t lsn, const kb::Corpus& corpus);
  Status AppendConfirm(uint64_t lsn, const kb::DataBundle& bundle,
                       const std::string& error_code, uint64_t ordinal);
  Status AppendDefine(uint64_t lsn, const std::string& part_id,
                      const std::string& code, const std::string& description);

  /// Decodes every intact record from the start of the log; stops silently
  /// at the first torn or corrupt frame (crash-tail contract). A record
  /// whose frame is intact but whose payload does not decode is DataLoss —
  /// CRC-valid garbage means a bug, not a crash.
  Result<std::vector<ServiceRecord>> ReadAll();

  /// Empties the log after a successful checkpoint.
  Status Truncate();

  Result<bool> Empty();

  void set_fault_injector(FaultInjector* fault) {
    log_->set_fault_injector(fault);
  }

  const std::string& path() const { return log_->path(); }

 private:
  explicit ServiceLog(std::unique_ptr<FramedLog> log) : log_(std::move(log)) {}

  std::unique_ptr<FramedLog> log_;
};

/// \brief Snapshot of one trained service state, serialized at checkpoint
/// time. Everything needed to rebuild a bit-identical TrainedState:
/// knowledge nodes in append order (the frozen index is a pure function of
/// the knowledge base, and the concept trie of the taxonomy; both are
/// rebuilt at load), the frequency table, both description catalogs, and
/// the manually defined codes.
/// The payload keeps a u32 vocabulary count after `trained`, always written
/// as 0: bag-of-concepts interns no word. A non-zero count marks a
/// word-model snapshot, which ReadSnapshot refuses.
struct ServiceSnapshot {
  /// Last log sequence number folded into this snapshot; replay skips
  /// records at or below it.
  uint64_t last_lsn = 0;
  /// Whether the service had been trained (DefineErrorCode mutations can
  /// exist before training, so an untrained snapshot is meaningful).
  bool trained = false;
  std::vector<kb::KnowledgeNode> nodes;
  std::map<std::string, std::map<std::string, uint64_t>> frequency;
  std::map<std::string, std::string> part_descriptions;
  std::map<std::string, std::string> error_descriptions;
  std::map<std::string, std::vector<std::string>> manual_codes;
  /// Cluster merge ordinals, parallel to `nodes` (empty when the state
  /// was never shard-scoped and never confirmed with explicit ordinals).
  std::vector<uint64_t> node_ordinals;
  /// One past the highest ordinal consumed so far.
  uint64_t ordinal_high = 0;
};

/// Writes `snapshot` atomically: serialized (magic + CRC32 over the whole
/// payload) into `path + ".tmp"`, fsynced, then renamed over `path` and
/// the directory fsynced — a crash leaves either the old snapshot or the
/// new one, never a torn mix. Observes fault point
/// "service.snapshot.write" (torn faults persist a prefix of the tmp file,
/// which the reader ignores).
Status WriteSnapshot(const std::string& path, const ServiceSnapshot& snapshot,
                     FaultInjector* fault);

/// Reads and verifies a snapshot. KeyError when no snapshot exists (a
/// fresh data dir); DataLoss when the file exists but fails its checksum
/// or does not decode; Invalid when it holds a word-model vocabulary.
Result<ServiceSnapshot> ReadSnapshot(const std::string& path);

/// Canonical file layout of a service data dir.
std::string ServiceLogPath(const std::string& data_dir);
std::string ServiceSnapshotPath(const std::string& data_dir);

/// Creates `data_dir` if missing (one level; the parent must exist).
Status EnsureDataDir(const std::string& data_dir);

}  // namespace qatk::quest

#endif  // QATK_QUEST_SERVICE_LOG_H_
