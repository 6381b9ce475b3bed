#include "quest/service_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32.h"
#include "common/logging.h"

namespace qatk::quest {

namespace {

constexpr char kSnapshotMagic[] = "qsnp1\n";
constexpr size_t kSnapshotMagicLen = 6;

// ---------------------------------------------------------------------------
// Binary codec: little-endian fixed-width integers, length-prefixed strings.
// ---------------------------------------------------------------------------

void AppendU32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void AppendStr(std::string* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Cursor over a decoded payload; any out-of-bounds read latches `ok` false
/// and every subsequent read returns a zero value, so decoders can run
/// straight-line and check once at the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

  uint32_t ReadU32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(
               static_cast<unsigned char>(data_[pos_ + static_cast<size_t>(i)]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  uint64_t ReadU64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(
               static_cast<unsigned char>(data_[pos_ + static_cast<size_t>(i)]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  uint8_t ReadU8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(static_cast<unsigned char>(data_[pos_++]));
  }

  std::string ReadStr() {
    uint32_t len = ReadU32();
    if (!Need(len)) return std::string();
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Bundle fields serialize in declaration order (data_bundle.h).

void AppendBundle(std::string* out, const kb::DataBundle& bundle) {
  AppendStr(out, bundle.reference_number);
  AppendStr(out, bundle.article_code);
  AppendStr(out, bundle.part_id);
  AppendStr(out, bundle.error_code);
  AppendStr(out, bundle.responsibility_code);
  AppendStr(out, bundle.mechanic_report);
  AppendStr(out, bundle.initial_oem_report);
  AppendStr(out, bundle.supplier_report);
  AppendStr(out, bundle.final_oem_report);
}

kb::DataBundle ReadBundle(ByteReader* in) {
  kb::DataBundle bundle;
  bundle.reference_number = in->ReadStr();
  bundle.article_code = in->ReadStr();
  bundle.part_id = in->ReadStr();
  bundle.error_code = in->ReadStr();
  bundle.responsibility_code = in->ReadStr();
  bundle.mechanic_report = in->ReadStr();
  bundle.initial_oem_report = in->ReadStr();
  bundle.supplier_report = in->ReadStr();
  bundle.final_oem_report = in->ReadStr();
  return bundle;
}

void AppendStrMap(std::string* out,
                  const std::map<std::string, std::string>& map) {
  AppendU32(out, static_cast<uint32_t>(map.size()));
  for (const auto& [key, value] : map) {
    AppendStr(out, key);
    AppendStr(out, value);
  }
}

std::map<std::string, std::string> ReadStrMap(ByteReader* in) {
  std::map<std::string, std::string> map;
  uint32_t count = in->ReadU32();
  for (uint32_t i = 0; i < count && in->ok(); ++i) {
    std::string key = in->ReadStr();
    std::string value = in->ReadStr();
    map.emplace(std::move(key), std::move(value));
  }
  return map;
}

void AppendCorpus(std::string* out, const kb::Corpus& corpus) {
  AppendU32(out, static_cast<uint32_t>(corpus.bundles.size()));
  for (const kb::DataBundle& bundle : corpus.bundles) {
    AppendBundle(out, bundle);
  }
  AppendStrMap(out, corpus.part_descriptions);
  AppendStrMap(out, corpus.error_descriptions);
}

kb::Corpus ReadCorpus(ByteReader* in) {
  kb::Corpus corpus;
  uint32_t count = in->ReadU32();
  corpus.bundles.reserve(in->ok() ? count : 0);
  for (uint32_t i = 0; i < count && in->ok(); ++i) {
    corpus.bundles.push_back(ReadBundle(in));
  }
  corpus.part_descriptions = ReadStrMap(in);
  corpus.error_descriptions = ReadStrMap(in);
  return corpus;
}

Status DecodeError(uint64_t lsn, const char* what) {
  return Status::DataLoss("service log record lsn=" + std::to_string(lsn) +
                          ": " + what);
}

/// fsyncs the directory containing `path` so a just-renamed file is durable.
Status SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open directory '" + dir + "' for fsync");
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync failed on directory '" + dir + "'");
  }
  return Status::OK();
}

}  // namespace

const char* ServiceRecordTypeToString(ServiceRecordType type) {
  switch (type) {
    case ServiceRecordType::kTrainManifest:
      return "train_manifest";
    case ServiceRecordType::kConfirmAssignment:
      return "confirm_assignment";
    case ServiceRecordType::kDefineErrorCode:
      return "define_error_code";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ServiceLog
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ServiceLog>> ServiceLog::Open(const std::string& path) {
  FramedLog::Options options;
  options.append_op = "service.log.append";
  options.truncate_op = "service.log.truncate";
  options.fsync_op = "service.log.fsync";
  options.sync_appends = true;
  QATK_ASSIGN_OR_RETURN(std::unique_ptr<FramedLog> log,
                        FramedLog::Open(path, std::move(options)));
  return std::unique_ptr<ServiceLog>(new ServiceLog(std::move(log)));
}

Status ServiceLog::AppendTrain(uint64_t lsn, const kb::Corpus& corpus) {
  std::string payload;
  AppendU64(&payload, lsn);
  AppendCorpus(&payload, corpus);
  return log_->Append(static_cast<uint8_t>(ServiceRecordType::kTrainManifest),
                      payload);
}

Status ServiceLog::AppendConfirm(uint64_t lsn, const kb::DataBundle& bundle,
                                 const std::string& error_code,
                                 uint64_t ordinal) {
  std::string payload;
  AppendU64(&payload, lsn);
  AppendBundle(&payload, bundle);
  AppendStr(&payload, error_code);
  AppendU64(&payload, ordinal);
  return log_->Append(
      static_cast<uint8_t>(ServiceRecordType::kConfirmAssignment), payload);
}

Status ServiceLog::AppendDefine(uint64_t lsn, const std::string& part_id,
                                const std::string& code,
                                const std::string& description) {
  std::string payload;
  AppendU64(&payload, lsn);
  AppendStr(&payload, part_id);
  AppendStr(&payload, code);
  AppendStr(&payload, description);
  return log_->Append(static_cast<uint8_t>(ServiceRecordType::kDefineErrorCode),
                      payload);
}

Result<std::vector<ServiceRecord>> ServiceLog::ReadAll() {
  QATK_ASSIGN_OR_RETURN(std::vector<FramedLog::Record> raw, log_->ReadAll());
  std::vector<ServiceRecord> records;
  records.reserve(raw.size());
  for (FramedLog::Record& frame : raw) {
    ByteReader in(frame.payload);
    ServiceRecord record;
    record.lsn = in.ReadU64();
    switch (static_cast<ServiceRecordType>(frame.type)) {
      case ServiceRecordType::kTrainManifest:
        record.type = ServiceRecordType::kTrainManifest;
        record.corpus = ReadCorpus(&in);
        break;
      case ServiceRecordType::kConfirmAssignment:
        record.type = ServiceRecordType::kConfirmAssignment;
        record.bundle = ReadBundle(&in);
        record.error_code = in.ReadStr();
        record.ordinal = in.ReadU64();
        break;
      case ServiceRecordType::kDefineErrorCode:
        record.type = ServiceRecordType::kDefineErrorCode;
        record.part_id = in.ReadStr();
        record.code = in.ReadStr();
        record.description = in.ReadStr();
        break;
      default:
        return DecodeError(record.lsn, "unknown record type");
    }
    if (!in.AtEnd()) {
      // The frame's CRC was intact, so a short or over-long payload is a
      // codec bug rather than a crash artifact — surface it loudly.
      return DecodeError(record.lsn, "payload does not decode");
    }
    records.push_back(std::move(record));
  }
  return records;
}

Status ServiceLog::Truncate() { return log_->Truncate(); }

Result<bool> ServiceLog::Empty() { return log_->Empty(); }

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

namespace {

std::string SerializeSnapshot(const ServiceSnapshot& snapshot) {
  std::string payload;
  AppendU64(&payload, snapshot.last_lsn);
  payload.push_back(snapshot.trained ? 1 : 0);
  AppendU32(&payload, 0);  // Vocabulary entries: none (see ServiceSnapshot).
  AppendU32(&payload, static_cast<uint32_t>(snapshot.nodes.size()));
  for (const kb::KnowledgeNode& node : snapshot.nodes) {
    AppendStr(&payload, node.part_id);
    AppendStr(&payload, node.error_code);
    AppendU32(&payload, static_cast<uint32_t>(node.features.size()));
    for (int64_t f : node.features) {
      AppendU64(&payload, static_cast<uint64_t>(f));
    }
    AppendU64(&payload, node.instance_count);
  }
  AppendU32(&payload, static_cast<uint32_t>(snapshot.frequency.size()));
  for (const auto& [part, codes] : snapshot.frequency) {
    AppendStr(&payload, part);
    AppendU32(&payload, static_cast<uint32_t>(codes.size()));
    for (const auto& [code, count] : codes) {
      AppendStr(&payload, code);
      AppendU64(&payload, count);
    }
  }
  AppendStrMap(&payload, snapshot.part_descriptions);
  AppendStrMap(&payload, snapshot.error_descriptions);
  AppendU32(&payload, static_cast<uint32_t>(snapshot.manual_codes.size()));
  for (const auto& [part, codes] : snapshot.manual_codes) {
    AppendStr(&payload, part);
    AppendU32(&payload, static_cast<uint32_t>(codes.size()));
    for (const std::string& code : codes) AppendStr(&payload, code);
  }
  AppendU32(&payload, static_cast<uint32_t>(snapshot.node_ordinals.size()));
  for (const uint64_t ordinal : snapshot.node_ordinals) {
    AppendU64(&payload, ordinal);
  }
  AppendU64(&payload, snapshot.ordinal_high);
  return payload;
}

Result<ServiceSnapshot> DeserializeSnapshot(std::string_view payload) {
  ByteReader in(payload);
  ServiceSnapshot snapshot;
  snapshot.last_lsn = in.ReadU64();
  snapshot.trained = in.ReadU8() != 0;
  const uint32_t vocab_count = in.ReadU32();
  if (vocab_count != 0) {
    return Status::Invalid(
        "snapshot holds a word-model vocabulary of " +
        std::to_string(vocab_count) +
        " entries; the service serves bag-of-concepts only and cannot "
        "restore it");
  }
  uint32_t node_count = in.ReadU32();
  snapshot.nodes.reserve(in.ok() ? node_count : 0);
  for (uint32_t i = 0; i < node_count && in.ok(); ++i) {
    kb::KnowledgeNode node;
    node.part_id = in.ReadStr();
    node.error_code = in.ReadStr();
    uint32_t feature_count = in.ReadU32();
    node.features.reserve(in.ok() ? feature_count : 0);
    for (uint32_t f = 0; f < feature_count && in.ok(); ++f) {
      node.features.push_back(static_cast<int64_t>(in.ReadU64()));
    }
    node.instance_count = static_cast<size_t>(in.ReadU64());
    snapshot.nodes.push_back(std::move(node));
  }
  uint32_t part_count = in.ReadU32();
  for (uint32_t i = 0; i < part_count && in.ok(); ++i) {
    std::string part = in.ReadStr();
    auto& codes = snapshot.frequency[part];
    uint32_t code_count = in.ReadU32();
    for (uint32_t c = 0; c < code_count && in.ok(); ++c) {
      std::string code = in.ReadStr();
      codes[code] = in.ReadU64();
    }
  }
  snapshot.part_descriptions = ReadStrMap(&in);
  snapshot.error_descriptions = ReadStrMap(&in);
  uint32_t manual_count = in.ReadU32();
  for (uint32_t i = 0; i < manual_count && in.ok(); ++i) {
    std::string part = in.ReadStr();
    auto& codes = snapshot.manual_codes[part];
    uint32_t code_count = in.ReadU32();
    codes.reserve(in.ok() ? code_count : 0);
    for (uint32_t c = 0; c < code_count && in.ok(); ++c) {
      codes.push_back(in.ReadStr());
    }
  }
  uint32_t ordinal_count = in.ReadU32();
  snapshot.node_ordinals.reserve(in.ok() ? ordinal_count : 0);
  for (uint32_t i = 0; i < ordinal_count && in.ok(); ++i) {
    snapshot.node_ordinals.push_back(in.ReadU64());
  }
  snapshot.ordinal_high = in.ReadU64();
  if (!in.AtEnd()) {
    return Status::DataLoss("snapshot payload does not decode");
  }
  return snapshot;
}

}  // namespace

Status WriteSnapshot(const std::string& path, const ServiceSnapshot& snapshot,
                     FaultInjector* fault) {
  std::string blob(kSnapshotMagic, kSnapshotMagicLen);
  std::string payload = SerializeSnapshot(snapshot);
  AppendU32(&blob, Crc32(payload));
  blob += payload;

  std::string tmp_path = path + ".tmp";
  size_t write_len = blob.size();
  bool crash_after = false;
  if (fault != nullptr) {
    FaultInjector::Decision d = fault->OnOp("service.snapshot.write");
    if (!d.status.ok()) return d.status;
    if (d.torn) {
      write_len = d.TornBytes(blob.size());
      crash_after = true;
    }
  }

  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot create snapshot tmp '" + tmp_path + "'");
  }
  if (std::fwrite(blob.data(), 1, write_len, file) != write_len ||
      std::fflush(file) != 0) {
    std::fclose(file);
    return Status::IOError("write failed on snapshot tmp '" + tmp_path + "'");
  }
  if (crash_after) {
    // Torn fault: a prefix of the tmp file reached disk and the process
    // "died" before the rename — the published snapshot is untouched.
    std::fclose(file);
    return Status::Unavailable(
        "fault injector: crash during torn snapshot write");
  }
  if (::fsync(fileno(file)) != 0) {
    std::fclose(file);
    return Status::IOError("fsync failed on snapshot tmp '" + tmp_path + "'");
  }
  std::fclose(file);
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename snapshot into '" + path + "'");
  }
  return SyncParentDir(path);
}

Result<ServiceSnapshot> ReadSnapshot(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::KeyError("no snapshot at '" + path + "'");
  }
  std::string blob;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) blob.append(buf, n);
  bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Status::IOError("read failed on snapshot '" + path + "'");
  }
  if (blob.size() < kSnapshotMagicLen + 4 ||
      std::memcmp(blob.data(), kSnapshotMagic, kSnapshotMagicLen) != 0) {
    return Status::DataLoss("snapshot '" + path + "' has no intact header");
  }
  std::string_view payload(blob.data() + kSnapshotMagicLen + 4,
                           blob.size() - kSnapshotMagicLen - 4);
  ByteReader crc_in(
      std::string_view(blob.data() + kSnapshotMagicLen, 4));
  if (crc_in.ReadU32() != Crc32(payload)) {
    return Status::DataLoss("snapshot '" + path + "' fails its checksum");
  }
  QATK_ASSIGN_OR_RETURN(ServiceSnapshot snapshot, DeserializeSnapshot(payload));
  return snapshot;
}

std::string ServiceLogPath(const std::string& data_dir) {
  return data_dir + "/service.log";
}

std::string ServiceSnapshotPath(const std::string& data_dir) {
  return data_dir + "/service.snapshot";
}

Status EnsureDataDir(const std::string& data_dir) {
  if (::mkdir(data_dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IOError("cannot create data dir '" + data_dir + "': " +
                         std::strerror(errno));
}

}  // namespace qatk::quest
