#include "quest/service_torture.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/rng.h"
#include "quest/recommendation_service.h"
#include "quest/service_log.h"
#include "taxonomy/taxonomy.h"

namespace qatk::quest {

namespace {

/// One scripted service mutation. The whole script — the initial training
/// pass included — is generated up front so the fault run replays exactly
/// the dry run.
struct Op {
  enum Kind {
    kTrain,
    kRetrain,
    kConfirm,
    kDefine,
    kCheckpoint,
  };
  Kind kind = kConfirm;
  kb::Corpus corpus;       // kTrain / kRetrain
  kb::DataBundle bundle;   // kConfirm
  std::string error_code;  // kConfirm / kDefine
  std::string part_id;     // kDefine
  std::string description; // kDefine
};

/// The scripts' texts draw from the pool words "w0" .. "w39".
constexpr uint64_t kPoolWords = 40;

std::string WordPool(Rng* rng, int count) {
  std::string out;
  for (int i = 0; i < count; ++i) {
    if (i > 0) out.push_back(' ');
    out.push_back('w');
    out += std::to_string(rng->NextBounded(kPoolWords));
  }
  return out;
}

/// `prefix` followed by the decimal digits of `i`.
std::string Name(char prefix, uint64_t i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

/// The services' taxonomy: one concept per pool word, plus a few
/// multiword concepts whose matches swallow the single-word ones, so every
/// text annotates to concept ids and a trie build stays at the µs scale.
const tax::Taxonomy& TortureTaxonomy() {
  static const tax::Taxonomy taxonomy = [] {
    tax::Taxonomy built;
    int64_t id = 1;
    for (uint64_t w = 0; w < kPoolWords; ++w) {
      tax::Concept word;
      word.id = id++;
      word.label = Name('w', w);
      word.synonyms[text::Language::kEnglish] = {word.label};
      QATK_CHECK_OK(built.Add(std::move(word)));
    }
    for (const char* surface : {"w1 w2", "w3 w17", "w5 w6 w7", "w23 w1"}) {
      tax::Concept phrase;
      phrase.id = id++;
      phrase.category = tax::Category::kSymptom;
      phrase.label = surface;
      phrase.synonyms[text::Language::kEnglish] = {surface};
      QATK_CHECK_OK(built.Add(std::move(phrase)));
    }
    return built;
  }();
  return taxonomy;
}

std::string PartName(uint64_t i) { return Name('P', i); }
std::string CodeName(uint64_t i) { return Name('E', i); }

kb::DataBundle RandomBundle(Rng* rng, const std::string& part_id,
                            const std::string& error_code) {
  kb::DataBundle bundle;
  bundle.reference_number = "ref-" + std::to_string(rng->Next() & 0xFFFF);
  bundle.article_code = "art-" + std::to_string(rng->NextBounded(50));
  bundle.part_id = part_id;
  bundle.error_code = error_code;
  bundle.responsibility_code = "r" + std::to_string(rng->NextBounded(4));
  bundle.mechanic_report = WordPool(rng, 4 + static_cast<int>(rng->NextBounded(8)));
  if (rng->NextBernoulli(0.4)) {
    bundle.initial_oem_report = WordPool(rng, 3);
  }
  bundle.supplier_report = WordPool(rng, 3 + static_cast<int>(rng->NextBounded(5)));
  bundle.final_oem_report = WordPool(rng, 3);
  return bundle;
}

kb::Corpus RandomCorpus(Rng* rng, int num_bundles) {
  kb::Corpus corpus;
  const uint64_t num_parts = 3 + rng->NextBounded(3);
  const uint64_t num_codes = 4 + rng->NextBounded(5);
  for (uint64_t p = 0; p < num_parts; ++p) {
    corpus.part_descriptions[PartName(p)] = WordPool(rng, 3);
  }
  for (uint64_t c = 0; c < num_codes; ++c) {
    corpus.error_descriptions[CodeName(c)] = WordPool(rng, 3);
  }
  for (int i = 0; i < num_bundles; ++i) {
    std::string part = PartName(rng->NextBounded(num_parts));
    std::string code = CodeName(rng->NextBounded(num_codes));
    corpus.bundles.push_back(RandomBundle(rng, part, code));
  }
  return corpus;
}

std::vector<Op> BuildScript(const ServiceTortureOptions& options, Rng* rng) {
  std::vector<Op> script;
  Op train;
  train.kind = Op::kTrain;
  train.corpus = RandomCorpus(rng, options.seed_bundles);
  script.push_back(std::move(train));
  uint64_t next_new_code = 100;  // Above the corpus code range.
  for (int i = 0; i < options.num_ops; ++i) {
    double roll = rng->NextDouble();
    Op op;
    if (roll < 0.55) {
      op.kind = Op::kConfirm;
      op.error_code = CodeName(rng->NextBounded(9));
      op.bundle = RandomBundle(rng, PartName(rng->NextBounded(5)),
                               /*error_code=*/"");
    } else if (roll < 0.75) {
      op.kind = Op::kDefine;
      op.part_id = PartName(rng->NextBounded(5));
      // Mostly-fresh codes; an occasional repeat exercises the duplicate
      // rejection (a legal, un-acked no-op).
      op.error_code = CodeName(rng->NextBernoulli(0.8) ? next_new_code++
                                                       : next_new_code - 1);
      op.description = WordPool(rng, 3);
    } else if (roll < 0.82) {
      op.kind = Op::kRetrain;
      op.corpus = RandomCorpus(rng, options.seed_bundles / 2 + 1);
    } else {
      op.kind = Op::kCheckpoint;
    }
    script.push_back(std::move(op));
  }
  return script;
}

/// Applies one op; checkpoints are durability-only (no logical effect).
Status ExecuteOp(RecommendationService* service, const Op& op) {
  switch (op.kind) {
    case Op::kTrain:
      return service->Train(op.corpus);
    case Op::kRetrain:
      return service->Retrain(op.corpus);
    case Op::kConfirm:
      return service->ConfirmAssignment(op.bundle, op.error_code);
    case Op::kDefine:
      return service->DefineErrorCode(op.part_id, op.error_code,
                                      op.description);
    case Op::kCheckpoint:
      return service->Checkpoint();
  }
  return Status::Internal("unreachable op kind");
}

void RemoveDataDir(const std::string& data_dir) {
  std::remove(ServiceLogPath(data_dir).c_str());
  std::remove(ServiceSnapshotPath(data_dir).c_str());
  std::remove((ServiceSnapshotPath(data_dir) + ".tmp").c_str());
}

RecommendationService::Options TortureServiceOptions(FaultInjector* fault) {
  RecommendationService::Options options;
  options.fault = fault;
  return options;
}

void AppendDoubleBits(std::string* out, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
  out->append(buf);
}

/// Serializes everything that defines the service's observable behaviour
/// (generation numbers excluded — they are process-global counters, not
/// state). Two services with equal fingerprints rank, describe, and list
/// identically on every input.
std::string Fingerprint(const RecommendationService& service) {
  std::shared_ptr<const RecommendationService::TrainedState> state =
      service.Snapshot();
  std::string fp;
  fp += service.trained() ? "trained\n" : "untrained\n";
  fp += "nodes:\n";
  for (const kb::KnowledgeNode* node : state->knowledge.AllNodes()) {
    fp += node->part_id + "|" + node->error_code + "|";
    for (int64_t f : node->features) fp += std::to_string(f) + ",";
    fp += "|" + std::to_string(node->instance_count) + "\n";
  }
  fp += "frequency:\n";
  for (const auto& [part, codes] : state->frequency.counts()) {
    for (const auto& [code, count] : *codes) {
      fp += part + "|" + code + "|" + std::to_string(count) + "\n";
    }
  }
  fp += "parts:\n";
  for (const auto& [key, value] :
       state->compose_context.part_descriptions()) {
    fp += key + "=" + value + "\n";
  }
  fp += "errors:\n";
  for (const auto& [key, value] :
       state->compose_context.error_descriptions()) {
    fp += key + "=" + value + "\n";
  }
  fp += "manual:\n";
  for (const auto& [part, codes] : state->manual_codes) {
    fp += part + "=";
    for (const std::string& code : codes) fp += code + ",";
    fp += "\n";
  }
  // Behavioural probes: the frequency-ranked full list and a live
  // recommendation per known part, scores as raw double bits.
  fp += "lists:\n";
  for (const auto& [part, codes] : state->frequency.counts()) {
    (void)codes;
    fp += part + ":";
    for (const core::ScoredCode& scored : service.FullListForPart(part)) {
      fp += scored.error_code + "=";
      AppendDoubleBits(&fp, scored.score);
      fp += ",";
    }
    fp += "\n";
  }
  if (service.trained()) {
    fp += "recommend:\n";
    for (const auto& [part, codes] : state->frequency.counts()) {
      (void)codes;
      Result<RecommendationService::Recommendation> rec =
          service.RecommendForText(part, "w1 w2 w3 w17 w23");
      fp += part + ":";
      if (!rec.ok()) {
        fp += "<" + rec.status().ToString() + ">";
      } else {
        for (const core::ScoredCode& scored : rec.ValueOrDie().top) {
          fp += scored.error_code + "=";
          AppendDoubleBits(&fp, scored.score);
          fp += ",";
        }
        if (rec.ValueOrDie().truncated) fp += "+";
      }
      fp += "\n";
    }
  }
  return fp;
}

struct RunResult {
  bool crashed = false;
  /// Index of the in-flight operation when the crash hit.
  size_t crash_index = 0;
  /// Ops that returned OK (acknowledged to the caller), in order.
  std::vector<size_t> acked;
  /// Set on a failure that is NOT a simulated crash or a legal rejection.
  Status error;
};

/// A rejection the op could produce without any fault: defining a
/// duplicate code, or mutating an untrained service (possible when a
/// transient fault un-acked the initial Train). Legal, not acked, leaves
/// no state.
bool IsLegalRejection(const Op& op, const Status& status) {
  if (op.kind == Op::kDefine && status.IsAlreadyExists()) return true;
  return status.IsInvalid() &&
         status.message() == "service not trained";
}

RunResult RunScript(const std::vector<Op>& script,
                    const ServiceTortureOptions& options,
                    FaultInjector* fault) {
  RunResult out;
  RemoveDataDir(options.data_dir);
  Result<std::unique_ptr<RecommendationService>> service =
      RecommendationService::Open(&TortureTaxonomy(),
                                  TortureServiceOptions(fault),
                                  options.data_dir);
  if (!service.ok()) {
    out.error = service.status();
    return out;
  }
  for (size_t k = 0; k < script.size(); ++k) {
    Status st = ExecuteOp(service.ValueOrDie().get(), script[k]);
    if (st.ok()) {
      out.acked.push_back(k);
      continue;
    }
    if (fault != nullptr && fault->crashed()) {
      out.crashed = true;
      out.crash_index = k;
      break;
    }
    if (IsLegalRejection(script[k], st)) continue;
    if (fault != nullptr && st.IsUnavailable()) {
      // A transient fault failed this mutation; it was never acked and
      // must leave no trace. The script carries on, exactly like a server
      // that returned the error to its client and kept serving.
      continue;
    }
    out.error = st;
    break;
  }
  // The service is destroyed here without checkpointing — for a crashed
  // run this leaves the data dir exactly as a killed process would.
  return out;
}

/// Replays `ops` (by index into `script`) through an ephemeral in-memory
/// service: the ground truth a durable recovery must reproduce.
Result<std::unique_ptr<RecommendationService>> BuildReference(
    const std::vector<Op>& script, const std::vector<size_t>& ops) {
  auto reference = std::make_unique<RecommendationService>(
      &TortureTaxonomy(), TortureServiceOptions(nullptr));
  for (size_t k : ops) {
    if (script[k].kind == Op::kCheckpoint) continue;  // Durability-only.
    Status st = ExecuteOp(reference.get(), script[k]);
    if (!st.ok()) {
      return Status::Internal("reference replay of op " + std::to_string(k) +
                              " failed: " + st.ToString());
    }
  }
  return reference;
}

}  // namespace

ServiceTortureReport RunServiceCrashSchedule(
    const ServiceTortureOptions& options) {
  ServiceTortureReport report;
  Rng rng(options.seed);
  std::vector<Op> script = BuildScript(options, &rng);

  // Dry run, fault-free, to learn how many injection points the workload
  // passes — the population the crash point is drawn from.
  FaultInjector counter;
  RunResult dry = RunScript(script, options, &counter);
  if (dry.crashed || !dry.error.ok()) {
    report.detail = "fault-free dry run failed: " + dry.error.ToString();
    return report;
  }
  uint64_t total_ops = counter.ops_observed();
  if (total_ops == 0) {
    report.detail = "dry run observed no fault-injection points";
    return report;
  }

  // Arm the schedule: one crash — sometimes a torn write into the log or
  // the snapshot tmp — plus up to two transient faults whose mutations
  // simply fail without being acknowledged.
  std::vector<Fault> faults;
  Fault crash;
  crash.op = "*";
  crash.kind = FaultKind::kCrash;
  crash.countdown = static_cast<uint32_t>(rng.NextBounded(total_ops));
  if (rng.NextBernoulli(0.35)) {
    std::string torn_op = rng.NextBernoulli(0.7) ? "service.log.append"
                                                 : "service.snapshot.write";
    auto it = counter.op_counts().find(torn_op);
    if (it != counter.op_counts().end() && it->second > 0) {
      crash.op = torn_op;
      crash.kind = FaultKind::kTorn;
      crash.torn_fraction = rng.NextDouble();
      crash.countdown = static_cast<uint32_t>(rng.NextBounded(it->second));
    }
  }
  faults.push_back(crash);
  int transients = static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < transients; ++i) {
    Fault f;
    f.op = rng.NextBernoulli(0.5) ? "service.log.fsync" : "service.log.append";
    f.kind = FaultKind::kTransient;
    auto it = counter.op_counts().find(f.op);
    if (it == counter.op_counts().end() || it->second == 0) continue;
    f.countdown = static_cast<uint32_t>(rng.NextBounded(it->second));
    faults.push_back(f);
  }

  FaultInjector injector{faults};
  report.schedule = injector.Describe();
  RunResult run = RunScript(script, options, &injector);
  if (!run.crashed && !run.error.ok()) {
    report.detail =
        "operation failed without a crash: " + run.error.ToString();
    return report;
  }
  report.crashed = run.crashed;

  // Clean recovery of the crashed (or cleanly closed) data dir.
  Result<std::unique_ptr<RecommendationService>> recovered =
      RecommendationService::Open(&TortureTaxonomy(),
                                  TortureServiceOptions(nullptr),
                                  options.data_dir);
  if (!recovered.ok()) {
    report.detail = "recovery reopen failed: " + recovered.status().ToString();
    return report;
  }
  report.replayed_records =
      recovered.ValueOrDie()->durability().replayed_records;
  std::string got = Fingerprint(*recovered.ValueOrDie());

  // Reference A: exactly the acknowledged mutations. Reference B: those
  // plus the in-flight one (a crash inside the fsync can leave a durable
  // record the caller never saw acknowledged — the one indeterminate
  // window; the mutation must then be fully applied, never partial).
  Result<std::unique_ptr<RecommendationService>> ref_a =
      BuildReference(script, run.acked);
  if (!ref_a.ok()) {
    report.detail = ref_a.status().ToString();
    return report;
  }
  std::string want_a = Fingerprint(*ref_a.ValueOrDie());
  if (got == want_a) {
    report.ok = true;
    return report;
  }
  if (run.crashed) {
    std::vector<size_t> acked_plus = run.acked;
    acked_plus.push_back(run.crash_index);
    Result<std::unique_ptr<RecommendationService>> ref_b =
        BuildReference(script, acked_plus);
    if (!ref_b.ok()) {
      report.detail = ref_b.status().ToString();
      return report;
    }
    if (got == Fingerprint(*ref_b.ValueOrDie())) {
      report.ok = true;
      return report;
    }
  }
  std::ostringstream os;
  os << "recovered state matches neither candidate (crash at op "
     << (run.crashed ? std::to_string(run.crash_index) : std::string("none"))
     << " of " << script.size() << ", " << run.acked.size()
     << " acked ops, replayed " << report.replayed_records
     << " records): recovered fingerprint crc=" << std::hex << Crc32(got)
     << " len=" << std::dec << got.size() << ", acked-only crc=" << std::hex
     << Crc32(want_a) << " len=" << std::dec << want_a.size();
  report.detail = os.str();
  return report;
}

}  // namespace qatk::quest
