#include "quest/recommendation_service.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qatk::quest {

namespace {

/// Service-level obs handles, resolved once (thread-safe static init).
struct ServiceMetrics {
  obs::Histogram* train_us;
  obs::Histogram* retrain_us;
  obs::Histogram* confirm_us;
  obs::Histogram* extract_us;
  obs::Histogram* recovery_us;
  obs::Counter* index_rebuilds;
  obs::Counter* state_publishes;
  obs::Counter* reader_refreshes;
  obs::Counter* log_appends;
  obs::Counter* replay_records;
  obs::Counter* checkpoints;
  obs::Gauge* reader_states;
  obs::Gauge* index_nodes;
  obs::Gauge* index_parts;
  obs::Gauge* index_postings;
  obs::Gauge* index_bytes;
};

const ServiceMetrics& Metrics() {
  static const ServiceMetrics metrics = [] {
    obs::Registry& registry = obs::Registry::Global();
    ServiceMetrics m;
    m.train_us = registry.GetHistogram("qatk_service_train_us");
    m.retrain_us = registry.GetHistogram("qatk_service_retrain_us");
    m.confirm_us = registry.GetHistogram("qatk_service_confirm_us");
    m.extract_us =
        registry.GetHistogram("qatk_pipeline_stage_us{stage=\"extract\"}");
    m.index_rebuilds =
        registry.GetCounter("qatk_service_index_rebuilds_total");
    m.state_publishes =
        registry.GetCounter("qatk_service_state_publishes_total");
    m.reader_refreshes =
        registry.GetCounter("qatk_service_reader_snapshot_refreshes_total");
    m.recovery_us = registry.GetHistogram("qatk_service_recovery_us");
    m.log_appends = registry.GetCounter("qatk_service_log_appends_total");
    m.replay_records =
        registry.GetCounter("qatk_service_replay_records_total");
    m.checkpoints = registry.GetCounter("qatk_service_checkpoints_total");
    m.reader_states = registry.GetGauge("qatk_service_reader_states");
    m.index_nodes = registry.GetGauge("qatk_service_index_nodes");
    m.index_parts = registry.GetGauge("qatk_service_index_parts");
    m.index_postings = registry.GetGauge("qatk_service_index_postings");
    m.index_bytes = registry.GetGauge("qatk_service_index_bytes");
    return m;
  }();
  return metrics;
}

/// Records the size of the frozen index now serving; call after a swap.
void RecordIndexStats(const kb::FrozenIndex& index) {
  const ServiceMetrics& m = Metrics();
  m.index_rebuilds->Add();
  m.index_nodes->Set(static_cast<int64_t>(index.num_nodes()));
  m.index_parts->Set(static_cast<int64_t>(index.num_parts()));
  m.index_postings->Set(static_cast<int64_t>(index.num_postings()));
  m.index_bytes->Set(static_cast<int64_t>(index.memory_bytes()));
}

/// Generation ids are unique across every service instance in the
/// process, so the thread_local reader cache can key on the generation
/// alone — a destroyed-and-reallocated service can never alias a cached
/// entry the way reused std::thread::ids once could.
std::atomic<uint64_t> g_next_generation{0};

uint64_t NextGeneration() {
  return g_next_generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Test-observable lifecycle counters (independent of obs, which compiles
/// out under QATK_NO_METRICS).
std::atomic<int64_t> g_live_reader_states{0};
std::atomic<uint64_t> g_reader_refreshes{0};

/// FullListForPart over one snapshot (shared by the public read path and
/// the DefineErrorCode duplicate check).
std::vector<core::ScoredCode> FullListFor(
    const RecommendationService::TrainedState& state,
    const std::string& part_id) {
  std::vector<core::ScoredCode> list = state.frequency.Rank(part_id);
  auto manual = state.manual_codes.find(part_id);
  if (manual != state.manual_codes.end()) {
    // A manually defined code that has since been confirmed appears in the
    // frequency ranking already; keep that entry and skip the manual one.
    std::unordered_set<std::string> ranked;
    ranked.reserve(list.size());
    for (const core::ScoredCode& scored : list) {
      ranked.insert(scored.error_code);
    }
    for (const std::string& code : manual->second) {
      if (ranked.count(code) == 0) list.push_back({code, 0.0});
    }
  }
  return list;
}

}  // namespace

/// Per-thread reader state, pinned to one published snapshot: the
/// extractor bound to that snapshot's concept trie, the epoch-tagged
/// scoring scratch, and the buffers a query composes its document and
/// extracts its features into. Owned by exactly one thread
/// through a thread_local cache, so everything here is mutated without
/// locks; the shared_ptr keeps the snapshot alive for as long as the
/// thread serves from it (the RCU grace period is "every reader refreshed
/// or exited").
struct RecommendationService::ReaderState {
  uint64_t generation = 0;
  std::shared_ptr<const TrainedState> state;
  std::unique_ptr<kb::FeatureExtractor> extractor;
  kb::FrozenIndex::Scratch scratch;
  std::string document;
  std::vector<int64_t> features;

  ReaderState() {
    g_live_reader_states.fetch_add(1, std::memory_order_relaxed);
    Metrics().reader_states->Add(1);
  }
  ~ReaderState() {
    g_live_reader_states.fetch_sub(1, std::memory_order_relaxed);
    Metrics().reader_states->Add(-1);
  }

  /// The thread_local reader cache: a handful of MRU-ordered ReaderStates
  /// keyed by generation, so one thread can interleave queries against a
  /// few services (or ride out a retrain) without rebuilding its
  /// extractor per query. Destroyed with the thread — per-thread state
  /// can neither outlive its thread nor be inherited by an unrelated one.
  class Cache {
   public:
    /// Most threads serve one service: entry 0 hits, nothing else is
    /// scanned. The cap bounds a thread that touches many services;
    /// evicted entries hand their scratch buffers to the replacement.
    static constexpr size_t kMaxEntries = 4;

    ReaderState* Find(uint64_t generation) {
      for (size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i]->generation == generation) {
          if (i != 0) {
            std::rotate(entries_.begin(), entries_.begin() + i,
                        entries_.begin() + i + 1);
          }
          return entries_[0].get();
        }
      }
      return nullptr;
    }

    /// Inserts a fresh entry at the MRU slot, evicting the LRU entry when
    /// full — but keeping (handing off) the evictee's scratch and query
    /// buffers, so a retrain costs an extractor set-up, not a
    /// re-allocation of the accumulator arrays (kb::FrozenIndex::Scratch
    /// re-sizes itself on demand and its epoch tags make stale slots read
    /// as zero under any index).
    ReaderState* Insert(std::unique_ptr<ReaderState> entry) {
      if (entries_.size() >= kMaxEntries) {
        ReaderState& evictee = *entries_.back();
        entry->scratch = std::move(evictee.scratch);
        entry->document = std::move(evictee.document);
        entry->features = std::move(evictee.features);
        entries_.pop_back();
      }
      entries_.insert(entries_.begin(), std::move(entry));
      return entries_[0].get();
    }

   private:
    std::vector<std::unique_ptr<ReaderState>> entries_;
  };

  static Cache& ThreadCache() {
    thread_local Cache cache;
    return cache;
  }
};

RecommendationService::RecommendationService(const tax::Taxonomy* taxonomy,
                                             Options options)
    : taxonomy_(taxonomy),
      options_(options),
      state_(std::make_shared<const TrainedState>()),
      classifier_({Options::similarity, Options::max_nodes}) {}

std::shared_ptr<const RecommendationService::TrainedState>
RecommendationService::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return state_;
}

int64_t RecommendationService::LiveReaderStatesForTest() {
  return g_live_reader_states.load(std::memory_order_relaxed);
}

uint64_t RecommendationService::ReaderRefreshesForTest() {
  return g_reader_refreshes.load(std::memory_order_relaxed);
}

void RecommendationService::Publish(
    std::shared_ptr<const TrainedState> next) {
  const uint64_t generation = next->generation;
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    state_ = std::move(next);
  }
  // Release: a reader that acquire-loads this generation is guaranteed to
  // copy a state_ at least this new on its refresh.
  generation_.store(generation, std::memory_order_release);
  Metrics().state_publishes->Add();
}

Status RecommendationService::Train(const kb::Corpus& corpus) {
  if (trained_.load(std::memory_order_acquire)) {
    return Status::Invalid("service already trained");
  }
  return TrainInternal(corpus, /*allow_retrain=*/false);
}

Status RecommendationService::Retrain(const kb::Corpus& corpus) {
  return TrainInternal(corpus, /*allow_retrain=*/true);
}

Status RecommendationService::TrainInternal(const kb::Corpus& corpus,
                                            bool allow_retrain) {
  obs::ScopedTimer train_span(allow_retrain ? Metrics().retrain_us
                                            : Metrics().train_us);
  // Writers serialize here; readers never touch this mutex, so serving
  // continues lock-free against the old snapshot for the whole build.
  std::lock_guard<std::mutex> writer_lock(writer_mutex_);
  if (!allow_retrain && trained_.load(std::memory_order_relaxed)) {
    return Status::Invalid("service already trained");
  }
  // Build the whole replacement state aside: a failed (or fault-injected)
  // pass never publishes, leaving the service exactly as it was.
  auto next = std::make_shared<TrainedState>();
  // The one trie build of this model: every later confirm and reader
  // refresh of it shares the pointer.
  next->concepts = kb::BuildConcepts(Options::model, taxonomy_);
  kb::FeatureExtractor extractor(Options::model, next->concepts,
                                 &TrainedState::vocabulary);
  // Shard scoping: a scoped shard keeps only the nodes of the parts it
  // owns, but still counts the whole corpus in order. `seq` numbers every
  // coded bundle globally; a node's merge ordinal is the seq at first
  // sight of its configuration, which is monotone with the node index the
  // unrestricted build would have assigned — the invariant the
  // scatter-gather (score desc, ordinal asc) merge rests on. Concept ids
  // are taxonomy-fixed, so a non-owned bundle needs no extraction.
  const Options::ShardScope& scope = options_.shard;
  uint64_t seq = 0;
  for (const kb::DataBundle& bundle : corpus.bundles) {
    if (options_.fault != nullptr) {
      QATK_RETURN_NOT_OK(options_.fault->OnOp("train.bundle").status);
    }
    if (bundle.error_code.empty()) continue;  // Not yet coded: no label.
    if (scope.active() && !scope.owns_part(bundle.part_id)) {
      ++seq;
      continue;
    }
    QATK_ASSIGN_OR_RETURN(
        std::vector<int64_t> features,
        extractor.Extract(
            kb::ComposeDocument(bundle, kb::kTrainSources, corpus)));
    if (next->knowledge.AddInstance(bundle.part_id, bundle.error_code,
                                    std::move(features))) {
      next->node_ordinals.push_back(seq);
    }
    next->frequency.AddObservation(bundle.part_id, bundle.error_code);
    ++seq;
  }
  next->ordinal_high = seq;
  next->index = kb::FrozenIndex::Build(next->knowledge);
  next->compose_context = kb::DescriptionCatalog(corpus.part_descriptions,
                                                 corpus.error_descriptions);
  // Manually defined codes survive a retrain (they carry no training
  // observations the corpus could reproduce).
  next->manual_codes = state_->manual_codes;
  next->generation = NextGeneration();

  // Durability: the mutation is logged and fsynced *before* it is
  // published. A failed append returns without publishing — the caller
  // was never acknowledged, and the service keeps serving the old state.
  if (log_ != nullptr && !replaying_) {
    const uint64_t lsn = last_lsn_.load(std::memory_order_relaxed) + 1;
    QATK_RETURN_NOT_OK(log_->AppendTrain(lsn, corpus));
    last_lsn_.store(lsn, std::memory_order_release);
    Metrics().log_appends->Add();
  }

  RecordIndexStats(next->index);
  QATK_LOG(INFO) << (allow_retrain ? "retrained" : "trained")
                 << " recommendation service: " << next->index.num_nodes()
                 << " nodes, " << next->index.num_parts() << " parts, "
                 << next->index.num_postings() << " postings (generation "
                 << next->generation << ")";
  Publish(std::move(next));
  trained_.store(true, std::memory_order_release);
  return Status::OK();
}

RecommendationService::ReaderState& RecommendationService::AcquireReader()
    const {
  const uint64_t generation = generation_.load(std::memory_order_acquire);
  ReaderState::Cache& cache = ReaderState::ThreadCache();
  if (ReaderState* hit = cache.Find(generation)) return *hit;  // Lock-free.
  // Slow path (first query on this thread, or the generation moved): pin
  // the current snapshot and bind a fresh extractor to its concept trie
  // (shared, not rebuilt), so a retrained model can never be probed with
  // another model's trie.
  std::shared_ptr<const TrainedState> snap;
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snap = state_;
  }
  if (ReaderState* hit = cache.Find(snap->generation)) return *hit;
  auto fresh = std::make_unique<ReaderState>();
  fresh->generation = snap->generation;
  fresh->extractor = std::make_unique<kb::FeatureExtractor>(
      Options::model, snap->concepts, &TrainedState::vocabulary);
  fresh->state = std::move(snap);
  g_reader_refreshes.fetch_add(1, std::memory_order_relaxed);
  Metrics().reader_refreshes->Add();
  return *cache.Insert(std::move(fresh));
}

Status RecommendationService::RecommendWithReader(ReaderState& reader,
                                                 const std::string& part_id,
                                                 const std::string& text,
                                                 Recommendation* out) const {
  {
    obs::ScopedTimer extract_span(Metrics().extract_us);
    QATK_RETURN_NOT_OK(reader.extractor->ExtractInto(text, &reader.features));
  }
  // One code past top_n is enough to tell whether the list was cut.
  classifier_.ClassifyInto(reader.state->index, part_id, reader.features,
                           Options::top_n + 1, &reader.scratch, &out->top);
  out->truncated = out->top.size() > Options::top_n;
  if (out->truncated) out->top.resize(Options::top_n);
  return Status::OK();
}

Result<RecommendationService::Recommendation>
RecommendationService::Recommend(const kb::DataBundle& bundle) const {
  Recommendation recommendation;
  recommendation.top.reserve(Options::top_n + 1);
  QATK_RETURN_NOT_OK(RecommendInto(bundle, &recommendation));
  return recommendation;
}

Status RecommendationService::RecommendInto(const kb::DataBundle& bundle,
                                            Recommendation* out) const {
  if (!trained()) return Status::Invalid("service not trained");
  ReaderState& reader = AcquireReader();
  // Compose the test-time document (no final report / error description)
  // against the snapshot's shared catalogs: no map copies, no locks.
  kb::ComposeDocumentInto(bundle, kb::kTestSources,
                          reader.state->compose_context, &reader.document);
  return RecommendWithReader(reader, bundle.part_id, reader.document, out);
}

Result<RecommendationService::Recommendation>
RecommendationService::RecommendForText(const std::string& part_id,
                                        const std::string& text) const {
  if (!trained()) return Status::Invalid("service not trained");
  Recommendation recommendation;
  recommendation.top.reserve(Options::top_n + 1);
  QATK_RETURN_NOT_OK(
      RecommendWithReader(AcquireReader(), part_id, text, &recommendation));
  return recommendation;
}

Result<RecommendationService::ShardPartial>
RecommendationService::ShardTopKWithReader(ReaderState& reader,
                                           const std::string& part_id,
                                           const std::string& text,
                                           bool fallback) const {
  const TrainedState& state = *reader.state;
  ShardPartial partial;
  partial.fallback = fallback;
  partial.known_part = state.index.HasPart(part_id);
  if (!partial.known_part && !fallback) {
    // Owner probe on a part this slice does not hold: answer without
    // extracting or scoring. The coordinator falls back to an all-shards
    // scatter only when the *owner* reports the part unknown.
    return partial;
  }
  {
    obs::ScopedTimer extract_span(Metrics().extract_us);
    QATK_RETURN_NOT_OK(reader.extractor->ExtractInto(text, &reader.features));
  }
  classifier_.SelectTopNodes(state.index, part_id, reader.features,
                             &reader.scratch);
  partial.items.reserve(reader.scratch.top.size());
  for (const auto& [score, node] : reader.scratch.top) {
    const uint64_t ordinal = node < state.node_ordinals.size()
                                 ? state.node_ordinals[node]
                                 : static_cast<uint64_t>(node);
    partial.items.push_back(
        {state.index.node_error_code(node), score, ordinal});
  }
  return partial;
}

Result<RecommendationService::ShardPartial> RecommendationService::ShardTopK(
    const kb::DataBundle& bundle, bool fallback) const {
  if (!trained()) return Status::Invalid("service not trained");
  ReaderState& reader = AcquireReader();
  // Same test-time document composition as Recommend — every shard keeps
  // the full description catalogs, so the composed text is identical on
  // all of them.
  kb::ComposeDocumentInto(bundle, kb::kTestSources,
                          reader.state->compose_context, &reader.document);
  return ShardTopKWithReader(reader, bundle.part_id, reader.document,
                             fallback);
}

Result<RecommendationService::ShardPartial>
RecommendationService::ShardTopKForText(const std::string& part_id,
                                        const std::string& text,
                                        bool fallback) const {
  if (!trained()) return Status::Invalid("service not trained");
  return ShardTopKWithReader(AcquireReader(), part_id, text, fallback);
}

Status RecommendationService::ConfirmAssignment(const kb::DataBundle& bundle,
                                                const std::string& error_code,
                                                int64_t ordinal) {
  if (!trained()) return Status::Invalid("service not trained");
  if (error_code.empty()) {
    return Status::Invalid("cannot confirm an empty error code");
  }
  if (options_.shard.active() && !options_.shard.owns_part(bundle.part_id)) {
    return Status::Invalid(
        "shard " + std::to_string(options_.shard.shard_index) +
        " does not own part '" + bundle.part_id + "'");
  }
  obs::ScopedTimer confirm_span(Metrics().confirm_us);
  std::lock_guard<std::mutex> writer_lock(writer_mutex_);
  // Copy-on-write: the successor state starts as a copy that shares every
  // knowledge-base part, index segment, frequency table, catalog and the
  // concept trie with the published one (readers keep serving it
  // untouched). It absorbs the confirmed instance — cloning only that
  // part's slices — and rebuilds only that part's index segment.
  auto next = std::make_shared<TrainedState>(*state_);
  kb::FeatureExtractor extractor(Options::model, next->concepts,
                                 &TrainedState::vocabulary);
  kb::DataBundle coded = bundle;
  coded.error_code = error_code;
  QATK_ASSIGN_OR_RETURN(
      std::vector<int64_t> features,
      extractor.Extract(
          kb::ComposeDocument(coded, kb::kTrainSources,
                              next->compose_context)));
  // Resolve the merge ordinal: coordinator-assigned in a cluster,
  // self-assigned (next free) on a single node. A confirm that merges into
  // an existing configuration records nothing — the node keeps its
  // original ordinal, exactly as it keeps its node index.
  const uint64_t resolved_ordinal =
      ordinal < 0 ? next->ordinal_high : static_cast<uint64_t>(ordinal);
  const size_t nodes_before = next->knowledge.num_nodes();
  if (next->knowledge.AddInstance(bundle.part_id, error_code,
                                  std::move(features)) &&
      next->node_ordinals.size() == nodes_before) {
    next->node_ordinals.push_back(resolved_ordinal);
  }
  next->ordinal_high = std::max(next->ordinal_high, resolved_ordinal + 1);
  next->index.RebuildPart(next->knowledge, bundle.part_id);
  next->frequency.AddObservation(bundle.part_id, error_code);
  next->generation = NextGeneration();
  // Ack-after-fsync: log before publish; a failed append acknowledges
  // nothing and changes nothing.
  if (log_ != nullptr && !replaying_) {
    const uint64_t lsn = last_lsn_.load(std::memory_order_relaxed) + 1;
    QATK_RETURN_NOT_OK(
        log_->AppendConfirm(lsn, bundle, error_code, resolved_ordinal));
    last_lsn_.store(lsn, std::memory_order_release);
    Metrics().log_appends->Add();
  }
  RecordIndexStats(next->index);
  Publish(std::move(next));
  return Status::OK();
}

std::vector<core::ScoredCode> RecommendationService::FullListForPart(
    const std::string& part_id) const {
  return FullListFor(*Snapshot(), part_id);
}

Status RecommendationService::DefineErrorCode(const std::string& part_id,
                                              const std::string& code,
                                              const std::string& description) {
  std::lock_guard<std::mutex> writer_lock(writer_mutex_);
  // The checks read the published state (stable under the writer lock);
  // only an accepted definition pays for a successor copy.
  for (const core::ScoredCode& existing : FullListFor(*state_, part_id)) {
    if (existing.error_code == code) {
      return Status::AlreadyExists("error code '" + code +
                                   "' already defined for part '" + part_id +
                                   "'");
    }
  }
  // Descriptions are global: a different part may have registered this
  // code already. First registration wins; redefining with a different
  // description is rejected instead of silently clobbered.
  const kb::DescriptionCatalog::Texts& descriptions =
      state_->compose_context.error_descriptions();
  auto described = descriptions.find(code);
  if (described != descriptions.end() && described->second != description) {
    return Status::AlreadyExists(
        "error code '" + code + "' already described as '" +
        described->second + "'; refusing to overwrite");
  }
  auto next = std::make_shared<TrainedState>(*state_);
  next->manual_codes[part_id].push_back(code);
  next->compose_context =
      next->compose_context.WithErrorDescription(code, description);
  next->generation = NextGeneration();
  if (log_ != nullptr && !replaying_) {
    const uint64_t lsn = last_lsn_.load(std::memory_order_relaxed) + 1;
    QATK_RETURN_NOT_OK(log_->AppendDefine(lsn, part_id, code, description));
    last_lsn_.store(lsn, std::memory_order_release);
    Metrics().log_appends->Add();
  }
  Publish(std::move(next));
  return Status::OK();
}

Result<std::string> RecommendationService::DescribeCode(
    const std::string& code) const {
  std::shared_ptr<const TrainedState> state = Snapshot();
  const kb::DescriptionCatalog::Texts& descriptions =
      state->compose_context.error_descriptions();
  auto it = descriptions.find(code);
  if (it == descriptions.end()) {
    return Status::KeyError("no description for error code '" + code + "'");
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Durability: Open / Recover / Checkpoint
// ---------------------------------------------------------------------------

Result<std::unique_ptr<RecommendationService>> RecommendationService::Open(
    const tax::Taxonomy* taxonomy, Options options,
    const std::string& data_dir) {
  auto service = std::make_unique<RecommendationService>(taxonomy, options);
  QATK_RETURN_NOT_OK(service->Recover(data_dir));
  return service;
}

Status RecommendationService::ApplyRecord(ServiceRecord record) {
  switch (record.type) {
    case ServiceRecordType::kTrainManifest:
      // Replay through the retrain path: the first manifest trains an
      // untrained service, a later one replaces the model — exactly the
      // semantics the original call had.
      return TrainInternal(record.corpus, /*allow_retrain=*/true);
    case ServiceRecordType::kConfirmAssignment:
      return ConfirmAssignment(record.bundle, record.error_code,
                               static_cast<int64_t>(record.ordinal));
    case ServiceRecordType::kDefineErrorCode:
      return DefineErrorCode(record.part_id, record.code, record.description);
  }
  return Status::Internal("unhandled service record type");
}

Status RecommendationService::Recover(const std::string& data_dir) {
  const auto start = std::chrono::steady_clock::now();
  QATK_RETURN_NOT_OK(EnsureDataDir(data_dir));
  data_dir_ = data_dir;

  // 1. Latest checkpoint snapshot, if any. Absence is a fresh data dir;
  //    anything else wrong with it is genuine corruption and must fail
  //    the boot rather than silently serve partial state.
  Result<ServiceSnapshot> snapshot_or =
      ReadSnapshot(ServiceSnapshotPath(data_dir));
  if (snapshot_or.ok()) {
    ServiceSnapshot& snapshot = *snapshot_or;
    auto next = std::make_shared<TrainedState>();
    for (kb::KnowledgeNode& node : snapshot.nodes) {
      next->knowledge.RestoreNode(std::move(node));
    }
    next->index = kb::FrozenIndex::Build(next->knowledge);
    for (const auto& [part, codes] : snapshot.frequency) {
      for (const auto& [code, count] : codes) {
        next->frequency.Restore(part, code, static_cast<size_t>(count));
      }
    }
    next->compose_context =
        kb::DescriptionCatalog(std::move(snapshot.part_descriptions),
                               std::move(snapshot.error_descriptions));
    next->manual_codes = std::move(snapshot.manual_codes);
    next->node_ordinals = std::move(snapshot.node_ordinals);
    next->ordinal_high = snapshot.ordinal_high;
    // An untrained snapshot serves nothing; the train record replayed on
    // top of it builds the trie.
    if (snapshot.trained) {
      next->concepts = kb::BuildConcepts(Options::model, taxonomy_);
    }
    next->generation = NextGeneration();
    if (snapshot.trained) RecordIndexStats(next->index);
    {
      std::lock_guard<std::mutex> writer_lock(writer_mutex_);
      Publish(std::move(next));
    }
    trained_.store(snapshot.trained, std::memory_order_release);
    last_lsn_.store(snapshot.last_lsn, std::memory_order_release);
    recovered_snapshot_ = true;
  } else if (!snapshot_or.status().IsKeyError()) {
    return snapshot_or.status();
  }

  // 2. Open the log and replay its tail on top of the snapshot. Records
  //    the snapshot already covers (the crash window between snapshot
  //    rename and log truncate) are skipped by lsn — replay twice, get
  //    the same state.
  QATK_ASSIGN_OR_RETURN(std::unique_ptr<ServiceLog> log,
                        ServiceLog::Open(ServiceLogPath(data_dir)));
  log_ = std::move(log);
  if (options_.fault != nullptr) log_->set_fault_injector(options_.fault);
  QATK_ASSIGN_OR_RETURN(std::vector<ServiceRecord> records, log_->ReadAll());
  replaying_ = true;
  for (ServiceRecord& record : records) {
    if (record.lsn <= last_lsn_.load(std::memory_order_relaxed)) continue;
    const uint64_t lsn = record.lsn;
    Status applied = ApplyRecord(std::move(record));
    if (!applied.ok()) {
      replaying_ = false;
      return Status(applied.code(),
                    "replaying service log record lsn=" + std::to_string(lsn) +
                        ": " + applied.message());
    }
    last_lsn_.store(lsn, std::memory_order_release);
    ++replayed_records_;
    Metrics().replay_records->Add();
  }
  replaying_ = false;

  recovery_us_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  Metrics().recovery_us->Record(recovery_us_);
  QATK_LOG(INFO) << "recovered service state from '" << data_dir << "': "
                 << (recovered_snapshot_ ? "snapshot" : "no snapshot") << " + "
                 << replayed_records_ << " replayed records, last_lsn="
                 << last_lsn_.load(std::memory_order_relaxed) << " ("
                 << recovery_us_ << " us)";
  return Status::OK();
}

ServiceSnapshot RecommendationService::BuildSnapshot() const {
  ServiceSnapshot snapshot;
  snapshot.last_lsn = last_lsn_.load(std::memory_order_relaxed);
  snapshot.trained = trained_.load(std::memory_order_relaxed);
  const TrainedState& state = *state_;
  snapshot.nodes.reserve(state.knowledge.num_nodes());
  for (size_t i = 0; i < state.knowledge.num_nodes(); ++i) {
    snapshot.nodes.push_back(state.knowledge.node(i));
  }
  for (const auto& [part, codes] : state.frequency.counts()) {
    auto& out = snapshot.frequency[part];
    for (const auto& [code, count] : *codes) {
      out[code] = static_cast<uint64_t>(count);
    }
  }
  snapshot.part_descriptions = state.compose_context.part_descriptions();
  snapshot.error_descriptions = state.compose_context.error_descriptions();
  snapshot.manual_codes = state.manual_codes;
  snapshot.node_ordinals = state.node_ordinals;
  snapshot.ordinal_high = state.ordinal_high;
  return snapshot;
}

Status RecommendationService::Checkpoint() {
  if (log_ == nullptr) {
    return Status::Invalid("Checkpoint on an ephemeral service");
  }
  std::lock_guard<std::mutex> writer_lock(writer_mutex_);
  ServiceSnapshot snapshot = BuildSnapshot();
  // Order matters: the snapshot must be durably renamed into place before
  // the log shrinks, so every record the truncate discards is covered by
  // the snapshot. A crash between the two steps leaves both — replay
  // skips the covered records by lsn.
  QATK_RETURN_NOT_OK(WriteSnapshot(ServiceSnapshotPath(data_dir_), snapshot,
                                   options_.fault));
  QATK_RETURN_NOT_OK(log_->Truncate());
  Metrics().checkpoints->Add();
  QATK_LOG(INFO) << "checkpointed service state to '" << data_dir_
                 << "' (last_lsn=" << snapshot.last_lsn << ", "
                 << snapshot.nodes.size() << " nodes)";
  return Status::OK();
}

}  // namespace qatk::quest
