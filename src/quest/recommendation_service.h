#ifndef QATK_QUEST_RECOMMENDATION_SERVICE_H_
#define QATK_QUEST_RECOMMENDATION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/result.h"
#include "core/baselines.h"
#include "core/classifier.h"
#include "kb/data_bundle.h"
#include "kb/features.h"
#include "kb/frozen_index.h"
#include "kb/knowledge_base.h"
#include "quest/service_log.h"
#include "taxonomy/concept_trie.h"
#include "taxonomy/taxonomy.h"

namespace qatk::quest {

/// \brief The QUEST error-code assignment backend (paper §4.5.4): trains a
/// knowledge base once, then serves ranked recommendations per bundle.
///
/// UI contract reproduced from the paper: "the user is first presented
/// with a selection of the 10 most likely error codes in descending order
/// of likelihood. If the user decides that the correct error code is not
/// among these 10 codes, they can access the list of all error codes
/// available for the part ID of the current data bundle". Users with
/// extended rights can also define new error codes (DefineErrorCode).
///
/// Thread-safety — RCU-style snapshot publication (DESIGN.md §12):
/// all trained state lives in one immutable TrainedState object held by
/// `shared_ptr`. Writers (Train / Retrain / ConfirmAssignment /
/// DefineErrorCode) serialize on a writer mutex, build a complete
/// replacement state aside, and publish it with a pointer swap plus a
/// release store of its generation number. Readers (Recommend /
/// RecommendForText) keep a `thread_local` ReaderState — the snapshot
/// pointer, a FeatureExtractor over that snapshot's concept trie, and the
/// epoch-tagged scoring scratch — validated against the service's
/// generation counter with a single atomic acquire load. While the
/// generation is unchanged the hot path acquires ZERO locks, and
/// RecommendInto allocates nothing (document, features and scratch are
/// the ReaderState's, the result the caller's); a generation change
/// (retrain, confirm) sends the reader through a short mutex-guarded
/// refresh that rebinds the snapshot and sets up a small extractor over
/// the snapshot's shared concept trie — the trie itself is never rebuilt
/// by a refresh or a confirm, only by Train / Retrain / Open. Per-thread
/// state retires deterministically with its thread (thread_local
/// destruction), so neither terminated threads nor reused thread ids can
/// leak or alias reader state.
class RecommendationService {
 public:
  struct Options {
    /// The one serving configuration, fixed at compile time so every shard
    /// and the coordinator rank alike by construction. The feature model
    /// is bag-of-concepts, the model the paper concludes is industrially
    /// feasible (§5.2.2), scored with Jaccard; the top `top_n` codes come
    /// from the `max_nodes` best-scored nodes (§4.3).
    static constexpr kb::FeatureModel model = kb::FeatureModel::kBagOfConcepts;
    static constexpr core::SimilarityMeasure similarity =
        core::SimilarityMeasure::kJaccard;
    static constexpr size_t max_nodes = 25;
    static constexpr size_t top_n = 10;
    /// Optional fault injector (borrowed, may be nullptr); training
    /// observes op "train.bundle" once per corpus bundle, so tests can
    /// fail a training pass at any point and assert it had no effect.
    FaultInjector* fault = nullptr;

    /// Cluster shard scoping. When active, Train keeps only the knowledge
    /// nodes whose part id this shard owns (per `owns_part`), while still
    /// counting the *whole* corpus in order so merge ordinals come out
    /// identical on every shard. The scope is a plain predicate so quest/
    /// stays independent of src/cluster/.
    struct ShardScope {
      uint32_t shard_index = 0;
      uint32_t num_shards = 1;
      /// Sharder name ("hash"), surfaced in Health so the coordinator
      /// can verify the cluster is partitioned consistently.
      std::string sharder;
      std::function<bool(const std::string&)> owns_part;
      bool active() const { return static_cast<bool>(owns_part); }
    };
    ShardScope shard;
  };

  /// One immutable, internally consistent trained model: the knowledge
  /// base, the frozen CSR index built from exactly that knowledge base,
  /// the concept trie its features were annotated with, and every catalog
  /// the read paths consult. Published as `shared_ptr<const TrainedState>`
  /// and never mutated afterwards, so any reader holding the pointer sees
  /// a coherent (index, trie) pairing for as long as it keeps it.
  /// A copy shares the bulky parts by pointer — knowledge-base parts,
  /// index segments, frequency tables, catalogs, concept trie — and
  /// copies only flat per-node arrays, so a confirm successor costs one
  /// part's rebuild, not the whole model's.
  struct TrainedState {
    /// Globally unique publish id (monotone across all service
    /// instances); 0 is reserved for the untrained empty state.
    uint64_t generation = 0;
    /// Always empty and shared by every state: concept features intern no
    /// word. Only the service's extractors read it.
    static inline const kb::FeatureVocabulary vocabulary{};
    kb::KnowledgeBase knowledge;
    kb::FrozenIndex index;
    core::CodeFrequencyBaseline frequency;
    /// The taxonomy compiled for annotation (null while untrained). Built
    /// once by Train / Retrain / Open from the taxonomy as it was then,
    /// and shared by pointer with every confirm successor and reader
    /// extractor of this model.
    std::shared_ptr<const tax::ConceptTrie> concepts;
    /// Part and error-code description catalogs, read by every
    /// ComposeDocument of this model and shared by pointer with its
    /// confirm successors.
    kb::DescriptionCatalog compose_context;
    /// Codes defined through the UI after training (frequency 0).
    std::map<std::string, std::vector<std::string>> manual_codes;
    /// Cluster merge ordinals, parallel to the knowledge nodes: the node's
    /// position in the *global* (all-shards) insertion order. On a shard
    /// that owns only a slice, local node indices are not comparable across
    /// shards, but ordinals are — the scatter-gather merge breaks score
    /// ties on (ordinal asc) and reproduces the single-node (node asc)
    /// tie-breaking exactly. Empty entries fall back to the local node
    /// index (correct for an unscoped state, where local == global).
    std::vector<uint64_t> node_ordinals;
    /// One past the highest ordinal consumed; confirms without an explicit
    /// ordinal (single-node operation) continue from here.
    uint64_t ordinal_high = 0;
  };

  /// `taxonomy` (non-null) must outlive the service. It is read only at
  /// Train, Retrain and Open, which compile it into the snapshot's concept
  /// trie; confirms and reads keep annotating with that trie, so a
  /// taxonomy mutation (e.g. Taxonomy::AddSynonym) takes effect at the
  /// next Retrain, never half-way through a trained model. A service
  /// constructed this way is *ephemeral*: mutations live only in memory.
  /// Use Open for a durable, crash-recoverable service.
  RecommendationService(const tax::Taxonomy* taxonomy, Options options);

  /// Recovery outcome and live durability state of an Open'ed service.
  struct DurabilityStats {
    /// True when the service was opened with a data dir (mutations are
    /// logged and fsynced before they are acknowledged).
    bool durable = false;
    /// True when boot restored a checkpoint snapshot.
    bool recovered_snapshot = false;
    /// Log records replayed on top of the snapshot at boot.
    uint64_t replayed_records = 0;
    /// Log sequence number of the last durable mutation.
    uint64_t last_lsn = 0;
    /// Wall time of the boot recovery pass (snapshot load + replay).
    uint64_t recovery_us = 0;
  };

  /// Opens a durable service rooted at `data_dir` (created if missing):
  /// restores the latest checkpoint snapshot if one exists, replays the
  /// service log tail on top of it (skipping records the snapshot already
  /// covers — replay is idempotent), and from then on appends every
  /// mutation to the log with an ack-after-fsync contract. The recovered
  /// state is bit-identical to the state an uncrashed service would hold
  /// after the same acknowledged mutations, because every mutation is
  /// logged logically and re-applied through the normal deterministic
  /// code paths.
  static Result<std::unique_ptr<RecommendationService>> Open(
      const tax::Taxonomy* taxonomy, Options options,
      const std::string& data_dir);

  /// Writes a checkpoint snapshot of the current state and truncates the
  /// log. Crash-safe in every window: the snapshot replaces the old one
  /// atomically (tmp + rename), and a crash between the rename and the
  /// truncate merely leaves records the snapshot already covers — replay
  /// skips them by lsn. Invalid on an ephemeral service.
  Status Checkpoint();

  bool durable() const { return log_ != nullptr; }

  /// Snapshot of the durability state; safe to call concurrently with
  /// writers (recovery fields are frozen after Open returns).
  DurabilityStats durability() const {
    DurabilityStats stats;
    stats.durable = durable();
    stats.recovered_snapshot = recovered_snapshot_;
    stats.replayed_records = replayed_records_;
    stats.last_lsn = last_lsn_.load(std::memory_order_acquire);
    stats.recovery_us = recovery_us_;
    return stats;
  }

  /// Builds the knowledge base, the frequency-sorted full lists, and the
  /// description catalogs from a coded corpus. Callable once. Atomic: the
  /// whole model is built aside and published only on success, so a
  /// failed pass leaves the service exactly as it was (still untrained,
  /// still serving nothing).
  Status Train(const kb::Corpus& corpus);

  /// Replaces the trained model with one built from `corpus`. Unlike
  /// Train it is callable on an already-trained service; readers never
  /// block on the build and keep serving the old snapshot until the
  /// publish. On failure the old model keeps serving.
  Status Retrain(const kb::Corpus& corpus);

  /// Ranked recommendation for one (possibly uncoded) bundle.
  struct Recommendation {
    /// Top-N codes, best first.
    std::vector<core::ScoredCode> top;
    /// True when more candidates existed beyond top (the UI shows the
    /// "view all codes" affordance either way).
    bool truncated = false;
  };
  Result<Recommendation> Recommend(const kb::DataBundle& bundle) const;

  /// Recommend into `*out` (replacing its contents). The composed
  /// document and the features live in the calling thread's reader state,
  /// and `out`'s vector and code strings are reassigned in place, so a
  /// caller that reuses `out` allocates nothing once warmed up. On error
  /// `*out` is unspecified.
  Status RecommendInto(const kb::DataBundle& bundle,
                       Recommendation* out) const;

  /// One pre-dedup candidate node of a shard's local top-max_nodes, as
  /// served to the scatter-gather front-end.
  struct ShardPartialItem {
    std::string error_code;
    double score = 0;
    /// Global insertion ordinal of the node (see TrainedState).
    uint64_t ordinal = 0;
  };

  /// A shard's answer to one fan-out probe.
  struct ShardPartial {
    /// Whether this shard's index knows the probed part id.
    bool known_part = false;
    /// Echo of the request's fallback flag (all-nodes sweep ran).
    bool fallback = false;
    /// Local best max_nodes nodes, best-first under the exact
    /// (score desc, ordinal asc) order, *before* code dedup — the
    /// coordinator dedups globally after merging.
    std::vector<ShardPartialItem> items;
  };

  /// Shard-side scatter-gather probe for one bundle: composes the
  /// test-time document exactly like Recommend, but returns the raw
  /// per-node top-max_nodes partial instead of a deduped code list. With
  /// `fallback` false, an unknown part returns {known_part=false} without
  /// scoring (the coordinator probes the owner first); with `fallback`
  /// true the all-nodes sweep runs, zero-shared nodes included, exactly
  /// like the single-node unknown-part path.
  Result<ShardPartial> ShardTopK(const kb::DataBundle& bundle,
                                 bool fallback) const;

  /// ShardTopK for a foreign-source text (the RecommendForText analogue).
  Result<ShardPartial> ShardTopKForText(const std::string& part_id,
                                        const std::string& text,
                                        bool fallback) const;

  /// Classifies a foreign-source text under an OEM part id (§5.4: applying
  /// the knowledge base to NHTSA complaint narratives).
  Result<Recommendation> RecommendForText(const std::string& part_id,
                                          const std::string& text) const;

  /// The fallback list: every error code known for the part, sorted by
  /// training-set frequency (most frequent first). Each code appears at
  /// most once — a manually defined code that has since gathered confirmed
  /// observations shows only its frequency-ranked entry.
  std::vector<core::ScoredCode> FullListForPart(
      const std::string& part_id) const;

  /// Online learning: folds a confirmed final assignment back into the
  /// knowledge base and the frequency statistics, so the next
  /// recommendations benefit from the expert's decision. `bundle` should
  /// carry all reports available at confirmation time.
  /// `ordinal` is the cluster-wide insertion ordinal assigned by the
  /// scatter-gather coordinator (-1 = single-node operation: the service
  /// continues from its own ordinal_high). When the confirm merges into an
  /// existing (part, code, features) node, no new ordinal is recorded —
  /// exactly as the single-node knowledge base keeps the original node
  /// index on a merge. When the service is shard-scoped, a bundle whose
  /// part this shard does not own is rejected (the coordinator routes to
  /// the owner).
  Status ConfirmAssignment(const kb::DataBundle& bundle,
                           const std::string& error_code,
                           int64_t ordinal = -1);

  /// Registers a new error code for a part (QUEST "create new error
  /// codes" capability). Fails if the code already exists for the part,
  /// or if it exists anywhere with a *different* description (error-code
  /// descriptions are global; the first registration wins and is never
  /// silently overwritten).
  Status DefineErrorCode(const std::string& part_id, const std::string& code,
                         const std::string& description);

  /// Description of an error code, if known.
  Result<std::string> DescribeCode(const std::string& code) const;

  bool trained() const { return trained_.load(std::memory_order_acquire); }

  const Options& options() const { return options_; }

  /// One past the highest merge ordinal of the published state. Same
  /// synchronization caveat as knowledge().
  uint64_t ordinal_high() const { return Snapshot()->ordinal_high; }

  /// Direct knowledge-base access for tests and offline analysis. Not
  /// synchronized: call only while no writer is active.
  const kb::KnowledgeBase& knowledge() const { return Snapshot()->knowledge; }

  /// The frozen CSR index currently serving (built by every successful
  /// Train / Retrain; a ConfirmAssignment rebuilds the confirmed part's
  /// segment only). Same synchronization caveat as knowledge().
  const kb::FrozenIndex& frozen_index() const { return Snapshot()->index; }

  /// The current published snapshot. Takes the (tiny) snapshot mutex, so
  /// prefer the Recommend entry points on hot paths; the returned state
  /// stays alive and coherent for as long as the pointer is held.
  std::shared_ptr<const TrainedState> Snapshot() const;

  /// Number of ReaderState objects alive across all threads and service
  /// instances. Test hook for the reader-lifecycle regression tests:
  /// thread_local retirement must keep this bounded by the number of live
  /// serving threads, no matter how many threads have come and gone.
  static int64_t LiveReaderStatesForTest();

  /// Total reader-snapshot refreshes (slow-path re-binds) across the
  /// process. Test hook proving the hot path stays on the lock-free fast
  /// path: N queries on an unchanged generation add at most 1 here.
  static uint64_t ReaderRefreshesForTest();

 private:
  struct ReaderState;  // Per-thread reader cache entry (defined in .cc).

  /// Shared body of Train/Retrain: builds the full model aside, then
  /// publishes it. Caller must NOT hold writer_mutex_.
  Status TrainInternal(const kb::Corpus& corpus, bool allow_retrain);

  /// Returns this thread's ReaderState for the current generation,
  /// refreshing only when the generation moved since the thread's last
  /// query. A refresh rebinds the snapshot under the mutex and sets up an
  /// extractor over the snapshot's shared concept trie; it never rebuilds
  /// the trie. The fast path is one atomic acquire load plus a tiny
  /// thread_local scan: no locks, no allocation.
  ReaderState& AcquireReader() const;

  /// Classification body shared by RecommendInto / RecommendForText;
  /// operates entirely on `reader`'s pinned snapshot.
  Status RecommendWithReader(ReaderState& reader, const std::string& part_id,
                             const std::string& text,
                             Recommendation* out) const;

  /// Shared body of ShardTopK / ShardTopKForText.
  Result<ShardPartial> ShardTopKWithReader(ReaderState& reader,
                                           const std::string& part_id,
                                           const std::string& text,
                                           bool fallback) const;

  /// Swaps `next` in as the published state (writer_mutex_ must be held)
  /// and release-stores its generation so readers notice.
  void Publish(std::shared_ptr<const TrainedState> next);

  /// Boot path of Open: snapshot restore + log-tail replay. Runs before
  /// the service is shared, so it may call the public mutators directly
  /// (with replaying_ set, so they skip the write-through).
  Status Recover(const std::string& data_dir);

  /// Applies one replayed log record through the normal mutation path.
  Status ApplyRecord(ServiceRecord record);

  /// Serializes the published state (plus `last_lsn_`) for Checkpoint.
  /// Caller must hold writer_mutex_.
  ServiceSnapshot BuildSnapshot() const;

  const tax::Taxonomy* taxonomy_;
  Options options_;
  std::atomic<bool> trained_{false};

  /// Serializes writers; never taken by the read paths.
  mutable std::mutex writer_mutex_;
  /// Guards only the `state_` pointer itself. Readers take it exclusively
  /// on the generation-change slow path; writers hold it just for the
  /// pointer swap inside Publish.
  mutable std::mutex snapshot_mutex_;
  /// Current immutable snapshot; never null (starts as an empty
  /// generation-0 state).
  std::shared_ptr<const TrainedState> state_;
  /// Generation of `state_`, redundantly published as a plain atomic so
  /// the reader fast path can validate its cache without any lock.
  std::atomic<uint64_t> generation_{0};

  /// Durability state (null/zero on an ephemeral service). `log_` and the
  /// recovery outcome fields are set once during Open and never change;
  /// `last_lsn_` advances under writer_mutex_ but is read lock-free by
  /// durability().
  std::string data_dir_;
  std::unique_ptr<ServiceLog> log_;
  std::atomic<uint64_t> last_lsn_{0};
  /// True only inside Recover's replay loop: the mutators skip the
  /// write-through so a replayed record is not re-appended.
  bool replaying_ = false;
  bool recovered_snapshot_ = false;
  uint64_t replayed_records_ = 0;
  uint64_t recovery_us_ = 0;

  core::RankedKnnClassifier classifier_;
};

}  // namespace qatk::quest

#endif  // QATK_QUEST_RECOMMENDATION_SERVICE_H_
