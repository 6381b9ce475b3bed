#ifndef QATK_CORE_CLASSIFIER_H_
#define QATK_CORE_CLASSIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/similarity.h"
#include "kb/frozen_index.h"
#include "kb/knowledge_base.h"

namespace qatk::core {

/// One ranked error-code recommendation.
struct ScoredCode {
  std::string error_code;
  double score = 0;

  bool operator==(const ScoredCode& other) const {
    return error_code == other.error_code && score == other.score;
  }
};

/// \brief The paper's adapted kNN classifier (§4.2/§4.3).
///
/// Derivation from the bare-bones algorithm of §4.2:
///   given object o without class: for each candidate knowledge node,
///   compute similarity(o, node); sort descending; derive the class
///   assignment from the sorting.
///
/// Adaptations (§4.3): no majority vote — "instead ... we output a list of
/// all potential error keys ranked by the distance of the knowledge base
/// instances to the data bundle". Concretely: retrieve the error codes of
/// the `max_nodes` (25) best-scored candidate nodes; each distinct code is
/// scored by its best node. The UI then cuts the list at k for initial
/// presentation; lower items stay accessible, which also removes standard
/// kNN's sensitivity to the choice of k (Fig. 6 vs Fig. 7).
class RankedKnnClassifier {
 public:
  struct Config {
    SimilarityMeasure similarity = SimilarityMeasure::kJaccard;
    /// "We retrieve the error codes of the 25 best-scored candidate
    /// nodes" (§4.3).
    size_t max_nodes = 25;
  };

  explicit RankedKnnClassifier(Config config) : config_(config) {}
  RankedKnnClassifier()
      : RankedKnnClassifier(Config{SimilarityMeasure::kJaccard, 25}) {}

  /// Ranks error codes for a probe feature set against pre-selected
  /// candidate nodes. Ties break toward nodes encountered earlier
  /// (deterministic: candidates arrive in knowledge-base order).
  std::vector<ScoredCode> Rank(
      const std::vector<int64_t>& probe_features,
      const std::vector<const kb::KnowledgeNode*>& candidates) const;

  /// Convenience: candidate selection (Fig. 5) + ranking in one call.
  /// This is the brute-force reference path: it materializes the candidate
  /// set and re-merges every candidate's sorted feature vector.
  std::vector<ScoredCode> Classify(const kb::KnowledgeBase& knowledge,
                                   const std::string& part_id,
                                   const std::vector<int64_t>& features) const;

  /// Indexed path: term-at-a-time accumulation over the frozen CSR index
  /// plus a top-max_nodes selection over the scored candidates —
  /// O(postings touched) instead of O(candidates × merge). Bit-identical to the brute-force Classify:
  /// same scores, same arrival-order tie-breaking, same unknown-part
  /// all-nodes fallback. `scratch` is the caller's (typically per-thread)
  /// accumulator; when `num_candidates` is non-null it receives the
  /// candidate-set size the brute-force path would have scored.
  std::vector<ScoredCode> Classify(const kb::FrozenIndex& index,
                                   const std::string& part_id,
                                   const std::vector<int64_t>& features,
                                   kb::FrozenIndex::Scratch* scratch,
                                   size_t* num_candidates = nullptr) const;

  /// The indexed Classify into `*ranked` (replacing its contents), cut
  /// after the best `max_codes` distinct codes; Classify keeps max_nodes,
  /// so every code. The ScoredCode entries already there are reassigned
  /// in place, so a caller that reuses `ranked` keeps its capacity and its
  /// code strings' buffers.
  void ClassifyInto(const kb::FrozenIndex& index, const std::string& part_id,
                    const std::vector<int64_t>& features, size_t max_codes,
                    kb::FrozenIndex::Scratch* scratch,
                    std::vector<ScoredCode>* ranked,
                    size_t* num_candidates = nullptr) const;

  /// Node-level half of the indexed Classify, stopping *before* code
  /// dedup: accumulation, then every candidate scored into
  /// `scratch->scored`, a quickselect with a branch-free partition that
  /// moves the best max_nodes to its front, and a counting-rank sort of
  /// those. On return `scratch->top` holds the best max_nodes
  /// (score, node) pairs sorted best-first under the exact
  /// (score desc, node asc) order; the return value says whether the
  /// part was known. Shard workers serve this raw
  /// per-node list so a scatter-gather front-end can merge partials and
  /// dedup codes globally with unchanged tie-breaking.
  bool SelectTopNodes(const kb::FrozenIndex& index, const std::string& part_id,
                      const std::vector<int64_t>& features,
                      kb::FrozenIndex::Scratch* scratch,
                      size_t* num_candidates = nullptr) const;

  const Config& config() const { return config_; }

 private:
  Config config_;
};

/// Returns the 1-based rank of `truth` in `ranked`, or 0 when absent —
/// the quantity behind Accuracy@k (§5.1).
size_t RankOf(const std::vector<ScoredCode>& ranked,
              const std::string& truth);

}  // namespace qatk::core

#endif  // QATK_CORE_CLASSIFIER_H_
