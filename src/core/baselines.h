#ifndef QATK_CORE_BASELINES_H_
#define QATK_CORE_BASELINES_H_

#include <map>
#include <string>
#include <vector>

#include "common/cow.h"
#include "core/classifier.h"
#include "kb/knowledge_base.h"

namespace qatk::core {

/// \brief The code-frequency baseline (§5.1 baseline 1): "all error codes
/// which are available in the database for the part ID of the data bundle
/// under consideration are sorted by their frequency in this database, and
/// the first k returned". Ignores the text entirely.
///
/// Counts live in one copy-on-write table per part: a copy of the
/// baseline shares every table, and a later observation clones only its
/// own part's.
class CodeFrequencyBaseline {
 public:
  /// error code -> observation count, for one part.
  using PartCounts = std::map<std::string, size_t>;

  CodeFrequencyBaseline() = default;

  /// Counts one training observation of (part id, error code).
  void AddObservation(const std::string& part_id,
                      const std::string& error_code);

  /// Persistence path: restores a serialized count verbatim.
  void Restore(const std::string& part_id, const std::string& error_code,
               size_t count) {
    counts_[part_id].Mutable()[error_code] = count;
  }

  /// Error codes for the part, most frequent first (score = count).
  /// Frequency ties break lexicographically for determinism. Unknown
  /// parts yield an empty list.
  std::vector<ScoredCode> Rank(const std::string& part_id) const;

  size_t num_parts() const { return counts_.size(); }

  /// Raw (part id -> error code -> count) table, ordered both ways
  /// (std::map), for snapshot serialization.
  const std::map<std::string, CowPtr<PartCounts>>& counts() const {
    return counts_;
  }

 private:
  std::map<std::string, CowPtr<PartCounts>> counts_;
};

/// \brief The unsorted-candidate-set baseline (§5.1 baseline 2): the error
/// codes of all candidate nodes (same part id, >= 1 shared feature), in
/// knowledge-base order, without any similarity scoring. All entries carry
/// score 0 — the list order is the arbitrary retrieval order.
class CandidateSetBaseline {
 public:
  CandidateSetBaseline() = default;

  std::vector<ScoredCode> Rank(const kb::KnowledgeBase& knowledge,
                               const std::string& part_id,
                               const std::vector<int64_t>& features) const;
};

}  // namespace qatk::core

#endif  // QATK_CORE_BASELINES_H_
