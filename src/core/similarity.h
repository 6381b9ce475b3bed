#ifndef QATK_CORE_SIMILARITY_H_
#define QATK_CORE_SIMILARITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace qatk::core {

/// Set-similarity measures over feature sets (paper §4.3 defines Jaccard
/// and Overlap; Dice and Cosine are our ablation extensions, enabled by the
/// classifier's parametrizability requirement: "can easily be used with
/// different similarity or distance measures").
enum class SimilarityMeasure {
  kJaccard,  ///< |A∩B| / |A∪B|
  kOverlap,  ///< |A∩B| / min(|A|, |B|)
  kDice,     ///< 2|A∩B| / (|A| + |B|)
  kCosine,   ///< |A∩B| / sqrt(|A|·|B|)  (binary vectors)
};

const char* SimilarityMeasureToString(SimilarityMeasure measure);
Result<SimilarityMeasure> SimilarityMeasureFromString(
    const std::string& name);

/// Size of the intersection of two sorted, deduplicated id vectors.
size_t IntersectionSize(const std::vector<int64_t>& a,
                        const std::vector<int64_t>& b);

/// Computes the chosen similarity for two sorted, deduplicated feature
/// sets. Two empty sets have similarity 0 (nothing shared, nothing known).
double Similarity(SimilarityMeasure measure, const std::vector<int64_t>& a,
                  const std::vector<int64_t>& b);

/// Same computation from pre-counted set sizes: all four measures depend
/// only on (|A∩B|, |A|, |B|), which is what lets the frozen-index path
/// replace the per-candidate merge with an accumulated shared count.
/// Bit-identical to Similarity on the same counts (same conversions, same
/// operation order).
double SimilarityFromCounts(SimilarityMeasure measure, size_t shared_count,
                            size_t size_a, size_t size_b);

}  // namespace qatk::core

#endif  // QATK_CORE_SIMILARITY_H_
