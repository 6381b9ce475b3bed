#include "core/similarity.h"

#include <algorithm>
#include <cmath>

namespace qatk::core {

const char* SimilarityMeasureToString(SimilarityMeasure measure) {
  switch (measure) {
    case SimilarityMeasure::kJaccard: return "jaccard";
    case SimilarityMeasure::kOverlap: return "overlap";
    case SimilarityMeasure::kDice: return "dice";
    case SimilarityMeasure::kCosine: return "cosine";
  }
  return "?";
}

Result<SimilarityMeasure> SimilarityMeasureFromString(
    const std::string& name) {
  if (name == "jaccard") return SimilarityMeasure::kJaccard;
  if (name == "overlap") return SimilarityMeasure::kOverlap;
  if (name == "dice") return SimilarityMeasure::kDice;
  if (name == "cosine") return SimilarityMeasure::kCosine;
  return Status::Invalid("unknown similarity measure '" + name + "'");
}

size_t IntersectionSize(const std::vector<int64_t>& a,
                        const std::vector<int64_t>& b) {
  size_t i = 0;
  size_t j = 0;
  size_t shared = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++shared;
      ++i;
      ++j;
    }
  }
  return shared;
}

double Similarity(SimilarityMeasure measure, const std::vector<int64_t>& a,
                  const std::vector<int64_t>& b) {
  return SimilarityFromCounts(measure, IntersectionSize(a, b), a.size(),
                              b.size());
}

double SimilarityFromCounts(SimilarityMeasure measure, size_t shared_count,
                            size_t size_a, size_t size_b) {
  if (size_a == 0 && size_b == 0) return 0.0;
  double shared = static_cast<double>(shared_count);
  double na = static_cast<double>(size_a);
  double nb = static_cast<double>(size_b);
  switch (measure) {
    case SimilarityMeasure::kJaccard: {
      double united = na + nb - shared;
      return united == 0.0 ? 0.0 : shared / united;
    }
    case SimilarityMeasure::kOverlap: {
      double smaller = std::min(na, nb);
      return smaller == 0.0 ? 0.0 : shared / smaller;
    }
    case SimilarityMeasure::kDice: {
      double total = na + nb;
      return total == 0.0 ? 0.0 : 2.0 * shared / total;
    }
    case SimilarityMeasure::kCosine: {
      double denom = std::sqrt(na * nb);
      return denom == 0.0 ? 0.0 : shared / denom;
    }
  }
  return 0.0;
}

}  // namespace qatk::core
