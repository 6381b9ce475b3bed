#ifndef QATK_CAS_CAS_H_
#define QATK_CAS_CAS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace qatk::cas {

/// \brief A typed feature structure anchored to a span of the document
/// text, mirroring UIMA annotations (type + begin/end + features).
struct Annotation {
  std::string type;
  size_t begin = 0;
  size_t end = 0;
  std::map<std::string, std::string> string_features;
  std::map<std::string, int64_t> int_features;

  /// Convenience accessors; return empty/0 when absent.
  std::string_view GetString(const std::string& key) const {
    auto it = string_features.find(key);
    return it == string_features.end() ? std::string_view() : it->second;
  }
  int64_t GetInt(const std::string& key) const {
    auto it = int_features.find(key);
    return it == int_features.end() ? 0 : it->second;
  }
};

/// Well-known annotation types and feature keys used by the QATK pipeline.
namespace types {
inline constexpr char kToken[] = "Token";
inline constexpr char kConcept[] = "Concept";
inline constexpr char kFeatureKind[] = "kind";        // "word" | "punct"
inline constexpr char kFeatureNorm[] = "norm";        // folded token text
inline constexpr char kFeatureConceptId[] = "concept_id";  // int
inline constexpr char kFeatureCategory[] = "category";     // taxonomy kind
}  // namespace types

/// \brief Common Analysis Structure: one document plus its annotations,
/// handed from one Analysis Engine to the next (paper §4.5.2 — one CAS
/// holds one data bundle).
///
/// Serving and training do not build a CAS (kb::FeatureExtractor runs the
/// same calls in one direct pass). What remains is what the
/// annotator-coverage experiment (E6, legacy vs trie annotator) and the
/// loadbench trace use: the tokenizer and concept annotators writing
/// annotations here.
///
/// Annotations are stored per type and kept sorted by (begin, end) for
/// deterministic iteration.
class Cas {
 public:
  explicit Cas(std::string document) : document_(std::move(document)) {}

  const std::string& document() const { return document_; }

  /// Adds an annotation; spans must lie within the document.
  Status Add(Annotation annotation);

  /// All annotations of `type`, ordered by (begin, end). The pointers stay
  /// valid until the next Add of that type.
  std::vector<const Annotation*> Select(const std::string& type) const;

  size_t CountType(const std::string& type) const;

  /// The document substring an annotation covers.
  std::string_view CoveredText(const Annotation& annotation) const;

 private:
  std::string document_;
  std::map<std::string, std::vector<Annotation>> annotations_;
};

/// \brief One Analysis Engine: reads a CAS and adds annotations.
///
/// Mirrors UIMA's annotator contract: annotators are stateless with respect
/// to individual documents and build on findings of earlier engines
/// (paper §4.5.2).
class Annotator {
 public:
  virtual ~Annotator() = default;

  /// Processes one document.
  virtual Status Process(Cas* cas) = 0;
};

}  // namespace qatk::cas

#endif  // QATK_CAS_CAS_H_
