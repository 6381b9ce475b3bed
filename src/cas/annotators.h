#ifndef QATK_CAS_ANNOTATORS_H_
#define QATK_CAS_ANNOTATORS_H_

#include "cas/cas.h"
#include "text/tokenizer.h"

namespace qatk::cas {

/// \brief Stage 2a of the paper's pipeline: whitespace/punctuation
/// tokenization. Emits one kToken annotation per token with features
/// kind ("word"/"punct") and norm (folded text).
class TokenizerAnnotator final : public Annotator {
 public:
  TokenizerAnnotator() = default;

  Status Process(Cas* cas) override;

 private:
  text::Tokenizer tokenizer_;
};

}  // namespace qatk::cas

#endif  // QATK_CAS_ANNOTATORS_H_
