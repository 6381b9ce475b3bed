#include "cas/annotators.h"

#include "common/strutil.h"

namespace qatk::cas {

Status TokenizerAnnotator::Process(Cas* cas) {
  for (const text::Token& token : tokenizer_.Tokenize(cas->document())) {
    Annotation a;
    a.type = types::kToken;
    a.begin = token.begin;
    a.end = token.end;
    a.string_features[types::kFeatureKind] =
        token.kind == text::TokenKind::kWord ? "word" : "punct";
    if (token.kind == text::TokenKind::kWord) {
      a.string_features[types::kFeatureNorm] = FoldGerman(token.text);
    }
    QATK_RETURN_NOT_OK(cas->Add(std::move(a)));
  }
  return Status::OK();
}

}  // namespace qatk::cas
