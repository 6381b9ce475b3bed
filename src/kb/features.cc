#include "kb/features.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "text/stopwords.h"

namespace qatk::kb {

const char* FeatureModelToString(FeatureModel model) {
  switch (model) {
    case FeatureModel::kBagOfWords: return "bag-of-words";
    case FeatureModel::kBagOfWordsNoStop: return "bag-of-words-nostop";
    case FeatureModel::kBagOfStems: return "bag-of-stems";
    case FeatureModel::kBagOfConcepts: return "bag-of-concepts";
  }
  return "?";
}

int64_t FeatureVocabulary::Intern(const std::string& word) {
  auto it = word_to_id_.find(word);
  if (it != word_to_id_.end()) return it->second;
  int64_t id = static_cast<int64_t>(id_to_word_.size());
  word_to_id_.emplace(word, id);
  id_to_word_.push_back(word);
  return id;
}

int64_t FeatureVocabulary::Lookup(const std::string& word) const {
  auto it = word_to_id_.find(word);
  return it == word_to_id_.end() ? -1 : it->second;
}

Result<std::string> FeatureVocabulary::WordOf(int64_t id) const {
  if (id < 0 || static_cast<size_t>(id) >= id_to_word_.size()) {
    return Status::KeyError("no word with id " + std::to_string(id));
  }
  return id_to_word_[static_cast<size_t>(id)];
}

Status FeatureVocabulary::Restore(const std::string& word, int64_t id) {
  if (id < 0) return Status::Invalid("negative vocabulary id");
  if (word_to_id_.count(word) > 0) {
    return Status::AlreadyExists("word '" + word + "' already interned");
  }
  if (static_cast<size_t>(id) != id_to_word_.size()) {
    return Status::Invalid("vocabulary ids must be restored densely in "
                           "order; got " +
                           std::to_string(id) + " expected " +
                           std::to_string(id_to_word_.size()));
  }
  word_to_id_.emplace(word, id);
  id_to_word_.push_back(word);
  return Status::OK();
}

std::vector<std::pair<std::string, int64_t>> FeatureVocabulary::Entries()
    const {
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(id_to_word_.size());
  for (size_t i = 0; i < id_to_word_.size(); ++i) {
    out.emplace_back(id_to_word_[i], static_cast<int64_t>(i));
  }
  return out;
}

namespace {

/// Word models share one immutable filter per process.
const text::StopwordFilter& Stopwords() {
  static const text::StopwordFilter filter;
  return filter;
}

}  // namespace

std::shared_ptr<const tax::ConceptTrie> BuildConcepts(
    FeatureModel model, const tax::Taxonomy* taxonomy) {
  if (model != FeatureModel::kBagOfConcepts) return nullptr;
  QATK_CHECK(taxonomy != nullptr) << "bag-of-concepts needs a taxonomy";
  return tax::ConceptTrie::Build(*taxonomy);
}

FeatureExtractor::FeatureExtractor(
    FeatureModel model, std::shared_ptr<const tax::ConceptTrie> concepts,
    const FeatureVocabulary* vocabulary, FeatureVocabulary* mutable_vocabulary)
    : model_(model),
      vocabulary_(vocabulary),
      mutable_vocabulary_(mutable_vocabulary),
      concepts_(model == FeatureModel::kBagOfConcepts ? std::move(concepts)
                                                      : nullptr) {
  QATK_CHECK(vocabulary_ != nullptr) << "vocabulary must be provided";
  QATK_CHECK(model_ != FeatureModel::kBagOfConcepts || concepts_ != nullptr)
      << "bag-of-concepts needs a concept trie";
}

FeatureExtractor::FeatureExtractor(
    FeatureModel model, std::shared_ptr<const tax::ConceptTrie> concepts,
    FeatureVocabulary* vocabulary)
    : FeatureExtractor(model, std::move(concepts), vocabulary, vocabulary) {}

FeatureExtractor::FeatureExtractor(
    FeatureModel model, std::shared_ptr<const tax::ConceptTrie> concepts,
    const FeatureVocabulary* vocabulary)
    : FeatureExtractor(model, std::move(concepts), vocabulary, nullptr) {}

FeatureExtractor::FeatureExtractor(FeatureModel model,
                                   const tax::Taxonomy* taxonomy,
                                   FeatureVocabulary* vocabulary)
    : FeatureExtractor(model, BuildConcepts(model, taxonomy), vocabulary) {}

FeatureExtractor::FeatureExtractor(FeatureModel model,
                                   const tax::Taxonomy* taxonomy,
                                   const FeatureVocabulary* vocabulary)
    : FeatureExtractor(model, BuildConcepts(model, taxonomy), vocabulary) {}

namespace {

/// `intern` null means frozen: unknown words are dropped via `lookup`.
void ResolveInto(FeatureModel model, const TermMentions& mentions,
                 const FeatureVocabulary* lookup, FeatureVocabulary* intern,
                 std::vector<int64_t>* features, size_t* mention_count) {
  size_t mentions_resolved = 0;
  if (model == FeatureModel::kBagOfConcepts) {
    features->assign(mentions.concept_ids.begin(),
                     mentions.concept_ids.end());
    mentions_resolved = features->size();
  } else {
    features->clear();
    features->reserve(mentions.words.size());
    for (const std::string& word : mentions.words) {
      int64_t id = intern != nullptr ? intern->Intern(word)
                                     : lookup->Lookup(word);
      if (id >= 0) {
        features->push_back(id);
        ++mentions_resolved;
      }
    }
  }
  std::sort(features->begin(), features->end());
  features->erase(std::unique(features->begin(), features->end()),
                  features->end());
  if (mention_count != nullptr) *mention_count = mentions_resolved;
}

}  // namespace

Result<std::vector<int64_t>> FeatureExtractor::Extract(
    const std::string& document) {
  std::vector<int64_t> features;
  QATK_RETURN_NOT_OK(ExtractInto(document, &features));
  return features;
}

Status FeatureExtractor::ExtractInto(const std::string& document,
                                     std::vector<int64_t>* features) {
  ExtractTermsInto(document, &mentions_);
  ResolveInto(model_, mentions_, vocabulary_, mutable_vocabulary_, features,
              &last_mention_count_);
  return Status::OK();
}

Result<TermMentions> FeatureExtractor::ExtractTerms(
    const std::string& document) {
  TermMentions mentions;
  ExtractTermsInto(document, &mentions);
  return mentions;
}

void FeatureExtractor::ExtractTermsInto(const std::string& document,
                                        TermMentions* mentions) {
  tokenizer_.WordsNormalized(document, &words_);
  const std::vector<std::string_view>& words = words_.words();
  mentions->words.clear();
  mentions->concept_ids.clear();
  switch (model_) {
    case FeatureModel::kBagOfConcepts:
      concepts_->FindMentions(words, &token_ids_, &matches_);
      for (const tax::ConceptTrie::Mention& match : matches_) {
        mentions->concept_ids.insert(mentions->concept_ids.end(),
                                     match.concepts.begin(),
                                     match.concepts.end());
      }
      break;
    case FeatureModel::kBagOfWords:
      mentions->words.assign(words.begin(), words.end());
      break;
    case FeatureModel::kBagOfWordsNoStop:
      for (std::string_view word : words) {
        if (!Stopwords().IsStopword(word)) mentions->words.emplace_back(word);
      }
      break;
    case FeatureModel::kBagOfStems: {
      const text::Language language = detector_.DetectFolded(words);
      // The filter reads the folded word, not its stem; filtering first
      // skips stemming stopwords.
      for (std::string_view word : words) {
        if (Stopwords().IsStopword(word)) continue;
        mentions->words.push_back(stemmer_.Stem(word, language));
      }
      break;
    }
  }
}

std::vector<int64_t> InternMentions(FeatureModel model,
                                    const TermMentions& mentions,
                                    FeatureVocabulary* vocabulary) {
  std::vector<int64_t> features;
  ResolveInto(model, mentions, vocabulary, vocabulary, &features, nullptr);
  return features;
}

}  // namespace qatk::kb
