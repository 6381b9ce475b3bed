// Pins the independent text reference (text_reference.h) to the production
// tokenizer and fold, so the equivalence tests built on it compare against
// the rules and not against a second bug: the fold exhaustively over short
// byte strings, the words over the demo corpus and the hostile documents.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/strutil.h"
#include "datagen/world.h"
#include "hostile_text.h"
#include "kb/data_bundle.h"
#include "server/demo_corpus.h"
#include "text/tokenizer.h"
#include "text_reference.h"

namespace qatk {
namespace {

/// Checks the naive fold of `input` against FoldGerman and
/// FoldGermanAppend (which must append, keeping what `out` held), and
/// that folding never lengthens the input: Tokenizer::WordsNormalized
/// relies on that for the views into its buffer, and only checks it with
/// a debug assertion.
void ExpectSameFold(const std::string& input) {
  const std::string expected = naive::Fold(input);
  ASSERT_EQ(FoldGerman(input), expected) << testing::PrintToString(input);
  std::string appended = "prefix";
  FoldGermanAppend(input, &appended);
  ASSERT_EQ(appended, "prefix" + expected) << testing::PrintToString(input);
  ASSERT_LE(expected.size(), input.size()) << testing::PrintToString(input);
}

TEST(TextReferenceTest, FoldMatchesFoldGermanOnEveryShortString) {
  ASSERT_NO_FATAL_FAILURE(ExpectSameFold(""));
  for (int a = 0; a < 256; ++a) {
    const char first = static_cast<char>(a);
    // Every 1-byte string, so a lone 0xC3 too.
    ASSERT_NO_FATAL_FAILURE(ExpectSameFold(std::string(1, first)));
    for (int b = 0; b < 256; ++b) {
      const char second = static_cast<char>(b);
      // Every 2-byte string: all 0xC3 xx pairs and every trailing 0xC3.
      ASSERT_NO_FATAL_FAILURE(ExpectSameFold({first, second}));
      // A lead byte before every pair, and every pair before a lead byte.
      ASSERT_NO_FATAL_FAILURE(ExpectSameFold({'\xc3', first, second}));
      ASSERT_NO_FATAL_FAILURE(ExpectSameFold({first, second, '\xc3'}));
    }
  }
}

TEST(TextReferenceTest, FoldKnownAnswers) {
  EXPECT_EQ(naive::Fold("Lüfter"), "luefter");
  EXPECT_EQ(naive::Fold("GERÄUSCH"), "geraeusch");
  EXPECT_EQ(naive::Fold("Öl"), "oel");
  EXPECT_EQ(naive::Fold("Straße"), "strasse");
  EXPECT_EQ(naive::Fold("ÜBER"), "ueber");
  EXPECT_EQ(naive::Fold("\xc3\xc3\xa4"), "\xc3" "ae");
  EXPECT_EQ(naive::Fold("abc\xc3"), "abc\xc3");
  EXPECT_EQ(naive::Fold("É"), "É") << "only the German umlauts and ß fold";
}

TEST(TextReferenceTest, WordsKnownAnswers) {
  EXPECT_EQ(naive::Words("Bremsen-Schlauch z.B. undicht!"),
            (std::vector<std::string>{"Bremsen", "Schlauch", "z", "B",
                                      "undicht"}));
  EXPECT_EQ(naive::Words(" \t\n\v\f\r"), std::vector<std::string>{});
  EXPECT_EQ(naive::Words(std::string_view("a_b\0c", 5)),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(naive::Words("L\xc3\xbc" "fter\xff."),
            (std::vector<std::string>{"L\xc3\xbc" "fter\xff"}));
}

/// The naive words of `text` against Tokenize's word tokens, and the
/// naive folded words against both WordsNormalized overloads.
void ExpectSameWords(const text::Tokenizer& tokenizer,
                     text::FoldedWords* buffer, const std::string& text) {
  std::vector<std::string> token_words;
  for (const text::Token& token : tokenizer.Tokenize(text)) {
    if (token.kind == text::TokenKind::kWord) token_words.push_back(token.text);
  }
  ASSERT_EQ(token_words, naive::Words(text));

  const std::vector<std::string> expected = naive::FoldedWords(text);
  ASSERT_EQ(tokenizer.WordsNormalized(text), expected);
  tokenizer.WordsNormalized(text, buffer);
  ASSERT_EQ(std::vector<std::string>(buffer->words().begin(),
                                     buffer->words().end()),
            expected);
}

TEST(TextReferenceTest, WordsMatchTokenizerOnDemoCorpus) {
  const datagen::DomainWorld world(server::DemoWorldConfig());
  const server::DemoSplit demo = server::GenerateDemoSplit(world);
  const text::Tokenizer tokenizer;
  text::FoldedWords buffer;  // Reused, as the feature extractor does.
  size_t words = 0;
  auto check = [&](const kb::DataBundle& bundle) {
    for (unsigned sources : {kb::kTrainSources, kb::kTestSources}) {
      const std::string document =
          kb::ComposeDocument(bundle, sources, demo.train);
      ASSERT_NO_FATAL_FAILURE(ExpectSameWords(tokenizer, &buffer, document))
          << bundle.reference_number;
      words += buffer.words().size();
    }
  };
  for (const kb::DataBundle& bundle : demo.train.bundles) {
    ASSERT_NO_FATAL_FAILURE(check(bundle));
  }
  for (const kb::DataBundle& bundle : demo.heldout) {
    ASSERT_NO_FATAL_FAILURE(check(bundle));
  }
  EXPECT_GT(words, 20 * demo.train.bundles.size())
      << "the comparison saw implausibly few words";
}

TEST(TextReferenceTest, WordsMatchTokenizerOnHostileText) {
  const datagen::DomainWorld world(server::DemoWorldConfig());
  const std::vector<std::string> docs =
      hostile::HostileDocuments(world.taxonomy());
  const text::Tokenizer tokenizer;
  text::FoldedWords buffer;
  for (size_t i = 0; i < docs.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectSameWords(tokenizer, &buffer, docs[i]))
        << "document " << i << " (" << docs[i].size() << " bytes)";
  }
}

}  // namespace
}  // namespace qatk
