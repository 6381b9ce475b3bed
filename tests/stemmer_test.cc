#include <gtest/gtest.h>

#include "kb/features.h"
#include "text/stemmer.h"

namespace qatk::text {
namespace {

TEST(StemmerTest, GermanInflection) {
  Stemmer stemmer;
  EXPECT_EQ(stemmer.Stem("leitungen", Language::kGerman), "leit");
  EXPECT_EQ(stemmer.Stem("bremsen", Language::kGerman), "brems");
  EXPECT_EQ(stemmer.Stem("dichtung", Language::kGerman), "dicht");
  EXPECT_EQ(stemmer.Stem("schlauch", Language::kGerman), "schlauch");
}

TEST(StemmerTest, EnglishInflection) {
  Stemmer stemmer;
  EXPECT_EQ(stemmer.Stem("leaking", Language::kEnglish), "leak");
  EXPECT_EQ(stemmer.Stem("brakes", Language::kEnglish), "brak");
  EXPECT_EQ(stemmer.Stem("brake", Language::kEnglish), "brak")
      << "singular and plural must collapse to the same stem";
  EXPECT_EQ(stemmer.Stem("stopped", Language::kEnglish), "stop");
  EXPECT_EQ(stemmer.Stem("crack", Language::kEnglish), "crack");
}

TEST(StemmerTest, ShortWordsUntouched) {
  Stemmer stemmer;
  // Stems never drop below four characters.
  EXPECT_EQ(stemmer.Stem("dies", Language::kGerman), "dies");
  EXPECT_EQ(stemmer.Stem("ring", Language::kEnglish), "ring");
  EXPECT_EQ(stemmer.Stem("ab", Language::kGerman), "ab");
}

TEST(StemmerTest, UnknownLanguagePassesThrough) {
  Stemmer stemmer;
  EXPECT_EQ(stemmer.Stem("bremsen", Language::kUnknown), "bremsen");
}

TEST(StemmerTest, StemIsIdempotentForTypicalWords) {
  Stemmer stemmer;
  for (const char* word : {"leitungen", "leaking", "dichtungen",
                           "housings", "kontakte"}) {
    for (Language lang : {Language::kGerman, Language::kEnglish}) {
      std::string once = stemmer.Stem(word, lang);
      std::string twice = stemmer.Stem(once, lang);
      // One more application may strip a second genuine suffix, but must
      // never go below the minimum stem length.
      EXPECT_GE(twice.size(), 4u) << word;
    }
  }
}

TEST(BagOfStemsTest, CollapsesInflectionalVariants) {
  kb::FeatureVocabulary vocabulary;
  kb::FeatureExtractor extractor(kb::FeatureModel::kBagOfStems, nullptr,
                                 &vocabulary);
  auto a = extractor.Extract("the hose is leaking badly");
  auto b = extractor.Extract("the hoses leaked badly");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // "hose(s)" and "leak(ing|ed)" collapse; "badly" -> "bad" both times;
  // stopwords are gone entirely.
  EXPECT_EQ(*a, *b);
}

TEST(BagOfStemsTest, StopwordsRemoved) {
  kb::FeatureVocabulary vocabulary;
  kb::FeatureExtractor extractor(kb::FeatureModel::kBagOfStems, nullptr,
                                 &vocabulary);
  auto features = extractor.Extract("the fan with it");
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(features->size(), 1u);
}

}  // namespace
}  // namespace qatk::text
