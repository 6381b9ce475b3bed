#include <gtest/gtest.h>

#include "cas/annotators.h"
#include "cas/cas.h"

namespace qatk::cas {
namespace {

Annotation Make(const std::string& type, size_t begin, size_t end) {
  Annotation a;
  a.type = type;
  a.begin = begin;
  a.end = end;
  return a;
}

TEST(CasTest, AddAndSelect) {
  Cas cas("hello world");
  ASSERT_TRUE(cas.Add(Make("Token", 0, 5)).ok());
  ASSERT_TRUE(cas.Add(Make("Token", 6, 11)).ok());
  auto tokens = cas.Select("Token");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(cas.CoveredText(*tokens[0]), "hello");
  EXPECT_EQ(cas.CoveredText(*tokens[1]), "world");
}

TEST(CasTest, SelectKeepsSpanOrder) {
  Cas cas("abcdef");
  ASSERT_TRUE(cas.Add(Make("T", 4, 5)).ok());
  ASSERT_TRUE(cas.Add(Make("T", 0, 2)).ok());
  ASSERT_TRUE(cas.Add(Make("T", 2, 4)).ok());
  ASSERT_TRUE(cas.Add(Make("T", 0, 1)).ok());
  auto anns = cas.Select("T");
  ASSERT_EQ(anns.size(), 4u);
  EXPECT_EQ(anns[0]->begin, 0u);
  EXPECT_EQ(anns[0]->end, 1u);
  EXPECT_EQ(anns[1]->begin, 0u);
  EXPECT_EQ(anns[1]->end, 2u);
  EXPECT_EQ(anns[2]->begin, 2u);
  EXPECT_EQ(anns[3]->begin, 4u);
}

TEST(CasTest, RejectsOutOfBoundsSpans) {
  Cas cas("short");
  EXPECT_TRUE(cas.Add(Make("T", 0, 6)).IsInvalid());
  EXPECT_TRUE(cas.Add(Make("T", 3, 2)).IsInvalid());
  EXPECT_TRUE(cas.Add(Make("", 0, 1)).IsInvalid());
}

TEST(CasTest, SelectUnknownTypeIsEmpty) {
  Cas cas("x");
  EXPECT_TRUE(cas.Select("Nope").empty());
  EXPECT_EQ(cas.CountType("Nope"), 0u);
}

TEST(CasTest, FeatureAccessors) {
  Annotation a = Make("T", 0, 0);
  a.string_features["s"] = "val";
  a.int_features["i"] = 42;
  EXPECT_EQ(a.GetString("s"), "val");
  EXPECT_EQ(a.GetInt("i"), 42);
  EXPECT_EQ(a.GetString("missing"), "");
  EXPECT_EQ(a.GetInt("missing"), 0);
}

// ---------------------------------------------------------------------------
// Tokenizer annotator
// ---------------------------------------------------------------------------

TEST(TokenizerAnnotatorTest, EmitsTokenAnnotations) {
  Cas cas("Lüfter defekt, durchgeschmort.");
  TokenizerAnnotator annotator;
  ASSERT_TRUE(annotator.Process(&cas).ok());
  auto tokens = cas.Select(types::kToken);
  ASSERT_EQ(tokens.size(), 5u);  // 3 words + comma + period.
  EXPECT_EQ(tokens[0]->GetString(types::kFeatureNorm), "luefter");
  EXPECT_EQ(tokens[0]->GetString(types::kFeatureKind), "word");
  EXPECT_EQ(tokens[2]->GetString(types::kFeatureKind), "punct");
}

}  // namespace
}  // namespace qatk::cas
