#include <gtest/gtest.h>

#include <memory>

#include "cas/annotators.h"
#include "cas/cas.h"
#include "taxonomy/concept_annotator.h"
#include "taxonomy/taxonomy.h"
#include "taxonomy/trie.h"
#include "taxonomy/xml.h"

namespace qatk::tax {
namespace {

using text::Language;

Concept MakeConcept(int64_t id, Category category, const std::string& label) {
  Concept c;
  c.id = id;
  c.category = category;
  c.label = label;
  return c;
}

/// Small taxonomy used across the annotator tests: mirrors the paper's
/// "mud guard"/"splashboard"/"fender" example and Fig. 10.
Taxonomy TestTaxonomy() {
  Taxonomy taxonomy;
  Concept fender = MakeConcept(101, Category::kComponent, "Fender");
  fender.synonyms[Language::kEnglish] = {"mud guard", "splashboard",
                                         "fender"};
  fender.synonyms[Language::kGerman] = {"Kotflügel", "Schmutzfänger"};
  QATK_CHECK_OK(taxonomy.Add(std::move(fender)));

  Concept fan = MakeConcept(102, Category::kComponent, "Fan");
  fan.synonyms[Language::kGerman] = {"Lüfter"};
  fan.synonyms[Language::kEnglish] = {"fan"};
  QATK_CHECK_OK(taxonomy.Add(std::move(fan)));

  Concept squeak = MakeConcept(201, Category::kSymptom, "Squeak");
  squeak.synonyms[Language::kEnglish] = {"squeak", "squeaking noise"};
  squeak.synonyms[Language::kGerman] = {"quietschen"};
  QATK_CHECK_OK(taxonomy.Add(std::move(squeak)));

  Concept hose = MakeConcept(103, Category::kComponent, "BrakeHose");
  hose.synonyms[Language::kEnglish] = {"brake hose"};
  hose.synonyms[Language::kGerman] = {"Bremsschlauch"};
  QATK_CHECK_OK(taxonomy.Add(std::move(hose)));
  return taxonomy;
}

// ---------------------------------------------------------------------------
// Model
// ---------------------------------------------------------------------------

TEST(TaxonomyTest, AddAndFind) {
  Taxonomy taxonomy = TestTaxonomy();
  EXPECT_EQ(taxonomy.size(), 4u);
  auto fan = taxonomy.Find(102);
  ASSERT_TRUE(fan.ok());
  EXPECT_EQ((*fan)->label, "Fan");
  EXPECT_TRUE(taxonomy.Find(999).status().IsKeyError());
}

TEST(TaxonomyTest, RejectsDuplicateAndZeroIds) {
  Taxonomy taxonomy;
  ASSERT_TRUE(taxonomy.Add(MakeConcept(1, Category::kSymptom, "X")).ok());
  EXPECT_TRUE(
      taxonomy.Add(MakeConcept(1, Category::kSymptom, "Y")).IsAlreadyExists());
  EXPECT_TRUE(
      taxonomy.Add(MakeConcept(0, Category::kSymptom, "Z")).IsInvalid());
}

TEST(TaxonomyTest, ByCategoryFilters) {
  Taxonomy taxonomy = TestTaxonomy();
  EXPECT_EQ(taxonomy.ByCategory(Category::kComponent).size(), 3u);
  EXPECT_EQ(taxonomy.ByCategory(Category::kSymptom).size(), 1u);
  EXPECT_EQ(taxonomy.ByCategory(Category::kSolution).size(), 0u);
}

TEST(TaxonomyTest, LanguageCounts) {
  Taxonomy taxonomy = TestTaxonomy();
  EXPECT_EQ(taxonomy.CountWithLanguage(Language::kEnglish), 4u);
  EXPECT_EQ(taxonomy.CountWithLanguage(Language::kGerman), 4u);
  EXPECT_EQ(taxonomy.CountSynonyms(Language::kEnglish), 7u);
}

TEST(TaxonomyTest, AddSynonym) {
  Taxonomy taxonomy = TestTaxonomy();
  ASSERT_TRUE(taxonomy.AddSynonym(102, Language::kEnglish, "blower").ok());
  EXPECT_EQ((*taxonomy.Find(102))->synonyms.at(Language::kEnglish).size(),
            2u);
  EXPECT_TRUE(
      taxonomy.AddSynonym(999, Language::kEnglish, "x").IsKeyError());
}

TEST(TaxonomyTest, ValidatePassesOnWellFormed) {
  Taxonomy taxonomy = TestTaxonomy();
  EXPECT_TRUE(taxonomy.Validate().ok());
}

TEST(TaxonomyTest, ValidateCatchesMissingParent) {
  Taxonomy taxonomy;
  Concept c = MakeConcept(5, Category::kSymptom, "X");
  c.parent_id = 99;
  c.synonyms[Language::kEnglish] = {"x"};
  ASSERT_TRUE(taxonomy.Add(std::move(c)).ok());
  EXPECT_TRUE(taxonomy.Validate().IsInvalid());
}

TEST(TaxonomyTest, ValidateCatchesSelfParentAndCycle) {
  Taxonomy taxonomy;
  Concept self = MakeConcept(1, Category::kSymptom, "Self");
  self.parent_id = 1;
  self.synonyms[Language::kEnglish] = {"s"};
  ASSERT_TRUE(taxonomy.Add(std::move(self)).ok());
  EXPECT_TRUE(taxonomy.Validate().IsInvalid());

  Taxonomy cyclic;
  Concept a = MakeConcept(1, Category::kSymptom, "A");
  a.parent_id = 2;
  a.synonyms[Language::kEnglish] = {"a"};
  Concept b = MakeConcept(2, Category::kSymptom, "B");
  b.parent_id = 1;
  b.synonyms[Language::kEnglish] = {"b"};
  ASSERT_TRUE(cyclic.Add(std::move(a)).ok());
  ASSERT_TRUE(cyclic.Add(std::move(b)).ok());
  EXPECT_TRUE(cyclic.Validate().IsInvalid());
}

TEST(TaxonomyTest, ValidateCatchesSynonymlessLeaf) {
  Taxonomy taxonomy;
  Concept root = MakeConcept(1, Category::kSymptom, "Root");
  ASSERT_TRUE(taxonomy.Add(std::move(root)).ok());
  Concept leaf = MakeConcept(2, Category::kSymptom, "Leaf");
  leaf.parent_id = 1;
  ASSERT_TRUE(taxonomy.Add(std::move(leaf)).ok());
  EXPECT_TRUE(taxonomy.Validate().IsInvalid());
}

// ---------------------------------------------------------------------------
// XML round trip
// ---------------------------------------------------------------------------

TEST(TaxonomyXmlTest, RoundTrip) {
  Taxonomy original = TestTaxonomy();
  std::string xml = TaxonomyToXml(original);
  auto loaded = TaxonomyFromXml(xml);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), original.size());
  auto fender = loaded->Find(101);
  ASSERT_TRUE(fender.ok());
  EXPECT_EQ((*fender)->label, "Fender");
  EXPECT_EQ((*fender)->category, Category::kComponent);
  const auto& en = (*fender)->synonyms.at(Language::kEnglish);
  EXPECT_EQ(en.size(), 3u);
  EXPECT_NE(std::find(en.begin(), en.end(), "mud guard"), en.end());
  // Umlauts survive the round trip.
  const auto& de = (*fender)->synonyms.at(Language::kGerman);
  EXPECT_NE(std::find(de.begin(), de.end(), "Kotflügel"), de.end());
}

TEST(TaxonomyXmlTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/taxonomy_test.xml";
  Taxonomy original = TestTaxonomy();
  ASSERT_TRUE(SaveTaxonomyFile(original, path).ok());
  auto loaded = LoadTaxonomyFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), original.size());
  std::remove(path.c_str());
}

TEST(TaxonomyXmlTest, RejectsMalformedXml) {
  EXPECT_TRUE(TaxonomyFromXml("<taxonomy>").status().IsInvalid());
  EXPECT_TRUE(TaxonomyFromXml("<wrong/>").status().IsInvalid());
  EXPECT_TRUE(TaxonomyFromXml("<taxonomy><concept/></taxonomy>")
                  .status()
                  .IsInvalid());  // Missing attributes.
  EXPECT_TRUE(
      TaxonomyFromXml("<taxonomy><bogus/></taxonomy>").status().IsInvalid());
}

TEST(XmlParserTest, EntitiesAndAttributes) {
  auto root = ParseXml("<a x=\"1 &amp; 2\">t &lt;b&gt;</a>");
  ASSERT_TRUE(root.ok()) << root.status();
  EXPECT_EQ((*root)->attributes.at("x"), "1 & 2");
  EXPECT_EQ((*root)->text, "t <b>");
}

TEST(XmlParserTest, NestedElementsAndComments) {
  auto root = ParseXml(
      "<?xml version=\"1.0\"?><!-- top --><a><b/><!-- mid --><c k='v'>x</c>"
      "</a>");
  ASSERT_TRUE(root.ok()) << root.status();
  EXPECT_EQ((*root)->children.size(), 2u);
  EXPECT_EQ((*root)->FirstChild("c")->attributes.at("k"), "v");
  EXPECT_EQ((*root)->FirstChild("missing"), nullptr);
}

TEST(XmlParserTest, MismatchedTagsRejected) {
  EXPECT_TRUE(ParseXml("<a><b></a></b>").status().IsInvalid());
  EXPECT_TRUE(ParseXml("<a>").status().IsInvalid());
  EXPECT_TRUE(ParseXml("<a/><b/>").status().IsInvalid());
}

// ---------------------------------------------------------------------------
// TokenTrie
// ---------------------------------------------------------------------------

/// The concept view of a match, as a vector for comparison.
std::vector<int64_t> Ids(const TokenTrie::Match& match) {
  return {match.concepts.begin(), match.concepts.end()};
}

TEST(TokenTrieTest, SingleTokenMatch) {
  TokenTrie trie;
  trie.Insert({"fan"}, 1);
  const std::vector<std::string_view> words = {"the", "fan", "broke"};
  auto match = trie.LongestMatch(words, 1);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->length, 1u);
  EXPECT_EQ(Ids(*match), std::vector<int64_t>{1});
  EXPECT_FALSE(trie.LongestMatch(words, 0).has_value());
}

TEST(TokenTrieTest, LongestMatchWins) {
  TokenTrie trie;
  trie.Insert({"brake"}, 1);
  trie.Insert({"brake", "hose"}, 2);
  const std::vector<std::string_view> words = {"brake", "hose", "leaks"};
  auto match = trie.LongestMatch(words, 0);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->length, 2u);
  EXPECT_EQ(Ids(*match), std::vector<int64_t>{2});
}

TEST(TokenTrieTest, FallsBackToShorterMatch) {
  TokenTrie trie;
  trie.Insert({"brake"}, 1);
  trie.Insert({"brake", "hose"}, 2);
  const std::vector<std::string_view> words = {"brake", "pad"};
  auto match = trie.LongestMatch(words, 0);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->length, 1u);
  EXPECT_EQ(Ids(*match), std::vector<int64_t>{1});
}

TEST(TokenTrieTest, AmbiguousSurfaceYieldsAllConcepts) {
  TokenTrie trie;
  trie.Insert({"unit"}, 10);
  trie.Insert({"unit"}, 20);
  const std::vector<std::string_view> words = {"unit"};
  auto match = trie.LongestMatch(words, 0);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(Ids(*match), (std::vector<int64_t>{10, 20}));
}

TEST(TokenTrieTest, DuplicateInsertIsIdempotent) {
  TokenTrie trie;
  trie.Insert({"x"}, 1);
  trie.Insert({"x"}, 1);
  EXPECT_EQ(trie.entry_count(), 1u);
}

TEST(TokenTrieTest, ContainsSequence) {
  TokenTrie trie;
  trie.Insert({"a", "b"}, 1);
  EXPECT_TRUE(trie.ContainsSequence({"a", "b"}));
  EXPECT_FALSE(trie.ContainsSequence({"a"}));  // Prefix, not an entry.
  EXPECT_FALSE(trie.ContainsSequence({"b"}));
}

TEST(TokenTrieTest, EmptySequenceIgnored) {
  TokenTrie trie;
  trie.Insert({}, 1);
  EXPECT_EQ(trie.entry_count(), 0u);
  const std::vector<std::string_view> words = {"a"};
  EXPECT_FALSE(trie.LongestMatch(words, 0).has_value());
}

// ---------------------------------------------------------------------------
// TrieConceptAnnotator
// ---------------------------------------------------------------------------

cas::Cas Annotate(const Taxonomy& taxonomy, const std::string& document) {
  cas::Cas c(document);
  cas::TokenizerAnnotator tokenizer;
  QATK_CHECK_OK(tokenizer.Process(&c));
  TrieConceptAnnotator annotator(taxonomy);
  QATK_CHECK_OK(annotator.Process(&c));
  return c;
}

std::vector<int64_t> ConceptIds(const cas::Cas& c) {
  std::vector<int64_t> ids;
  for (const cas::Annotation* a : c.Select(cas::types::kConcept)) {
    ids.push_back(a->GetInt(cas::types::kFeatureConceptId));
  }
  return ids;
}

TEST(TrieConceptAnnotatorTest, FindsSingleWordConcepts) {
  Taxonomy taxonomy = TestTaxonomy();
  cas::Cas c = Annotate(taxonomy, "the fan is broken");
  EXPECT_EQ(ConceptIds(c), std::vector<int64_t>{102});
}

TEST(TrieConceptAnnotatorTest, SynonymsCollapseToSameConcept) {
  Taxonomy taxonomy = TestTaxonomy();
  // The paper's example: "mud guard", "splashboard" and "fender" all map to
  // the same concept id.
  for (const std::string& doc :
       {"mud guard damaged", "splashboard damaged", "fender damaged"}) {
    cas::Cas c = Annotate(taxonomy, doc);
    EXPECT_EQ(ConceptIds(c), std::vector<int64_t>{101}) << doc;
  }
}

TEST(TrieConceptAnnotatorTest, MultilingualMatching) {
  Taxonomy taxonomy = TestTaxonomy();
  cas::Cas c = Annotate(taxonomy, "Lüfter defekt, fan broken");
  EXPECT_EQ(ConceptIds(c), (std::vector<int64_t>{102, 102}));
}

TEST(TrieConceptAnnotatorTest, FoldedUmlautVariantMatches) {
  Taxonomy taxonomy = TestTaxonomy();
  // "Luefter" (ASCII spelling) must match the "Lüfter" synonym.
  cas::Cas c = Annotate(taxonomy, "Luefter funktioniert nicht");
  EXPECT_EQ(ConceptIds(c), std::vector<int64_t>{102});
}

TEST(TrieConceptAnnotatorTest, MultiwordCaptureAndEnclosureElimination) {
  Taxonomy taxonomy = TestTaxonomy();
  Concept brake = MakeConcept(104, Category::kComponent, "Brake");
  brake.synonyms[Language::kEnglish] = {"brake"};
  QATK_CHECK_OK(taxonomy.Add(std::move(brake)));
  cas::Cas c = Annotate(taxonomy, "the brake hose leaks");
  // "brake hose" wins; the enclosed "brake" match is eliminated.
  EXPECT_EQ(ConceptIds(c), std::vector<int64_t>{103});
  auto concepts = c.Select(cas::types::kConcept);
  ASSERT_EQ(concepts.size(), 1u);
  EXPECT_EQ(c.CoveredText(*concepts[0]), "brake hose");
}

TEST(TrieConceptAnnotatorTest, PunctuationInsideMultiwordIsTransparent) {
  Taxonomy taxonomy = TestTaxonomy();
  // Tokenizer splits "brake-hose" into brake / - / hose; the annotator
  // matches over word tokens only, so the multiword still matches.
  cas::Cas c = Annotate(taxonomy, "brake-hose leaking");
  EXPECT_EQ(ConceptIds(c), std::vector<int64_t>{103});
}

TEST(TrieConceptAnnotatorTest, CategoryFeatureSet) {
  Taxonomy taxonomy = TestTaxonomy();
  cas::Cas c = Annotate(taxonomy, "loud squeak from front");
  auto concepts = c.Select(cas::types::kConcept);
  ASSERT_EQ(concepts.size(), 1u);
  EXPECT_EQ(concepts[0]->GetString(cas::types::kFeatureCategory), "symptom");
}

TEST(TrieConceptAnnotatorTest, NoConceptsInUnrelatedText) {
  Taxonomy taxonomy = TestTaxonomy();
  cas::Cas c = Annotate(taxonomy, "completely unrelated sentence here");
  EXPECT_TRUE(ConceptIds(c).empty());
}

TEST(TrieConceptAnnotatorTest, SynonymExpansionSubstitutesWords) {
  Taxonomy taxonomy;
  Concept hose = MakeConcept(1, Category::kComponent, "BrakeHose");
  hose.synonyms[Language::kEnglish] = {"brake hose"};
  QATK_CHECK_OK(taxonomy.Add(std::move(hose)));
  Concept brake = MakeConcept(2, Category::kComponent, "Brake");
  brake.synonyms[Language::kEnglish] = {"brake", "stopper"};
  QATK_CHECK_OK(taxonomy.Add(std::move(brake)));
  // With expansion, "stopper hose" is generated as a variant of
  // "brake hose" because "stopper" is a synonym of "brake".
  TrieConceptAnnotator::Options options;
  options.expand_synonyms = true;
  cas::Cas c("stopper hose cracked");
  cas::TokenizerAnnotator tokenizer;
  QATK_CHECK_OK(tokenizer.Process(&c));
  TrieConceptAnnotator annotator(taxonomy, options);
  QATK_CHECK_OK(annotator.Process(&c));
  std::vector<int64_t> ids = ConceptIds(c);
  EXPECT_NE(std::find(ids.begin(), ids.end(), 1), ids.end());
}

TEST(TrieConceptAnnotatorTest, ExpansionCanBeDisabled) {
  Taxonomy taxonomy;
  Concept hose = MakeConcept(1, Category::kComponent, "BrakeHose");
  hose.synonyms[Language::kEnglish] = {"brake hose"};
  QATK_CHECK_OK(taxonomy.Add(std::move(hose)));
  Concept brake = MakeConcept(2, Category::kComponent, "Brake");
  brake.synonyms[Language::kEnglish] = {"brake", "stopper"};
  QATK_CHECK_OK(taxonomy.Add(std::move(brake)));
  TrieConceptAnnotator::Options options;
  options.expand_synonyms = false;
  cas::Cas c("stopper hose cracked");
  cas::TokenizerAnnotator tokenizer;
  QATK_CHECK_OK(tokenizer.Process(&c));
  TrieConceptAnnotator annotator(taxonomy, options);
  QATK_CHECK_OK(annotator.Process(&c));
  std::vector<int64_t> ids = ConceptIds(c);
  EXPECT_EQ(std::find(ids.begin(), ids.end(), 1), ids.end());
}

// Annotators over one shared ConceptTrie annotate exactly like one that
// builds its own, and sharing costs no further build. The trie is a
// snapshot: a synonym added to the taxonomy afterwards is not matched.
TEST(TrieConceptAnnotatorTest, SharedTrieAnnotatesLikeOwnTrie) {
  Taxonomy taxonomy = TestTaxonomy();
  const std::string doc = "Kotfluegel and brake hose and the fan cracked";
  const uint64_t builds = ConceptTrie::BuildsForTest();
  std::shared_ptr<const ConceptTrie> shared = ConceptTrie::Build(taxonomy);
  EXPECT_EQ(ConceptTrie::BuildsForTest(), builds + 1);
  cas::TokenizerAnnotator tokenizer;
  for (int i = 0; i < 3; ++i) {
    cas::Cas c(doc);
    QATK_CHECK_OK(tokenizer.Process(&c));
    TrieConceptAnnotator annotator(shared);
    QATK_CHECK_OK(annotator.Process(&c));
    EXPECT_EQ(ConceptIds(c), ConceptIds(Annotate(taxonomy, doc)));
  }
  EXPECT_EQ(ConceptTrie::BuildsForTest(), builds + 1 + 3)
      << "only the three Annotate() calls may build";

  QATK_CHECK_OK(taxonomy.AddSynonym(102, Language::kEnglish, "zzqblower"));
  cas::Cas c("zzqblower");
  QATK_CHECK_OK(tokenizer.Process(&c));
  TrieConceptAnnotator annotator(shared);
  QATK_CHECK_OK(annotator.Process(&c));
  EXPECT_TRUE(ConceptIds(c).empty());
  EXPECT_EQ(ConceptIds(Annotate(taxonomy, "zzqblower")),
            std::vector<int64_t>{102});
}

// ---------------------------------------------------------------------------
// LegacyConceptAnnotator (the deficient baseline)
// ---------------------------------------------------------------------------

TEST(LegacyConceptAnnotatorTest, MatchesExactGermanSurfaceOnly) {
  Taxonomy taxonomy = TestTaxonomy();
  cas::Cas c("Lüfter defekt");
  cas::TokenizerAnnotator tokenizer;
  QATK_CHECK_OK(tokenizer.Process(&c));
  LegacyConceptAnnotator legacy(taxonomy);
  QATK_CHECK_OK(legacy.Process(&c));
  EXPECT_EQ(c.CountType(cas::types::kConcept), 1u);
}

TEST(LegacyConceptAnnotatorTest, MissesCaseAndSpellingVariants) {
  Taxonomy taxonomy = TestTaxonomy();
  for (const std::string& doc : {"LÜFTER defekt", "Luefter defekt",
                                 "luefter kaputt"}) {
    cas::Cas c(doc);
    cas::TokenizerAnnotator tokenizer;
    QATK_CHECK_OK(tokenizer.Process(&c));
    LegacyConceptAnnotator legacy(taxonomy);
    QATK_CHECK_OK(legacy.Process(&c));
    EXPECT_EQ(c.CountType(cas::types::kConcept), 0u) << doc;
  }
}

TEST(LegacyConceptAnnotatorTest, MissesEnglishAndMultiwords) {
  Taxonomy taxonomy = TestTaxonomy();
  cas::Cas c("fan broken, brake hose leaks, mud guard bent");
  cas::TokenizerAnnotator tokenizer;
  QATK_CHECK_OK(tokenizer.Process(&c));
  LegacyConceptAnnotator legacy(taxonomy);
  QATK_CHECK_OK(legacy.Process(&c));
  EXPECT_EQ(c.CountType(cas::types::kConcept), 0u);
}

TEST(AnnotatorComparisonTest, TrieRecallDominatesLegacy) {
  Taxonomy taxonomy = TestTaxonomy();
  const std::string docs[] = {
      "Lüfter defekt",
      "Luefter defekt",
      "fan broken",
      "brake hose leaks",
      "quietschen beim bremsen",
  };
  int trie_hits = 0;
  int legacy_hits = 0;
  for (const std::string& doc : docs) {
    cas::Cas c(doc);
    cas::TokenizerAnnotator tokenizer;
    QATK_CHECK_OK(tokenizer.Process(&c));
    TrieConceptAnnotator trie(taxonomy);
    QATK_CHECK_OK(trie.Process(&c));
    if (c.CountType(cas::types::kConcept) > 0) ++trie_hits;

    cas::Cas c2(doc);
    QATK_CHECK_OK(tokenizer.Process(&c2));
    LegacyConceptAnnotator legacy(taxonomy);
    QATK_CHECK_OK(legacy.Process(&c2));
    if (c2.CountType(cas::types::kConcept) > 0) ++legacy_hits;
  }
  EXPECT_EQ(trie_hits, 5);
  EXPECT_LT(legacy_hits, 3);
}

}  // namespace
}  // namespace qatk::tax
