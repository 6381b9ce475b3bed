#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cas/annotators.h"
#include "cas/cas.h"
#include "common/rng.h"
#include "concept_reference.h"
#include "datagen/oem.h"
#include "datagen/world.h"
#include "kb/data_bundle.h"
#include "taxonomy/concept_annotator.h"
#include "taxonomy/concept_trie.h"
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

using Entries = std::vector<std::pair<std::vector<std::string>, int64_t>>;

TokenTrie BuildTrie(const Entries& entries) {
  TokenTrie::Builder builder;
  for (const auto& [tokens, concept_id] : entries) {
    builder.Add(tokens, concept_id);
  }
  return std::move(builder).Build();
}

/// LongestMatch of `words[pos..]`, each word resolved by TokenId.
std::optional<TokenTrie::Match> Longest(const TokenTrie& trie,
                                        const std::vector<std::string>& words,
                                        size_t pos) {
  std::vector<uint32_t> token_ids;
  for (const std::string& word : words) {
    token_ids.push_back(trie.TokenId(word));
  }
  return trie.LongestMatch(token_ids, pos);
}

TEST(TokenTrieTest, SingleTokenMatch) {
  const TokenTrie trie = BuildTrie({{{"fan"}, 1}});
  const std::vector<std::string> words = {"the", "fan", "broke"};
  auto match = Longest(trie, words, 1);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->length, 1u);
  EXPECT_EQ(Ids(*match), std::vector<int64_t>{1});
  EXPECT_FALSE(Longest(trie, words, 0).has_value());
  EXPECT_EQ(trie.TokenId("the"), TokenTrie::kNoToken);
}

TEST(TokenTrieTest, LongestMatchWins) {
  const TokenTrie trie = BuildTrie({{{"brake"}, 1}, {{"brake", "hose"}, 2}});
  auto match = Longest(trie, {"brake", "hose", "leaks"}, 0);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->length, 2u);
  EXPECT_EQ(Ids(*match), std::vector<int64_t>{2});
}

TEST(TokenTrieTest, FallsBackToShorterMatch) {
  const TokenTrie trie = BuildTrie({{{"brake"}, 1}, {{"brake", "hose"}, 2}});
  auto match = Longest(trie, {"brake", "pad"}, 0);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->length, 1u);
  EXPECT_EQ(Ids(*match), std::vector<int64_t>{1});
}

TEST(TokenTrieTest, AmbiguousSurfaceYieldsAllConcepts) {
  const TokenTrie trie = BuildTrie({{{"unit"}, 20}, {{"unit"}, 10}});
  auto match = Longest(trie, {"unit"}, 0);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(Ids(*match), (std::vector<int64_t>{10, 20}));
}

TEST(TokenTrieTest, DuplicateInsertIsIdempotent) {
  const TokenTrie trie = BuildTrie({{{"x"}, 1}, {{"x"}, 1}});
  EXPECT_EQ(trie.entry_count(), 1u);
  EXPECT_EQ(trie.node_count(), 2u);
}

TEST(TokenTrieTest, ContainsSequence) {
  const TokenTrie trie = BuildTrie({{{"a", "b"}, 1}});
  EXPECT_TRUE(trie.ContainsSequence({"a", "b"}));
  EXPECT_FALSE(trie.ContainsSequence({"a"}));  // Prefix, not an entry.
  EXPECT_FALSE(trie.ContainsSequence({"b"}));
  EXPECT_FALSE(trie.ContainsSequence({"a", "b", "c"}));
}

TEST(TokenTrieTest, EmptySequenceIgnored) {
  const TokenTrie trie = BuildTrie({{{}, 1}});
  EXPECT_EQ(trie.entry_count(), 0u);
  EXPECT_EQ(trie.node_count(), 1u);
  EXPECT_FALSE(Longest(trie, {"a"}, 0).has_value());
  EXPECT_FALSE(TokenTrie().ContainsSequence({"a"}));
}

// A word whose hash fingerprint equals a token's, and whose probe starts
// at that token's slot, still resolves to no token: the dictionary
// confirms every fingerprint hit by comparing the bytes. The pair is
// found by a deterministic birthday search over the public hash.
TEST(TokenTrieTest, FingerprintCollisionIsNoMatch) {
  // A one-token dictionary has 16 slots: equal low 4 bits mean an equal
  // first slot, equal high 32 bits an equal fingerprint.
  auto key = [](std::string_view word) {
    const uint64_t hash = TokenTrie::HashToken(word);
    return ((hash >> 32) << 4) | (hash & 15);
  };
  std::unordered_map<uint64_t, std::string> seen;
  std::string token;
  std::string word;
  for (uint32_t i = 0; i < (1u << 22) && word.empty(); ++i) {
    std::string candidate = std::to_string(i);
    candidate.insert(candidate.begin(), 'w');
    auto [it, added] = seen.try_emplace(key(candidate), candidate);
    if (!added) {
      token = it->second;
      word = std::move(candidate);
    }
  }
  ASSERT_FALSE(word.empty()) << "no fingerprint collision found";
  seen.clear();
  ASSERT_NE(token, word);

  const TokenTrie trie = BuildTrie({{{token}, 7}});
  EXPECT_NE(trie.TokenId(token), TokenTrie::kNoToken);
  EXPECT_EQ(trie.TokenId(word), TokenTrie::kNoToken) << token << " " << word;
  EXPECT_FALSE(Longest(trie, {word}, 0).has_value());
  EXPECT_FALSE(trie.ContainsSequence({word}));
  // Interning the colliding word gives it an id of its own.
  const TokenTrie both = BuildTrie({{{token}, 7}, {{word}, 8}});
  ASSERT_NE(both.TokenId(word), both.TokenId(token));
  EXPECT_EQ(Ids(*Longest(both, {word}, 0)), std::vector<int64_t>{8});
  EXPECT_EQ(Ids(*Longest(both, {token}, 0)), std::vector<int64_t>{7});
}

/// The trie's defining rule replayed on a map: every entry is a sequence
/// with its concept set, and the longest match at `pos` tries every
/// length, longest first.
class MapTrie {
 public:
  void Add(const std::vector<std::string>& tokens, int64_t concept_id) {
    if (!tokens.empty()) entries_[tokens].insert(concept_id);
  }

  std::optional<std::pair<size_t, std::vector<int64_t>>> Longest(
      const std::vector<std::string>& words, size_t pos) const {
    for (size_t length = words.size() - pos; length >= 1; --length) {
      const std::vector<std::string> key(words.begin() + pos,
                                         words.begin() + pos + length);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        return std::make_pair(
            length, std::vector<int64_t>(it->second.begin(), it->second.end()));
      }
    }
    return std::nullopt;
  }

  size_t entry_count() const {
    size_t count = 0;
    for (const auto& [tokens, ids] : entries_) count += ids.size();
    return count;
  }

  /// The root plus one node per distinct non-empty prefix of an entry.
  size_t node_count() const {
    std::set<std::vector<std::string>> prefixes;
    for (const auto& [tokens, ids] : entries_) {
      for (size_t n = 1; n <= tokens.size(); ++n) {
        prefixes.emplace(tokens.begin(), tokens.begin() + n);
      }
    }
    return prefixes.size() + 1;
  }

  const std::map<std::vector<std::string>, std::set<int64_t>>& entries()
      const {
    return entries_;
  }

 private:
  std::map<std::vector<std::string>, std::set<int64_t>> entries_;
};

// Seeded random dictionaries against MapTrie. The token pool holds shared
// prefixes of one another ("fan"/"fans"/"fa"), 1-byte tokens, tokens with
// bytes >= 0x80, and random short byte strings; entries often extend a
// prefix of an earlier one, so tokens recur at several depths and many
// prefixes are no entry; concept ids come from a small range, so a
// sequence often names several concepts, and some pairs repeat. The
// documents mix tokens with words one byte longer or shorter than a
// token.
TEST(TokenTrieTest, RandomDictionariesMatchMapReference) {
  const std::vector<std::string> fixed = {
      "fan", "fans", "fa", "f", "a", "s", "brake", "hose", "brakes",
      "luefter", "l\xc3\xbc" "fter", "\xc3", "\xff", "\x80\x81", "0", "9z"};
  size_t compared_matches = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<std::string> pool = fixed;
    static constexpr std::string_view kBytes = "abfns\xc3\xa4\x80\xff";
    for (int i = 0; i < 12; ++i) {
      std::string token;
      const size_t length = 1 + rng.NextBounded(4);
      for (size_t j = 0; j < length; ++j) {
        token.push_back(kBytes[rng.NextBounded(kBytes.size())]);
      }
      pool.push_back(token);
    }
    auto random_token = [&] { return pool[rng.NextBounded(pool.size())]; };

    TokenTrie::Builder builder;
    MapTrie reference;
    std::vector<std::vector<std::string>> sequences;
    const size_t num_entries = 1 + rng.NextBounded(60);
    for (size_t e = 0; e < num_entries; ++e) {
      std::vector<std::string> tokens;
      if (!sequences.empty() && rng.NextBounded(2) == 0) {
        const std::vector<std::string>& base =
            sequences[rng.NextBounded(sequences.size())];
        tokens.assign(base.begin(),
                      base.begin() + rng.NextBounded(base.size() + 1));
      }
      const size_t extra = rng.NextBounded(4);
      for (size_t i = 0; i < extra; ++i) tokens.push_back(random_token());
      const int64_t concept_id = 1 + static_cast<int64_t>(rng.NextBounded(6));
      builder.Add(tokens, concept_id);
      reference.Add(tokens, concept_id);
      if (!tokens.empty()) sequences.push_back(tokens);
    }
    const TokenTrie trie = std::move(builder).Build();
    ASSERT_EQ(trie.entry_count(), reference.entry_count()) << seed;
    ASSERT_EQ(trie.node_count(), reference.node_count()) << seed;
    for (const auto& [tokens, ids] : reference.entries()) {
      ASSERT_TRUE(trie.ContainsSequence(tokens)) << seed;
      for (size_t n = 1; n < tokens.size(); ++n) {
        const std::vector<std::string> prefix(tokens.begin(),
                                              tokens.begin() + n);
        ASSERT_EQ(trie.ContainsSequence(prefix),
                  reference.entries().count(prefix) > 0)
            << seed;
      }
    }

    for (int doc = 0; doc < 30; ++doc) {
      std::vector<std::string> words;
      const size_t length = rng.NextBounded(16);
      while (words.size() < length) {
        if (!sequences.empty() && rng.NextBounded(3) == 0) {
          const std::vector<std::string>& entry =
              sequences[rng.NextBounded(sequences.size())];
          words.insert(words.end(), entry.begin(), entry.end());
          continue;
        }
        std::string word = random_token();
        switch (rng.NextBounded(4)) {
          case 0: word.push_back('s'); break;           // Extends a token.
          case 1: if (!word.empty()) word.pop_back(); break;  // Truncates.
          default: break;
        }
        words.push_back(word);
      }
      for (size_t pos = 0; pos < words.size(); ++pos) {
        const auto expected = reference.Longest(words, pos);
        const auto match = Longest(trie, words, pos);
        ASSERT_EQ(match.has_value(), expected.has_value())
            << "seed " << seed << " doc " << doc << " pos " << pos;
        if (!match) continue;
        ASSERT_EQ(match->length, expected->first) << seed;
        ASSERT_EQ(Ids(*match), expected->second) << seed;
        ++compared_matches;
      }
    }
  }
  EXPECT_GT(compared_matches, 1000u)
      << "the differential saw implausibly few matches";
}

// ---------------------------------------------------------------------------
// ConceptTrie
// ---------------------------------------------------------------------------

// Seeded random taxonomies against the naive matcher of
// concept_reference.h, which replays the build rule with no trie code.
// Synonyms are drawn from a small vocabulary, so single-word synonyms of
// one concept form substitution groups, multiword synonyms contain
// grouped words (often more than the variant cap allows), surfaces nest
// and recur across concepts, and case and umlaut spellings exercise the
// fold. The battery counts the seeds in which the variant cap binds.
TEST(ConceptTrieTest, RandomTaxonomiesMatchNaiveMatcher) {
  static const std::vector<std::string> kVocabulary = {
      "brake", "hose", "pump", "L\xc3\xbc" "fter", "luefter", "fan",
      "valve", "VALVE", "oil", "\xc3\x96l", "seal", "ring", "leak", "x"};
  auto word = [](Rng& rng) {
    return kVocabulary[rng.NextBounded(kVocabulary.size())];
  };
  size_t variants = 0;
  size_t capped_seeds = 0;
  size_t compared_matches = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    Taxonomy taxonomy;
    const size_t num_concepts = 1 + rng.NextBounded(12);
    for (size_t c = 1; c <= num_concepts; ++c) {
      Concept cpt = MakeConcept(static_cast<int64_t>(c) * 7,
                                Category::kComponent, "C");
      const size_t num_synonyms = 1 + rng.NextBounded(5);
      for (size_t i = 0; i < num_synonyms; ++i) {
        std::string surface = word(rng);
        const size_t extra = rng.NextBounded(2) == 0 ? 0 : rng.NextBounded(3);
        for (size_t j = 0; j < extra; ++j) {
          surface.push_back(' ');
          surface += word(rng);
        }
        const Language language =
            rng.NextBounded(2) == 0 ? Language::kGerman : Language::kEnglish;
        cpt.synonyms[language].push_back(surface);
      }
      QATK_CHECK_OK(taxonomy.Add(std::move(cpt)));
    }
    const std::shared_ptr<const ConceptTrie> trie =
        ConceptTrie::Build(taxonomy);
    const naive::ConceptMatcher reference(taxonomy);
    ASSERT_EQ(trie->trie().entry_count(), reference.entry_count()) << seed;
    variants += reference.variants();
    if (reference.capped_synonyms() > 0) ++capped_seeds;

    std::vector<uint32_t> token_ids;
    std::vector<ConceptTrie::Mention> mentions;
    for (int doc = 0; doc < 20; ++doc) {
      std::string text;
      const size_t length = rng.NextBounded(24);
      for (size_t i = 0; i < length; ++i) {
        text += word(rng);
        text += rng.NextBounded(5) == 0 ? ", " : " ";
      }
      const std::vector<std::string> words = naive::FoldedWords(text);
      const std::vector<std::string_view> views(words.begin(), words.end());
      trie->FindMentions(views, &token_ids, &mentions);
      const std::vector<naive::ConceptMatcher::Match> expected =
          reference.Matches(words);
      ASSERT_EQ(mentions.size(), expected.size())
          << "seed " << seed << ": " << text;
      for (size_t m = 0; m < mentions.size(); ++m) {
        ASSERT_EQ(mentions[m].first, expected[m].first) << seed;
        ASSERT_EQ(mentions[m].length, expected[m].length) << seed;
        ASSERT_EQ(std::vector<int64_t>(mentions[m].concepts.begin(),
                                       mentions[m].concepts.end()),
                  expected[m].concepts)
            << seed;
      }
      compared_matches += mentions.size();
    }
  }
  EXPECT_GT(variants, 100u) << "expansion rarely generated a variant";
  EXPECT_GT(capped_seeds, 0u) << "the variant cap never bound";
  EXPECT_GT(compared_matches, 1000u)
      << "the differential saw implausibly few matches";
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
  for (const char* doc :
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
  // "stopper hose" is generated as a variant of "brake hose" because
  // "stopper" is a synonym of "brake".
  cas::Cas c = Annotate(taxonomy, "stopper hose cracked");
  std::vector<int64_t> ids = ConceptIds(c);
  EXPECT_NE(std::find(ids.begin(), ids.end(), 1), ids.end());
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
  for (const char* doc : {"LÜFTER defekt", "Luefter defekt",
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

// The trie half of E6 (bench/bench_annotator_coverage.cc) with its world
// and corpus settings: the report text of each of the 7,500 generated
// bundles through the tokenizer and the trie annotator. Pins the counts
// EXPERIMENTS.md reports for E6, so a change to the trie, the fold or the
// tokenizer that moves any match shows up here. The legacy annotator's
// half is left out: it takes seconds and does not touch the trie.
TEST(AnnotatorComparisonTest, E6TrieCountsArePinned) {
  datagen::DomainWorld world;
  datagen::OemCorpusGenerator generator(&world);
  const kb::Corpus corpus = generator.Generate();
  ASSERT_EQ(corpus.bundles.size(), 7500u);

  cas::TokenizerAnnotator tokenizer;
  TrieConceptAnnotator annotator(world.taxonomy());
  EXPECT_EQ(annotator.trie_nodes(), 7881u);
  EXPECT_EQ(annotator.trie_entries(), 7462u);
  constexpr unsigned kReportsOnly = kb::kMechanicReport |
                                    kb::kInitialReport |
                                    kb::kSupplierReport | kb::kFinalReport;
  size_t zero_concept_bundles = 0;
  size_t mentions = 0;
  for (const kb::DataBundle& bundle : corpus.bundles) {
    cas::Cas c(kb::ComposeDocument(bundle, kReportsOnly, corpus));
    QATK_CHECK_OK(tokenizer.Process(&c));
    QATK_CHECK_OK(annotator.Process(&c));
    const size_t found = c.CountType(cas::types::kConcept);
    mentions += found;
    if (found == 0) ++zero_concept_bundles;
  }
  EXPECT_EQ(zero_concept_bundles, 89u);
  EXPECT_EQ(mentions, 28749u);
}

}  // namespace
}  // namespace qatk::tax
