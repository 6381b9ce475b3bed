#include "datagen/world.h"

#include <algorithm>

#include "common/logging.h"
#include "datagen/wordgen.h"

namespace qatk::datagen {

namespace {

using text::Language;

constexpr const char* kGermanFunctionWords[] = {
    "der", "die", "das", "und", "ist", "nicht", "bei", "mit", "von", "im",
    "ein", "eine", "auf", "nach", "wurde", "hat", "kein", "es", "sich",
    "wir", "am", "zu", "fuer", "aus", "noch"};
constexpr const char* kEnglishFunctionWords[] = {
    "the", "and", "is", "not", "at", "with", "from", "in", "a", "an", "on",
    "after", "was", "has", "no", "it", "we", "to", "for", "of", "still",
    "when", "this", "that", "by"};
constexpr const char* kJargon[] = {
    "n.i.o.", "i.O.", "NTF",  "KD",   "Fzg.", "Teil-Nr", "ET",
    "k.A.",   "OK",   "B-Nr", "Prf.", "Abt.", "QS"};

/// Concept id blocks per category keep generated ids readable in dumps.
constexpr int64_t kComponentIdBase = 10000;
constexpr int64_t kSymptomIdBase = 20000;
constexpr int64_t kLocationIdBase = 30000;
constexpr int64_t kSolutionIdBase = 40000;
constexpr int64_t kCategoryRootBase = 1;  // 1..4 for the four roots.

LexEntry MakeEntry(WordGenerator* words, Rng* rng, tax::Category category,
                   int64_t concept_id, bool allow_multiword,
                   double english_only_prob) {
  LexEntry entry;
  entry.category = category;
  entry.concept_id = concept_id;
  bool multiword = allow_multiword && rng->NextBernoulli(0.18);
  auto make_surface = [&](Language lang) {
    std::string word = words->FreshWord(lang, 2 + rng->NextBounded(2));
    if (multiword) {
      word += " ";
      word += words->FreshWord(lang, 1 + rng->NextBounded(2));
    }
    return word;
  };
  bool english_only = rng->NextBernoulli(english_only_prob);
  if (!english_only) {
    entry.de.push_back(make_surface(Language::kGerman));
  }
  entry.en.push_back(make_surface(Language::kEnglish));
  // Synonym richness: 0-2 extra surfaces per language.
  if (!english_only) {
    size_t extra_de = rng->NextBounded(3);
    for (size_t i = 0; i < extra_de; ++i) {
      entry.de.push_back(words->FreshWord(Language::kGerman,
                                          2 + rng->NextBounded(2)));
    }
  }
  size_t extra_en = rng->NextBounded(3);
  for (size_t i = 0; i < extra_en; ++i) {
    entry.en.push_back(words->FreshWord(Language::kEnglish,
                                        2 + rng->NextBounded(2)));
  }
  return entry;
}

}  // namespace

DomainWorld::DomainWorld(WorldConfig config) : config_(config) {
  Rng rng(config_.seed);
  BuildLexicons(&rng);
  BuildTaxonomy();
  BuildParts(&rng);
}

void DomainWorld::BuildLexicons(Rng* rng) {
  WordGenerator words(rng);

  components_.reserve(config_.num_components);
  for (size_t i = 0; i < config_.num_components; ++i) {
    components_.push_back(MakeEntry(&words, rng, tax::Category::kComponent,
                                    kComponentIdBase +
                                        static_cast<int64_t>(i),
                                    /*allow_multiword=*/true,
                                    config_.english_only_prob));
  }

  symptoms_.reserve(config_.num_symptoms);
  for (size_t i = 0; i < config_.num_symptoms; ++i) {
    // The coverage gap: a fraction of symptom terms has no concept id.
    bool covered = rng->NextBernoulli(config_.symptom_taxonomy_coverage);
    int64_t id = covered ? kSymptomIdBase + static_cast<int64_t>(i) : 0;
    symptoms_.push_back(MakeEntry(&words, rng, tax::Category::kSymptom, id,
                                  /*allow_multiword=*/true,
                                  config_.english_only_prob));
  }

  locations_.reserve(config_.num_locations);
  for (size_t i = 0; i < config_.num_locations; ++i) {
    locations_.push_back(MakeEntry(&words, rng, tax::Category::kLocation,
                                   kLocationIdBase + static_cast<int64_t>(i),
                                   /*allow_multiword=*/false,
                                   config_.english_only_prob));
  }
  solutions_.reserve(config_.num_solutions);
  for (size_t i = 0; i < config_.num_solutions; ++i) {
    solutions_.push_back(MakeEntry(&words, rng, tax::Category::kSolution,
                                   kSolutionIdBase + static_cast<int64_t>(i),
                                   /*allow_multiword=*/false,
                                   config_.english_only_prob));
  }

  filler_de_.reserve(config_.filler_words);
  for (size_t i = 0; i < config_.filler_words; ++i) {
    filler_de_.push_back(words.Word(Language::kGerman,
                                    1 + rng->NextBounded(3)));
  }
  filler_en_.reserve(config_.filler_words);
  for (size_t i = 0; i < config_.filler_words; ++i) {
    filler_en_.push_back(words.Word(Language::kEnglish,
                                    1 + rng->NextBounded(3)));
  }
  for (const char* j : kJargon) jargon_.push_back(j);
}

void DomainWorld::BuildTaxonomy() {
  // Four language-independent category roots (Fig. 10's upper levels).
  const struct {
    int64_t id;
    tax::Category category;
    const char* label;
  } kRoots[] = {
      {kCategoryRootBase + 0, tax::Category::kComponent, "Component"},
      {kCategoryRootBase + 1, tax::Category::kSymptom, "Symptom"},
      {kCategoryRootBase + 2, tax::Category::kLocation, "Location"},
      {kCategoryRootBase + 3, tax::Category::kSolution, "Solution"},
  };
  for (const auto& root : kRoots) {
    tax::Concept c;
    c.id = root.id;
    c.category = root.category;
    c.label = root.label;
    QATK_CHECK_OK(taxonomy_.Add(std::move(c)));
  }
  auto add_leaves = [&](const std::vector<LexEntry>& entries,
                        int64_t parent, const char* prefix) {
    for (const LexEntry& entry : entries) {
      if (entry.concept_id == 0) continue;  // Coverage gap.
      tax::Concept c;
      c.id = entry.concept_id;
      c.category = entry.category;
      c.label = std::string(prefix) + std::to_string(entry.concept_id);
      c.parent_id = parent;
      if (!entry.de.empty()) c.synonyms[Language::kGerman] = entry.de;
      if (!entry.en.empty()) c.synonyms[Language::kEnglish] = entry.en;
      QATK_CHECK_OK(taxonomy_.Add(std::move(c)));
    }
  };
  add_leaves(components_, kCategoryRootBase + 0, "Comp_");
  add_leaves(symptoms_, kCategoryRootBase + 1, "Symp_");
  add_leaves(locations_, kCategoryRootBase + 2, "Loc_");
  add_leaves(solutions_, kCategoryRootBase + 3, "Sol_");
}

void DomainWorld::BuildParts(Rng* rng) {
  const size_t n = config_.num_parts;
  QATK_CHECK(n >= config_.small_parts + 2);

  // Error-code pool sizes: one dominant part, a mid-range block, and a few
  // small parts, adjusted to sum exactly to num_error_codes (§3.2 numbers:
  // max 146 codes for one part id, >=25 of 31 parts with over 10 codes).
  std::vector<size_t> pool_sizes(n);
  pool_sizes[0] = config_.max_codes_largest_part;
  size_t mid_parts = n - 1 - config_.small_parts;
  size_t assigned = pool_sizes[0];
  for (size_t i = 0; i < config_.small_parts; ++i) {
    pool_sizes[n - 1 - i] =
        3 + rng->NextBounded(config_.small_part_max_codes - 2);
    assigned += pool_sizes[n - 1 - i];
  }
  for (size_t i = 1; i <= mid_parts; ++i) {
    pool_sizes[i] = config_.mid_part_min_codes +
                    rng->NextBounded(config_.mid_part_max_codes -
                                     config_.mid_part_min_codes + 1);
    assigned += pool_sizes[i];
  }
  // Adjust mid parts until the total matches exactly.
  size_t guard = 0;
  while (assigned != config_.num_error_codes && guard++ < 100000) {
    size_t i = 1 + rng->NextBounded(mid_parts);
    if (assigned < config_.num_error_codes &&
        pool_sizes[i] < config_.max_codes_largest_part - 1) {
      ++pool_sizes[i];
      ++assigned;
    } else if (assigned > config_.num_error_codes &&
               pool_sizes[i] > config_.mid_part_min_codes) {
      --pool_sizes[i];
      --assigned;
    }
  }
  QATK_CHECK(assigned == config_.num_error_codes)
      << "could not hit error-code total";

  // Component assignment: each part owns a disjoint slice of the component
  // lexicon; the remainder are taxonomy-only concepts never mentioned.
  QATK_CHECK(n * config_.components_per_part <= components_.size());

  WordGenerator cause_words(rng);
  // Error-code numbers are drawn from a shuffled range so the lexical
  // order of code names carries no frequency information (in the real
  // data, code identifiers predate the frequency ranking).
  std::vector<size_t> code_numbers(config_.num_error_codes);
  for (size_t i = 0; i < code_numbers.size(); ++i) {
    code_numbers[i] = 1000 + i;
  }
  rng->Shuffle(&code_numbers);
  size_t next_code_index = 0;
  size_t next_article = 100;
  size_t articles_left = config_.num_article_codes;

  for (size_t p = 0; p < n; ++p) {
    PartSpec part;
    // "P" and the 1-based number, zero-padded to two digits.
    part.part_id.assign(p + 1 < 10 ? "P0" : "P");
    part.part_id += std::to_string(p + 1);

    for (size_t c = 0; c < config_.components_per_part; ++c) {
      part.components.push_back(p * config_.components_per_part + c);
    }

    // Part description: primary surfaces of its components, both languages.
    for (size_t ci : part.components) {
      const LexEntry& entry = components_[ci];
      part.description +=
          (entry.de.empty() ? entry.en : entry.de).front() + " ";
    }
    part.description += "/ ";
    for (size_t ci : part.components) {
      part.description += components_[ci].en.front() + " ";
    }

    // Symptom pool: overlapping random subset of the symptom lexicon.
    std::vector<size_t> all_symptoms(symptoms_.size());
    for (size_t i = 0; i < symptoms_.size(); ++i) all_symptoms[i] = i;
    rng->Shuffle(&all_symptoms);
    part.symptom_pool.assign(
        all_symptoms.begin(),
        all_symptoms.begin() +
            std::min(config_.part_symptom_pool, all_symptoms.size()));

    // Article codes: split the global budget roughly evenly by remaining
    // parts, at least one per part.
    size_t parts_left = n - p;
    size_t take = std::max<size_t>(1, articles_left / parts_left);
    for (size_t a = 0; a < take; ++a) {
      part.article_codes.push_back("A" + std::to_string(next_article++));
    }
    articles_left -= take;

    // Error codes with latent semantics.
    for (size_t c = 0; c < pool_sizes[p]; ++c) {
      ErrorCodeSpec spec;
      size_t code_number = code_numbers[next_code_index++];
      spec.code = "E" + std::to_string(code_number);
      spec.part_id = part.part_id;
      size_t num_symptoms = 2 + rng->NextBounded(2);
      for (size_t s = 0; s < num_symptoms; ++s) {
        spec.symptoms.push_back(rng->Pick(part.symptom_pool));
      }
      std::sort(spec.symptoms.begin(), spec.symptoms.end());
      spec.symptoms.erase(
          std::unique(spec.symptoms.begin(), spec.symptoms.end()),
          spec.symptoms.end());
      size_t num_components = 1 + rng->NextBounded(2);
      for (size_t s = 0; s < num_components; ++s) {
        spec.components.push_back(rng->Pick(part.components));
      }
      std::sort(spec.components.begin(), spec.components.end());
      spec.components.erase(
          std::unique(spec.components.begin(), spec.components.end()),
          spec.components.end());
      for (size_t w = 0; w < config_.cause_words_per_code; ++w) {
        spec.cause_de.push_back(
            cause_words.FreshWord(Language::kGerman, 3));
        spec.cause_en.push_back(
            cause_words.FreshWord(Language::kEnglish, 3));
      }
      spec.defect_token = "DC" + std::to_string(code_number * 7 + 13);
      // Standardized description: symptom surfaces in both languages.
      for (size_t si : spec.symptoms) {
        const LexEntry& entry = symptoms_[si];
        spec.description +=
            (entry.de.empty() ? entry.en : entry.de).front() + " ";
      }
      spec.description += "/ ";
      for (size_t si : spec.symptoms) {
        spec.description += symptoms_[si].en.front() + " ";
      }
      code_index_[spec.code] = {p, part.codes.size()};
      part.codes.push_back(std::move(spec));
    }
    parts_.push_back(std::move(part));
  }
}

const std::vector<std::string>& DomainWorld::function_words(
    Language lang) const {
  // Leaked singletons: avoids static-destruction-order hazards.
  static const auto& de = *new std::vector<std::string>(
      std::begin(kGermanFunctionWords), std::end(kGermanFunctionWords));
  static const auto& en = *new std::vector<std::string>(
      std::begin(kEnglishFunctionWords), std::end(kEnglishFunctionWords));
  return lang == Language::kGerman ? de : en;
}

size_t DomainWorld::TotalErrorCodes() const {
  size_t total = 0;
  for (const PartSpec& part : parts_) total += part.codes.size();
  return total;
}

Result<const ErrorCodeSpec*> DomainWorld::FindCode(
    const std::string& code) const {
  auto it = code_index_.find(code);
  if (it == code_index_.end()) {
    return Status::KeyError("unknown error code '" + code + "'");
  }
  return &parts_[it->second.first].codes[it->second.second];
}

}  // namespace qatk::datagen
