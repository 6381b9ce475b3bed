#include "datagen/oem.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strutil.h"
#include "datagen/noise.h"

namespace qatk::datagen {

namespace {

using text::Language;

/// Accumulates report tokens and renders them with punctuation noise.
class ReportBuilder {
 public:
  ReportBuilder(const DomainWorld* world, Rng* rng, Language lang)
      : world_(world), rng_(rng), noise_(rng), lang_(lang) {}

  Language lang() const { return lang_; }

  /// Occasionally flips the sentence language (code-switching is pervasive
  /// in the source data; cf. the paper's Fig. 3 example).
  void MaybeSwitchLanguage(double prob) {
    if (rng_->NextBernoulli(prob)) {
      lang_ = lang_ == Language::kGerman ? Language::kEnglish
                                         : Language::kGerman;
    }
  }

  void AddWord(const std::string& word) { tokens_.push_back(word); }

  /// Adds one surface form of a lexicon entry in the current language
  /// (falling back to the other language when empty), one token per word.
  void AddSurface(const LexEntry& entry) {
    const std::vector<std::string>& surfaces =
        lang_ == Language::kGerman
            ? (entry.de.empty() ? entry.en : entry.de)
            : (entry.en.empty() ? entry.de : entry.en);
    const std::string& surface = surfaces[rng_->NextBounded(surfaces.size())];
    for (const std::string& word : SplitWhitespace(surface)) {
      tokens_.push_back(word);
    }
  }

  void AddFunctionWords(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      tokens_.push_back(rng_->Pick(world_->function_words(lang_)));
    }
  }

  void AddFiller(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      tokens_.push_back(rng_->Pick(world_->filler(lang_)));
    }
  }

  void MaybeAddJargon(double prob) {
    if (rng_->NextBernoulli(prob)) {
      tokens_.push_back(rng_->Pick(world_->jargon()));
    }
  }

  /// Renders the report: noise per token, then periodic punctuation.
  std::string Render(double typo_rate, double abbrev_rate,
                     double shout_rate) {
    std::string out;
    size_t since_punct = 0;
    size_t next_punct = 4 + rng_->NextBounded(5);
    for (size_t i = 0; i < tokens_.size(); ++i) {
      std::string word = tokens_[i];
      word = noise_.MaybeAbbreviate(word, abbrev_rate);
      word = noise_.MaybeTypo(word, typo_rate);
      word = noise_.RandomizeCase(word, shout_rate);
      if (!out.empty()) out += ' ';
      out += word;
      if (++since_punct >= next_punct && i + 1 < tokens_.size()) {
        out += rng_->NextBernoulli(0.3) ? ',' : '.';
        since_punct = 0;
        next_punct = 4 + rng_->NextBounded(5);
      }
    }
    if (!out.empty()) out += '.';
    return out;
  }

  size_t size() const { return tokens_.size(); }

 private:
  const DomainWorld* world_;
  Rng* rng_;
  NoiseChannel noise_;
  Language lang_;
  std::vector<std::string> tokens_;
};

}  // namespace

OemCorpusGenerator::OemCorpusGenerator(const DomainWorld* world,
                                       OemConfig config)
    : world_(world), config_(config) {}

std::string OemCorpusGenerator::MechanicReport(const ErrorCodeSpec& spec,
                                               Rng* rng) {
  Language lang = rng->NextBernoulli(config_.mechanic_german_prob)
                      ? Language::kGerman
                      : Language::kEnglish;
  ReportBuilder report(world_, rng, lang);
  if (rng->NextBernoulli(config_.mechanic_terse_prob)) {
    // The infamous one-token mechanic note.
    report.AddWord(rng->Pick(world_->jargon()));
    return report.Render(0.0, 0.0, 0.1);
  }
  report.AddFunctionWords(2);
  report.AddFiller(2 + rng->NextBounded(3));
  if (rng->NextBernoulli(config_.mechanic_symptom_prob)) {
    report.AddSurface(world_->symptoms()[rng->Pick(spec.symptoms)]);
  }
  if (rng->NextBernoulli(config_.mechanic_wrong_symptom_prob)) {
    // Superficial or plain wrong problem description: a random symptom
    // from anywhere in the lexicon.
    report.AddSurface(
        world_->symptoms()[rng->NextBounded(world_->symptoms().size())]);
  }
  if (rng->NextBernoulli(config_.mechanic_component_prob)) {
    report.AddSurface(world_->components()[rng->Pick(spec.components)]);
  }
  report.MaybeSwitchLanguage(0.15);
  report.AddFunctionWords(2 + rng->NextBounded(2));
  report.AddFiller(4 + rng->NextBounded(4));
  report.MaybeAddJargon(0.25);
  return report.Render(config_.mechanic_typo_rate,
                       config_.mechanic_abbrev_rate, 0.06);
}

std::string OemCorpusGenerator::InitialReport(const ErrorCodeSpec& spec,
                                              Rng* rng) {
  Language lang = rng->NextBernoulli(0.5) ? Language::kGerman
                                          : Language::kEnglish;
  ReportBuilder report(world_, rng, lang);
  report.AddFiller(2 + rng->NextBounded(2));
  report.AddWord("test" + std::to_string(100 + rng->NextBounded(900)));
  if (rng->NextBernoulli(0.30)) {
    report.AddSurface(world_->symptoms()[rng->Pick(spec.symptoms)]);
  }
  report.AddFunctionWords(2);
  report.AddFiller(1 + rng->NextBounded(2));
  report.MaybeAddJargon(0.35);
  return report.Render(0.03, 0.05, 0.02);
}

std::string OemCorpusGenerator::SupplierReport(const ErrorCodeSpec& spec,
                                               Rng* rng) {
  Language lang = rng->NextBernoulli(config_.supplier_german_prob)
                      ? Language::kGerman
                      : Language::kEnglish;
  ReportBuilder report(world_, rng, lang);
  if (rng->NextBernoulli(config_.supplier_terse_prob)) {
    // No trouble found: a terse verdict with no diagnostic content.
    report.AddWord("NTF");
    report.AddFunctionWords(1 + rng->NextBounded(2));
    report.AddFiller(1 + rng->NextBounded(2));
    return report.Render(0.0, 0.0, 0.02);
  }
  // Sentence 1: affected components.
  for (size_t ci : spec.components) {
    if (rng->NextBernoulli(config_.supplier_component_prob)) {
      report.AddSurface(world_->components()[ci]);
    }
  }
  report.AddFunctionWords(1);
  report.AddFiller(1 + rng->NextBounded(2));
  // Sentence 2: observed symptoms (possibly in the other language —
  // supplier reports often quote the mechanic's complaint).
  report.MaybeSwitchLanguage(0.25);
  for (size_t si : spec.symptoms) {
    if (rng->NextBernoulli(config_.supplier_symptom_prob)) {
      report.AddSurface(world_->symptoms()[si]);
      report.AddFunctionWords(1);
    }
  }
  // Sentence 3: root-cause analysis — the code-specific vocabulary.
  const std::vector<std::string>& causes =
      report.lang() == Language::kGerman ? spec.cause_de : spec.cause_en;
  for (const std::string& cause : causes) {
    if (rng->NextBernoulli(config_.supplier_cause_prob)) {
      report.AddWord(cause);
    }
  }
  if (rng->NextBernoulli(config_.supplier_defect_token_prob)) {
    report.AddWord(spec.defect_token);
  }
  report.AddFunctionWords(2 + rng->NextBounded(2));
  report.AddFiller(4 + rng->NextBounded(4));
  report.MaybeAddJargon(0.20);
  return report.Render(config_.supplier_typo_rate, 0.03, 0.02);
}

std::string OemCorpusGenerator::FinalReport(const ErrorCodeSpec& spec,
                                            Rng* rng) {
  Language lang = rng->NextBernoulli(0.7) ? Language::kGerman
                                          : Language::kEnglish;
  ReportBuilder report(world_, rng, lang);
  report.AddSurface(world_->symptoms()[rng->Pick(spec.symptoms)]);
  report.AddFunctionWords(1);
  const std::vector<std::string>& causes =
      lang == Language::kGerman ? spec.cause_de : spec.cause_en;
  if (!causes.empty() && rng->NextBernoulli(0.7)) {
    report.AddWord(causes[rng->NextBounded(causes.size())]);
  }
  if (rng->NextBernoulli(0.5)) {
    report.AddWord(spec.defect_token);
  }
  report.AddFiller(3 + rng->NextBounded(3));
  report.MaybeAddJargon(0.15);
  return report.Render(0.02, 0.02, 0.02);
}

kb::Corpus OemCorpusGenerator::Generate() {
  Rng rng(config_.seed);
  kb::Corpus corpus;
  const auto& parts = world_->parts();

  // Description catalogs.
  for (const PartSpec& part : parts) {
    corpus.part_descriptions[part.part_id] = part.description;
    for (const ErrorCodeSpec& spec : part.codes) {
      corpus.error_descriptions[spec.code] = spec.description;
    }
  }

  // Bundle allocation: every error code is seeded with one bundle (so all
  // pool codes occur in the data); the remainder is split across parts
  // proportionally to pool size and drawn Zipf within the part.
  size_t total_codes = world_->TotalErrorCodes();
  QATK_CHECK(config_.num_bundles >= total_codes)
      << "need at least one bundle per error code";
  size_t extra_total = config_.num_bundles - total_codes;

  struct Draw {
    size_t part;
    size_t code;  // Index into the part's pool.
  };
  std::vector<Draw> draws;
  draws.reserve(config_.num_bundles);
  for (size_t p = 0; p < parts.size(); ++p) {
    for (size_t c = 0; c < parts[p].codes.size(); ++c) {
      draws.push_back({p, c});
    }
  }
  // Proportional split of the extra bundles, remainder to the largest part.
  size_t distributed = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    size_t share = (p + 1 < parts.size())
                       ? extra_total * parts[p].codes.size() / total_codes
                       : extra_total - distributed;
    distributed += share;
    size_t active = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(parts[p].codes.size()) *
                               config_.active_code_fraction));
    for (size_t i = 0; i < share; ++i) {
      size_t code = rng.NextZipf(active, config_.zipf_exponent);
      draws.push_back({p, code});
    }
  }
  rng.Shuffle(&draws);

  size_t ref = 1;
  // Every article code is seeded once per part before Zipf-skewed reuse,
  // so all num_article_codes appear in the data (§3.2: 831 distinct).
  std::vector<size_t> article_seed(parts.size(), 0);
  for (const Draw& draw : draws) {
    const PartSpec& part = parts[draw.part];
    const ErrorCodeSpec& spec = part.codes[draw.code];
    kb::DataBundle bundle;
    char buf[16];
    std::snprintf(buf, sizeof(buf), "REF%06zu", ref++);
    bundle.reference_number = buf;
    bundle.part_id = part.part_id;
    if (article_seed[draw.part] < part.article_codes.size()) {
      bundle.article_code = part.article_codes[article_seed[draw.part]++];
    } else {
      // Article codes skew toward a few common ones per part.
      bundle.article_code =
          part.article_codes[rng.NextZipf(part.article_codes.size(), 0.7)];
    }
    bundle.error_code = spec.code;
    bundle.responsibility_code.assign(1, 'R');
    bundle.responsibility_code += std::to_string(1 + rng.NextBounded(5));
    bundle.mechanic_report = MechanicReport(spec, &rng);
    if (rng.NextBernoulli(config_.initial_report_prob)) {
      bundle.initial_oem_report = InitialReport(spec, &rng);
    }
    bundle.supplier_report = SupplierReport(spec, &rng);
    bundle.final_oem_report = FinalReport(spec, &rng);
    corpus.bundles.push_back(std::move(bundle));
  }
  return corpus;
}

}  // namespace qatk::datagen
