#include "kb/data_bundle.h"

#include <array>
#include <utility>

namespace qatk::kb {

namespace {

std::map<std::string, size_t> ErrorCodeCounts(const Corpus& corpus) {
  std::map<std::string, size_t> counts;
  for (const DataBundle& bundle : corpus.bundles) {
    if (!bundle.error_code.empty()) ++counts[bundle.error_code];
  }
  return counts;
}

}  // namespace

size_t Corpus::CountDistinctErrorCodes() const {
  return ErrorCodeCounts(*this).size();
}

size_t Corpus::CountSingletonErrorCodes() const {
  size_t singletons = 0;
  for (const auto& [code, count] : ErrorCodeCounts(*this)) {
    if (count == 1) ++singletons;
  }
  return singletons;
}

std::vector<const DataBundle*> Corpus::LearnableBundles() const {
  std::map<std::string, size_t> counts = ErrorCodeCounts(*this);
  std::vector<const DataBundle*> out;
  for (const DataBundle& bundle : bundles) {
    auto it = counts.find(bundle.error_code);
    if (it != counts.end() && it->second > 1) out.push_back(&bundle);
  }
  return out;
}

DescriptionCatalog::DescriptionCatalog()
    : tables_(std::make_shared<const Tables>()) {}

DescriptionCatalog::DescriptionCatalog(Texts part_descriptions,
                                       Texts error_descriptions)
    : tables_(std::make_shared<const Tables>(
          Tables{std::move(part_descriptions), std::move(error_descriptions)})) {
}

DescriptionCatalog DescriptionCatalog::WithErrorDescription(
    const std::string& code, const std::string& text) const {
  if (tables_->errors.count(code) > 0) return *this;
  Texts errors = tables_->errors;
  errors.emplace(code, text);
  return DescriptionCatalog(tables_->parts, std::move(errors));
}

namespace {

void Compose(const DataBundle& bundle, unsigned sources,
             const DescriptionCatalog::Texts& part_descriptions,
             const DescriptionCatalog::Texts& error_descriptions,
             std::string* doc) {
  // The non-empty sections, newline-separated. Sizing the document once
  // keeps a fresh one from regrowing section by section.
  std::array<const std::string*, 6> sections{};
  size_t count = 0;
  auto add = [&](const std::string& text) {
    if (!text.empty()) sections[count++] = &text;
  };
  if (sources & kMechanicReport) add(bundle.mechanic_report);
  if (sources & kInitialReport) add(bundle.initial_oem_report);
  if (sources & kSupplierReport) add(bundle.supplier_report);
  if (sources & kFinalReport) add(bundle.final_oem_report);
  if (sources & kPartDescription) {
    auto it = part_descriptions.find(bundle.part_id);
    if (it != part_descriptions.end()) add(it->second);
  }
  if ((sources & kErrorDescription) && !bundle.error_code.empty()) {
    auto it = error_descriptions.find(bundle.error_code);
    if (it != error_descriptions.end()) add(it->second);
  }
  size_t size = count == 0 ? 0 : count - 1;
  for (size_t i = 0; i < count; ++i) size += sections[i]->size();
  doc->clear();
  doc->reserve(size);
  for (size_t i = 0; i < count; ++i) {
    if (i > 0) doc->push_back('\n');
    doc->append(*sections[i]);
  }
}

}  // namespace

std::string ComposeDocument(const DataBundle& bundle, unsigned sources,
                            const Corpus& corpus) {
  std::string doc;
  Compose(bundle, sources, corpus.part_descriptions, corpus.error_descriptions,
          &doc);
  return doc;
}

std::string ComposeDocument(const DataBundle& bundle, unsigned sources,
                            const DescriptionCatalog& catalog) {
  std::string doc;
  ComposeDocumentInto(bundle, sources, catalog, &doc);
  return doc;
}

void ComposeDocumentInto(const DataBundle& bundle, unsigned sources,
                         const DescriptionCatalog& catalog, std::string* out) {
  Compose(bundle, sources, catalog.part_descriptions(),
          catalog.error_descriptions(), out);
}

}  // namespace qatk::kb
