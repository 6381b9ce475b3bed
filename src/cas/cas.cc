#include "cas/cas.h"

#include <algorithm>

namespace qatk::cas {

Status Cas::Add(Annotation annotation) {
  if (annotation.begin > annotation.end ||
      annotation.end > document_.size()) {
    return Status::Invalid(
        "annotation span [" + std::to_string(annotation.begin) + ", " +
        std::to_string(annotation.end) + ") outside document of size " +
        std::to_string(document_.size()));
  }
  if (annotation.type.empty()) {
    return Status::Invalid("annotation must have a type");
  }
  std::vector<Annotation>& list = annotations_[annotation.type];
  // Insert keeping (begin, end) order; appends are the common case.
  auto pos = std::upper_bound(
      list.begin(), list.end(), annotation,
      [](const Annotation& a, const Annotation& b) {
        if (a.begin != b.begin) return a.begin < b.begin;
        return a.end < b.end;
      });
  list.insert(pos, std::move(annotation));
  return Status::OK();
}

std::vector<const Annotation*> Cas::Select(const std::string& type) const {
  std::vector<const Annotation*> out;
  auto it = annotations_.find(type);
  if (it == annotations_.end()) return out;
  out.reserve(it->second.size());
  for (const Annotation& a : it->second) out.push_back(&a);
  return out;
}

size_t Cas::CountType(const std::string& type) const {
  auto it = annotations_.find(type);
  return it == annotations_.end() ? 0 : it->second.size();
}

std::string_view Cas::CoveredText(const Annotation& annotation) const {
  return std::string_view(document_)
      .substr(annotation.begin, annotation.end - annotation.begin);
}

}  // namespace qatk::cas
