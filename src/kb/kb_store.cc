#include "kb/kb_store.h"

#include <algorithm>
#include <map>

namespace qatk::kb {

namespace {

using db::Column;
using db::Rid;
using db::Schema;
using db::Tuple;
using db::TypeId;
using db::Value;

Value S(const std::string& s) { return Value(s); }
Value I(int64_t i) { return Value(i); }
Value D(double d) { return Value(d); }

}  // namespace

KbStore::KbStore(db::Database* database, std::string prefix)
    : db_(database), prefix_(std::move(prefix)) {}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

Status KbStore::SaveCorpus(const Corpus& corpus) {
  QATK_RETURN_NOT_OK(db_->CreateTable(
      T("bundles"),
      Schema({{"ref", TypeId::kString},
              {"article_code", TypeId::kString},
              {"part_id", TypeId::kString},
              {"error_code", TypeId::kString},
              {"resp_code", TypeId::kString},
              {"mechanic", TypeId::kString},
              {"initial", TypeId::kString},
              {"supplier", TypeId::kString},
              {"final", TypeId::kString}})));
  QATK_RETURN_NOT_OK(db_->CreateIndex(T("bundles_by_part"), T("bundles"),
                                      {"part_id"}));
  QATK_RETURN_NOT_OK(
      db_->CreateIndex(T("bundles_by_ref"), T("bundles"), {"ref"}));
  QATK_RETURN_NOT_OK(db_->CreateTable(
      T("part_desc"), Schema({{"part_id", TypeId::kString},
                              {"description", TypeId::kString}})));
  QATK_RETURN_NOT_OK(db_->CreateTable(
      T("error_desc"), Schema({{"error_code", TypeId::kString},
                               {"description", TypeId::kString}})));

  for (const DataBundle& b : corpus.bundles) {
    QATK_RETURN_NOT_OK(
        db_->Insert(T("bundles"),
                    Tuple({S(b.reference_number), S(b.article_code),
                           S(b.part_id), S(b.error_code),
                           S(b.responsibility_code), S(b.mechanic_report),
                           S(b.initial_oem_report), S(b.supplier_report),
                           S(b.final_oem_report)}))
            .status());
  }
  for (const auto& [part, desc] : corpus.part_descriptions) {
    QATK_RETURN_NOT_OK(
        db_->Insert(T("part_desc"), Tuple({S(part), S(desc)})).status());
  }
  for (const auto& [code, desc] : corpus.error_descriptions) {
    QATK_RETURN_NOT_OK(
        db_->Insert(T("error_desc"), Tuple({S(code), S(desc)})).status());
  }
  return Status::OK();
}

Result<Corpus> KbStore::LoadCorpus() const {
  Corpus corpus;
  QATK_RETURN_NOT_OK(
      db_->ScanTable(T("bundles"), [&](const Rid&, const Tuple& t) {
        DataBundle b;
        b.reference_number = t.value(0).AsString();
        b.article_code = t.value(1).AsString();
        b.part_id = t.value(2).AsString();
        b.error_code = t.value(3).AsString();
        b.responsibility_code = t.value(4).AsString();
        b.mechanic_report = t.value(5).AsString();
        b.initial_oem_report = t.value(6).AsString();
        b.supplier_report = t.value(7).AsString();
        b.final_oem_report = t.value(8).AsString();
        corpus.bundles.push_back(std::move(b));
        return true;
      }));
  QATK_RETURN_NOT_OK(
      db_->ScanTable(T("part_desc"), [&](const Rid&, const Tuple& t) {
        corpus.part_descriptions[t.value(0).AsString()] =
            t.value(1).AsString();
        return true;
      }));
  QATK_RETURN_NOT_OK(
      db_->ScanTable(T("error_desc"), [&](const Rid&, const Tuple& t) {
        corpus.error_descriptions[t.value(0).AsString()] =
            t.value(1).AsString();
        return true;
      }));
  return corpus;
}

Result<DataBundle> KbStore::FindBundle(const std::string& reference_number) {
  std::vector<Rid> rids;
  QATK_RETURN_NOT_OK(db_->ScanIndexEquals(
      T("bundles_by_ref"), {S(reference_number)}, [&](const Rid& rid) {
        rids.push_back(rid);
        return false;  // Reference numbers are unique.
      }));
  if (rids.empty()) {
    return Status::KeyError("no bundle with reference number '" +
                            reference_number + "'");
  }
  QATK_ASSIGN_OR_RETURN(Tuple t, db_->Get(T("bundles"), rids[0]));
  DataBundle b;
  b.reference_number = t.value(0).AsString();
  b.article_code = t.value(1).AsString();
  b.part_id = t.value(2).AsString();
  b.error_code = t.value(3).AsString();
  b.responsibility_code = t.value(4).AsString();
  b.mechanic_report = t.value(5).AsString();
  b.initial_oem_report = t.value(6).AsString();
  b.supplier_report = t.value(7).AsString();
  b.final_oem_report = t.value(8).AsString();
  return b;
}

// ---------------------------------------------------------------------------
// Knowledge base
// ---------------------------------------------------------------------------

Status KbStore::SaveKnowledgeBase(const KnowledgeBase& kb,
                                  const FeatureVocabulary& vocabulary) {
  QATK_RETURN_NOT_OK(db_->CreateTable(
      T("nodes"), Schema({{"node_id", TypeId::kInt64},
                          {"part_id", TypeId::kString},
                          {"error_code", TypeId::kString},
                          {"instances", TypeId::kInt64}})));
  QATK_RETURN_NOT_OK(
      db_->CreateIndex(T("nodes_by_id"), T("nodes"), {"node_id"}));
  QATK_RETURN_NOT_OK(db_->CreateTable(
      T("features"), Schema({{"node_id", TypeId::kInt64},
                             {"part_id", TypeId::kString},
                             {"feature", TypeId::kInt64}})));
  // The candidate-selection index of Fig. 5: same part id + shared feature.
  QATK_RETURN_NOT_OK(db_->CreateIndex(T("features_by_part_feature"),
                                      T("features"),
                                      {"part_id", "feature"}));
  // Node materialization index: all feature rows of one node.
  QATK_RETURN_NOT_OK(
      db_->CreateIndex(T("features_by_node"), T("features"), {"node_id"}));
  QATK_RETURN_NOT_OK(db_->CreateTable(
      T("vocab"),
      Schema({{"id", TypeId::kInt64}, {"word", TypeId::kString}})));

  for (size_t i = 0; i < kb.num_nodes(); ++i) {
    const KnowledgeNode& node = kb.node(i);
    int64_t node_id = static_cast<int64_t>(i);
    QATK_RETURN_NOT_OK(
        db_->Insert(T("nodes"),
                    Tuple({I(node_id), S(node.part_id), S(node.error_code),
                           I(static_cast<int64_t>(node.instance_count))}))
            .status());
    for (int64_t f : node.features) {
      QATK_RETURN_NOT_OK(
          db_->Insert(T("features"), Tuple({I(node_id), S(node.part_id), I(f)}))
              .status());
    }
  }
  for (const auto& [word, id] : vocabulary.Entries()) {
    QATK_RETURN_NOT_OK(
        db_->Insert(T("vocab"), Tuple({I(id), S(word)})).status());
  }
  return Status::OK();
}

Result<KnowledgeBase> KbStore::LoadKnowledgeBase() const {
  // Rebuild node feature sets, then feed them through AddInstance to
  // reconstruct the in-memory indexes.
  struct RawNode {
    std::string part_id;
    std::string error_code;
    int64_t instances = 1;
    std::vector<int64_t> features;
  };
  std::map<int64_t, RawNode> raw;
  QATK_RETURN_NOT_OK(
      db_->ScanTable(T("nodes"), [&](const Rid&, const Tuple& t) {
        RawNode& node = raw[t.value(0).AsInt64()];
        node.part_id = t.value(1).AsString();
        node.error_code = t.value(2).AsString();
        node.instances = t.value(3).AsInt64();
        return true;
      }));
  QATK_RETURN_NOT_OK(
      db_->ScanTable(T("features"), [&](const Rid&, const Tuple& t) {
        raw[t.value(0).AsInt64()].features.push_back(t.value(2).AsInt64());
        return true;
      }));
  KnowledgeBase kb;
  for (auto& [node_id, node] : raw) {
    std::sort(node.features.begin(), node.features.end());
    for (int64_t i = 0; i < node.instances; ++i) {
      kb.AddInstance(node.part_id, node.error_code, node.features);
    }
  }
  return kb;
}

Result<FeatureVocabulary> KbStore::LoadVocabulary() const {
  std::map<int64_t, std::string> words;
  QATK_RETURN_NOT_OK(
      db_->ScanTable(T("vocab"), [&](const Rid&, const Tuple& t) {
        words[t.value(0).AsInt64()] = t.value(1).AsString();
        return true;
      }));
  FeatureVocabulary vocabulary;
  for (const auto& [id, word] : words) {
    QATK_RETURN_NOT_OK(vocabulary.Restore(word, id));
  }
  return vocabulary;
}

Result<std::vector<KnowledgeNode>> KbStore::SelectCandidatesFromDb(
    const std::string& part_id, const std::vector<int64_t>& features) {
  // Step 2+3 of Fig. 5 via the (part_id, feature) index: collect node ids
  // sharing >= 1 feature, then materialize each node once.
  std::vector<int64_t> node_ids;
  for (int64_t f : features) {
    QATK_RETURN_NOT_OK(db_->ScanIndexEquals(
        T("features_by_part_feature"), {S(part_id), I(f)},
        [&](const Rid& rid) {
          auto row = db_->Get(T("features"), rid);
          if (row.ok()) node_ids.push_back(row->value(0).AsInt64());
          return true;
        }));
  }
  std::sort(node_ids.begin(), node_ids.end());
  node_ids.erase(std::unique(node_ids.begin(), node_ids.end()),
                 node_ids.end());

  std::vector<KnowledgeNode> out;
  for (int64_t node_id : node_ids) {
    KnowledgeNode node;
    bool found = false;
    QATK_RETURN_NOT_OK(db_->ScanIndexEquals(
        T("nodes_by_id"), {I(node_id)}, [&](const Rid& rid) {
          auto row = db_->Get(T("nodes"), rid);
          if (row.ok()) {
            node.part_id = row->value(1).AsString();
            node.error_code = row->value(2).AsString();
            node.instance_count =
                static_cast<size_t>(row->value(3).AsInt64());
            found = true;
          }
          return false;
        }));
    if (!found) {
      return Status::Internal("dangling feature row for node " +
                              std::to_string(node_id));
    }
    // Materialize the node's full feature set via the node-id index.
    std::vector<int64_t> fs;
    QATK_RETURN_NOT_OK(db_->ScanIndexEquals(
        T("features_by_node"), {I(node_id)}, [&](const Rid& rid) {
          auto row = db_->Get(T("features"), rid);
          if (row.ok()) fs.push_back(row->value(2).AsInt64());
          return true;
        }));
    std::sort(fs.begin(), fs.end());
    node.features = std::move(fs);
    out.push_back(std::move(node));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Recommendations
// ---------------------------------------------------------------------------

Status KbStore::SaveRecommendations(
    const std::string& reference_number,
    const std::vector<std::pair<std::string, double>>& scored_codes) {
  if (db_->GetTable(T("results")).status().IsKeyError()) {
    QATK_RETURN_NOT_OK(db_->CreateTable(
        T("results"), Schema({{"ref", TypeId::kString},
                              {"error_code", TypeId::kString},
                              {"score", TypeId::kDouble},
                              {"rank", TypeId::kInt64}})));
    QATK_RETURN_NOT_OK(
        db_->CreateIndex(T("results_by_ref"), T("results"), {"ref"}));
  }
  for (size_t i = 0; i < scored_codes.size(); ++i) {
    QATK_RETURN_NOT_OK(
        db_->Insert(T("results"),
                    Tuple({S(reference_number), S(scored_codes[i].first),
                           D(scored_codes[i].second),
                           I(static_cast<int64_t>(i))}))
            .status());
  }
  return Status::OK();
}

Result<std::vector<std::pair<std::string, double>>>
KbStore::LoadRecommendations(const std::string& reference_number) {
  std::vector<std::pair<int64_t, std::pair<std::string, double>>> rows;
  QATK_RETURN_NOT_OK(db_->ScanIndexEquals(
      T("results_by_ref"), {S(reference_number)}, [&](const Rid& rid) {
        auto row = db_->Get(T("results"), rid);
        if (row.ok()) {
          rows.push_back({row->value(3).AsInt64(),
                          {row->value(1).AsString(),
                           row->value(2).AsDouble()}});
        }
        return true;
      }));
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<std::string, double>> out;
  out.reserve(rows.size());
  for (auto& [rank, scored] : rows) out.push_back(std::move(scored));
  return out;
}

}  // namespace qatk::kb
