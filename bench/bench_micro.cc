// A3 — google-benchmark microbenchmarks for the performance-critical
// kernels: tokenizer, German folding, trie longest-match, similarity
// kernels, knowledge-base candidate selection, and the QDB storage layer
// (B+-tree point ops, heap inserts, buffer-pool hits, SQL point queries).

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/strutil.h"
#include "core/similarity.h"
#include "kb/knowledge_base.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/disk_manager.h"
#include "storage/heap_table.h"
#include "storage/sql.h"
#include "taxonomy/trie.h"
#include "text/language.h"
#include "text/tokenizer.h"

namespace {

using qatk::Rng;

const char* kSampleText =
    "Kleint says taht radio turns on and off by itself. Electiral smell, "
    "crackling sound. Lüfter funktioniert nicht, Kontakt defekt "
    "durchgeschmort. id test470 no clear results sending on to supplier.";

void BM_Tokenize(benchmark::State& state) {
  qatk::text::Tokenizer tokenizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(kSampleText));
  }
}
BENCHMARK(BM_Tokenize);

void BM_FoldGerman(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(qatk::FoldGerman("Größenänderung Lüfter"));
  }
}
BENCHMARK(BM_FoldGerman);

void BM_LanguageDetect(benchmark::State& state) {
  qatk::text::LanguageDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.Detect(kSampleText));
  }
}
BENCHMARK(BM_LanguageDetect);

void BM_TrieLongestMatch(benchmark::State& state) {
  qatk::tax::TokenTrie trie;
  Rng rng(1);
  std::vector<std::string> vocab;
  for (int i = 0; i < 2000; ++i) {
    vocab.push_back("word" + std::to_string(i));
  }
  for (int i = 0; i < 2000; ++i) {
    if (i % 5 == 0) {
      trie.Insert({vocab[i], vocab[(i + 1) % 2000]}, i);
    } else {
      trie.Insert({vocab[i]}, i);
    }
  }
  // Views into `vocab`, the form a folded document's words take.
  std::vector<std::string_view> tokens;
  for (int i = 0; i < 70; ++i) {
    tokens.push_back(vocab[rng.NextBounded(2000)]);
  }
  for (auto _ : state) {
    for (size_t pos = 0; pos < tokens.size(); ++pos) {
      benchmark::DoNotOptimize(trie.LongestMatch(tokens, pos));
    }
  }
}
BENCHMARK(BM_TrieLongestMatch);

void BM_JaccardKernel(benchmark::State& state) {
  Rng rng(7);
  std::vector<int64_t> a;
  std::vector<int64_t> b;
  for (int i = 0; i < 70; ++i) a.push_back(rng.NextBounded(5000));
  for (int i = 0; i < 60; ++i) b.push_back(rng.NextBounded(5000));
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qatk::core::Similarity(qatk::core::SimilarityMeasure::kJaccard, a,
                               b));
  }
}
BENCHMARK(BM_JaccardKernel);

void BM_CandidateSelection(benchmark::State& state) {
  Rng rng(11);
  qatk::kb::KnowledgeBase knowledge;
  for (int i = 0; i < 2000; ++i) {
    std::vector<int64_t> features;
    for (int f = 0; f < 12; ++f) {
      features.push_back(static_cast<int64_t>(rng.NextBounded(600)));
    }
    std::sort(features.begin(), features.end());
    features.erase(std::unique(features.begin(), features.end()),
                   features.end());
    knowledge.AddInstance("P01", "E" + std::to_string(rng.NextBounded(80)),
                          std::move(features));
  }
  std::vector<int64_t> probe;
  for (int f = 0; f < 10; ++f) {
    probe.push_back(static_cast<int64_t>(rng.NextBounded(600)));
  }
  std::sort(probe.begin(), probe.end());
  probe.erase(std::unique(probe.begin(), probe.end()), probe.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(knowledge.SelectCandidates("P01", probe));
  }
}
BENCHMARK(BM_CandidateSelection);

void BM_BPlusTreeInsert(benchmark::State& state) {
  qatk::db::InMemoryDiskManager disk;
  qatk::db::BufferPool pool(&disk, 1024);
  auto root = qatk::db::BPlusTree::Create(&pool);
  qatk::db::BPlusTree tree(&pool, *root);
  int64_t i = 0;
  for (auto _ : state) {
    std::string key = "key" + std::to_string(i * 2654435761u % 1000000);
    benchmark::DoNotOptimize(
        tree.Insert(key, qatk::db::Rid{static_cast<uint32_t>(i), 0}));
    ++i;
  }
}
BENCHMARK(BM_BPlusTreeInsert);

void BM_BPlusTreeLookup(benchmark::State& state) {
  qatk::db::InMemoryDiskManager disk;
  qatk::db::BufferPool pool(&disk, 1024);
  auto root = qatk::db::BPlusTree::Create(&pool);
  qatk::db::BPlusTree tree(&pool, *root);
  for (int i = 0; i < 50000; ++i) {
    tree.Insert("key" + std::to_string(i),
                qatk::db::Rid{static_cast<uint32_t>(i), 0})
        .Abort();
  }
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get("key" + std::to_string(i % 50000)));
    ++i;
  }
}
BENCHMARK(BM_BPlusTreeLookup);

void BM_HeapInsert(benchmark::State& state) {
  qatk::db::InMemoryDiskManager disk;
  qatk::db::BufferPool pool(&disk, 256);
  auto first = qatk::db::HeapTable::Create(&pool);
  qatk::db::HeapTable table(&pool, *first);
  std::string record(120, 'r');
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Insert(record));
  }
}
BENCHMARK(BM_HeapInsert);

void BM_SqlPointQuery(benchmark::State& state) {
  auto db = qatk::db::Database::OpenInMemory(1024);
  qatk::db::SqlSession session(db->get());
  session.Execute("CREATE TABLE kb (part STRING, code STRING, n INT)")
      .status()
      .Abort();
  session.Execute("CREATE INDEX kb_part ON kb (part)").status().Abort();
  for (int i = 0; i < 5000; ++i) {
    session
        .Execute("INSERT INTO kb VALUES ('P" + std::to_string(i % 31) +
                 "', 'E" + std::to_string(i) + "', " + std::to_string(i) +
                 ")")
        .status()
        .Abort();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.Execute("SELECT code FROM kb WHERE part = 'P7' LIMIT 5"));
  }
}
BENCHMARK(BM_SqlPointQuery);

}  // namespace

BENCHMARK_MAIN();
