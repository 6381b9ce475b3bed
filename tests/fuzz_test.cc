// Randomized differential and fault-injection tests across module
// boundaries: SQL vs a reference evaluator, WAL crash-point truncation,
// taxonomy XML round trips over generated worlds, tokenizer robustness
// on arbitrary byte soup, and feature extraction of hostile report text
// against its independent text reference. All seeds fixed: failures
// reproduce exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "common/rng.h"
#include "datagen/world.h"
#include "feature_reference.h"
#include "hostile_text.h"
#include "kb/features.h"
#include "numbered.h"
#include "server/demo_corpus.h"
#include "server/json.h"
#include "server/protocol.h"
#include "storage/database.h"
#include "storage/sql.h"
#include "storage/wal.h"
#include "taxonomy/xml.h"
#include "text/tokenizer.h"

namespace qatk {
namespace {

// ---------------------------------------------------------------------------
// SQL differential fuzz: random WHERE predicates against a reference model.
// ---------------------------------------------------------------------------

struct RefRow {
  std::string s;
  int64_t n;
};

class SqlFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlFuzzTest, SelectWhereMatchesReferenceFilter) {
  Rng rng(GetParam());
  auto db = db::Database::OpenInMemory(512);
  ASSERT_TRUE(db.ok());
  db::SqlSession session(db->get());
  ASSERT_TRUE(
      session.Execute("CREATE TABLE t (s STRING, n INT)").ok());
  if (rng.NextBernoulli(0.5)) {
    ASSERT_TRUE(session.Execute("CREATE INDEX t_s ON t (s)").ok());
  }

  // Populate with a small value domain so predicates actually select.
  std::vector<RefRow> reference;
  const char* strings[] = {"alpha", "beta", "gamma", "delta"};
  for (int i = 0; i < 200; ++i) {
    RefRow row{strings[rng.NextBounded(4)],
               static_cast<int64_t>(rng.NextInt(-5, 5))};
    reference.push_back(row);
    ASSERT_TRUE(session
                    .Execute("INSERT INTO t VALUES ('" + row.s + "', " +
                             std::to_string(row.n) + ")")
                    .ok());
  }

  const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
  for (int query = 0; query < 60; ++query) {
    // 1-2 random terms.
    struct Term {
      bool on_string;
      std::string op;
      std::string s_value;
      int64_t n_value;
    };
    std::vector<Term> terms;
    size_t num_terms = 1 + rng.NextBounded(2);
    for (size_t i = 0; i < num_terms; ++i) {
      Term term;
      term.on_string = rng.NextBernoulli(0.5);
      term.op = ops[rng.NextBounded(6)];
      term.s_value = strings[rng.NextBounded(4)];
      term.n_value = rng.NextInt(-5, 5);
      terms.push_back(term);
    }
    std::string sql = "SELECT * FROM t WHERE ";
    for (size_t i = 0; i < terms.size(); ++i) {
      if (i > 0) sql += " AND ";
      if (terms[i].on_string) {
        sql += "s " + terms[i].op + " '" + terms[i].s_value + "'";
      } else {
        sql += "n " + terms[i].op + Numbered(" ", terms[i].n_value);
      }
    }
    auto result = session.Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status();

    size_t expected = 0;
    for (const RefRow& row : reference) {
      bool match = true;
      for (const Term& term : terms) {
        int cmp = term.on_string
                      ? row.s.compare(term.s_value)
                      : (row.n < term.n_value ? -1
                                              : (row.n > term.n_value ? 1 : 0));
        bool ok = false;
        if (term.op == "=") ok = cmp == 0;
        else if (term.op == "!=") ok = cmp != 0;
        else if (term.op == "<") ok = cmp < 0;
        else if (term.op == "<=") ok = cmp <= 0;
        else if (term.op == ">") ok = cmp > 0;
        else ok = cmp >= 0;
        if (!ok) {
          match = false;
          break;
        }
      }
      if (match) ++expected;
    }
    EXPECT_EQ(result->rows.size(), expected) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlFuzzTest,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// WAL crash-point fuzz: truncate the redo log at arbitrary byte offsets.
// ---------------------------------------------------------------------------

class WalTruncationFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalTruncationFuzzTest, ArbitraryTruncationYieldsConsistentPrefix) {
  Rng rng(GetParam());
  std::string path =
      ::testing::TempDir() + Numbered("/wal_fuzz_", GetParam());
  auto cleanup = [&]() {
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
    std::remove((path + ".journal").c_str());
  };
  cleanup();
  const int kRows = 60;
  {
    auto db = db::Database::OpenFile(path, 32);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(
                        "t", db::Schema({{"k", db::TypeId::kString}}))
                    .ok());
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(
          (*db)->Insert("t", db::Tuple({db::Value(Numbered("k", i))}))
              .ok());
    }
    // Crash without checkpoint.
  }
  // Chop the WAL at a random byte offset (simulated torn write).
  long wal_size = 0;
  {
    std::FILE* f = std::fopen((path + ".wal").c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    wal_size = std::ftell(f);
    std::fclose(f);
  }
  ASSERT_GT(wal_size, 0);
  long cut = static_cast<long>(
      rng.NextBounded(static_cast<uint64_t>(wal_size)) + 1);
  ASSERT_EQ(truncate((path + ".wal").c_str(), cut), 0);

  auto db = db::Database::OpenFile(path, 32);
  ASSERT_TRUE(db.ok()) << db.status();
  // The surviving rows must be exactly a prefix k0..k(n-1) of the inserts.
  // If the cut fell inside the CREATE TABLE record, nothing replays and
  // even the table is gone — the empty prefix.
  std::map<int, bool> present;
  size_t count = 0;
  if ((*db)->GetTable("t").status().IsKeyError()) {
    cleanup();
    return;
  }
  ASSERT_TRUE((*db)->ScanTable("t", [&](const db::Rid&, const db::Tuple& t) {
    std::string key = t.value(0).AsString();
    present[std::stoi(key.substr(1))] = true;
    ++count;
    return true;
  }).ok());
  EXPECT_LE(count, static_cast<size_t>(kRows));
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(present.count(static_cast<int>(i)))
        << "recovered rows must form a contiguous prefix";
  }
  cleanup();
}

INSTANTIATE_TEST_SUITE_P(CutPoints, WalTruncationFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Taxonomy XML round trip over a full generated world.
// ---------------------------------------------------------------------------

TEST(TaxonomyXmlFuzzTest, GeneratedWorldRoundTripsExactly) {
  datagen::WorldConfig config;
  config.num_parts = 6;
  config.num_article_codes = 40;
  config.num_error_codes = 80;
  config.max_codes_largest_part = 25;
  config.small_parts = 2;
  config.num_components = 120;
  config.num_symptoms = 110;
  config.num_locations = 40;
  config.num_solutions = 40;
  datagen::DomainWorld world(config);
  const tax::Taxonomy& original = world.taxonomy();

  std::string xml = tax::TaxonomyToXml(original);
  auto loaded = tax::TaxonomyFromXml(xml);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), original.size());
  for (const tax::Concept* leaf : original.All()) {
    auto other = loaded->Find(leaf->id);
    ASSERT_TRUE(other.ok());
    EXPECT_EQ((*other)->label, leaf->label);
    EXPECT_EQ((*other)->category, leaf->category);
    EXPECT_EQ((*other)->parent_id, leaf->parent_id);
    EXPECT_EQ((*other)->synonyms, leaf->synonyms);
  }
  // Second round trip is byte-identical (canonical form).
  EXPECT_EQ(tax::TaxonomyToXml(*loaded), xml);
}

// ---------------------------------------------------------------------------
// Wire JSON codec: random documents must round-trip byte-identically, and
// a malformed-frame corpus must fail cleanly (no crash, no bogus accept).
// ---------------------------------------------------------------------------

/// Random JSON value: all six types, arbitrary string bytes (controls,
/// quotes, broken UTF-8 — Dump escapes what must be escaped), finite
/// doubles drawn from raw bit patterns so exponents cover the full range.
server::Json RandomJson(Rng* rng, int depth) {
  const uint64_t kind = rng->NextBounded(depth > 0 ? 6 : 4);
  switch (kind) {
    case 0:
      return server::Json();
    case 1:
      return server::Json(rng->NextBernoulli(0.5));
    case 2: {
      if (rng->NextBernoulli(0.5)) {
        return server::Json(rng->NextInt(-1000000000, 1000000000));
      }
      double value = 0;
      do {
        const uint64_t bits = rng->Next();
        std::memcpy(&value, &bits, sizeof(value));
      } while (!std::isfinite(value));
      return server::Json(value);
    }
    case 3: {
      std::string s;
      const size_t len = rng->NextBounded(24);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng->NextBounded(256)));
      }
      return server::Json(s);
    }
    case 4: {
      server::Json array = server::Json::Array();
      const size_t n = rng->NextBounded(5);
      for (size_t i = 0; i < n; ++i) {
        array.Append(RandomJson(rng, depth - 1));
      }
      return array;
    }
    default: {
      server::Json object = server::Json::Object();
      const size_t n = rng->NextBounded(5);
      for (size_t i = 0; i < n; ++i) {
        object.Set(Numbered("k", i), RandomJson(rng, depth - 1));
      }
      return object;
    }
  }
}

TEST(JsonCodecFuzzTest, RandomValuesRoundTripByteIdentical) {
  Rng rng(4242);
  for (int trial = 0; trial < 500; ++trial) {
    const server::Json value = RandomJson(&rng, 4);
    const std::string first = value.Dump();
    auto parsed = server::Json::Parse(first);
    ASSERT_TRUE(parsed.ok()) << first << ": " << parsed.status();
    // Dump is canonical, so Serialize -> Parse -> Serialize is the
    // identity on bytes — the property the wire-equivalence bench gate
    // (bit-identical responses) rests on.
    EXPECT_EQ(parsed->Dump(), first) << first;
  }
}

TEST(JsonCodecFuzzTest, RequestsRoundTripThroughFraming) {
  Rng rng(515);
  const char* methods[] = {"Recommend", "RecommendForText", "Health",
                           "Stats",     "MetricsText",      "NoSuchMethod"};
  for (int trial = 0; trial < 200; ++trial) {
    const int64_t id = rng.NextInt(-1000, 1000000);
    const std::string method = methods[rng.NextBounded(6)];
    const int64_t deadline =
        rng.NextBernoulli(0.5) ? rng.NextInt(1, 60000) : -1;
    server::Json params = server::Json::Object();
    const size_t n = rng.NextBounded(4);
    for (size_t i = 0; i < n; ++i) {
      params.Set(Numbered("p", i), RandomJson(&rng, 2));
    }
    const std::string payload =
        server::EncodeRequest(id, method, params, deadline);
    std::string buffer;
    server::AppendFrame(payload, &buffer);
    const server::FrameDecode decode = server::DecodeFrame(buffer);
    ASSERT_EQ(decode.state, server::FrameDecode::State::kFrame);
    EXPECT_EQ(decode.consumed, buffer.size());
    auto request = server::ParseRequest(decode.payload);
    ASSERT_TRUE(request.ok()) << payload << ": " << request.status();
    EXPECT_EQ(request->id, id);
    EXPECT_EQ(request->method_name, method);
    EXPECT_EQ(request->deadline_ms, deadline);
    EXPECT_EQ(server::EncodeRequest(request->id, request->method_name,
                                    request->params, request->deadline_ms),
              payload);
  }
}

TEST(FrameFuzzTest, TruncatedPrefixAndPayloadWantMoreBytes) {
  using State = server::FrameDecode::State;
  // Fewer bytes than the length prefix: kNeedMore, nothing consumed.
  for (size_t len = 0; len < server::kLengthPrefixBytes; ++len) {
    const std::string buffer(len, '\x01');
    EXPECT_EQ(server::DecodeFrame(buffer).state, State::kNeedMore);
  }
  // Complete prefix, truncated payload at every cut: still kNeedMore.
  std::string buffer;
  server::AppendFrame("{\"id\":1,\"method\":\"Health\"}", &buffer);
  for (size_t cut = server::kLengthPrefixBytes; cut < buffer.size(); ++cut) {
    const server::FrameDecode decode =
        server::DecodeFrame(std::string_view(buffer).substr(0, cut));
    EXPECT_EQ(decode.state, State::kNeedMore) << "cut=" << cut;
    EXPECT_EQ(decode.consumed, 0u);
  }
}

TEST(FrameFuzzTest, OverlongAndZeroLengthsAreErrors) {
  using State = server::FrameDecode::State;
  // A length prefix above the cap must error before any allocation —
  // even though the buffer holds nowhere near that many bytes.
  const std::string overlong = {'\x7f', '\x7f', '\x7f', '\x7f'};
  EXPECT_EQ(server::DecodeFrame(overlong, 1024).state, State::kError);
  const std::string zero(server::kLengthPrefixBytes, '\0');
  EXPECT_EQ(server::DecodeFrame(zero).state, State::kError);
}

TEST(FrameFuzzTest, HostilePayloadCorpusFailsCleanly) {
  // Each entry must produce a clean parse error — not a crash and not a
  // silently-accepted request.
  const std::vector<std::string> must_fail = {
      "",                                       // empty document
      "\xff\xfe{\"method\":\"Health\"}",        // garbage before document
      "{\"method\":\"\\ud800\"}",               // lone high surrogate
      "{\"method\":\"\\udc00\"}",               // lone low surrogate
      "{\"method\":\"\\ud800x\"}",              // surrogate cut short
      "{\"method\":\"Health\"",                 // truncated object
      "{\"id\":01,\"method\":\"x\"}",           // leading-zero number
      "[\"not\",\"an\",\"object\"]",            // non-object document
      "{\"id\":1}",                             // missing method
      "{\"method\":42}",                        // non-string method
      "{\"method\":\"x\"}trailing",             // trailing garbage
      std::string("{\"method\":\"x\"}\0", 16),  // embedded NUL after doc
  };
  for (const std::string& payload : must_fail) {
    auto request = server::ParseRequest(payload);
    EXPECT_FALSE(request.ok()) << payload;
    EXPECT_FALSE(request.status().ToString().empty());
  }
  // Raw invalid UTF-8 *inside* a string is carried as opaque bytes (the
  // codec escapes but does not validate encodings); it must parse without
  // crashing and fall out as an unknown method, never undefined behavior.
  auto raw = server::ParseRequest("{\"id\":1,\"method\":\"\xc3\x28\"}");
  ASSERT_TRUE(raw.ok()) << raw.status();
  EXPECT_EQ(raw->method, server::Method::kUnknown);
}

TEST(FrameFuzzTest, RandomByteSoupNeverCrashesDecoderOrParsers) {
  Rng rng(999);
  for (int trial = 0; trial < 500; ++trial) {
    std::string buffer;
    const size_t len = rng.NextBounded(64);
    for (size_t i = 0; i < len; ++i) {
      buffer.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    const server::FrameDecode decode = server::DecodeFrame(buffer, 4096);
    if (decode.state == server::FrameDecode::State::kFrame) {
      EXPECT_LE(decode.consumed, buffer.size());
      // Whatever came out must hit the parsers without incident; both ok
      // and error outcomes are fine, crashes and sanitizer reports are
      // not.
      server::ParseRequest(decode.payload).status();
      server::ParseResponse(decode.payload).status();
    }
  }
}

// ---------------------------------------------------------------------------
// Tokenizer robustness on arbitrary byte soup.
// ---------------------------------------------------------------------------

TEST(TokenizerFuzzTest, ArbitraryBytesNeverBreakInvariants) {
  Rng rng(777);
  text::Tokenizer tokenizer;
  for (int trial = 0; trial < 300; ++trial) {
    std::string input;
    size_t len = rng.NextBounded(200);
    for (size_t i = 0; i < len; ++i) {
      input.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    auto tokens = tokenizer.Tokenize(input);
    size_t prev_end = 0;
    for (const text::Token& token : tokens) {
      EXPECT_LT(token.begin, token.end);
      EXPECT_LE(token.end, input.size());
      EXPECT_GE(token.begin, prev_end) << "tokens must not overlap";
      prev_end = token.end;
      EXPECT_EQ(input.substr(token.begin, token.end - token.begin),
                token.text);
    }
  }
}

// ---------------------------------------------------------------------------
// Hostile report text: the direct feature extraction equals the
// independent text reference (feature_reference.h) on every model and
// never crashes.
// ---------------------------------------------------------------------------

class HostileTextFuzzTest : public ::testing::TestWithParam<kb::FeatureModel> {
};

TEST_P(HostileTextFuzzTest, DirectExtractionEqualsCasPipeline) {
  const kb::FeatureModel model = GetParam();
  const datagen::DomainWorld world(server::DemoWorldConfig());
  const std::shared_ptr<const tax::ConceptTrie> concepts =
      kb::BuildConcepts(model, &world.taxonomy());
  kb::reference::TextReference reference(model, &world.taxonomy());
  kb::FeatureVocabulary vocabulary;
  kb::FeatureVocabulary reference_vocabulary;
  kb::FeatureExtractor direct(model, concepts, &vocabulary);
  const std::vector<std::string> docs =
      hostile::HostileDocuments(world.taxonomy());
  for (size_t i = 0; i < docs.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(kb::reference::ExpectSameExtraction(
        &direct, &reference, &reference_vocabulary, /*frozen=*/false,
        docs[i]))
        << "document " << i << " (" << docs[i].size() << " bytes)";
  }
  EXPECT_EQ(vocabulary.Entries(), reference_vocabulary.Entries());
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, HostileTextFuzzTest,
    ::testing::Values(kb::FeatureModel::kBagOfWords,
                      kb::FeatureModel::kBagOfWordsNoStop,
                      kb::FeatureModel::kBagOfStems,
                      kb::FeatureModel::kBagOfConcepts),
    [](const ::testing::TestParamInfo<kb::FeatureModel>& info) {
      std::string name = kb::FeatureModelToString(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace qatk
