// Cluster subsystem tests: sharder determinism, scatter-gather merge
// semantics, and — the load-bearing property — bit-identical equivalence
// between a sharded cluster and a single-node service. Equivalence is
// exercised at two levels: directly against RecommendationService::
// ShardTopK + MergePartials at every shard count from 1 to 4, and
// end-to-end over real sockets through a Coordinator front end.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/merge.h"
#include "cluster/sharder.h"
#include "core/classifier.h"
#include "datagen/oem.h"
#include "datagen/world.h"
#include "hostile_text.h"
#include "kb/data_bundle.h"
#include "kb/frozen_index.h"
#include "kb/knowledge_base.h"
#include "numbered.h"
#include "quest/recommendation_service.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace qatk::cluster {
namespace {

using quest::RecommendationService;
using server::Json;

// ---------------------------------------------------------------------------
// Sharder units.

TEST(SharderTest, HashIsDeterministicAndInRange) {
  Sharder a(4);
  Sharder b(4);
  for (int i = 0; i < 200; ++i) {
    const std::string key = Numbered("P", i * 37);
    const uint32_t shard = a.ShardFor(key);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, b.ShardFor(key)) << key;
  }
  EXPECT_STREQ(a.name(), "hash");
}

TEST(SharderTest, HashSpreadsKeysAcrossAllShards) {
  Sharder sharder(4);
  std::set<uint32_t> hit;
  for (int i = 0; i < 64; ++i) {
    hit.insert(sharder.ShardFor(Numbered("PART-", i)));
  }
  EXPECT_EQ(hit.size(), 4u);
}

TEST(SharderTest, FactoryCoversNamesAndRejectsBadInput) {
  EXPECT_NE(MakeSharder("hash", 3), nullptr);
  EXPECT_EQ(MakeSharder("range", 3), nullptr);
  EXPECT_EQ(MakeSharder("round_robin", 3), nullptr);
  EXPECT_EQ(MakeSharder("hash", 0), nullptr);
  EXPECT_EQ(MakeSharder("mystery", 3), nullptr);
  auto one = MakeSharder("hash", 1);
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(one->ShardFor("anything"), 0u);
}

// ---------------------------------------------------------------------------
// Merge units.

RecommendationService::ShardPartial MakePartial(
    bool known,
    std::vector<RecommendationService::ShardPartialItem> items) {
  RecommendationService::ShardPartial partial;
  partial.known_part = known;
  partial.items = std::move(items);
  return partial;
}

TEST(MergeTest, BreaksScoreTiesByOrdinal) {
  // Shard 1 holds the *older* node (ordinal 3) at the tied score; it must
  // win the dedup slot even though shard 0's partial lists first.
  auto merged = MergePartials(
      {MakePartial(true, {{"E2", 0.5, 7}}), MakePartial(true, {{"E1", 0.5, 3}})},
      /*max_nodes=*/25, /*top_n=*/10);
  EXPECT_TRUE(merged.known_part);
  ASSERT_EQ(merged.recommendation.top.size(), 2u);
  EXPECT_EQ(merged.recommendation.top[0].error_code, "E1");
  EXPECT_EQ(merged.recommendation.top[1].error_code, "E2");
  EXPECT_FALSE(merged.recommendation.truncated);
}

TEST(MergeTest, DedupsCodesKeepingTheBestOccurrence) {
  auto merged = MergePartials(
      {MakePartial(true, {{"E1", 0.9, 0}, {"E2", 0.4, 2}}),
       MakePartial(true, {{"E1", 0.6, 1}, {"E3", 0.5, 3}})},
      /*max_nodes=*/25, /*top_n=*/10);
  ASSERT_EQ(merged.recommendation.top.size(), 3u);
  EXPECT_EQ(merged.recommendation.top[0].error_code, "E1");
  EXPECT_EQ(merged.recommendation.top[0].score, 0.9);
  EXPECT_EQ(merged.recommendation.top[1].error_code, "E3");
  EXPECT_EQ(merged.recommendation.top[2].error_code, "E2");
}

TEST(MergeTest, TruncatesToTopNAndSetsTheFlag) {
  std::vector<RecommendationService::ShardPartialItem> items;
  for (int i = 0; i < 8; ++i) {
    items.push_back({Numbered("E", i), 1.0 - i * 0.1,
                     static_cast<uint64_t>(i)});
  }
  auto merged = MergePartials({MakePartial(true, items)}, /*max_nodes=*/25,
                              /*top_n=*/3);
  EXPECT_TRUE(merged.recommendation.truncated);
  ASSERT_EQ(merged.recommendation.top.size(), 3u);
  EXPECT_EQ(merged.recommendation.top[0].error_code, "E0");
  EXPECT_EQ(merged.recommendation.top[2].error_code, "E2");
}

TEST(MergeTest, CapsThePoolAtMaxNodesBeforeDedup) {
  // Two shards each offer 3 nodes of the same code family; max_nodes=4
  // keeps only the global best 4 *nodes*, exactly like the single-node
  // classifier's candidate heap.
  auto merged = MergePartials(
      {MakePartial(true, {{"A", 0.9, 0}, {"B", 0.7, 2}, {"C", 0.3, 4}}),
       MakePartial(true, {{"D", 0.8, 1}, {"E", 0.6, 3}, {"F", 0.2, 5}})},
      /*max_nodes=*/4, /*top_n=*/10);
  ASSERT_EQ(merged.recommendation.top.size(), 4u);
  EXPECT_EQ(merged.recommendation.top[3].error_code, "E");
  EXPECT_FALSE(merged.recommendation.truncated);
}

TEST(MergeTest, UnknownPartStaysUnknownAndEmptyPartialsMergeClean) {
  auto merged = MergePartials(
      {MakePartial(false, {}), MakePartial(false, {})}, 25, 10);
  EXPECT_FALSE(merged.known_part);
  EXPECT_TRUE(merged.recommendation.top.empty());
  EXPECT_FALSE(merged.recommendation.truncated);
  // known_part ORs: one knowing shard marks the whole merge known.
  merged = MergePartials({MakePartial(false, {}), MakePartial(true, {})}, 25,
                         10);
  EXPECT_TRUE(merged.known_part);
}

// ---------------------------------------------------------------------------
// Cluster-vs-single-node equivalence (service level, no sockets).

datagen::WorldConfig TinyWorld() {
  datagen::WorldConfig config;
  config.num_parts = 6;
  config.num_article_codes = 40;
  config.num_error_codes = 80;
  config.max_codes_largest_part = 25;
  config.mid_part_min_codes = 8;
  config.mid_part_max_codes = 20;
  config.small_parts = 2;
  config.num_components = 80;
  config.num_symptoms = 70;
  config.num_locations = 20;
  config.num_solutions = 20;
  return config;
}

RecommendationService::Options ScopedOptions(uint32_t index, uint32_t n) {
  RecommendationService::Options options;
  const Sharder sharder(n);
  options.shard.shard_index = index;
  options.shard.num_shards = n;
  options.shard.sharder = sharder.name();
  options.shard.owns_part = [sharder, index](const std::string& part) {
    return sharder.ShardFor(part) == index;
  };
  return options;
}

/// World + corpus + single-node reference shared by the equivalence and
/// wire tests (training is the slow part).
class ClusterEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new datagen::DomainWorld(TinyWorld());
    datagen::OemConfig oem;
    oem.num_bundles = 600;
    datagen::OemCorpusGenerator generator(world_, oem);
    corpus_ = new kb::Corpus(generator.Generate());
    reference_ = new RecommendationService(&world_->taxonomy(),
                                           RecommendationService::Options{});
    ASSERT_TRUE(reference_->Train(*corpus_).ok());
  }

  static void TearDownTestSuite() {
    delete reference_;
    reference_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
    delete world_;
    world_ = nullptr;
  }

  /// Trains one scoped service per shard of an n-shard cluster.
  static std::vector<std::unique_ptr<RecommendationService>> TrainShards(
      uint32_t n) {
    std::vector<std::unique_ptr<RecommendationService>> shards;
    for (uint32_t i = 0; i < n; ++i) {
      shards.push_back(std::make_unique<RecommendationService>(
          &world_->taxonomy(), ScopedOptions(i, n)));
      EXPECT_TRUE(shards.back()->Train(*corpus_).ok());
    }
    return shards;
  }

  /// The coordinator's two-round read path, executed in-process: probe the
  /// owner (fallback=false); when the part is unknown, scatter the
  /// all-nodes sweep (fallback=true) to every shard.
  static RecommendationService::Recommendation ClusterRecommend(
      const std::vector<std::unique_ptr<RecommendationService>>& shards,
      const Sharder& sharder, const kb::DataBundle& bundle) {
    const uint32_t owner = sharder.ShardFor(bundle.part_id);
    auto probe = shards[owner]->ShardTopK(bundle, /*fallback=*/false);
    EXPECT_TRUE(probe.ok()) << probe.status();
    std::vector<RecommendationService::ShardPartial> partials;
    if (probe.ok() && probe.ValueOrDie().known_part) {
      partials.push_back(std::move(probe.ValueOrDie()));
    } else {
      for (const auto& shard : shards) {
        auto partial = shard->ShardTopK(bundle, /*fallback=*/true);
        EXPECT_TRUE(partial.ok()) << partial.status();
        if (partial.ok()) partials.push_back(std::move(partial.ValueOrDie()));
      }
    }
    return MergePartials(partials, /*max_nodes=*/25, /*top_n=*/10)
        .recommendation;
  }

  /// Exact comparison: codes, bit-identical scores, truncated flag.
  static bool SameRecommendation(
      const RecommendationService::Recommendation& a,
      const RecommendationService::Recommendation& b) {
    if (a.truncated != b.truncated || a.top.size() != b.top.size()) {
      return false;
    }
    for (size_t i = 0; i < a.top.size(); ++i) {
      if (a.top[i].error_code != b.top[i].error_code) return false;
      if (std::memcmp(&a.top[i].score, &b.top[i].score, sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Probes every corpus bundle plus unknown-part fallbacks and counts
  /// mismatches against the single-node reference.
  static void ExpectClusterMatchesReference(uint32_t n) {
    auto shards = TrainShards(n);
    const Sharder sharder(n);
    size_t mismatches = 0;
    std::string first;
    for (const auto& bundle : corpus_->bundles) {
      auto want = reference_->Recommend(bundle);
      ASSERT_TRUE(want.ok()) << want.status();
      auto got = ClusterRecommend(shards, sharder, bundle);
      if (!SameRecommendation(want.ValueOrDie(), got)) {
        if (++mismatches == 1) first = bundle.reference_number;
      }
    }
    // Unknown part ids exercise the fallback scatter (all-nodes sweep).
    for (int i = 0; i < 8; ++i) {
      kb::DataBundle probe = corpus_->bundles[i * 37 % corpus_->bundles.size()];
      probe.part_id = Numbered("ZZ-UNKNOWN-", i);
      auto want = reference_->Recommend(probe);
      ASSERT_TRUE(want.ok()) << want.status();
      auto got = ClusterRecommend(shards, sharder, probe);
      if (!SameRecommendation(want.ValueOrDie(), got)) {
        if (++mismatches == 1) first = probe.part_id;
      }
    }
    EXPECT_EQ(mismatches, 0u)
        << n << " shards: first mismatch at " << first;
  }

  static datagen::DomainWorld* world_;
  static kb::Corpus* corpus_;
  static RecommendationService* reference_;
};

datagen::DomainWorld* ClusterEquivalenceTest::world_ = nullptr;
kb::Corpus* ClusterEquivalenceTest::corpus_ = nullptr;
RecommendationService* ClusterEquivalenceTest::reference_ = nullptr;

TEST_F(ClusterEquivalenceTest, HashShardsMatchSingleNode) {
  for (uint32_t n : {1u, 2u, 3u, 4u}) {
    ExpectClusterMatchesReference(n);
  }
}

/// Index-level cross-shard merge on a tie-heavy corpus (30 full-overlap
/// contenders + 300 light nodes per part, 330-posting runs): sliced
/// partials, mapped through kept-node global ordinals, must merge to
/// exactly what the unrestricted index computes.
TEST(ShardedIndexTest, SlicedPartialsMergeExactlyToFullIndex) {
  kb::KnowledgeBase knowledge;
  const std::vector<std::string> parts = {"PART-A", "PART-B", "PART-C"};
  const std::vector<int64_t> heavy = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (const std::string& part : parts) {
    // Tie-heavy contenders: 30 distinct nodes with identical feature sets
    // (identical scores), so cross-shard dedup has real ordinal ties to
    // break. Codes must be distinct — AddInstance merges identical
    // (part, code, features) triples into one node.
    for (int i = 0; i < 30; ++i) {
      knowledge.AddInstance(part, Numbered("H", i), heavy);
    }
    for (int i = 0; i < 300; ++i) {
      knowledge.AddInstance(part, Numbered("L", i % 11),
                            {0, 100 + i});
    }
  }
  kb::FrozenIndex full = kb::FrozenIndex::Build(knowledge);

  // Each shard's slice is a knowledge base of the nodes it owns, restored
  // in the unrestricted order (so tie-breaking inside the slice is
  // unchanged); kept[s] maps a slice node to its index in `full`.
  Sharder sharder(3);
  std::vector<kb::KnowledgeBase> shard_knowledge(3);
  std::vector<std::vector<uint32_t>> kept(3);
  for (size_t i = 0; i < knowledge.num_nodes(); ++i) {
    const kb::KnowledgeNode& node = knowledge.node(i);
    const uint32_t s = sharder.ShardFor(node.part_id);
    shard_knowledge[s].RestoreNode(node);
    kept[s].push_back(static_cast<uint32_t>(i));
  }
  std::vector<kb::FrozenIndex> slices;
  for (const kb::KnowledgeBase& slice : shard_knowledge) {
    slices.push_back(kb::FrozenIndex::Build(slice));
  }

  core::RankedKnnClassifier classifier(
      {core::SimilarityMeasure::kJaccard, 25});
  kb::FrozenIndex::Scratch scratch;

  // Turns the scratch top list into a ShardPartial, mapping local node indices
  // to global ordinals (identity for the unrestricted index).
  auto to_partial = [](const kb::FrozenIndex& index, bool known,
                       const std::vector<uint32_t>* ordinals,
                       const kb::FrozenIndex::Scratch& s) {
    RecommendationService::ShardPartial partial;
    partial.known_part = known;
    for (const auto& item : s.top) {
      partial.items.push_back(
          {index.node_error_code(item.second), item.first,
           ordinals == nullptr ? item.second : (*ordinals)[item.second]});
    }
    return partial;
  };

  std::vector<std::vector<int64_t>> probes = {
      heavy, {0}, {0, 3, 7}, {1, 2}, {}, {0, 500}};
  std::vector<std::string> probe_parts = parts;
  probe_parts.push_back("NO-SUCH-PART");
  for (const std::string& part : probe_parts) {
    for (const std::vector<int64_t>& features : probes) {
      // Reference: the unrestricted index, one partial.
      const bool known =
          classifier.SelectTopNodes(full, part, features, &scratch);
      auto want = MergePartials({to_partial(full, known, nullptr, scratch)},
                                25, 10);

      // Cluster: owner probe when known, fallback scatter when not.
      std::vector<RecommendationService::ShardPartial> partials;
      const uint32_t owner = sharder.ShardFor(part);
      if (classifier.SelectTopNodes(slices[owner], part, features,
                                    &scratch)) {
        partials.push_back(
            to_partial(slices[owner], true, &kept[owner], scratch));
      } else {
        for (uint32_t s = 0; s < 3; ++s) {
          classifier.SelectTopNodes(slices[s], part, features, &scratch);
          partials.push_back(to_partial(slices[s], false, &kept[s], scratch));
        }
      }
      auto got = MergePartials(partials, 25, 10);

      ASSERT_EQ(want.known_part, got.known_part) << part;
      ASSERT_EQ(want.recommendation.truncated, got.recommendation.truncated)
          << part;
      ASSERT_EQ(want.recommendation.top.size(),
                got.recommendation.top.size())
          << part;
      for (size_t i = 0; i < want.recommendation.top.size(); ++i) {
        ASSERT_EQ(want.recommendation.top[i].error_code,
                  got.recommendation.top[i].error_code)
            << part << " rank " << i;
        ASSERT_EQ(0, std::memcmp(&want.recommendation.top[i].score,
                                 &got.recommendation.top[i].score,
                                 sizeof(double)))
            << part << " rank " << i;
      }
    }
  }
}

TEST_F(ClusterEquivalenceTest, ShardTopKProbeDoesNotScoreUnknownParts) {
  auto shards = TrainShards(3);
  auto sharder = MakeSharder("hash", 3);
  kb::DataBundle probe = corpus_->bundles[0];
  probe.part_id = "NO-SUCH-PART";
  // Every shard answers the owner probe with known=false and no items.
  for (const auto& shard : shards) {
    auto partial = shard->ShardTopK(probe, /*fallback=*/false);
    ASSERT_TRUE(partial.ok()) << partial.status();
    EXPECT_FALSE(partial.ValueOrDie().known_part);
    EXPECT_TRUE(partial.ValueOrDie().items.empty());
  }
  // A shard that does not own a *known* part also reports known=false:
  // ownership is exact, not best-effort.
  const std::string& owned = corpus_->bundles[0].part_id;
  const uint32_t owner = sharder->ShardFor(owned);
  for (uint32_t i = 0; i < 3; ++i) {
    auto partial = shards[i]->ShardTopK(corpus_->bundles[0], false);
    ASSERT_TRUE(partial.ok());
    EXPECT_EQ(partial.ValueOrDie().known_part, i == owner);
  }
}

TEST_F(ClusterEquivalenceTest, ConfirmWithGlobalOrdinalKeepsEquivalence) {
  // A confirmed assignment routed to the owner with a coordinator-style
  // global ordinal must leave the cluster bit-identical to a single node
  // that absorbed the same confirm.
  auto shards = TrainShards(3);
  auto sharder = MakeSharder("hash", 3);
  // Ordinal counters agree across shards (every shard counts the whole
  // corpus) and match the single-node high-water mark.
  const uint64_t base = shards[0]->ordinal_high();
  for (const auto& shard : shards) {
    EXPECT_EQ(shard->ordinal_high(), base);
  }

  // Fresh single-node reference so the suite-wide one stays pristine.
  RecommendationService local(&world_->taxonomy(),
                              RecommendationService::Options{});
  ASSERT_TRUE(local.Train(*corpus_).ok());
  EXPECT_EQ(local.ordinal_high(), base);

  uint64_t next = base;
  for (int i = 0; i < 3; ++i) {
    kb::DataBundle confirm = corpus_->bundles[50 + i * 31];
    confirm.reference_number = Numbered("CONFIRM-", i);
    confirm.mechanic_report += Numbered(" confirmed follow-up ", i);
    const std::string code = corpus_->bundles[200 + i].error_code;
    ASSERT_TRUE(local.ConfirmAssignment(confirm, code).ok());
    const uint32_t owner = sharder->ShardFor(confirm.part_id);
    ASSERT_TRUE(shards[owner]
                    ->ConfirmAssignment(confirm, code,
                                        static_cast<int64_t>(next++))
                    .ok());
    // Non-owners refuse the mutation: routing bugs surface loudly.
    ASSERT_FALSE(shards[(owner + 1) % 3]
                     ->ConfirmAssignment(confirm, code)
                     .ok());
  }

  size_t mismatches = 0;
  for (const auto& bundle : corpus_->bundles) {
    auto want = local.Recommend(bundle);
    ASSERT_TRUE(want.ok());
    auto got = ClusterRecommend(shards, *sharder, bundle);
    if (!SameRecommendation(want.ValueOrDie(), got)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

// ---------------------------------------------------------------------------
// Wire-level: real shard servers behind a Coordinator front end.

class ClusterWireTest : public ClusterEquivalenceTest {
 protected:
  void StartCluster(uint32_t n) {
    shards_ = TrainShards(n);
    Coordinator::Options options;
    for (auto& shard : shards_) {
      auto server = std::make_unique<server::Server>(
          shard.get(), server::Server::Options{.port = 0, .threads = 1});
      ASSERT_TRUE(server->Start().ok());
      options.shards.push_back(ShardEndpoint{"127.0.0.1", server->port()});
      shard_servers_.push_back(std::move(server));
    }
    coordinator_ = std::make_unique<Coordinator>(std::move(options));
    ASSERT_TRUE(coordinator_->Connect().ok());
    front_ = std::make_unique<server::Server>(
        coordinator_.get(), server::Server::Options{.port = 0, .threads = 2});
    ASSERT_TRUE(front_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", front_->port()).ok());
  }

  void TearDown() override {
    client_.Close();
    if (front_) {
      EXPECT_TRUE(front_->Drain().ok());
    }
    front_.reset();
    coordinator_.reset();
    for (auto& server : shard_servers_) {
      EXPECT_TRUE(server->Drain().ok());
    }
    shard_servers_.clear();
    shards_.clear();
  }

  /// Drains shard `i`'s server and starts a new one on the same port,
  /// leaving every pooled coordinator channel to it stale.
  void RestartShard(size_t i) {
    const uint16_t port = shard_servers_[i]->port();
    ASSERT_TRUE(shard_servers_[i]->Drain().ok());
    shard_servers_[i] = std::make_unique<server::Server>(
        shards_[i].get(), server::Server::Options{.port = port, .threads = 1});
    ASSERT_TRUE(shard_servers_[i]->Start().ok());
  }

  /// First corpus part the n-shard hash sharder places on `shard`.
  static std::string PartOwnedBy(uint32_t shard, uint32_t n) {
    const Sharder sharder(n);
    for (const auto& bundle : corpus_->bundles) {
      if (sharder.ShardFor(bundle.part_id) == shard) return bundle.part_id;
    }
    ADD_FAILURE() << "no corpus part on shard " << shard << " of " << n;
    return "";
  }

  /// Runs the same request against the front end (wire) and a single-node
  /// service (in-process Dispatch; the shared reference unless the request
  /// mutates) and requires byte-identical results.
  void ExpectMatchesReference(int64_t id, const std::string& method,
                              Json params,
                              RecommendationService* single = reference_) {
    server::Request request;
    request.id = id;
    request.method_name = method;
    request.method = server::MethodFromString(method);
    request.params = params;
    server::Response want = server::Dispatch(single, request);
    auto got = client_.Call(id, method, std::move(params));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(static_cast<int>(got->code), static_cast<int>(want.code))
        << method << ": " << got->message;
    EXPECT_EQ(got->result.Dump(), want.result.Dump()) << method;
  }

  std::vector<std::unique_ptr<RecommendationService>> shards_;
  std::vector<std::unique_ptr<server::Server>> shard_servers_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<server::Server> front_;
  server::Client client_;
};

TEST_F(ClusterWireTest, FrontEndMatchesSingleNodeOverTheWire) {
  StartCluster(3);
  int64_t id = 1;
  for (size_t i = 0; i < corpus_->bundles.size(); i += 7) {
    ExpectMatchesReference(id++, "Recommend",
                           server::BundleToParams(corpus_->bundles[i]));
  }
  // Unknown part: the coordinator's fallback scatter must match the
  // single-node all-nodes sweep.
  kb::DataBundle unknown = corpus_->bundles[3];
  unknown.part_id = "ZZ-UNKNOWN-WIRE";
  ExpectMatchesReference(id++, "Recommend", server::BundleToParams(unknown));

  // RecommendForText routes through the same two-round path.
  Json text_params = Json::Object();
  text_params.Set("part_id", Json(corpus_->bundles[5].part_id));
  text_params.Set("text", Json(corpus_->bundles[9].mechanic_report));
  ExpectMatchesReference(id++, "RecommendForText", text_params);

  // FullListForPart is an owner passthrough.
  for (size_t i = 0; i < 12; ++i) {
    Json params = Json::Object();
    params.Set("part_id", Json(corpus_->bundles[i * 11].part_id));
    ExpectMatchesReference(id++, "FullListForPart", params);
  }

  // DescribeCode scatters; every trained code resolves somewhere.
  Json describe = Json::Object();
  describe.Set("code", Json(corpus_->bundles[0].error_code));
  ExpectMatchesReference(id++, "DescribeCode", describe);
}

TEST_F(ClusterWireTest, FrontEndHealthStatsAndShardMethodPolicy) {
  StartCluster(3);
  auto health = client_.Call(1, "Health", Json::Object());
  ASSERT_TRUE(health.ok()) << health.status();
  ASSERT_TRUE(health->ok()) << health->message;
  EXPECT_TRUE(health->result.GetBool("trained", false));
  const Json* cluster = health->result.Find("cluster");
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->GetInt("shards", -1), 3);
  EXPECT_EQ(cluster->GetString("sharder"), "hash");

  auto stats = client_.Call(2, "Stats", Json::Object());
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_NE(stats->result.Find("cluster"), nullptr);

  // Shard-internal RPCs are not part of the public front-end surface.
  Json params = Json::Object();
  params.Set("part_id", Json(corpus_->bundles[0].part_id));
  params.Set("mechanic_report", Json("engine stalls"));
  params.Set("fallback", Json(false));
  auto shard_query = client_.Call(3, "ShardQuery", params);
  ASSERT_TRUE(shard_query.ok()) << shard_query.status();
  EXPECT_EQ(shard_query->code, StatusCode::kInvalid);

  // Shard servers *do* expose their shard identity in Health.
  server::Client direct;
  ASSERT_TRUE(direct.Connect("127.0.0.1", shard_servers_[1]->port()).ok());
  auto shard_health = direct.Call(4, "Health", Json::Object());
  ASSERT_TRUE(shard_health.ok()) << shard_health.status();
  const Json* shard_info = shard_health->result.Find("shard");
  ASSERT_NE(shard_info, nullptr);
  EXPECT_EQ(shard_info->GetInt("index", -1), 1);
  EXPECT_EQ(shard_info->GetInt("shards", -1), 3);
  EXPECT_EQ(shard_info->GetString("sharder"), "hash");
}

TEST_F(ClusterWireTest, MutationsRouteToOwnersAndStayConsistent) {
  StartCluster(3);
  const uint64_t base = coordinator_->next_ordinal();
  EXPECT_EQ(base, shards_[0]->ordinal_high());

  // DefineErrorCode lands on the part's owner and is visible via the
  // scattering DescribeCode afterwards.
  const std::string part = corpus_->bundles[0].part_id;
  Json define = Json::Object();
  define.Set("part_id", Json(part));
  define.Set("code", Json("ZXW1"));
  define.Set("description", Json("test-defined code"));
  auto defined = client_.Call(1, "DefineErrorCode", define);
  ASSERT_TRUE(defined.ok()) << defined.status();
  ASSERT_TRUE(defined->ok()) << defined->message;

  Json describe = Json::Object();
  describe.Set("code", Json("ZXW1"));
  auto described = client_.Call(2, "DescribeCode", describe);
  ASSERT_TRUE(described.ok()) << described.status();
  ASSERT_TRUE(described->ok()) << described->message;
  EXPECT_EQ(described->result.GetString("description"), "test-defined code");

  // Conflicting re-definition on a *different* part is refused even though
  // that part lives on another shard (the cross-shard conflict scatter).
  std::string other_part;
  auto sharder = MakeSharder("hash", 3);
  for (const auto& bundle : corpus_->bundles) {
    if (sharder->ShardFor(bundle.part_id) != sharder->ShardFor(part)) {
      other_part = bundle.part_id;
      break;
    }
  }
  ASSERT_FALSE(other_part.empty());
  Json conflict = Json::Object();
  conflict.Set("part_id", Json(other_part));
  conflict.Set("code", Json("ZXW1"));
  conflict.Set("description", Json("a different description"));
  auto refused = client_.Call(3, "DefineErrorCode", conflict);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused->code, StatusCode::kAlreadyExists) << refused->message;

  // ConfirmAssignment consumes a coordinator ordinal and reaches the
  // owning shard's knowledge base.
  kb::DataBundle confirm = corpus_->bundles[10];
  confirm.reference_number = "WIRE-CONFIRM-1";
  confirm.mechanic_report += " wire confirm";
  Json confirm_params = server::BundleToParams(confirm);
  confirm_params.Set("error_code", Json(corpus_->bundles[20].error_code));
  auto confirmed = client_.Call(4, "ConfirmAssignment", confirm_params);
  ASSERT_TRUE(confirmed.ok()) << confirmed.status();
  ASSERT_TRUE(confirmed->ok()) << confirmed->message;
  EXPECT_EQ(coordinator_->next_ordinal(), base + 1);
  const uint32_t owner = sharder->ShardFor(confirm.part_id);
  EXPECT_EQ(shards_[owner]->ordinal_high(), base + 1);

  // The confirmed observation influences subsequent recommendations the
  // same way it would on a single node that absorbed the same confirm.
  RecommendationService local(&world_->taxonomy(),
                              RecommendationService::Options{});
  ASSERT_TRUE(local.Train(*corpus_).ok());
  ASSERT_TRUE(local
                  .ConfirmAssignment(confirm,
                                     corpus_->bundles[20].error_code)
                  .ok());
  auto want = local.Recommend(confirm);
  ASSERT_TRUE(want.ok());
  auto got = client_.Call(5, "Recommend", server::BundleToParams(confirm));
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got->ok()) << got->message;
  EXPECT_EQ(got->result.Dump(),
            server::RecommendationToJson(want.ValueOrDie()).Dump());
}

TEST_F(ClusterWireTest, CoordinatorSurvivesAShardRestart) {
  StartCluster(2);
  ExpectMatchesReference(1, "Recommend",
                         server::BundleToParams(corpus_->bundles[0]));

  // Kill shard 1's server and bring a new one up on the same port; the
  // coordinator's pooled channels are stale and must reconnect.
  RestartShard(1);

  for (size_t i = 0; i < 20; ++i) {
    ExpectMatchesReference(static_cast<int64_t>(100 + i), "Recommend",
                           server::BundleToParams(corpus_->bundles[i]));
  }
}

TEST_F(ClusterWireTest, ScatterSurvivesAShardRestart) {
  StartCluster(2);
  // Warm the pool: one scatter leaves a channel to each shard pooled.
  Json describe = Json::Object();
  describe.Set("code", Json(corpus_->bundles[0].error_code));
  ExpectMatchesReference(1, "DescribeCode", describe);

  // Each scatter below meets a stale shard-1 channel first: DescribeCode,
  // the fallback sweep of a part shard 0 owns (so the owner probe does not
  // refresh shard 1's channel), and DefineErrorCode's conflict check.
  RestartShard(1);
  ExpectMatchesReference(2, "DescribeCode", describe);

  RestartShard(1);
  std::string unknown_part;
  const Sharder sharder(2);
  for (int i = 0; unknown_part.empty(); ++i) {
    const std::string part = Numbered("ZZ-UNKNOWN-", i);
    if (sharder.ShardFor(part) == 0) unknown_part = part;
  }
  kb::DataBundle unknown = corpus_->bundles[3];
  unknown.part_id = unknown_part;
  ExpectMatchesReference(3, "Recommend", server::BundleToParams(unknown));

  RestartShard(1);
  RecommendationService single(&world_->taxonomy(),
                               RecommendationService::Options{});
  ASSERT_TRUE(single.Train(*corpus_).ok());
  Json define = Json::Object();
  define.Set("part_id", Json(corpus_->bundles[0].part_id));
  define.Set("code", Json("ZXR1"));
  define.Set("description", Json("defined after a restart"));
  ExpectMatchesReference(4, "DefineErrorCode", define, &single);
  describe.Set("code", Json("ZXR1"));
  ExpectMatchesReference(5, "DescribeCode", describe, &single);
}

TEST_F(ClusterWireTest, ConcurrentDefinesOfOneCodeAdmitOne) {
  StartCluster(3);
  // Two clients define one new code, with different descriptions, on
  // parts different shards own. Both requests are on the wire before
  // either reply is read, so the two front-end loops can run them at once.
  // A single node admits the first and refuses the second.
  const std::string parts[2] = {PartOwnedBy(0, 3), PartOwnedBy(1, 3)};
  for (int trial = 0; trial < 200; ++trial) {
    const std::string code = Numbered("ZC", trial);
    server::Client clients[2];
    for (int c = 0; c < 2; ++c) {
      ASSERT_TRUE(clients[c].Connect("127.0.0.1", front_->port()).ok());
      Json define = Json::Object();
      define.Set("part_id", Json(parts[c]));
      define.Set("code", Json(code));
      define.Set("description", Json(Numbered("description ", c)));
      ASSERT_TRUE(clients[c].Send(c, "DefineErrorCode", define).ok());
    }
    int admitted = 0;
    std::string winner;
    for (int c = 0; c < 2; ++c) {
      auto reply = clients[c].Receive();
      ASSERT_TRUE(reply.ok()) << reply.status();
      if (reply->ok()) {
        ++admitted;
        winner = Numbered("description ", c);
      } else {
        EXPECT_EQ(reply->code, StatusCode::kAlreadyExists) << reply->message;
      }
    }
    ASSERT_EQ(admitted, 1) << "trial " << trial << ", code " << code;
    Json describe = Json::Object();
    describe.Set("code", Json(code));
    auto described = client_.Call(trial, "DescribeCode", describe);
    ASSERT_TRUE(described.ok()) << described.status();
    ASSERT_TRUE(described->ok()) << described->message;
    EXPECT_EQ(described->result.GetString("description"), winner);
  }
}

TEST_F(ClusterWireTest, ConnectRefusesAnUnscopedShard) {
  server::Server unscoped(reference_, server::Server::Options{.port = 0});
  ASSERT_TRUE(unscoped.Start().ok());
  Coordinator::Options options;
  options.shards.push_back(ShardEndpoint{"127.0.0.1", unscoped.port()});
  Coordinator coordinator(std::move(options));
  const Status connected = coordinator.Connect();
  EXPECT_FALSE(connected.ok());
  EXPECT_NE(connected.message().find("not shard-scoped"), std::string::npos)
      << connected.ToString();
  EXPECT_TRUE(unscoped.Drain().ok());
}

TEST_F(ClusterWireTest, ConnectRefusesShardsInTheWrongOrder) {
  StartCluster(2);
  Coordinator::Options options;
  for (size_t i : {1, 0}) {
    options.shards.push_back(
        ShardEndpoint{"127.0.0.1", shard_servers_[i]->port()});
  }
  Coordinator swapped(std::move(options));
  const Status connected = swapped.Connect();
  EXPECT_FALSE(connected.ok());
  EXPECT_NE(connected.message().find("identity mismatch"), std::string::npos)
      << connected.ToString();
}

TEST_F(ClusterWireTest, RequestsFailFastOnAnUnreachableShard) {
  StartCluster(2);
  ASSERT_TRUE(shard_servers_[1]->Drain().ok());  // Not restarted.

  // Shard 1's part and the DescribeCode scatter both need shard 1: each
  // answers kUnavailable naming it, after the shard's retries.
  const auto expect_unavailable = [&](int64_t id, const std::string& method,
                                      Json params) {
    auto reply = client_.Call(id, method, std::move(params));
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->code, StatusCode::kUnavailable) << method;
    EXPECT_NE(reply->message.find("shard 1 ("), std::string::npos)
        << method << ": " << reply->message;
  };
  kb::DataBundle on_shard_1 = corpus_->bundles[0];
  on_shard_1.part_id = PartOwnedBy(1, 2);
  expect_unavailable(1, "Recommend", server::BundleToParams(on_shard_1));
  Json describe = Json::Object();
  describe.Set("code", Json(corpus_->bundles[0].error_code));
  expect_unavailable(2, "DescribeCode", describe);

  // Parts shard 0 owns are still answered in full.
  const std::string part_0 = PartOwnedBy(0, 2);
  int64_t id = 10;
  for (const auto& bundle : corpus_->bundles) {
    if (bundle.part_id != part_0) continue;
    ExpectMatchesReference(id++, "Recommend", server::BundleToParams(bundle));
    if (id == 20) break;
  }
  EXPECT_EQ(id, 20);
}

/// Sends `payload`, which is larger than the frame cap, on a fresh
/// connection to `port`. The server must answer with the oversized-frame
/// error (id 0, kInvalid) and then close the connection.
void ExpectOversizedFrameRefused(uint16_t port, std::string_view payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  const timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string frame;
  server::AppendFrame(payload, &frame);
  // The server answers from the length prefix alone and closes while the
  // rest is still arriving, so the send may stop at EPIPE or ECONNRESET;
  // MSG_NOSIGNAL keeps that from raising SIGPIPE.
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  std::string received;
  server::FrameDecode decode;
  for (;;) {
    decode = server::DecodeFrame(received);
    if (decode.state != server::FrameDecode::State::kNeedMore) break;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    received.append(buf, static_cast<size_t>(n));
  }
  ASSERT_EQ(decode.state, server::FrameDecode::State::kFrame)
      << "no answer to the oversized frame";
  auto response = server::ParseResponse(decode.payload);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->id, 0);
  EXPECT_EQ(response->code, StatusCode::kInvalid);
  EXPECT_NE(response->message.find("exceeds the " +
                                   std::to_string(server::kDefaultMaxFrameBytes) +
                                   "-byte cap"),
            std::string::npos)
      << response->message;
  // Nothing follows the answer: the next read sees the close.
  char byte;
  EXPECT_LE(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
}

TEST_F(ClusterWireTest, HostileReportTextOverTheWire) {
  // Every hostile document through RecommendForText, once to a single-node
  // server and once through a 3-shard coordinator. A document whose
  // request fits one frame is answered byte for byte like the in-process
  // call; the 1 MiB report does not fit and gets the oversized-frame
  // answer and a close, while the serving connection stays usable.
  StartCluster(3);
  server::Server single(reference_,
                        server::Server::Options{.port = 0, .threads = 1});
  ASSERT_TRUE(single.Start().ok());
  const std::vector<std::string> docs =
      hostile::HostileDocuments(world_->taxonomy());
  const std::string known_part = corpus_->bundles[0].part_id;
  const std::pair<const char*, server::Server*> endpoints[] = {
      {"single node", &single}, {"3-shard coordinator", front_.get()}};
  for (const auto& [name, endpoint] : endpoints) {
    SCOPED_TRACE(name);
    server::Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", endpoint->port()).ok());
    size_t oversized = 0;
    for (size_t i = 0; i < docs.size(); ++i) {
      // Alternate a trained part with an unknown one, whose answer is the
      // all-parts fallback (a scatter to every shard in the cluster).
      const std::string part =
          i % 2 == 0 ? known_part : "ZZ-UNKNOWN-HOSTILE";
      Json params = Json::Object();
      params.Set("part_id", Json(part));
      params.Set("text", Json(docs[i]));
      const int64_t id = static_cast<int64_t>(i) + 1;
      const std::string payload =
          server::EncodeRequest(id, "RecommendForText", params);
      if (payload.size() > server::kDefaultMaxFrameBytes) {
        ++oversized;
        ASSERT_NO_FATAL_FAILURE(
            ExpectOversizedFrameRefused(endpoint->port(), payload))
            << "document " << i << " (" << docs[i].size() << " bytes)";
        continue;
      }
      auto want = reference_->RecommendForText(part, docs[i]);
      const std::string expected = server::EncodeResponse(
          id, want.status(),
          want.ok() ? server::RecommendationToJson(*want) : Json());
      std::string frame;
      server::AppendFrame(payload, &frame);
      ASSERT_TRUE(client.SendRaw(frame).ok());
      auto got = client.ReceiveFrame();
      ASSERT_TRUE(got.ok()) << "document " << i << ": " << got.status();
      EXPECT_EQ(*got, expected)
          << "document " << i << " (" << docs[i].size() << " bytes)";
    }
    EXPECT_EQ(oversized, 1u) << "the 1 MiB report must exceed the frame cap";
    auto health = client.Call(0, "Health", Json::Object());
    ASSERT_TRUE(health.ok()) << health.status();
    EXPECT_TRUE(health->ok());
    EXPECT_EQ(endpoint->stats().protocol_errors, 1u);
  }
  for (const auto& shard : shard_servers_) {
    EXPECT_EQ(shard->stats().protocol_errors, 0u);
  }
  EXPECT_TRUE(single.Drain().ok());
}

// ---------------------------------------------------------------------------
// Client reconnect (satellite: connect timeout + retry-on-unavailable).

TEST_F(ClusterEquivalenceTest, ClientCallWithRetryReconnectsAfterRestart) {
  server::Server first(reference_, server::Server::Options{.port = 0});
  ASSERT_TRUE(first.Start().ok());
  const uint16_t port = first.port();

  server::Client client;
  RetryPolicy::Options retry;
  retry.max_attempts = 5;
  retry.base_backoff = std::chrono::microseconds(2000);
  client.set_retry_policy(RetryPolicy(retry));
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  auto health = client.Call(1, "Health", Json::Object());
  ASSERT_TRUE(health.ok()) << health.status();

  ASSERT_TRUE(first.Drain().ok());
  server::Server second(reference_, server::Server::Options{.port = port});
  ASSERT_TRUE(second.Start().ok());

  // The pooled connection is dead; CallWithRetry must reconnect to the
  // remembered endpoint and succeed.
  auto retried = client.CallWithRetry(2, "Health", Json::Object());
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_TRUE(retried->ok()) << retried->message;
  EXPECT_TRUE(second.Drain().ok());
}

}  // namespace
}  // namespace qatk::cluster
