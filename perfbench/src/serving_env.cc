#include "serving_env.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "store/store_snapshot.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace perfbench {

using namespace optselect;  // NOLINT(build/namespaces)

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

pipeline::TestbedConfig BenchTestbedConfig() {
  pipeline::TestbedConfig config = pipeline::TestbedConfig::TrecShaped();
  config.universe.num_topics = kTopics;
  config.universe.seed = kTestbedSeed;
  config.corpus.seed = kTestbedSeed + 1;
  config.log.seed = kTestbedSeed + 2;
  return config;
}

store::StoreBuilderOptions BenchBuilderOptions(bool compile_plans) {
  store::StoreBuilderOptions options;
  options.compile_plans = compile_plans;
  options.plan.num_candidates = kCandidates;
  options.plan.threshold_c = kThresholdC;
  return options;
}

serving::ServingConfig NodeConfig(const StackOptions& options) {
  serving::ServingConfig config;
  config.num_workers = options.workers;
  config.max_batch = 8;
  config.enable_cache = options.cache;
  // Deep enough that an overloaded step queues instead of shedding:
  // the SLO search must see the backlog grow, not refusals.
  config.queue_capacity = 1 << 17;
  config.params.num_candidates = kCandidates;
  config.params.threshold_c = kThresholdC;
  config.params.diversify.k = kResultK;
  return config;
}

ServingStack::~ServingStack() {
  if (server != nullptr) server->Stop();
  if (node != nullptr) node->Shutdown();
  server.reset();
  node.reset();
  mapped.reset();
  if (!store_path.empty()) std::remove(store_path.c_str());
}

std::unique_ptr<ServingStack> SetUpStack(const StackOptions& options,
                                         const std::string& work_dir) {
  auto stack = std::make_unique<ServingStack>();
  SetupTimes& t = stack->times;
  util::WallTimer total;
  util::WallTimer step;

  stack->testbed = std::make_unique<pipeline::Testbed>(BenchTestbedConfig());
  t.testbed_s = step.ElapsedMillis() / 1e3;

  step.Restart();
  const pipeline::Testbed& tb = *stack->testbed;
  std::vector<std::string> roots;
  for (const auto& topic : tb.universe().topics) {
    roots.push_back(topic.root_query);
  }
  store::BuildStore(tb.detector(), tb.searcher(), tb.snippets(),
                    tb.analyzer(), tb.corpus().store, roots,
                    BenchBuilderOptions(options.compile_plans),
                    &stack->built);
  t.build_s = step.ElapsedMillis() / 1e3;

  step.Restart();
  stack->store_path = work_dir + "/store.v4";
  util::Status saved =
      store::MappedStoreFile::WriteV4(stack->built, stack->store_path);
  if (!saved.ok()) Die("WriteV4: " + saved.ToString());
  t.save_ms = step.ElapsedMillis();

  step.Restart();
  auto mapped = store::MappedStoreFile::Map(stack->store_path);
  if (!mapped.ok()) Die("Map: " + mapped.status().ToString());
  stack->mapped = std::move(mapped).value();
  t.map_ms = step.ElapsedMillis();

  step.Restart();
  stack->node = std::make_unique<serving::ServingNode>(
      store::StoreSnapshot::FromMapped(stack->mapped), &tb.searcher(),
      &tb.snippets(), &tb.analyzer(), &tb.corpus().store,
      NodeConfig(options));
  if (options.wire) {
    net::NetServerConfig config;
    config.max_connections = 4;
    // Admission stays with the node's queue; the per-connection cap
    // only has to exceed what one open-loop connection keeps in flight.
    config.max_inflight_per_conn = 1 << 17;
    stack->server =
        std::make_unique<net::NetServer>(stack->node.get(), config);
    if (!stack->server->Start()) {
      Die("NetServer::Start: " + stack->server->last_error());
    }
  }
  t.start_ms = step.ElapsedMillis();
  t.total_s = total.ElapsedMillis() / 1e3;
  return stack;
}

uint64_t RankingHash(const std::vector<DocId>& ranking) {
  return util::Fnv1a64(ranking.data(), ranking.size() * sizeof(DocId));
}

std::vector<std::string> PopularityOrder(const ServingStack& stack,
                                         bool stored_only) {
  std::vector<std::pair<uint64_t, std::string>> by_freq;
  std::shared_ptr<const store::StoreSnapshot> snapshot =
      stack.node->snapshot();
  for (const auto& [query, freq] :
       stack.testbed->recommender().popularity().counts()) {
    if (stored_only && !snapshot->Find(util::NormalizeQueryText(query))) {
      continue;
    }
    by_freq.emplace_back(freq, query);
  }
  std::sort(by_freq.begin(), by_freq.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<std::string> order;
  order.reserve(by_freq.size());
  for (auto& entry : by_freq) order.push_back(std::move(entry.second));
  return order;
}

std::vector<std::string> ZipfDraws(const std::vector<std::string>& order,
                                   size_t count, double skew, uint64_t seed) {
  if (order.empty()) Die("empty query population");
  util::ZipfSampler sampler(order.size(), skew);
  util::Rng rng(seed);
  std::vector<std::string> draws;
  draws.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    draws.push_back(order[sampler.Sample(&rng)]);
  }
  return draws;
}

std::unordered_map<std::string, uint64_t> ReferenceHashes(
    const ServingStack& stack, const store::DiversificationStore& store,
    const std::vector<std::string>& queries) {
  StackOptions reference;
  reference.workers = 1;
  reference.cache = false;
  serving::ServingNode node(&store, stack.testbed.get(),
                            NodeConfig(reference));
  std::unordered_map<std::string, uint64_t> hashes;
  for (const std::string& query : queries) {
    if (hashes.count(query) != 0) continue;
    serving::Response response = node.Submit(serving::Request(query));
    if (!response.ok) Die("reference answer failed for '" + query + "'");
    hashes.emplace(query, RankingHash(response.ranking));
  }
  return hashes;
}

}  // namespace perfbench
