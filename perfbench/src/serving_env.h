// The serving deployment every serving workload runs on: a TrecShaped
// testbed with 200 planted topics, its mined store saved as a v4 file,
// mapped zero-copy, and served by an in-process ServingNode (optionally
// behind a loopback NetServer). Built only through the library's
// public API.

#ifndef PERFBENCH_SERVING_ENV_H_
#define PERFBENCH_SERVING_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/server.h"
#include "pipeline/testbed.h"
#include "serving/serving_node.h"
#include "store/diversification_store.h"
#include "store/mapped_store.h"
#include "store/store_builder.h"

namespace perfbench {

/// Testbed scale and serving parameters, fixed for every run so that
/// runs with different workload seeds stay comparable. The workload
/// seed drives only the traffic (and refresh_churn's appended log).
inline constexpr size_t kTopics = 200;
inline constexpr uint64_t kTestbedSeed = 17;
inline constexpr size_t kCandidates = 200;  ///< |R_q| per request
inline constexpr double kThresholdC = 0.3;  ///< utility threshold c
inline constexpr size_t kResultK = 10;      ///< k per request

optselect::pipeline::TestbedConfig BenchTestbedConfig();
optselect::store::StoreBuilderOptions BenchBuilderOptions(bool compile_plans);

struct StackOptions {
  bool compile_plans = true;  ///< false: every stored query streams
  bool cache = false;
  size_t workers = 2;
  bool wire = false;          ///< start a loopback NetServer in front
};

/// Wall times of one set-up, in the order they run.
struct SetupTimes {
  double testbed_s = 0;  ///< corpus, log, mining models, index
  double build_s = 0;    ///< store::BuildStore
  double save_ms = 0;    ///< MappedStoreFile::WriteV4
  double map_ms = 0;     ///< MappedStoreFile::Map (validates the file)
  double start_ms = 0;   ///< ServingNode (+ NetServer) start
  double total_s = 0;
};

/// One complete deployment. Destruction stops the server, drains the
/// node, then releases the mapping and the testbed.
struct ServingStack {
  std::unique_ptr<optselect::pipeline::Testbed> testbed;
  optselect::store::DiversificationStore built;  ///< heap store as mined
  std::string store_path;
  std::shared_ptr<const optselect::store::MappedStoreFile> mapped;
  std::unique_ptr<optselect::serving::ServingNode> node;
  std::unique_ptr<optselect::net::NetServer> server;
  SetupTimes times;

  ~ServingStack();
};

optselect::serving::ServingConfig NodeConfig(const StackOptions& options);

/// Builds a stack from nothing, timing every step. Exits the process
/// with an error message when a step fails (a broken build of the
/// system under test, not a benchmark outcome).
std::unique_ptr<ServingStack> SetUpStack(const StackOptions& options,
                                         const std::string& work_dir);

/// FNV-1a over a ranking's doc ids: the answer fingerprint every
/// correctness check compares.
uint64_t RankingHash(const std::vector<optselect::DocId>& ranking);

/// Stored queries in popularity order (most frequent first; ties by
/// text), or every logged query when `stored_only` is false.
std::vector<std::string> PopularityOrder(const ServingStack& stack,
                                         bool stored_only);

/// `count` Zipf(skew) draws over `order`, seeded.
std::vector<std::string> ZipfDraws(const std::vector<std::string>& order,
                                   size_t count, double skew, uint64_t seed);

/// Reference answer hash per distinct query, computed one at a time by
/// a separate single-worker, cache-off node over `store` (a heap
/// store), before any timing.
std::unordered_map<std::string, uint64_t> ReferenceHashes(
    const ServingStack& stack, const optselect::store::DiversificationStore& store,
    const std::vector<std::string>& queries);

[[noreturn]] void Die(const std::string& message);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_ENV_H_
