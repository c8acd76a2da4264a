// The four serving workloads: open-loop traffic against an in-process
// ServingNode (serve_mix, cold_stream, refresh_churn) or a loopback
// NetServer in front of one (wire_cached), plus the traced variant that
// attributes one request's time to the layers it passes through.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/factory.h"
#include "core/streaming_select.h"
#include "core/utility.h"
#include "load.h"
#include "net/client.h"
#include "net/wire.h"
#include "openloop.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/diversification_pipeline.h"
#include "querylog/log_ingestor.h"
#include "querylog/session_segmenter.h"
#include "querylog/synthetic_log.h"
#include "recommend/ambiguity_detector.h"
#include "recommend/shortcuts_recommender.h"
#include "report.h"
#include "rss.h"
#include "serving/store_refresher.h"
#include "serving_env.h"
#include "spans.h"
#include "stats.h"
#include "store/store_snapshot.h"
#include "util/hash.h"
#include "util/strings.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using namespace optselect;  // NOLINT(build/namespaces)

// ------------------------------------------------------------ workloads

/// One serving workload: the deployment, the traffic population, and
/// its load plan (load.h).
struct ServingSpec {
  const char* name;
  StackOptions stack;
  bool stored_only;  ///< traffic over stored queries only
  bool churn;        ///< append log chunks and refresh the store meanwhile
  LoadSpec load;
};

StackOptions Stack(bool plans, bool cache, size_t workers, bool wire) {
  StackOptions o;
  o.compile_plans = plans;
  o.cache = cache;
  o.workers = workers;
  o.wire = wire;
  return o;
}

// Rates: light ≈ 20% and busy ≈ 55% of the max_qps_at_slo measured on
// the reference host (README.md says why busy is not at 70%); each grid
// brackets that rate.
const ServingSpec kSpecs[] = {
    // Plans compiled, cache off: every request does its real work.
    {"serve_mix", Stack(true, false, 2, false), false, false,
     {1.0, 16000, 45000, 10, 50000, 1.08, 14, 3}},
    // Plans off: every request is a stored query on the streaming path.
    {"cold_stream", Stack(false, false, 2, false), true, false,
     {50.0, 70, 190, 3, 200, 1.08, 12, 1}},
    // Cache on and warm, one connection over loopback. One node worker:
    // sender, receiver, reactor and worker make the four threads.
    {"wire_cached", Stack(true, true, 1, true), false, false,
     {1.0, 16000, 45000, 10, 50000, 1.08, 14, 3}},
    // serve_mix's reads at serve_mix's rates, cache on, while the store
    // refreshes back to back.
    {"refresh_churn", Stack(true, true, 2, false), false, true,
     {25.0, 16000, 45000, 10, 150000, 1.25, 8, 3}},
};

const ServingSpec* FindSpec(const std::string& name) {
  for (const ServingSpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

constexpr double kZipfSkew = 1.0;
/// Draws in one run's traffic; windows cycle through them.
constexpr size_t kMixLength = 1 << 16;

class NodeSender : public Sender {
 public:
  explicit NodeSender(serving::Frontend* frontend) : frontend_(frontend) {}

  void Send(size_t i, const std::string& query) override {
    OpenLoopPhase* phase = phase_.load(std::memory_order_acquire);
    Answer* answer = &(*answers_.load(std::memory_order_acquire))[i];
    bool accepted = frontend_->SubmitAsync(
        serving::Request(query), [phase, i, answer](serving::Response r) {
          if (r.ok) *answer = Answer{RankingHash(r.ranking), r.store_version};
          phase->Complete(i, r.ok ? Outcome::kOk : Outcome::kError);
        });
    if (!accepted) phase->Complete(i, Outcome::kShed);
  }

 private:
  serving::Frontend* frontend_;
};

/// One loopback connection driven open-loop: the generator thread
/// encodes and writes request frames (net::EncodeRequestFrame), a
/// receiver thread parses response frames (net::FrameParser) and
/// matches them to requests by id.
class WireSender : public Sender {
 public:
  explicit WireSender(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) Die(std::string("socket: ") + std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Die(std::string("connect: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    receiver_ = std::thread([this] { ReceiveLoop(); });
  }

  ~WireSender() override {
    ::shutdown(fd_, SHUT_RDWR);
    receiver_.join();
    ::close(fd_);
  }

  WireSender(const WireSender&) = delete;
  WireSender& operator=(const WireSender&) = delete;

  void Send(size_t i, const std::string& query) override {
    std::string frame = net::EncodeRequestFrame(serving::Request(query, i));
    size_t off = 0;
    while (off < frame.size()) {
      ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        phase_.load()->Complete(i, Outcome::kError);
        return;
      }
      off += static_cast<size_t>(n);
    }
  }

  uint64_t protocol_errors() const { return protocol_errors_.load(); }

 private:
  void ReceiveLoop() {
    net::FrameParser parser;
    std::vector<char> buf(1 << 16);
    while (true) {
      ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      if (!parser.Feed(buf.data(), static_cast<size_t>(n))) {
        ++protocol_errors_;
        return;
      }
      while (parser.HasFrame()) Deliver(parser.Next());
    }
  }

  void Deliver(const net::Frame& frame) {
    OpenLoopPhase* phase = phase_.load(std::memory_order_acquire);
    std::vector<Answer>* answers = answers_.load(std::memory_order_acquire);
    size_t i = static_cast<size_t>(frame.request_id);
    if (phase == nullptr || i >= phase->count()) {
      ++protocol_errors_;
      return;
    }
    if (frame.type == net::FrameType::kResponse) {
      serving::Response r;
      bool decoded = net::DecodeResponsePayload(frame, &r);
      if (decoded && r.ok) {
        (*answers)[i] = Answer{RankingHash(r.ranking), r.store_version};
      }
      phase->Complete(i, decoded && r.ok ? Outcome::kOk : Outcome::kError);
      return;
    }
    net::WireError error;
    bool shed = net::DecodeErrorPayload(frame, &error) &&
                error.code == net::ErrorCode::kShed;
    phase->Complete(i, shed ? Outcome::kShed : Outcome::kError);
  }

  int fd_ = -1;
  std::atomic<uint64_t> protocol_errors_{0};
  std::thread receiver_;
};

// ---------------------------------------------------------------- churn

/// Stable content fingerprint of one stored entry (0 when absent): the
/// probabilities and compiled plan blocks a ranking is computed from.
uint64_t EntryFingerprint(const store::StoreSnapshot& snapshot,
                          const std::string& normalized) {
  store::EntryRef entry = snapshot.Find(normalized);
  if (!entry) return 0;
  uint64_t h = util::kFnv1aOffsetBasis;
  size_t m = entry.num_specializations();
  h = util::Fnv1a64Value(m, h);
  for (size_t j = 0; j < m; ++j) {
    h = util::Fnv1a64Value(entry.spec_probability(j), h);
  }
  if (entry.HasCompatiblePlan(kCandidates, kThresholdC)) {
    core::DiversificationView v = entry.PlanView();
    h = util::Fnv1a64(entry.PlanDocs(), v.num_candidates * sizeof(DocId), h);
    h = util::Fnv1a64(v.relevance, v.num_candidates * sizeof(double), h);
    h = util::Fnv1a64(v.utilities,
                      v.num_candidates * v.num_specializations *
                          sizeof(double),
                      h);
  }
  return h;
}

/// Log records a second generator seed produces, appended in fixed
/// chunks to the log the store refresher tails.
class ChurnLog {
 public:
  static constexpr size_t kChunkRecords = 1000;

  ChurnLog(const pipeline::Testbed& testbed, uint64_t seed,
           std::string path)
      : path_(std::move(path)) {
    querylog::SyntheticLogConfig config = BenchTestbedConfig().log;
    config.seed = 0x9E3779B9u ^ (seed * 1000003u + 7u);
    config.num_sessions = 12000;  // ~16 chunks; wraps if a run needs more
    log_ = querylog::SyntheticLogGenerator(config)
               .Generate(testbed.universe().topics,
                         testbed.universe().noise_queries)
               .log;
    std::ofstream(path_, std::ios::trunc);  // the tail starts empty
  }

  /// Appends the next chunk; false on I/O failure.
  bool AppendChunk(const std::string& scratch_path) {
    querylog::QueryLog chunk;
    for (size_t r = 0; r < kChunkRecords; ++r) {
      chunk.Add(log_.record(next_ % log_.size()));
      ++next_;
    }
    if (!chunk.SaveTsv(scratch_path).ok()) return false;
    std::ifstream in(scratch_path, std::ios::binary);
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << in.rdbuf();
    return static_cast<bool>(out);
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  querylog::QueryLog log_;
  size_t next_ = 0;
};

/// One refresh tick's measured pieces (the traced run calls each
/// public step itself; the untraced run times StoreRefresher::TickOnce).
struct TickTimes {
  double tick_ms = 0;
  double poll_ms = 0, segment_ms = 0, train_ms = 0;
  double mine_ms = 0, build_ms = 0, reload_us = 0;
  size_t upserts = 0, invalidated = 0;
};

/// Runs refresh ticks back to back on its own thread while reads go
/// on, and records which stored keys any swap touched.
class Churn {
 public:
  Churn(ServingStack* stack, uint64_t seed, const std::string& dir,
        bool replicate_tick, const std::vector<std::string>& watched)
      : stack_(stack),
        log_(*stack->testbed, seed, dir + "/churn.tsv"),
        chunk_path_(dir + "/chunk.tsv"),
        replicate_(replicate_tick) {
    std::shared_ptr<const store::StoreSnapshot> snap = stack->node->snapshot();
    initial_version_ = snap->version();
    for (const std::string& q : watched) {
      std::string key = util::NormalizeQueryText(q);
      if (fingerprints_.count(key) == 0) {
        fingerprints_.emplace(key, EntryFingerprint(*snap, key));
      }
    }
    const pipeline::Testbed& tb = *stack->testbed;
    const querylog::QueryLog& initial = tb.log_result().log;
    if (replicate_) {
      ingestor_ = std::make_unique<querylog::LogIngestor>(log_.path());
      ingestor_->SkipToEnd().IgnoreError();
      recommender_.Train(initial, segmenter_.Segment(initial, nullptr));
      detector_ =
          std::make_unique<recommend::AmbiguityDetector>(&recommender_);
    } else {
      serving::StoreRefresherConfig config;
      config.log_path = log_.path();
      config.builder = BenchBuilderOptions(true);
      refresher_ = std::make_unique<serving::StoreRefresher>(
          stack->node.get(), &tb.searcher(), &tb.snippets(), &tb.analyzer(),
          &tb.corpus().store, initial, config);
    }
  }

  ~Churn() { Stop(); }
  Churn(const Churn&) = delete;
  Churn& operator=(const Churn&) = delete;

  void Start() {
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        if (!log_.AppendChunk(chunk_path_)) {
          ++errors_;
          return;
        }
        TickTimes t = replicate_ ? ReplicatedTick() : RefresherTick();
        UpdateTouched();
        std::lock_guard<std::mutex> lock(mu_);
        ticks_.push_back(t);
      }
    });
  }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// Whether an answer computed under `version` for `query` may differ
  /// from the pre-churn reference: only when a swap touched the key and
  /// the answer came from a later snapshot.
  bool Excused(const std::string& query, uint64_t version) const {
    return version != initial_version_ &&
           touched_.count(util::NormalizeQueryText(query)) != 0;
  }

  std::vector<TickTimes> ticks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ticks_;
  }
  size_t errors() const { return errors_.load(); }
  size_t touched() const { return touched_.size(); }
  SpanLog& spans() { return spans_; }
  uint64_t swaps() const {
    return refresher_ != nullptr ? refresher_->stats().swaps : swaps_;
  }

 private:
  TickTimes RefresherTick() {
    TickTimes t;
    util::WallTimer timer;
    if (!refresher_->TickOnce().ok()) ++errors_;
    t.tick_ms = timer.ElapsedMillis();
    return t;
  }

  /// StoreRefresher::TickOnce's sequence of public calls, each timed.
  TickTimes ReplicatedTick() {
    const pipeline::Testbed& tb = *stack_->testbed;
    TickTimes t;
    uint64_t id = ++tick_id_;
    ScopedSpan tick(&spans_, "refresh.tick", -1, id);
    util::WallTimer whole;
    util::WallTimer step;
    auto polled = [&] {
      ScopedSpan s(&spans_, "querylog.poll", tick.id(), id);
      return ingestor_->Poll();
    }();
    t.poll_ms = step.ElapsedMillis();
    if (!polled.ok()) {
      ++errors_;
      return t;
    }
    querylog::IngestDelta delta = std::move(polled).value();
    step.Restart();
    std::vector<querylog::Session> sessions;
    {
      ScopedSpan s(&spans_, "querylog.segment", tick.id(), id);
      sessions = segmenter_.Segment(delta.log, nullptr);
    }
    t.segment_ms = step.ElapsedMillis();
    step.Restart();
    {
      ScopedSpan s(&spans_, "recommend.train", tick.id(), id);
      recommender_.TrainIncremental(delta.log, sessions);
    }
    t.train_ms = step.ElapsedMillis();
    std::shared_ptr<const store::StoreSnapshot> base = stack_->node->snapshot();
    const store::DiversificationStore* base_store;
    {
      // A mapped base materializes a heap copy once (first tick only).
      ScopedSpan s(&spans_, "store.materialize", tick.id(), id);
      base_store = &base->store();
    }
    step.Restart();
    store::StoreDelta mined;
    {
      ScopedSpan s(&spans_, "store.mine_delta", tick.id(), id);
      mined = store::MineDelta(*detector_, tb.searcher(), tb.snippets(),
                               tb.analyzer(), tb.corpus().store,
                               delta.dirty_queries, BenchBuilderOptions(true),
                               *base_store);
    }
    t.mine_ms = step.ElapsedMillis();
    if (!mined.empty()) {
      step.Restart();
      store::SnapshotBuildResult built;
      {
        ScopedSpan s(&spans_, "store.build_snapshot", tick.id(), id);
        built = store::BuildSnapshot(base.get(), mined);
      }
      t.build_ms = step.ElapsedMillis();
      t.upserts = built.upserts_applied;
      if (!built.changed_keys.empty()) {
        step.Restart();
        serving::ServingNode::ReloadOutcome outcome;
        {
          ScopedSpan s(&spans_, "serving.reload_swap", tick.id(), id);
          outcome = stack_->node->ReloadStore(built.snapshot,
                                              built.changed_keys);
        }
        t.reload_us = step.ElapsedMillis() * 1e3;
        t.invalidated = outcome.invalidated;
        if (outcome.ok) ++swaps_;
      }
    }
    t.tick_ms = whole.ElapsedMillis();
    return t;
  }

  void UpdateTouched() {
    std::shared_ptr<const store::StoreSnapshot> snap =
        stack_->node->snapshot();
    if (snap->version() == last_checked_version_) return;
    last_checked_version_ = snap->version();
    for (const auto& [key, fp] : fingerprints_) {
      if (EntryFingerprint(*snap, key) != fp) touched_.insert(key);
    }
  }

  ServingStack* stack_;
  ChurnLog log_;
  std::string chunk_path_;
  bool replicate_;
  uint64_t initial_version_ = 0;
  uint64_t last_checked_version_ = 0;
  std::unordered_map<std::string, uint64_t> fingerprints_;
  std::unordered_set<std::string> touched_;  // tick thread until Stop

  std::unique_ptr<serving::StoreRefresher> refresher_;
  std::unique_ptr<querylog::LogIngestor> ingestor_;
  recommend::ShortcutsRecommender recommender_;
  querylog::SessionSegmenter segmenter_;
  std::unique_ptr<recommend::AmbiguityDetector> detector_;
  SpanLog spans_;  // tick thread until Stop
  uint64_t tick_id_ = 0;
  uint64_t swaps_ = 0;

  mutable std::mutex mu_;
  std::vector<TickTimes> ticks_;
  std::atomic<size_t> errors_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ------------------------------------------------------------ direct pass

/// Computes requests one at a time exactly as the node's compute path
/// does (ServingNode::ComputeRanking: store lookup, then plan select,
/// passthrough, or the streaming cold path), calling each layer's public
/// API directly and recording a span around every call.
class DirectPass {
 public:
  DirectPass(const ServingStack& stack, SpanLog* log)
      : stack_(stack),
        log_(log),
        optselect_(std::move(core::MakeDiversifier("optselect")).value()) {
    params_.k = kResultK;
  }

  /// The ranking's hash. Spans go under a "request" root; hashing the
  /// answer happens after the root closes.
  uint64_t Compute(const store::StoreSnapshot& snapshot,
                   const std::string& query, uint64_t id) {
    std::vector<DocId> ranking;
    {
      ScopedSpan root(log_, "request", -1, id);
      ranking = Rank(snapshot, query, root.id(), id);
    }
    return RankingHash(ranking);
  }

  /// Materialize-then-select over the same entry (BuildCandidates,
  /// UtilityComputer::Compute, OptSelect): the oracle a streamed answer
  /// must equal. Spans go under an "oracle" root, off the blocking path.
  uint64_t Materialized(const store::StoreSnapshot& snapshot,
                        const std::string& query, uint64_t id) {
    const pipeline::Testbed& tb = *stack_.testbed;
    ScopedSpan root(log_, "oracle", -1, id);
    const int64_t r = root.id();
    std::string key = util::NormalizeQueryText(query);
    store::EntryRef entry = snapshot.Find(key);
    std::vector<text::TermId> terms = tb.analyzer().AnalyzeReadOnly(key);
    index::ResultList rq = tb.searcher().SearchTerms(terms, kCandidates);
    core::DiversificationInput input;
    input.query = key;
    {
      ScopedSpan s(log_, "pipeline.build_candidates", r, id);
      input.candidates = pipeline::BuildCandidates(rq, tb.snippets(),
                                                   tb.corpus().store, terms);
    }
    input.specializations = entry.ToProfiles();
    core::UtilityMatrix utilities;
    {
      ScopedSpan s(log_, "core.utility", r, id);
      core::UtilityComputer computer(
          core::UtilityComputer::Options{kThresholdC});
      utilities = computer.Compute(input);
    }
    core::SelectScratch scratch;
    core::DiversificationView view = core::MakeView(input, utilities, &scratch);
    {
      ScopedSpan s(log_, "core.materialized_select", r, id);
      optselect_->SelectInto(view, params_, &scratch, &scratch.picks);
    }
    return RankingHash(
        pipeline::AssembleRanking(input, scratch.picks, kResultK));
  }

  uint64_t offered() const { return offered_; }
  uint64_t pruned() const { return pruned_; }

 private:
  std::vector<DocId> Rank(const store::StoreSnapshot& snapshot,
                          const std::string& query, int64_t r, uint64_t id) {
    const pipeline::Testbed& tb = *stack_.testbed;
    std::string key;
    {
      ScopedSpan s(log_, "serving.normalize", r, id);
      key = util::NormalizeQueryText(query);
    }
    store::EntryRef entry;
    {
      ScopedSpan s(log_, "store.find", r, id);
      entry = snapshot.Find(key);
    }
    const bool ambiguous = entry && entry.num_specializations() >= 2;
    if (ambiguous && entry.HasCompatiblePlan(kCandidates, kThresholdC)) {
      core::DiversificationView view = entry.PlanView();
      {
        ScopedSpan s(log_, "core.plan_select", r, id);
        optselect_->SelectInto(view, params_, &scratch_, &scratch_.picks);
      }
      ScopedSpan s(log_, "pipeline.assemble", r, id);
      return pipeline::AssembleRanking(entry.PlanDocs(),
                                       entry.PlanNumCandidates(),
                                       scratch_.picks, kResultK,
                                       &scratch_.taken);
    }
    std::vector<text::TermId> terms;
    {
      ScopedSpan s(log_, "text.analyze", r, id);
      terms = tb.analyzer().AnalyzeReadOnly(key);
    }
    index::ResultList rq;
    {
      ScopedSpan s(log_, "index.search", r, id);
      rq = tb.searcher().SearchTerms(terms, kCandidates);
    }
    if (rq.empty()) return {};
    if (!ambiguous) {
      std::vector<DocId> ranking;
      for (size_t i = 0; i < std::min(kResultK, rq.size()); ++i) {
        ranking.push_back(rq[i].doc);
      }
      return ranking;
    }
    return Stream(entry, rq, terms, r, id);
  }

  std::vector<DocId> Stream(const store::EntryRef& entry,
                            const index::ResultList& rq,
                            const std::vector<text::TermId>& terms, int64_t r,
                            uint64_t id) {
    const pipeline::Testbed& tb = *stack_.testbed;
    const size_t m = entry.num_specializations();
    std::vector<pipeline::SpecializationRef> refs(m);
    std::vector<double> probs(m);
    for (size_t j = 0; j < m; ++j) {
      probs[j] = entry.spec_probability(j);
      refs[j].probability = probs[j];
      refs[j].results = entry.heap_surrogates(j);
      refs[j].spans = entry.spec_spans(j);
    }
    std::vector<double> inv_harmonic = pipeline::InverseHarmonics(refs);
    pipeline::CandidateStream candidates(&rq, &tb.snippets(),
                                         &tb.corpus().store, &terms);
    std::vector<double> row(m);
    {
      ScopedSpan scan(log_, "core.stream_scan", r, id);
      stream_.Begin(probs.data(), m, kResultK, params_.lambda);
      while (!candidates.Done()) {
        if (stream_.CanPrune(candidates.relevance())) {
          stream_.Skip();
          candidates.Advance();
          continue;
        }
        const text::TermVector* doc;
        {
          ScopedSpan s(log_, "pipeline.surrogate", scan.id(), id);
          doc = &candidates.Materialize();
        }
        {
          ScopedSpan s(log_, "pipeline.utility_row", scan.id(), id);
          pipeline::ComputeUtilityRow(*doc, refs, inv_harmonic, kThresholdC,
                                      row.data());
        }
        stream_.Push(candidates.position(), candidates.relevance(),
                     row.data());
        candidates.Advance();
      }
    }
    offered_ += stream_.offered();
    pruned_ += stream_.pruned();
    {
      ScopedSpan s(log_, "core.stream_finalize", r, id);
      stream_.Finalize(kResultK, &scratch_.picks);
    }
    ScopedSpan s(log_, "pipeline.assemble", r, id);
    std::vector<DocId> docs;
    docs.reserve(rq.size());
    for (const index::SearchResult& hit : rq) docs.push_back(hit.doc);
    return pipeline::AssembleRanking(docs.data(), docs.size(), scratch_.picks,
                                     kResultK, &scratch_.taken);
  }

  const ServingStack& stack_;
  SpanLog* log_;
  std::unique_ptr<core::Diversifier> optselect_;
  core::DiversifyParams params_;
  core::SelectScratch scratch_;
  core::StreamingTopK stream_;
  uint64_t offered_ = 0;
  uint64_t pruned_ = 0;
};

// ---------------------------------------------------------------- helpers

/// Single-worker node over the same snapshot, for one-in-flight probes.
std::unique_ptr<serving::ServingNode> ProbeNode(const ServingStack& stack,
                                                bool cache) {
  StackOptions options;
  options.workers = 1;
  options.cache = cache;
  const pipeline::Testbed& tb = *stack.testbed;
  return std::make_unique<serving::ServingNode>(
      stack.node->snapshot(), &tb.searcher(), &tb.snippets(), &tb.analyzer(),
      &tb.corpus().store, NodeConfig(options));
}

/// One-in-flight Submit latencies (µs) over `queries`.
std::vector<double> SubmitOneByOne(serving::Frontend* frontend,
                                   const std::vector<std::string>& queries,
                                   size_t* errors) {
  std::vector<double> us;
  us.reserve(queries.size());
  for (const std::string& q : queries) {
    Clock::time_point start = Clock::now();
    serving::Response r = frontend->Submit(serving::Request(q));
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() -
                                                           start)
                     .count());
    if (!r.ok) ++*errors;
  }
  return us;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ----------------------------------------------------------------- runs

/// What the two halves of a serving run share. Members are declared so
/// that destruction stops the traffic before the deployment under it.
struct ServingRun {
  const ServingSpec* spec = nullptr;
  RunArgs args;
  std::unique_ptr<ServingStack> stack;
  Traffic traffic;
  std::unique_ptr<Churn> churn;
  std::unique_ptr<Sender> sender;
  WireSender* wire = nullptr;
  std::unique_ptr<Driver> driver;

  /// Connects the open-loop sender (after the one-in-flight probes, so
  /// the thread budget holds) and the driver over it.
  void StartTraffic() {
    if (spec->stack.wire) {
      auto w = std::make_unique<WireSender>(stack->server->port());
      wire = w.get();
      sender = std::move(w);
    } else {
      sender = std::make_unique<NodeSender>(stack->node.get());
    }
    driver = std::make_unique<Driver>(sender.get(), &traffic, spec->churn);
  }

  void StartChurn(bool replicate) {
    churn = std::make_unique<Churn>(stack.get(), args.seed, args.work_dir,
                                    replicate, traffic.queries);
    churn->Start();
  }
};

/// Set-up, traffic and the reference answers every run checks against.
void Prepare(ServingRun* run, Report* report) {
  const ServingSpec& spec = *run->spec;
  run->stack = SetUpStack(spec.stack, run->args.work_dir);
  ServingStack& stack = *run->stack;
  run->traffic.queries = ZipfDraws(PopularityOrder(stack, spec.stored_only),
                                   kMixLength, kZipfSkew,
                                   run->args.seed * 0x9E3779B97F4A7C15ull + 1);
  {
    // serve_mix, wire_cached, refresh_churn: a heap store answering
    // in-process. cold_stream: the plan path over the same entries with
    // plans compiled — the streamed answer must equal it.
    store::DiversificationStore reference_store = stack.built;
    if (!spec.stack.compile_plans) {
      const pipeline::Testbed& tb = *stack.testbed;
      store::CompilePlans(&reference_store, tb.searcher(), tb.snippets(),
                          tb.analyzer(), tb.corpus().store,
                          BenchBuilderOptions(true).plan);
    }
    run->traffic.reference =
        ReferenceHashes(stack, reference_store, run->traffic.queries);
  }
  size_t stored = 0;
  std::shared_ptr<const store::StoreSnapshot> snap = stack.node->snapshot();
  for (const std::string& q : run->traffic.queries) {
    if (snap->Find(util::NormalizeQueryText(q))) ++stored;
  }
  const double stored_share = static_cast<double>(stored) /
                              static_cast<double>(run->traffic.queries.size());
  report->notes.push_back(
      Fmt("traffic: Zipf(1.0) over %.0f distinct queries; stored (plan "
          "path) share %.3f, passthrough %.3f",
          static_cast<double>(run->traffic.reference.size()), stored_share,
          1.0 - stored_share));
  if (spec.stack.cache) {
    // Warm: every distinct query once, so timing sees a hot cache.
    for (const auto& [q, ref] : run->traffic.reference) {
      serving::Response r = stack.node->Submit(serving::Request(q));
      if (!r.ok || RankingHash(r.ranking) != ref) {
        report->Fail("warm-up answer differs from the reference for '" + q +
                     "'");
      }
    }
  }
}

/// Tracing off: fixed light and busy rates in alternating windows, then
/// the SLO grid. Every statistic is a median over windows, so one host
/// hiccup moves one window, not the result.
void MeasureEndToEnd(ServingRun* run, Report* report) {
  const ServingSpec& spec = *run->spec;
  const double S = run->args.seconds;
  SetupTimes setup = run->stack->times;
  double setup_s = setup.total_s;
  if (spec.churn) {
    // The refresher seeds its mining state from the full log: part of
    // starting this deployment, so it counts as set-up.
    util::WallTimer t;
    run->StartChurn(false);
    setup_s += t.ElapsedMillis() / 1e3;
  }
  run->StartTraffic();
  report->Add("setup_s", setup_s, "s",
              Fmt("testbed %.2f s + store build %.2f s + save/map/start ",
                  setup.testbed_s, setup.build_s) +
                  Fmt("%.1f ms", setup.save_ms + setup.map_ms +
                                     setup.start_ms));
  RunLightBusy(run->driver.get(), spec.load, S, report);
  if (run->churn) run->churn->Stop();
  report->Add("rss_mib", PeakRssMiB(), "MiB", "VmHWM");
  if (run->churn) {
    std::vector<double> ticks;
    for (const TickTimes& t : run->churn->ticks()) ticks.push_back(t.tick_ms);
    report->notes.push_back(
        Fmt("refresh_ms: median TickOnce %.1f ms over %.0f ticks",
            Median(ticks), static_cast<double>(ticks.size())) +
        Fmt(" (%.0f swaps)", static_cast<double>(run->churn->swaps())));
  }
}

/// Tracing on: one-in-flight service and direct passes that attribute a
/// request to its layers, the traced and untraced light phases that give
/// the tracing overhead, and each layer's counters.
void MeasureLayers(ServingRun* run, Report* report) {
  const ServingSpec& spec = *run->spec;
  ServingStack& stack = *run->stack;
  const Traffic& traffic = run->traffic;
  const double S = run->args.seconds;
  const std::string& dir = run->args.work_dir;

  report->Add("store.build_s", stack.times.build_s, "s", "store::BuildStore");
  report->Add("store.map_ms", stack.times.map_ms, "ms",
              "MappedStoreFile::Map");
  report->Add("store.mib",
              static_cast<double>(stack.mapped->mapped_bytes()) /
                  (1024.0 * 1024.0),
              "MiB", "v4 file");
  std::shared_ptr<const store::StoreSnapshot> snap = stack.node->snapshot();
  {
    // Find alone takes tens of ns: timed as a loop, not per call.
    std::vector<std::string> keys;
    for (size_t i = 0; i < 4096; ++i) {
      keys.push_back(util::NormalizeQueryText(traffic.queries[i]));
    }
    size_t found = 0;
    Clock::time_point start = Clock::now();
    for (int rep = 0; rep < 20; ++rep) {
      for (const std::string& k : keys) found += snap->Find(k) ? 1 : 0;
    }
    double ns = std::chrono::duration<double, std::nano>(Clock::now() - start)
                    .count() /
                (20.0 * static_cast<double>(keys.size()));
    report->Add("store.find_ns", ns, "ns",
                Fmt("StoreSnapshot::Find, %.0f lookups (%.0f hits)",
                    20.0 * static_cast<double>(keys.size()),
                    static_cast<double>(found)));
  }

  // One-in-flight passes over the same queries; cold_stream requests
  // take milliseconds, so it uses fewer.
  const size_t n = spec.stored_only ? 100 : 2000;
  std::vector<std::string> pass(traffic.queries.begin(),
                                traffic.queries.begin() + n);
  size_t errors = 0;
  std::vector<double> service_us, handoff_us;
  {
    // Service: the cache-off compute path through Frontend::Submit.
    std::unique_ptr<serving::ServingNode> cold_node;
    serving::Frontend* fe = stack.node.get();
    if (spec.stack.cache) {
      cold_node = ProbeNode(stack, false);
      fe = cold_node.get();
    }
    SubmitOneByOne(fe, pass, &errors);  // warm
    service_us = SubmitOneByOne(fe, pass, &errors);
  }
  {
    // Hand-off: the same Submit answered from the cache — queue,
    // wake-up, cache probe, completion, and no layer below serving.
    std::unique_ptr<serving::ServingNode> hot_node = ProbeNode(stack, true);
    SubmitOneByOne(hot_node.get(), pass, &errors);
    handoff_us = SubmitOneByOne(hot_node.get(), pass, &errors);
  }
  if (errors != 0) report->Fail("one-in-flight Submit failures");

  SpanLog spans;
  DirectPass direct(stack, &spans);
  for (size_t i = 0; i < n; ++i) direct.Compute(*snap, pass[i], i);  // warm
  spans.Clear();
  size_t direct_mismatch = 0, oracle_mismatch = 0;
  for (size_t i = 0; i < n; ++i) {
    if (direct.Compute(*snap, pass[i], i) != traffic.reference.at(pass[i])) {
      ++direct_mismatch;
    }
  }
  std::vector<double> request_us;
  for (const Span& s : spans.spans()) {
    if (s.parent < 0) {
      request_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  if (spec.stored_only) {
    for (size_t i = 0; i < n; ++i) {
      if (direct.Materialized(*snap, pass[i], i) !=
          traffic.reference.at(pass[i])) {
        ++oracle_mismatch;
      }
    }
  }
  if (direct_mismatch != 0) {
    report->Fail(std::to_string(direct_mismatch) +
                 " direct-pass answers differ from the reference");
  }
  if (oracle_mismatch != 0) {
    report->Fail(std::to_string(oracle_mismatch) +
                 " materialized answers differ from the streamed ones");
  }

  std::map<std::string, SelfTotal> self = spans.SelfByName();
  auto per_call_us = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.MeanUs();
  };
  auto per_request_us = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0
                            : static_cast<double>(it->second.self_ns) / 1e3 /
                                  static_cast<double>(n);
  };

  // Reconciliation. Self times partition each direct request, so the
  // layers' self times plus the root's own (unattributed) time are the
  // request's duration. The check: spans must cover the work — the
  // unattributed part stays within kUnattributedTolerance of the
  // request. Submit's extra time over the direct path is the serving
  // layer's dispatch (queue hand-off, wake-ups, cache state), reported
  // as the residual next to the cache-hit hand-off it should resemble.
  constexpr double kUnattributedTolerance = 0.10;
  const double service_mean = Mean(service_us);
  const double layers_mean = Mean(request_us);
  const double handoff_mean = Mean(handoff_us);
  const double residual = service_mean - layers_mean;
  const double unattributed = per_request_us("request");
  report->notes.push_back(
      Fmt("reconcile: service %.2f us = direct path %.2f us + dispatch ",
          service_mean, layers_mean) +
      Fmt("%.2f us (cache-hit hand-off %.2f us)", residual, handoff_mean));
  report->notes.push_back(
      Fmt("           direct path: layer self times %.2f us + unattributed "
          "%.2f us (%.1f%%",
          layers_mean - unattributed, unattributed,
          100.0 * Ratio(unattributed, layers_mean)) +
      Fmt(", tolerance %.0f%%)", 100.0 * kUnattributedTolerance));
  if (Ratio(unattributed, layers_mean) > kUnattributedTolerance) {
    report->Fail("layer spans leave more than the tolerance unattributed");
  }
  report->Add("serving.service_us", service_mean, "us",
              Fmt("mean of %.0f one-in-flight Submit, cache off",
                  static_cast<double>(n)));
  report->Add("serving.dispatch_us", residual, "us",
              "service - direct path (sum of layer self times)");
  report->Add("serving.handoff_us", handoff_mean, "us",
              "one-in-flight cache-hit Submit");
  report->Add("text.analyze_us", per_call_us("text.analyze"), "us",
              "Analyzer::AnalyzeReadOnly per call");
  report->Add("index.search_us", per_call_us("index.search"), "us",
              "Searcher::SearchTerms(200) per call");
  report->Add("core.plan_select_us", per_call_us("core.plan_select"), "us",
              "OptSelect SelectInto over the plan view per call");
  report->Add("pipeline.build_candidates_us",
              per_call_us("pipeline.build_candidates"), "us",
              "BuildCandidates per call (materialized oracle)");
  report->Add("core.utility_us", per_call_us("core.utility"), "us",
              "UtilityComputer::Compute per call (materialized oracle)");
  report->Add("pipeline.surrogate_us", per_request_us("pipeline.surrogate"),
              "us", "CandidateStream::Materialize per request");
  report->Add("pipeline.utility_row_us",
              per_request_us("pipeline.utility_row"), "us",
              "ComputeUtilityRow per request");
  report->Add("core.stream_prune_ratio",
              Ratio(static_cast<double>(direct.pruned()),
                    static_cast<double>(direct.offered())),
              "ratio", "StreamingTopK pruned / offered");

  // Network edge (wire_cached only), before the open-loop connection
  // opens: one connection at a time keeps the thread budget.
  double encode_ns = 0, decode_ns = 0, rtt_us = 0, bytes = 0;
  SpanLog codec;
  if (spec.stack.wire) {
    size_t codec_bad = 0;
    for (size_t i = 0; i < n; ++i) {
      serving::Request req(pass[i], i);
      serving::Response resp = stack.node->Submit(req);
      std::string req_frame, resp_frame;
      {
        ScopedSpan s(&codec, "net.encode", -1, i);
        req_frame = net::EncodeRequestFrame(req);
      }
      {
        ScopedSpan s(&codec, "net.decode", -1, i);
        net::FrameParser parser;
        serving::Request back;
        if (!parser.Feed(req_frame.data(), req_frame.size()) ||
            !parser.HasFrame() ||
            !net::DecodeRequestPayload(parser.Next(), &back) ||
            back.query != req.query) {
          ++codec_bad;
        }
      }
      {
        ScopedSpan s(&codec, "net.encode", -1, i);
        resp_frame = net::EncodeResponseFrame(i, resp);
      }
      {
        ScopedSpan s(&codec, "net.decode", -1, i);
        net::FrameParser parser;
        serving::Response back;
        if (!parser.Feed(resp_frame.data(), resp_frame.size()) ||
            !parser.HasFrame() ||
            !net::DecodeResponsePayload(parser.Next(), &back) ||
            back.ranking != resp.ranking) {
          ++codec_bad;
        }
      }
      bytes += static_cast<double>(req_frame.size() + resp_frame.size());
    }
    if (codec_bad != 0) report->Fail("wire codec round trip differs");
    std::map<std::string, SelfTotal> c = codec.SelfByName();
    encode_ns = c["net.encode"].MeanUs() * 1e3;
    decode_ns = c["net.decode"].MeanUs() * 1e3;
    bytes /= static_cast<double>(n);

    net::RemoteClient client;
    if (!client.Connect("127.0.0.1", stack.server->port())) {
      Die("RemoteClient::Connect: " + client.last_error());
    }
    size_t rtt_errors = 0;
    SubmitOneByOne(&client, pass, &rtt_errors);
    rtt_us = Mean(SubmitOneByOne(&client, pass, &rtt_errors));
    client.Close();
    if (rtt_errors != 0) report->Fail("blocking RemoteClient failures");
    report->notes.push_back(
        Fmt("wire: rtt %.2f us = cache-hit Submit %.2f us + ", rtt_us,
            handoff_mean) +
        Fmt("codec %.2f us + transport (syscalls, reactor) %.2f us",
            2.0 * (encode_ns + decode_ns) / 1e3,
            rtt_us - handoff_mean - 2.0 * (encode_ns + decode_ns) / 1e3));
  }

  // Open loop: untraced and traced light, then busy.
  if (spec.churn) run->StartChurn(true);
  run->StartTraffic();
  Driver& driver = *run->driver;
  driver.Run(spec.load.light_qps, 0.05 * S);  // warm-up
  WindowStats plain = driver.Run(spec.load.light_qps, 0.15 * S);
  std::unique_ptr<Phase> traced_phase;
  WindowStats traced =
      driver.Run(spec.load.light_qps, 0.15 * S, true, &traced_phase);
  WindowStats busy = driver.Run(spec.load.busy_qps, 0.15 * S);
  RunSloGrid(&driver, spec.load, 0.5 * S, report);
  if (run->churn) run->churn->Stop();
  report->Add("trace.overhead_pct",
              100.0 * Ratio(traced.p50_ms - plain.p50_ms, plain.p50_ms), "%",
              Fmt("light p50 traced %.4f vs untraced %.4f ms", traced.p50_ms,
                  plain.p50_ms));
  report->Add("serving.queue_wait_ms", busy.p50_ms - Median(service_us) / 1e3,
              "ms", "busy p50 - one-in-flight service p50");
  report->Add("openloop.tail_ms.light", plain.tail.value, "ms",
              Fmt("p%.4g of %.0f at the light rate", plain.tail.percentile,
                  static_cast<double>(plain.tail.samples)));
  report->Add("openloop.tail_ms.busy", busy.tail.value, "ms",
              Fmt("p%.4g of %.0f at the busy rate", busy.tail.percentile,
                  static_cast<double>(busy.tail.samples)));
  report->Add("loadgen.late_p99_ms", driver.late_p99_ms(), "ms",
              "worst phase's p99 of sent - due");

  // Open-loop request spans: due -> callback, the hand-off as a child.
  SpanLog request_spans;
  const OpenLoopPhase& tl = *traced_phase->loop;
  for (size_t i = 0; i < tl.count(); ++i) {
    int64_t root = request_spans.Add("openloop.request", tl.DueNs(i),
                                     tl.DoneNs(i), -1, i);
    request_spans.Add("serving.submit", tl.SentNs(i),
                      traced_phase->handoff_end_ns[i], root, i);
  }

  serving::ServingStats st = stack.node->Stats();
  const double completed = static_cast<double>(st.completed);
  report->Add("serving.mean_batch", st.mean_batch, "requests",
              "batched_requests / batches");
  report->Add("serving.dedup_ratio",
              Ratio(static_cast<double>(st.batch_dedup_hits),
                    static_cast<double>(st.batched_requests)),
              "ratio", "batch_dedup_hits / batched_requests");
  report->Add("serving.cache_hit_ratio",
              Ratio(static_cast<double>(st.cache_hits),
                    static_cast<double>(st.cache_hits + st.cache_misses)),
              "ratio", "cache hits / lookups");
  report->Add("serving.plan_ratio",
              Ratio(static_cast<double>(st.plan_served), completed), "ratio",
              "plan_served / completed");
  report->Add("serving.stream_ratio",
              Ratio(static_cast<double>(st.streaming_served), completed),
              "ratio", "streaming_served / completed");
  report->Add("serving.passthrough_ratio",
              Ratio(static_cast<double>(st.passthrough), completed), "ratio",
              "passthrough / completed");

  // Refresh path: refresh_churn only.
  std::vector<double> tick, poll, train, mine, build, reload;
  double invalidated = 0, upserts = 0;
  if (run->churn) {
    for (const TickTimes& t : run->churn->ticks()) {
      tick.push_back(t.tick_ms);
      poll.push_back(t.poll_ms);
      train.push_back(t.segment_ms + t.train_ms);
      mine.push_back(t.mine_ms);
      build.push_back(t.build_ms);
      if (t.reload_us > 0) reload.push_back(t.reload_us);
      invalidated += static_cast<double>(t.invalidated);
      upserts += static_cast<double>(t.upserts);
    }
    report->notes.push_back(
        Fmt("refresh: %.0f ticks of %.0f records, %.1f upserts per tick",
            static_cast<double>(tick.size()),
            static_cast<double>(ChurnLog::kChunkRecords),
            Ratio(upserts, static_cast<double>(tick.size()))));
    if (!run->churn->spans().WriteJsonLines(dir + "/spans_refresh.jsonl")) {
      report->Fail("cannot write refresh spans");
    }
  }
  std::string ticks = Fmt("median of %.0f ticks",
                          static_cast<double>(tick.size()));
  report->Add("refresh.tick_ms", Median(tick), "ms", ticks);
  report->Add("querylog.poll_ms", Median(poll), "ms",
              "LogIngestor::Poll, " + ticks);
  report->Add("recommend.train_ms", Median(train), "ms",
              "Segment + TrainIncremental, " + ticks);
  report->Add("store.mine_delta_ms", Median(mine), "ms",
              "MineDelta, " + ticks);
  report->Add("store.build_snapshot_ms", Median(build), "ms",
              "BuildSnapshot, " + ticks);
  report->Add("serving.reload_swap_us", Median(reload), "us",
              "ReloadStore, " + ticks);
  report->Add("serving.cache_invalidated", invalidated, "count",
              "entries erased by those reloads");

  double shed = 0, protocol_errors = 0;
  if (spec.stack.wire) {
    net::NetServerStats ns = stack.server->stats();
    shed = static_cast<double>(ns.shed);
    protocol_errors = static_cast<double>(ns.protocol_errors) +
                      static_cast<double>(run->wire->protocol_errors());
  }
  report->Add("net.encode_ns", encode_ns, "ns", "per frame encoded");
  report->Add("net.decode_ns", decode_ns, "ns", "per frame parsed + decoded");
  report->Add("net.rtt_us", rtt_us, "us", "blocking RemoteClient::Submit");
  report->Add("net.bytes_per_req", bytes, "bytes",
              "request + response frame");
  report->Add("net.shed", shed, "count", "NetServer::stats().shed");
  report->Add("net.protocol_errors", protocol_errors, "count",
              "NetServer::stats().protocol_errors");

  const SpanLog* dumps[] = {&spans, &request_spans, &codec};
  const char* files[] = {"/spans_direct.jsonl", "/spans_openloop.jsonl",
                         "/spans_codec.jsonl"};
  for (size_t d = 0; d < 3; ++d) {
    if (!dumps[d]->WriteJsonLines(dir + files[d])) {
      report->Fail(std::string("cannot write ") + files[d]);
    }
  }
  report->notes.push_back("spans written to " + dir + "/spans_*.jsonl");
}

}  // namespace

Report RunServingWorkload(const RunArgs& args) {
  ServingRun run;
  run.spec = FindSpec(args.workload);
  if (run.spec == nullptr) Die("unknown serving workload " + args.workload);
  run.args = args;
  Report report;
  Prepare(&run, &report);
  if (args.trace) {
    MeasureLayers(&run, &report);
  } else {
    MeasureEndToEnd(&run, &report);
  }

  // Correctness over every timed request. refresh_churn's differing
  // answers are excused only on keys a swap touched, computed after it.
  size_t wrong = run.driver != nullptr ? run.driver->mismatches() : 0;
  size_t excused = 0;
  if (run.driver != nullptr) {
    for (const auto& [pos, answer] : run.driver->deferred()) {
      if (run.churn && run.churn->Excused(run.traffic.queries[pos],
                                          answer.version)) {
        ++excused;
      } else {
        ++wrong;
      }
    }
  }
  if (run.churn) {
    if (run.churn->errors() != 0) report.Fail("refresh tick errors");
    report.notes.push_back(
        Fmt("churn: %.0f keys touched by swaps; %.0f answers on touched "
            "keys after their swap were not compared",
            static_cast<double>(run.churn->touched()),
            static_cast<double>(excused)));
  }
  if (run.driver != nullptr) {
    report.attempted = run.driver->attempted();
    report.failed = run.driver->failed() + wrong;
    if (run.driver->failed() != 0) {
      report.Fail(std::to_string(run.driver->failed()) +
                  " requests failed or were shed");
    }
  }
  if (wrong != 0) {
    report.Fail(std::to_string(wrong) + " answers differ from the reference");
  }
  return report;
}

}  // namespace perfbench
