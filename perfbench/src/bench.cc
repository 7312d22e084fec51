// Routed end-to-end benchmark of the resource manager: drives the public
// API (ShardRouter over a ShardCluster of paged DurableResourceManager
// homes) from one client thread with generated RDL/PL/RQL text, checks
// every answer against the benchmark's own oracle, and prints one JSON
// result line.
//
//   wfrm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --home-root <dir>
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with calls timed at each layer's public entry point and
// reports the per-layer metrics (see README.md).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "checker.h"
#include "obs/metrics.h"
#include "rql/rql.h"
#include "shard/shard_cluster.h"
#include "shard/shard_map.h"
#include "shard/shard_router.h"
#include "store/durable_rm.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace wfrm;  // NOLINT
using SteadyClock = std::chrono::steady_clock;

double MicrosBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Times `fn()` in microseconds.
template <typename Fn>
double Timed(Fn&& fn) {
  const auto t0 = SteadyClock::now();
  fn();
  return MicrosBetween(t0, SteadyClock::now());
}

class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  double sum() const {
    double s = 0;
    for (double x : v_) s += x;
    return s;
  }
  /// Nearest-rank percentile; 0 when empty.
  double Pct(double p) {
    if (v_.empty()) return 0;
    std::sort(v_.begin(), v_.end());
    size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v_.size()));
    return v_[std::min(rank, v_.size() - 1)];
  }
  double Median() { return Pct(50); }
  double Mean() const { return v_.empty() ? 0 : sum() / static_cast<double>(v_.size()); }

 private:
  std::vector<double> v_;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

Answer::Status StatusOf(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk:
      return Answer::Status::kOk;
    case StatusCode::kNoQualifiedResource:
      return Answer::Status::kNoQualified;
    case StatusCode::kResourceUnavailable:
      return Answer::Status::kUnavailable;
    default:
      return Answer::Status::kOther;
  }
}

Answer ToAnswer(const core::QueryOutcome& o) {
  Answer a;
  a.status = StatusOf(o.status);
  a.used_substitution = o.used_substitution;
  for (const org::ResourceRef& c : o.candidates) {
    a.candidates.insert(RefKey(c.type, c.id));
  }
  return a;
}

uint64_t DirBytes(const std::string& root) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(root, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string home_root;
};

struct Held {
  size_t shard = 0;
  core::Lease lease;
  std::string key;
};

/// One run of one workload: setup, the timed loop, then the end phase
/// (release, drain, reopen checks and recovery timing).
class Bench {
 public:
  Bench(Workload* w, const Args& args)
      : w_(w), args_(args), checker_(w->num_shards()) {
    root_ = args.home_root + "/" + args.workload + "-" +
            std::to_string(::getpid());
  }

  ~Bench() {
    // Every path drains the router (joining its executor threads) and
    // removes the homes.
    CloseCluster();
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  bool Run();
  void Print();
  /// Every check held and no operation failed.
  bool passed() const { return checker_.ok() && failed_ == 0; }

 private:
  // ---- Cluster lifecycle -------------------------------------------------
  bool OpenCluster();
  void CloseCluster();
  void PickTenants();
  const std::string& Tenant(size_t shard, size_t i) const {
    return tenants_[shard][i % tenants_[shard].size()];
  }
  store::DurableResourceManager& Home(size_t shard) {
    return *cluster_->Primary(static_cast<shard::ShardId>(shard));
  }
  policy::StoreStatsSnapshot StoreStats() const;

  // ---- Phases -------------------------------------------------------------
  bool Setup();
  void MainLoop();
  void EndPhase();

  // ---- Operations (each counts as attempted; a failure is counted) -------
  void RoutedAcquire(const Request& r, Samples* lat);
  void RoutedRelease(const Held& h, Samples* lat);
  /// Releases the oldest lease once the window is full, then acquires.
  void AcquireStep(Samples* lat, Samples* release_lat);
  bool Write(size_t shard, bool is_policy, const std::string& text);
  void AdminStep();
  void Checkpoint(size_t shard);
  void EnforceBatchStep(Samples* lat);
  void CheckAnswer(const Request& r, const Result<core::QueryOutcome>& res);
  void TracedRound(size_t round);
  double LadderStep(int layer, const Request& r, double* parse_us);

  void NoteFailure(const std::string& what, const Status& st) {
    ++failed_;
    checker_.Fail(what + ": " + st.ToString());
  }

  Workload* w_;
  Args args_;
  std::string root_;
  Checker checker_;
  obs::MetricsRegistry registry_;  // Attached to the homes when tracing.
  std::unique_ptr<shard::ShardCluster> cluster_;
  std::unique_ptr<shard::ShardMap> map_;
  std::unique_ptr<shard::ShardRouter> router_;
  std::vector<std::vector<std::string>> tenants_;
  std::deque<Held> window_;
  std::unordered_map<int, Expected> memo_;  // Oracle answers by template.
  std::vector<size_t> writes_on_shard_;
  std::set<std::string> acked_inserts_;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t refusals_ = 0;
  uint64_t grants_ = 0;
  uint64_t items_ = 0;
  uint64_t writes_ = 0;
  double busy_us_ = 0;
  double setup_s_ = 0;
  double peak_rss_mb_ = 0;

  // End-to-end samples: per-request latencies of the current block, and
  // each finished block's median, p90 and completion rate.
  Samples block_lat_, block_p50_, block_p90_, block_rate_;

  // Per-layer samples and counters.
  Samples write_us_, recovery_ms_, acquire_self_, journal_, claim_, release_us_, submit_us_,
      enforce_us_, parse_us_, batch_overhead_, direct_write_us_,
      wal_bytes_per_write_, checkpoint_ms_, pages_flushed_, disk_reads_,
      evictions_, hydrate_ms_, candidates_, untraced_req_, traced_req_;
  uint64_t submits_ok_ = 0;
  uint64_t substituted_ = 0;
  uint64_t bloom_probes_ = 0;
  uint64_t bloom_skips_ = 0;
  uint64_t home_bytes_ = 0;
  uint64_t retries_ = 0;
  uint64_t wal_syncs_ = 0;
  // Cache counters and writes over the timed loop.
  policy::StoreStatsSnapshot loop_stats_;
  uint64_t loop_writes_ = 0;
};

bool Bench::OpenCluster() {
  shard::ShardClusterOptions options;
  options.num_shards = w_->num_shards();
  options.durable.fsync_mode = w_->fsync_interval() ? store::FsyncMode::kInterval
                                                    : store::FsyncMode::kOff;
  options.durable.rm_options.lease_duration_micros = 0;
  if (args_.trace) options.durable.rm_options.metrics = &registry_;
  auto cluster = shard::ShardCluster::Open(root_, options);
  if (!cluster.ok()) {
    std::fprintf(stderr, "perfbench: cannot open cluster: %s\n",
                 cluster.status().ToString().c_str());
    return false;
  }
  cluster_ = std::move(*cluster);
  map_ = std::make_unique<shard::ShardMap>(w_->num_shards());
  shard::ShardRouterOptions ropts;
  ropts.workers_per_shard = 1;
  router_ = std::make_unique<shard::ShardRouter>(cluster_.get(), map_.get(),
                                                 ropts);
  return true;
}

void Bench::PickTenants() {
  // Four tenant keys per shard, so each request is routed to the shard
  // whose model the oracle evaluates it against.
  tenants_.assign(w_->num_shards(), {});
  size_t full = 0;
  for (int i = 0; full < w_->num_shards(); ++i) {
    std::string key = "tenant-" + std::to_string(i);
    auto& keys = tenants_[map_->Resolve(key)];
    if (keys.size() < 4) {
      keys.push_back(std::move(key));
      if (keys.size() == 4) ++full;
    }
  }
}

void Bench::CloseCluster() {
  if (router_ != nullptr) {
    retries_ += router_->retries();
    Status st = router_->Drain();
    if (!st.ok()) NoteFailure("drain", st);
  }
  router_.reset();
  cluster_.reset();
  map_.reset();
}

policy::StoreStatsSnapshot Bench::StoreStats() const {
  policy::StoreStatsSnapshot total;
  for (size_t s = 0; s < w_->num_shards(); ++s) {
    policy::StoreStatsSnapshot one =
        router_->ShardStats(static_cast<shard::ShardId>(s));
    total.retrievals += one.retrievals;
    total.candidate_rows += one.candidate_rows;
    total.cache_hits += one.cache_hits;
    total.cache_misses += one.cache_misses;
    total.cache_invalidations += one.cache_invalidations;
    total.rewrite_cache_hits += one.rewrite_cache_hits;
    total.rewrite_cache_misses += one.rewrite_cache_misses;
    total.plan_cache_hits += one.plan_cache_hits;
    total.plan_cache_misses += one.plan_cache_misses;
    total.compiled_builds += one.compiled_builds;
    total.bloom_probes += one.bloom_probes;
    total.bloom_skips += one.bloom_skips;
  }
  return total;
}

bool Bench::Setup() {
  std::error_code ec;
  std::filesystem::remove_all(root_, ec);
  std::filesystem::create_directories(root_, ec);
  bool opened = false;
  const double open_us = Timed([&] { opened = OpenCluster(); });
  if (!opened) return false;
  PickTenants();
  writes_on_shard_.assign(w_->num_shards(), 0);
  for (size_t s = 0; s < w_->num_shards(); ++s) {
    for (const auto& [is_policy, text] : w_->setup()[s]) {
      if (!Write(s, is_policy, text)) {
        std::fprintf(stderr, "perfbench: setup write failed\n");
        return false;
      }
    }
  }
  // Warm-up, counted in set-up: the acquire workloads fill their lease
  // window and turn it over four times, and enforce_policy_heavy runs 64
  // batches, so the timed loop starts in steady state (window held and
  // recycling, compiled tables built). A warm-up of a few hundred
  // milliseconds also keeps setup_s from being a sample of one short
  // machine phase.
  if (w_->kind() == Kind::kEnforcePolicyHeavy) {
    for (int i = 0; i < 64; ++i) EnforceBatchStep(nullptr);
  } else {
    for (size_t i = 0; i < 5 * w_->window(); ++i) AcquireStep(nullptr, nullptr);
  }
  // The set-up time is the program's share only: opening the cluster and
  // the routed (or direct) calls, not the generator or the oracle checks.
  setup_s_ = (open_us + busy_us_ + direct_write_us_.sum()) / 1e6;
  grants_ = items_ = 0;
  busy_us_ = 0;
  return true;
}

// One ExecuteRdl/AddPolicyText on `shard`. Routed; in the traced run
// every other write goes straight to the home instead, timed at the
// durable layer's entry point.
bool Bench::Write(size_t shard, bool is_policy, const std::string& text) {
  ++attempted_;
  ++writes_;
  Status st;
  if (args_.trace && writes_ % 2 == 0) {
    store::DurableResourceManager& home = Home(shard);
    const uint64_t bytes0 = home.wal_bytes();
    direct_write_us_.Add(Timed([&] {
      st = is_policy ? home.AddPolicyText(text) : home.ExecuteRdl(text);
    }));
    wal_bytes_per_write_.Add(static_cast<double>(home.wal_bytes() - bytes0));
  } else {
    const double us = Timed([&] {
      st = is_policy ? router_->AddPolicyText(Tenant(shard, 0), text)
                     : router_->ExecuteRdl(Tenant(shard, 0), text);
    });
    busy_us_ += us;
    write_us_.Add(us);
  }
  if (!st.ok()) NoteFailure("write", st);
  return st.ok();
}

void Bench::Checkpoint(size_t shard) {
  ++attempted_;
  Status st;
  checkpoint_ms_.Add(Timed([&] {
    st = cluster_->Checkpoint(static_cast<shard::ShardId>(shard));
  }) / 1e3);
  if (!st.ok()) {
    NoteFailure("checkpoint", st);
    return;
  }
  pages_flushed_.Add(static_cast<double>(
      Home(shard).page_stats().pager.pages_flushed_last_commit));
}

void Bench::RoutedAcquire(const Request& r, Samples* lat) {
  ++attempted_;
  Result<core::Lease> lease = Status::OK();
  const double us = Timed(
      [&] { lease = router_->Acquire(Tenant(r.shard, grants_), r.rql); });
  busy_us_ += us;
  if (lat != nullptr) lat->Add(us);
  if (lease.ok()) {
    ++grants_;
    Held h{r.shard, *lease, RefKey(lease->resource.type, lease->resource.id)};
    checker_.Grant(r.shard, w_->model(r.shard), r.query, h.key);
    window_.push_back(std::move(h));
    return;
  }
  const Answer::Status st = StatusOf(lease.status());
  if (st == Answer::Status::kOther) {
    NoteFailure("acquire", lease.status());
    return;
  }
  ++refusals_;
  checker_.Refusal(r.shard, w_->model(r.shard), r.query, st);
}

void Bench::AcquireStep(Samples* lat, Samples* release_lat) {
  if (window_.size() >= w_->window()) {
    RoutedRelease(window_.front(), release_lat);
    window_.pop_front();
  }
  RoutedAcquire(w_->Next(), lat);
}

void Bench::RoutedRelease(const Held& h, Samples* lat) {
  ++attempted_;
  Status st;
  const double us =
      Timed([&] { st = router_->Release(Tenant(h.shard, 0), h.lease); });
  busy_us_ += us;
  if (lat != nullptr) lat->Add(us);
  if (!st.ok()) {
    NoteFailure("release", st);
    return;
  }
  checker_.Release(h.shard, h.key);
}

void Bench::AdminStep() {
  AdminWrite wr = w_->NextWrite();
  if (!Write(wr.shard, wr.is_policy, wr.text)) return;
  w_->Acknowledge(wr);
  for (const Resource& r : wr.inserts) {
    acked_inserts_.insert(RefKey(w_->schema().types.names[r.type], r.id));
  }
  if (++writes_on_shard_[wr.shard] % Workload::kWritesPerCheckpoint == 0) {
    const double before = checkpoint_ms_.sum();
    Checkpoint(wr.shard);
    busy_us_ += (checkpoint_ms_.sum() - before) * 1e3;
  }
}

void Bench::CheckAnswer(const Request& r,
                        const Result<core::QueryOutcome>& res) {
  if (!res.ok()) {
    NoteFailure("enforce", res.status());
    return;
  }
  const Answer a = ToAnswer(*res);
  if (r.template_id >= 0 && checker_.held(r.shard).empty()) {
    auto it = memo_.find(r.template_id);
    if (it == memo_.end()) {
      it = memo_.emplace(r.template_id,
                         w_->model(r.shard).Evaluate(r.query, {})).first;
    }
    checker_.Candidates(it->second, a, r.rql);
    return;
  }
  checker_.Candidates(r.shard, w_->model(r.shard), r.query, a);
}

void Bench::EnforceBatchStep(Samples* lat) {
  std::vector<Request> reqs;
  std::vector<shard::BatchItem> items;
  for (size_t i = 0; i < w_->batch(); ++i) {
    reqs.push_back(w_->Next());
    items.push_back({Tenant(reqs.back().shard, static_cast<size_t>(
                                                   reqs.back().template_id)),
                     reqs.back().rql});
  }
  std::vector<shard::BatchItemResult> results;
  const double us = Timed([&] { results = router_->EnforceBatch(items); });
  busy_us_ += us;
  if (lat != nullptr) lat->Add(us);
  attempted_ += items.size();
  items_ += items.size();
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (results[i].shard != reqs[i].shard) {
      checker_.Fail("item routed to the wrong shard: " + reqs[i].rql);
    }
    CheckAnswer(reqs[i], results[i].outcome);
  }
}

// One step of the layer ladder for request `r`, timed in microseconds:
// 0 = ShardRouter::Acquire, 1 = DurableResourceManager::Acquire, 2 =
// ResourceManager::Acquire (each lease released right away at its own
// layer, so every step sees the same ledger), 3 = ResourceManager::Submit,
// 4 = PolicyManager::EnforcePrimaryShared (ParseAndBindRql is timed into
// `parse_us`).
double Bench::LadderStep(int layer, const Request& r, double* parse_us) {
  store::DurableResourceManager& home = Home(r.shard);
  ++attempted_;
  if (layer == 3) {
    Result<core::QueryOutcome> out = Status::OK();
    const double us = Timed([&] { out = home.rm().Submit(r.rql); });
    if (out.ok() && out->ok()) {
      ++submits_ok_;
      candidates_.Add(static_cast<double>(out->candidates.size()));
      if (out->used_substitution) ++substituted_;
    }
    CheckAnswer(r, out);
    return us;
  }
  if (layer == 4) {
    Result<rql::RqlQuery> parsed = Status::OK();
    const double us =
        Timed([&] { parsed = rql::ParseAndBindRql(r.rql, home.org()); });
    if (parse_us != nullptr) *parse_us = us;
    if (!parsed.ok()) {
      NoteFailure("parse", parsed.status());
      return 0;
    }
    Result<std::shared_ptr<const policy::EnforcedQueries>> enforced =
        Status::OK();
    const double enforce_us = Timed([&] {
      enforced = home.rm().policy_manager().EnforcePrimaryShared(*parsed);
    });
    if (!enforced.ok()) NoteFailure("enforce primary", enforced.status());
    return enforce_us;
  }
  Result<core::Lease> lease = Status::OK();
  const double us = Timed([&] {
    lease = layer == 0   ? router_->Acquire(Tenant(r.shard, 0), r.rql)
            : layer == 1 ? home.Acquire(r.rql)
                         : home.rm().Acquire(r.rql);
  });
  if (!lease.ok()) {
    const Answer::Status st = StatusOf(lease.status());
    if (st == Answer::Status::kOther) {
      NoteFailure("layer acquire", lease.status());
    } else {
      ++refusals_;
      checker_.Refusal(r.shard, w_->model(r.shard), r.query, st);
    }
    return us;
  }
  const std::string key = RefKey(lease->resource.type, lease->resource.id);
  checker_.Grant(r.shard, w_->model(r.shard), r.query, key);
  ++attempted_;
  Status st;
  const double rel_us = Timed([&] {
    st = layer == 0   ? router_->Release(Tenant(r.shard, 0), *lease)
         : layer == 1 ? home.Release(*lease)
                      : home.rm().Release(*lease);
  });
  if (layer == 0) release_us_.Add(rel_us);
  if (!st.ok()) {
    NoteFailure("layer release", st);
  } else {
    checker_.Release(r.shard, key);
  }
  return us;
}

// A traced round: one batch of requests answered both by the routed
// EnforceBatch and by direct ResourceManager::Submit calls (in
// alternating order, so neither side always runs warm), then the layer
// ladder.
void Bench::TracedRound(size_t round) {
  const size_t g = w_->kind() == Kind::kEnforcePolicyHeavy ? w_->batch() : 8;
  std::vector<Request> reqs;
  std::vector<shard::BatchItem> items;
  for (size_t i = 0; i < g; ++i) {
    reqs.push_back(w_->Next());
    items.push_back({Tenant(reqs.back().shard, 0), reqs.back().rql});
  }
  const bool batch_first = round % 2 == 0;
  std::vector<double> shard_us(w_->num_shards(), 0);
  std::vector<shard::BatchItemResult> results;
  double batch_us = 0;
  auto run_batch = [&] {
    batch_us = Timed([&] { results = router_->EnforceBatch(items); });
    attempted_ += g;
    for (size_t i = 0; i < g; ++i) {
      CheckAnswer(reqs[i], results[i].outcome);
    }
  };
  if (batch_first) run_batch();
  for (const Request& r : reqs) {
    Result<core::QueryOutcome> out = Status::OK();
    shard_us[r.shard] += Timed([&] { out = Home(r.shard).rm().Submit(r.rql); });
    ++attempted_;
    CheckAnswer(r, out);
  }
  if (!batch_first) run_batch();
  if (w_->kind() == Kind::kEnforcePolicyHeavy && batch_first) {
    traced_req_.Add(batch_us);
  }
  const double slowest = *std::max_element(shard_us.begin(), shard_us.end());
  batch_overhead_.Add((batch_us - slowest) / static_cast<double>(g));

  // First-touch costs on fresh requests: a Submit, and a routed Acquire
  // (compared with the untraced blocks' acquires for the overhead).
  submit_us_.Add(LadderStep(3, w_->Next(), nullptr));
  const double routed = LadderStep(0, w_->Next(), nullptr);
  if (w_->kind() != Kind::kEnforcePolicyHeavy) traced_req_.Add(routed);

  // The ladder: one fresh request at every layer. Its rewrite runs first
  // (paying the policy work and filling the rewrite LRU), so the four
  // outer steps see the same warm rewrite; their order rotates per round
  // so none is always first to touch the rows. The difference between
  // neighbouring layers is the outer layer's self time.
  const Request r = w_->Next();
  double parse = 0;
  enforce_us_.Add(LadderStep(4, r, &parse));
  parse_us_.Add(parse);
  double t[4];
  for (size_t k = 0; k < 4; ++k) {
    const int layer = static_cast<int>((round + k) % 4);
    t[layer] = LadderStep(layer, r, nullptr);
  }
  claim_.Add(t[2] - t[3]);
  journal_.Add(t[1] - t[2]);
  acquire_self_.Add(t[0] - t[1]);
}

void Bench::MainLoop() {
  const auto deadline =
      SteadyClock::now() + std::chrono::microseconds(
                               static_cast<int64_t>(args_.seconds * 1e6));
  // The traced run alternates untraced and traced half-second blocks, so
  // machine phases hit both alike and their difference is the tracing
  // overhead.
  const auto block = std::chrono::milliseconds(500);
  auto block_end = SteadyClock::now() + block;
  bool traced_block = false;
  size_t round = 0;
  loop_stats_ = StoreStats();
  const uint64_t writes_before = writes_;
  // Untraced, the loop is cut into blocks of 25 rounds (200 requests).
  // Each block gives a median, a p90 and a completion rate, and the run
  // reports the median over its blocks: a few seconds in which another
  // tenant of the host takes CPU time then do not set the run's figures.
  constexpr size_t kRoundsPerBlock = 25;
  const bool enforce = w_->kind() == Kind::kEnforcePolicyHeavy;
  auto completed = [&] { return static_cast<double>(enforce ? items_ : grants_); };
  size_t rounds_in_block = 0;
  double done0 = completed();
  double busy0 = busy_us_;
  while (SteadyClock::now() < deadline) {
    if (args_.trace && SteadyClock::now() >= block_end) {
      traced_block = !traced_block;
      block_end = SteadyClock::now() + block;
    }
    if (traced_block) {
      TracedRound(round++);
      if (w_->kind() == Kind::kAdminMix) {
        AdminStep();
        AdminStep();
      }
      continue;
    }
    Samples* lat = args_.trace ? &untraced_req_ : &block_lat_;
    switch (w_->kind()) {
      case Kind::kEnforcePolicyHeavy:
        for (int i = 0; i < 8; ++i) EnforceBatchStep(lat);
        break;
      case Kind::kAcquireHold:
      case Kind::kAdminMix:
        for (size_t i = 0; i < Workload::kAcquiresPerRound; ++i) {
          AcquireStep(lat, args_.trace ? nullptr : &release_us_);
        }
        if (w_->kind() == Kind::kAdminMix) {
          AdminStep();
          AdminStep();
        }
        break;
    }
    if (!args_.trace && ++rounds_in_block == kRoundsPerBlock) {
      block_p50_.Add(block_lat_.Median());
      block_p90_.Add(block_lat_.Pct(90));
      block_rate_.Add(Ratio(completed() - done0, (busy_us_ - busy0) / 1e6));
      block_lat_ = Samples();
      rounds_in_block = 0;
      done0 = completed();
      busy0 = busy_us_;
    }
  }
  loop_stats_ = StoreStats() - loop_stats_;
  loop_writes_ = writes_ - writes_before;
}

void Bench::EndPhase() {
  while (!window_.empty()) {
    RoutedRelease(window_.front(), nullptr);
    window_.pop_front();
  }
  std::vector<size_t> allocated;
  for (size_t s = 0; s < w_->num_shards(); ++s) {
    allocated.push_back(Home(s).rm().num_allocated());
  }
  checker_.Drained(allocated);
  for (size_t s = 0; s < w_->num_shards(); ++s) Checkpoint(s);
  std::vector<std::string> fingerprints;
  for (size_t s = 0; s < w_->num_shards(); ++s) {
    fingerprints.push_back(Home(s).StateFingerprint());
  }
  if (args_.trace) {
    wal_syncs_ = registry_.GetCounter("wfrm_store_wal_syncs_total")->Value();
  }
  CloseCluster();
  home_bytes_ = DirBytes(root_);

  // Reopen: the drained homes must hold exactly the acknowledged state.
  if (!OpenCluster()) {
    checker_.Fail("reopen failed");
    return;
  }
  for (size_t s = 0; s < w_->num_shards(); ++s) {
    if (Home(s).StateFingerprint() != fingerprints[s]) {
      checker_.Fail("shard " + std::to_string(s) +
                    ": state fingerprint changed across drain and reopen");
    }
    if (w_->kind() != Kind::kAdminMix) continue;
    std::set<std::string> seen;
    for (const Request& p : w_->Probes(s)) {
      ++attempted_;
      auto res = router_->Enforce(Tenant(s, 0), p.rql);
      if (res.ok()) {
        for (const auto& c : res->candidates) seen.insert(RefKey(c.type, c.id));
      }
      CheckAnswer(p, res);
    }
    std::set<std::string> acked;
    for (const std::string& key : acked_inserts_) {
      const Resource* r = w_->model(s).Find(key);
      if (r != nullptr) acked.insert(key);
    }
    checker_.InsertsVisible(acked, seen);
  }
  CloseCluster();

  // Recovery: reopen of the drained homes up to the first routed grant.
  const Request probe = w_->RecoveryRequest();
  for (int cycle = 0; cycle < 9; ++cycle) {
    const auto t0 = SteadyClock::now();
    if (!OpenCluster()) {
      checker_.Fail("reopen failed");
      return;
    }
    if (args_.trace) {
      double ms = 0;
      for (size_t s = 0; s < w_->num_shards(); ++s) {
        ms += Timed([&] { (void)Home(s).org(); }) / 1e3;
      }
      hydrate_ms_.Add(ms);
    }
    ++attempted_;
    auto lease = router_->Acquire(Tenant(0, 0), probe.rql);
    recovery_ms_.Add(MicrosBetween(t0, SteadyClock::now()) / 1e3);
    if (!lease.ok()) {
      NoteFailure("recovery acquire", lease.status());
    } else {
      checker_.Grant(0, w_->model(0), probe.query,
                     RefKey(lease->resource.type, lease->resource.id));
      RoutedRelease(Held{0, *lease,
                         RefKey(lease->resource.type, lease->resource.id)},
                    nullptr);
    }
    uint64_t reads = 0, evictions = 0;
    for (size_t s = 0; s < w_->num_shards(); ++s) {
      const store::PageStoreStats ps = Home(s).page_stats();
      reads += ps.pager.disk_reads;
      evictions += ps.pager.evictions;
      const policy::StoreStatsSnapshot st =
          router_->ShardStats(static_cast<shard::ShardId>(s));
      bloom_probes_ += st.bloom_probes;
      bloom_skips_ += st.bloom_skips;
    }
    disk_reads_.Add(static_cast<double>(reads));
    evictions_.Add(static_cast<double>(evictions));
    CloseCluster();
  }
}

bool Bench::Run() {
  if (!Setup()) return false;
  MainLoop();
  EndPhase();
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
  std::fprintf(stderr,
               "perfbench: %s seed=%llu attempted=%llu failed=%llu grants=%llu "
               "refusals=%llu items=%llu writes=%llu checks=%s\n",
               args_.workload.c_str(),
               static_cast<unsigned long long>(args_.seed),
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_),
               static_cast<unsigned long long>(grants_),
               static_cast<unsigned long long>(refusals_),
               static_cast<unsigned long long>(items_),
               static_cast<unsigned long long>(writes_),
               checker_.ok() ? "ok" : "FAILED");
  for (const std::string& m : checker_.messages()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", m.c_str());
  }
  return true;
}

void Bench::Print() {
  std::vector<std::tuple<std::string, double, std::string>> m;
  if (!args_.trace) {
    m = {{"setup_s", setup_s_, "s"},
         {"request_us_p50", block_p50_.Median(), "us"},
         {"request_us_p90", block_p90_.Median(), "us"},
         {"completed_per_s", block_rate_.Median(), "1/s"},
         {"peak_rss_mb", peak_rss_mb_, "MiB"}};
  } else {
    const policy::StoreStatsSnapshot& d = loop_stats_;
    const double writes = static_cast<double>(loop_writes_);
    const double untraced = untraced_req_.Median();
    m = {{"shard.acquire_self_us", acquire_self_.Median(), "us"},
         {"shard.release_us", release_us_.Median(), "us"},
         {"shard.batch_overhead_us_per_item", batch_overhead_.Median(), "us"},
         {"shard.retries", static_cast<double>(retries_), "count"},
         {"store.journal_us", journal_.Median(), "us"},
         {"shard.write_us", write_us_.Median(), "us"},
         {"store.write_us", direct_write_us_.Median(), "us"},
         {"store.wal_bytes_per_write", wal_bytes_per_write_.Mean(), "bytes"},
         {"store.wal_syncs", static_cast<double>(wal_syncs_), "count"},
         {"store.checkpoint_ms", checkpoint_ms_.Median(), "ms"},
         {"store.pages_flushed_per_checkpoint", pages_flushed_.Mean(), "count"},
         {"store.home_bytes", static_cast<double>(home_bytes_), "bytes"},
         {"store.recovery_ms", recovery_ms_.Median(), "ms"},
         {"store.disk_reads", disk_reads_.Median(), "count"},
         {"store.evictions", evictions_.Median(), "count"},
         {"store.bloom_skip_ratio",
          Ratio(static_cast<double>(bloom_skips_), static_cast<double>(bloom_probes_)),
          "ratio"},
         {"core.submit_us", submit_us_.Median(), "us"},
         {"core.claim_us", claim_.Median(), "us"},
         {"core.candidates_per_grant", candidates_.Mean(), "count"},
         {"core.substitution_ratio",
          Ratio(static_cast<double>(substituted_), static_cast<double>(submits_ok_)),
          "ratio"},
         {"policy.enforce_us", enforce_us_.Median(), "us"},
         {"policy.rewrite_hit_ratio",
          Ratio(static_cast<double>(d.rewrite_cache_hits),
                static_cast<double>(d.rewrite_cache_hits + d.rewrite_cache_misses)),
          "ratio"},
         {"policy.retrieval_hit_ratio", d.CacheHitRate(), "ratio"},
         {"policy.candidate_rows_per_retrieval",
          Ratio(static_cast<double>(d.candidate_rows), static_cast<double>(d.retrievals)),
          "count"},
         {"policy.invalidations_per_write",
          Ratio(static_cast<double>(d.cache_invalidations), writes), "count"},
         {"policy.compiled_builds_per_write",
          Ratio(static_cast<double>(d.compiled_builds), writes), "count"},
         {"rql.parse_us", parse_us_.Median(), "us"},
         {"rel.execute_us",
          submit_us_.Median() - enforce_us_.Median() - parse_us_.Median(), "us"},
         {"rel.plan_cache_hit_ratio",
          Ratio(static_cast<double>(d.plan_cache_hits),
                static_cast<double>(d.plan_cache_hits + d.plan_cache_misses)),
          "ratio"},
         {"org.hydrate_ms", hydrate_ms_.Median(), "ms"},
         {"trace_overhead_pct",
          100.0 * Ratio(traced_req_.Median() - untraced, untraced), "%"}};
  }
  std::string out = "{\"correct\": ";
  out += checker_.ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", std::get<1>(m[i]));
    if (i > 0) out += ", ";
    out += "\"" + std::get<0>(m[i]) + "\": {\"value\": " + value +
           ", \"unit\": \"" + std::get<2>(m[i]) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--home-root") {
      args->home_root = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->home_root.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wfrm_perfbench --workload <acquire_hold|"
                 "enforce_policy_heavy|admin_mix> --seed <n> --seconds <s> "
                 "--trace <0|1> --home-root <dir>\n");
    return 2;
  }
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  auto workload = perfbench::Workload::Make(args.workload, args.seed, nproc);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  perfbench::Bench bench(workload.get(), args);
  if (!bench.Run()) return 1;
  bench.Print();
  return bench.passed() ? 0 : 1;
}
