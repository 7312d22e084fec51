// Seeded generators for the three workloads. Each builds the benchmark's
// own model of every shard (the oracle's input) and renders the same
// content as the RDL/PL/RQL text the program receives.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "model.h"

namespace perfbench {

enum class Kind { kAcquireHold, kEnforcePolicyHeavy, kAdminMix };

struct Request {
  size_t shard = 0;
  Query query;
  std::string rql;
  /// enforce_policy_heavy: index of the request template (the oracle's
  /// memo key); -1 elsewhere.
  int template_id = -1;
};

/// One admin write, applied to the model only once the program
/// acknowledged it.
struct AdminWrite {
  size_t shard = 0;
  bool is_policy = false;
  std::string text;
  std::vector<Resource> inserts;  // ExecuteRdl
  Requirement requirement;        // AddPolicyText
};

class Workload {
 public:
  /// Null for an unknown name. `max_shards` caps the shard count (the
  /// machine's processor count).
  static std::unique_ptr<Workload> Make(const std::string& name,
                                        uint64_t seed, size_t max_shards);

  Kind kind() const { return kind_; }
  size_t num_shards() const { return models_.size(); }
  /// Interval fsync (admin_mix) or fsync off.
  bool fsync_interval() const { return kind_ == Kind::kAdminMix; }
  /// Leases the client keeps held (acquire workloads).
  size_t window() const { return window_; }
  /// Items per EnforceBatch call.
  size_t batch() const { return batch_; }
  /// admin_mix: acquires per round, and writes per shard between two
  /// checkpoints of that shard.
  static constexpr size_t kAcquiresPerRound = 8;
  static constexpr size_t kWritesPerCheckpoint = 16;

  const Schema& schema() const { return *schema_; }
  ShardModel& model(size_t shard) { return models_[shard]; }
  const ShardModel& model(size_t shard) const { return models_[shard]; }

  /// Setup text per shard, in order: the schema RDL, fleet chunks, then
  /// policy chunks. Each entry is (is_policy, text).
  const std::vector<std::vector<std::pair<bool, std::string>>>& setup()
      const {
    return setup_;
  }

  /// The next request of the workload's stream.
  Request Next();
  /// admin_mix: the next write (round-robin over shards).
  AdminWrite NextWrite();
  /// Applies an acknowledged write to the shard's model.
  void Acknowledge(const AdminWrite& w);
  /// The recovery probe: a request on shard 0 that the oracle grants from
  /// an empty ledger.
  Request RecoveryRequest() const;
  /// admin_mix reopen probes for `shard`: one query covering the whole
  /// fleet, then one per acknowledged added requirement.
  std::vector<Request> Probes(size_t shard) const;

 private:
  Workload() = default;
  void BuildFleetWorld(size_t shards, size_t per_shard, size_t note_len);
  void BuildPolicyHeavyWorld(size_t shards);
  Request FleetRequest(std::mt19937_64& rng) const;
  Request MakeRequest(size_t shard, Query q, int template_id = -1) const;
  Resource NewResource(size_t shard, int type, size_t note_len);

  Kind kind_ = Kind::kAcquireHold;
  std::unique_ptr<Schema> schema_;
  std::vector<ShardModel> models_;
  std::vector<std::vector<std::pair<bool, std::string>>> setup_;
  size_t window_ = 0;
  size_t batch_ = 0;
  size_t note_len_ = 0;
  std::mt19937_64 rng_;
  std::vector<size_t> next_id_;  // Per shard.
  size_t next_write_ = 0;
  std::vector<std::vector<Requirement>> added_;  // Per shard.

  // enforce_policy_heavy: request templates drawn Zipf-skewed.
  std::vector<Request> templates_;
  std::vector<double> zipf_cdf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
