// Checks the program's answers against the oracle (ShardModel::Evaluate)
// and keeps the lease ledger: what the benchmark holds on every shard.
// Independent of the program's types so the checks can be fed planted
// answers in checker_test.cc.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "model.h"

namespace perfbench {

/// What the program answered for one enforcement request.
struct Answer {
  enum class Status { kOk, kNoQualified, kUnavailable, kOther };
  Status status = Status::kOther;
  bool used_substitution = false;
  /// RefKeys of QueryOutcome::candidates.
  std::set<std::string> candidates;
};

class Checker {
 public:
  explicit Checker(size_t num_shards) : held_(num_shards) {}

  /// A routed Acquire granted `key`: it must be free and in the oracle's
  /// eligible set (primary stage, else substitution). Records the hold.
  bool Grant(size_t shard, const ShardModel& model, const Query& q,
             const std::string& key);
  /// An Acquire was refused: the oracle must find no eligible free
  /// resource, and the refusal must be the matching kind.
  bool Refusal(size_t shard, const ShardModel& model, const Query& q,
               Answer::Status status);
  /// A Release of `key` succeeded: it must have been held.
  bool Release(size_t shard, const std::string& key);
  /// An enforcement read: status, stage and candidate set must equal the
  /// oracle's.
  bool Candidates(size_t shard, const ShardModel& model, const Query& q,
                  const Answer& answer);
  /// The same check against an oracle answer computed earlier (read-only
  /// workloads memoize it per request); `text` names the request.
  bool Candidates(const Expected& e, const Answer& answer,
                  const std::string& text);
  /// Every acknowledged insert must show up among the candidates the
  /// probes returned after reopen.
  bool InsertsVisible(const std::set<std::string>& acked,
                      const std::set<std::string>& seen);
  /// End of run: nothing held, grants == releases, and the program
  /// reports `num_allocated[s]` == 0 on every shard.
  bool Drained(const std::vector<size_t>& num_allocated);
  /// Records a failed check raised by the caller.
  void Fail(std::string what);

  const std::unordered_set<std::string>& held(size_t shard) const {
    return held_[shard];
  }
  bool ok() const { return violations_ == 0; }
  uint64_t violations() const { return violations_; }
  const std::vector<std::string>& messages() const { return messages_; }
  uint64_t grants() const { return grants_; }
  uint64_t releases() const { return releases_; }

 private:
  std::vector<std::unordered_set<std::string>> held_;
  uint64_t grants_ = 0;
  uint64_t releases_ = 0;
  uint64_t violations_ = 0;
  std::vector<std::string> messages_;  // The first few violations.
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
