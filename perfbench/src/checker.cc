#include "checker.h"

namespace perfbench {

namespace {

const char* KindName(Expected::Kind k) {
  switch (k) {
    case Expected::Kind::kNoQualified:
      return "no-qualified";
    case Expected::Kind::kPrimary:
      return "primary";
    case Expected::Kind::kSubstitution:
      return "substitution";
    case Expected::Kind::kUnavailable:
      return "unavailable";
  }
  return "?";
}

}  // namespace

void Checker::Fail(std::string what) {
  ++violations_;
  if (messages_.size() < 8) messages_.push_back(std::move(what));
}

bool Checker::Grant(size_t shard, const ShardModel& model, const Query& q,
                    const std::string& key) {
  const std::string text = QueryText(model.schema(), q);
  if (held_[shard].count(key) > 0) {
    Fail("double grant of " + key + " for: " + text);
    return false;
  }
  Expected e = model.Evaluate(q, held_[shard]);
  held_[shard].insert(key);
  ++grants_;
  if (e.free.count(key) == 0) {
    Fail("grant " + key + " outside the oracle's " + KindName(e.kind) +
         " set (" + std::to_string(e.free.size()) + " free) for: " + text);
    return false;
  }
  return true;
}

bool Checker::Refusal(size_t shard, const ShardModel& model, const Query& q,
                      Answer::Status status) {
  Expected e = model.Evaluate(q, held_[shard]);
  const bool ok =
      (e.kind == Expected::Kind::kNoQualified &&
       status == Answer::Status::kNoQualified) ||
      (e.kind == Expected::Kind::kUnavailable &&
       status == Answer::Status::kUnavailable);
  if (!ok) {
    Fail(std::string("refusal where the oracle expects ") + KindName(e.kind) +
         " (" + std::to_string(e.free.size()) +
         " free) for: " + QueryText(model.schema(), q));
  }
  return ok;
}

bool Checker::Release(size_t shard, const std::string& key) {
  if (held_[shard].erase(key) == 0) {
    Fail("release of unheld " + key);
    return false;
  }
  ++releases_;
  return true;
}

bool Checker::Candidates(size_t shard, const ShardModel& model,
                         const Query& q, const Answer& answer) {
  return Candidates(model.Evaluate(q, held_[shard]), answer,
                    QueryText(model.schema(), q));
}

bool Checker::Candidates(const Expected& e, const Answer& answer,
                         const std::string& text) {
  bool ok = answer.candidates == e.free;
  switch (e.kind) {
    case Expected::Kind::kNoQualified:
      ok = ok && answer.status == Answer::Status::kNoQualified;
      break;
    case Expected::Kind::kPrimary:
      ok = ok && answer.status == Answer::Status::kOk &&
           !answer.used_substitution;
      break;
    case Expected::Kind::kSubstitution:
      ok = ok && answer.status == Answer::Status::kOk &&
           answer.used_substitution;
      break;
    case Expected::Kind::kUnavailable:
      ok = ok && answer.status == Answer::Status::kUnavailable;
      break;
  }
  if (!ok) {
    Fail("candidate set of " + std::to_string(answer.candidates.size()) +
         " differs from the oracle's " + KindName(e.kind) + " set of " +
         std::to_string(e.free.size()) + " for: " + text);
  }
  return ok;
}

bool Checker::InsertsVisible(const std::set<std::string>& acked,
                             const std::set<std::string>& seen) {
  bool ok = true;
  for (const std::string& key : acked) {
    if (seen.count(key) == 0) {
      Fail("acknowledged insert " + key + " not visible after reopen");
      ok = false;
    }
  }
  return ok;
}

bool Checker::Drained(const std::vector<size_t>& num_allocated) {
  bool ok = grants_ == releases_;
  if (!ok) {
    Fail("grants " + std::to_string(grants_) + " != releases " +
         std::to_string(releases_));
  }
  for (size_t s = 0; s < num_allocated.size(); ++s) {
    if (num_allocated[s] != 0 || !held_[s].empty()) {
      Fail("shard " + std::to_string(s) + " still holds " +
           std::to_string(num_allocated[s]) + " allocations");
      ok = false;
    }
  }
  return ok;
}

}  // namespace perfbench
