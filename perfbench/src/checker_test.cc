// The checker must catch what it exists to catch: each case below feeds
// it a planted wrong answer (and the matching right one) and expects the
// verdict to flip. Exits non-zero on the first expectation that fails.
#include <cstdio>
#include <string>

#include "checker.h"
#include "model.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "PASS" : "FAIL", what);
  if (!cond) ++failures;
}

// Staff > {Alpha, Beta}; Task > Job. Alpha needs Skill >= 50 for a Job
// with Size in [0, 100); Alpha substitutes by Beta for Jobs.
struct Fixture {
  Schema schema;
  ShardModel model{&schema};
  Query job;  // Select Skill From Alpha For Job With Size = 10 ...

  Fixture() {
    schema.types.Add("Staff", -1);
    schema.types.Add("Alpha", 0);
    schema.types.Add("Beta", 0);
    schema.acts.Add("Task", -1);
    schema.acts.Add("Job", 0);
    auto add = [&](int type, const char* id, int64_t skill) {
      Resource r;
      r.type = type;
      r.id = id;
      r.attr[kSkill] = skill;
      model.AddResource(r);
    };
    add(1, "a-low", 10);
    add(1, "a-high", 90);
    add(2, "b-one", 30);
    model.AddQualification({0, 0});
    Requirement req;
    req.type = 1;
    req.act = 1;
    req.where = {Atom{kSkill, Op::kGe, false, 50}};
    req.with = {Range{kSize, 0, 100}};
    model.AddRequirement(req);
    Substitution sub;
    sub.from = 1;
    sub.to = 2;
    sub.act = 1;
    model.AddSubstitution(sub);
    job.type = 1;
    job.act = 1;
    job.spec[kSize] = 10;
  }
};

void WrongGrant() {
  Fixture f;
  Checker good(1), bad(1);
  Expect(good.Grant(0, f.model, f.job, "Alpha/a-high") && good.ok(),
         "an eligible grant passes");
  Expect(!bad.Grant(0, f.model, f.job, "Alpha/a-low") && !bad.ok(),
         "a grant the requirement excludes fails");
  Checker early(1);
  Expect(!early.Grant(0, f.model, f.job, "Beta/b-one"),
         "a substitute granted while a primary match is free fails");
  Checker late(1);
  late.Grant(0, f.model, f.job, "Alpha/a-high");
  Expect(late.Grant(0, f.model, f.job, "Beta/b-one") && late.ok(),
         "a substitute granted once the primary matches are held passes");
}

void DoubleGrant() {
  Fixture f;
  Checker c(1);
  c.Grant(0, f.model, f.job, "Alpha/a-high");
  Expect(!c.Grant(0, f.model, f.job, "Alpha/a-high") && !c.ok(),
         "a double grant fails");
  Checker r(1);
  Expect(!r.Release(0, "Alpha/a-high"), "a release of an unheld lease fails");
}

void WrongCandidates() {
  Fixture f;
  Answer right;
  right.status = Answer::Status::kOk;
  right.candidates = {"Alpha/a-high"};
  Checker c(1);
  Expect(c.Candidates(0, f.model, f.job, right), "the oracle's set passes");
  Answer extra = right;
  extra.candidates.insert("Alpha/a-low");
  Expect(!c.Candidates(0, f.model, f.job, extra), "an extra candidate fails");
  Answer missing = right;
  missing.candidates.clear();
  missing.status = Answer::Status::kUnavailable;
  Expect(!c.Candidates(0, f.model, f.job, missing),
         "a missing candidate fails");
  Answer transitive = right;
  transitive.used_substitution = true;
  Expect(!c.Candidates(0, f.model, f.job, transitive),
         "substitution reported while a primary match is free fails");
  Expect(!c.Refusal(0, f.model, f.job, Answer::Status::kUnavailable),
         "a refusal while an eligible resource is free fails");
}

void LostWrite() {
  Fixture f;
  // An acknowledged requirement: Alpha needs Skill >= 95 for Size in
  // [0, 50). After reopen the answer still offers a-high — the write was
  // lost.
  Requirement added;
  added.type = 1;
  added.act = 1;
  added.where = {Atom{kSkill, Op::kGe, false, 95}};
  added.with = {Range{kSize, 0, 50}};
  f.model.AddRequirement(added);
  Answer stale;
  stale.status = Answer::Status::kOk;
  stale.candidates = {"Alpha/a-high"};
  Checker c(1);
  Expect(!c.Candidates(0, f.model, f.job, stale),
         "a lost requirement write fails the reopen probe");
  Checker v(1);
  Expect(v.InsertsVisible({"Alpha/a-high"}, {"Alpha/a-high", "Beta/b-one"}),
         "visible inserts pass");
  Expect(!v.InsertsVisible({"Alpha/new"}, {"Alpha/a-high"}),
         "a lost insert fails");
}

void Drained() {
  Fixture f;
  Checker c(1);
  c.Grant(0, f.model, f.job, "Alpha/a-high");
  Expect(!c.Drained({1}), "a run ending with a held lease fails");
  c.Release(0, "Alpha/a-high");
  Checker d(1);
  Expect(d.Drained({0}), "a drained run passes");
  Expect(!d.Drained({1}), "the program still allocating fails");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::WrongGrant();
  perfbench::DoubleGrant();
  perfbench::WrongCandidates();
  perfbench::LostWrite();
  perfbench::Drained();
  return perfbench::failures == 0 ? 0 : 1;
}
