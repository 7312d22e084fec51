#include "workloads.h"

#include <algorithm>
#include <array>

namespace perfbench {

namespace {

/// Activity-attribute domain: Size is drawn from [0, kSizeDomain).
constexpr int64_t kSizeDomain = 960000;
/// Resources per setup RDL text, and policies per setup PL text.
constexpr size_t kChunk = 64;
/// Seed of the policy bases (fixed; see BuildFleetWorld).
constexpr uint64_t kPolicySeed = 20260101;

int64_t Uniform(std::mt19937_64& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi - 1)(rng);
}

template <typename T>
const T& Pick(std::mt19937_64& rng, const std::vector<T>& v) {
  return v[static_cast<size_t>(Uniform(rng, 0, static_cast<int64_t>(v.size())))];
}

Atom Ge(int attr, int64_t v) { return Atom{attr, Op::kGe, false, v}; }
Atom Lt(int attr, int64_t v) { return Atom{attr, Op::kLt, false, v}; }
Atom Eq(int attr, int64_t v) { return Atom{attr, Op::kEq, false, v}; }
Atom GeParam(int attr, int param) { return Atom{attr, Op::kGe, true, param}; }

// Fleet schema (acquire_hold, admin_mix) — node indexes.
enum FleetType {
  kStaff, kEng, kBackend, kFrontend, kData, kOps, kSre, kDba, kSupport,
  kTier1, kTier2, kNumFleetTypes
};
enum FleetAct {
  kTask, kBuild, kCompile, kTest, kDeploy, kRollout, kRollback, kTriage,
  kIncident, kAudit
};

/// (type, leaf activity) pairs with a non-empty qualification fan-out.
const std::vector<std::pair<int, int>> kBroadTemplates = {
    {kEng, kCompile}, {kEng, kTest},       {kOps, kRollout},
    {kOps, kRollback}, {kSupport, kIncident}, {kStaff, kIncident},
    {kStaff, kTest}};
const std::vector<std::pair<int, int>> kNarrowTemplates = {
    {kBackend, kCompile}, {kSre, kRollout}, {kTier1, kIncident},
    {kDba, kRollback}};
/// Activities that requirement policies may name. Task (the root) and
/// Audit never carry one, so an Audit request sees the whole fleet —
/// which is what the reopen probe relies on.
const std::vector<int> kRequirementActs = {kBuild,   kCompile, kTest,
                                           kDeploy,  kRollout, kRollback,
                                           kTriage,  kIncident};

/// The activity a reopen probe names for a requirement on `act`: its first
/// child, so the request is fully specified for a concrete activity.
int ProbeAct(const Hierarchy& acts, int act) {
  for (int c = 0; c < acts.size(); ++c) {
    if (acts.parent[c] == act) return c;
  }
  return act;
}

}  // namespace

std::unique_ptr<Workload> Workload::Make(const std::string& name,
                                         uint64_t seed, size_t max_shards) {
  std::unique_ptr<Workload> w(new Workload());
  w->rng_.seed(seed);
  max_shards = std::max<size_t>(max_shards, 1);
  if (name == "acquire_hold") {
    w->kind_ = Kind::kAcquireHold;
    w->window_ = 192;
    w->BuildFleetWorld(std::min<size_t>(2, max_shards), 1536, 8);
  } else if (name == "enforce_policy_heavy") {
    w->kind_ = Kind::kEnforcePolicyHeavy;
    w->batch_ = 32;
    w->BuildPolicyHeavyWorld(std::min<size_t>(3, max_shards));
  } else if (name == "admin_mix") {
    w->kind_ = Kind::kAdminMix;
    w->window_ = 128;
    w->BuildFleetWorld(std::min<size_t>(2, max_shards), 2560, 240);
  } else {
    return nullptr;
  }
  return w;
}

Resource Workload::NewResource(size_t shard, int type, size_t note_len) {
  Resource r;
  r.type = type;
  r.id = "s" + std::to_string(shard) + "r" + std::to_string(next_id_[shard]++);
  r.attr[kSkill] = Uniform(rng_, 0, 1000);
  r.attr[kLevel] = Uniform(rng_, 0, 10);
  r.attr[kZone] = Uniform(rng_, 0, 16);
  r.note.resize(note_len);
  for (char& c : r.note) c = static_cast<char>('a' + Uniform(rng_, 0, 26));
  return r;
}

void Workload::BuildFleetWorld(size_t shards, size_t per_shard,
                               size_t note_len) {
  note_len_ = note_len;
  schema_ = std::make_unique<Schema>();
  Hierarchy& t = schema_->types;
  t.Add("Staff", -1);
  t.Add("Eng", kStaff);
  t.Add("Backend", kEng);
  t.Add("Frontend", kEng);
  t.Add("Data", kEng);
  t.Add("Ops", kStaff);
  t.Add("SRE", kOps);
  t.Add("DBA", kOps);
  t.Add("Support", kStaff);
  t.Add("Tier1", kSupport);
  t.Add("Tier2", kSupport);
  Hierarchy& a = schema_->acts;
  a.Add("Task", -1);
  a.Add("Build", kTask);
  a.Add("Compile", kBuild);
  a.Add("Test", kBuild);
  a.Add("Deploy", kTask);
  a.Add("Rollout", kDeploy);
  a.Add("Rollback", kDeploy);
  a.Add("Triage", kTask);
  a.Add("Incident", kTriage);
  a.Add("Audit", kTask);

  // One policy base, replicated to every shard and the same for every
  // seed: a handful of policies decides much of a request's cost, so
  // drawing them per seed would swamp the run-to-run spread. The seed
  // varies the fleet and the request stream.
  std::mt19937_64 policy_rng(kPolicySeed);
  std::vector<Qualification> quals = {{kEng, kBuild},    {kOps, kDeploy},
                                      {kSupport, kTriage}, {kSre, kTriage},
                                      {kData, kTest},    {kStaff, kAudit}};
  std::vector<Requirement> reqs;
  const std::vector<int> req_types = {kStaff, kEng, kOps, kSupport,
                                      kBackend, kSre, kTier1};
  for (int i = 0; i < 24; ++i) {
    Requirement r;
    r.type = Pick(policy_rng, req_types);
    r.act = Pick(policy_rng, kRequirementActs);
    switch (Uniform(policy_rng, 0, 3)) {
      case 0:
        r.where = {Ge(kSkill, Uniform(policy_rng, 0, 300))};
        break;
      case 1:
        r.where = {GeParam(kLevel, kUrgency)};
        break;
      default:
        r.where = {Lt(kZone, Uniform(policy_rng, 8, 16))};
        break;
    }
    if (Uniform(policy_rng, 0, 10) > 0) {
      const int64_t lo = Uniform(policy_rng, 0, kSizeDomain / 2);
      r.with = {Range{kSize, lo, lo + kSizeDomain / 2}};
    }
    reqs.push_back(std::move(r));
  }
  std::vector<Substitution> subs;
  const std::vector<std::array<int, 3>> pairs = {
      {kBackend, kFrontend, kBuild}, {kFrontend, kData, kBuild},
      {kSre, kDba, kDeploy},         {kDba, kSre, kDeploy},
      {kTier1, kTier2, kTriage},     {kTier2, kTier1, kTriage},
      {kEng, kOps, kTask}};
  for (const auto& p : pairs) {
    Substitution s;
    s.from = p[0];
    s.to = p[1];
    s.act = p[2];
    if (Uniform(policy_rng, 0, 2) == 0) s.to_where = {Ge(kSkill, Uniform(policy_rng, 0, 500))};
    if (Uniform(policy_rng, 0, 2) == 0) {
      s.with = {Range{kSize, 0, kSizeDomain / 2 + Uniform(policy_rng, 0, kSizeDomain / 2)}};
    }
    subs.push_back(std::move(s));
  }

  std::string pl;
  for (const Qualification& q : quals) pl += QualificationText(*schema_, q);
  for (const Requirement& r : reqs) pl += RequirementText(*schema_, r);
  for (const Substitution& s : subs) pl += SubstitutionText(*schema_, s);

  next_id_.assign(shards, 0);
  added_.assign(shards, {});
  setup_.assign(shards, {});
  for (size_t s = 0; s < shards; ++s) {
    models_.emplace_back(schema_.get());
    ShardModel& m = models_.back();
    setup_[s].push_back({false, schema_->Rdl()});
    std::string chunk;
    for (size_t i = 0; i < per_shard; ++i) {
      Resource r = NewResource(s, static_cast<int>(i % kNumFleetTypes), note_len);
      chunk += m.InsertRdl(r);
      m.AddResource(std::move(r));
      if ((i + 1) % kChunk == 0 || i + 1 == per_shard) {
        setup_[s].push_back({false, std::move(chunk)});
        chunk.clear();
      }
    }
    for (const Qualification& q : quals) m.AddQualification(q);
    for (const Requirement& r : reqs) m.AddRequirement(r);
    for (const Substitution& sub : subs) m.AddSubstitution(sub);
    setup_[s].push_back({true, pl});
  }
}

void Workload::BuildPolicyHeavyWorld(size_t shards) {
  // §6-style synthetic base: complete binary hierarchies, every resource
  // type partnered with the 8 activities nearest the root, 24 disjoint
  // Size cases per (resource, activity) pair.
  constexpr int kTypes = 15;
  constexpr int kActs = 31;
  constexpr int kPartners = 8;
  constexpr int kCases = 24;
  constexpr int kInstancesPerType = 4;
  constexpr int kSubstitutions = 64;
  constexpr int kTemplates = 16384;

  std::mt19937_64 policy_rng(kPolicySeed);
  schema_ = std::make_unique<Schema>();
  for (int k = 0; k < kTypes; ++k) {
    schema_->types.Add("R" + std::to_string(k), k == 0 ? -1 : (k - 1) / 2);
  }
  for (int k = 0; k < kActs; ++k) {
    schema_->acts.Add("A" + std::to_string(k), k == 0 ? -1 : (k - 1) / 2);
  }
  std::vector<Qualification> quals = {{1, 0}, {2, 1}, {5, 2}, {6, 0}};
  std::vector<Requirement> reqs;
  const int64_t width = kSizeDomain / kCases;
  for (int r = 0; r < kTypes; ++r) {
    for (int a = 0; a < kPartners; ++a) {
      for (int c = 0; c < kCases; ++c) {
        Requirement req;
        req.type = r;
        req.act = a;
        switch (Uniform(policy_rng, 0, 4)) {
          case 0:
            req.where = {Ge(kSkill, Uniform(policy_rng, 0, 100))};
            break;
          case 1:
            req.where = {Lt(kZone, Uniform(policy_rng, 14, 17))};
            break;
          case 2:
            req.where = {GeParam(kLevel, kUrgency)};
            break;
          default:
            req.where = {Lt(kLevel, Uniform(policy_rng, 9, 11))};
            break;
        }
        req.with = {Range{kSize, c * width, (c + 1) * width}};
        reqs.push_back(std::move(req));
      }
    }
  }
  std::vector<Substitution> subs;
  for (int i = 0; i < kSubstitutions; ++i) {
    Substitution s;
    s.from = static_cast<int>(Uniform(policy_rng, 0, kTypes));
    s.to = static_cast<int>(Uniform(policy_rng, 0, kTypes));
    s.act = static_cast<int>(Uniform(policy_rng, 0, 15));
    if (Uniform(policy_rng, 0, 2) == 0) s.to_where = {Ge(kSkill, Uniform(policy_rng, 0, 300))};
    const int64_t lo = Uniform(policy_rng, 0, kSizeDomain / 2);
    s.with = {Range{kSize, lo, lo + kSizeDomain / 2}};
    subs.push_back(std::move(s));
  }

  std::vector<std::string> pl_chunks;
  std::string pl;
  size_t in_chunk = 0;
  auto flush = [&](bool force) {
    if (in_chunk > 0 && (force || in_chunk == kChunk)) {
      pl_chunks.push_back(std::move(pl));
      pl.clear();
      in_chunk = 0;
    }
  };
  for (const Qualification& q : quals) {
    pl += QualificationText(*schema_, q);
    ++in_chunk;
  }
  for (const Requirement& r : reqs) {
    pl += RequirementText(*schema_, r);
    ++in_chunk;
    flush(false);
  }
  for (const Substitution& s : subs) {
    pl += SubstitutionText(*schema_, s);
    ++in_chunk;
    flush(false);
  }
  flush(true);

  next_id_.assign(shards, 0);
  added_.assign(shards, {});
  setup_.assign(shards, {});
  for (size_t s = 0; s < shards; ++s) {
    models_.emplace_back(schema_.get());
    ShardModel& m = models_.back();
    setup_[s].push_back({false, schema_->Rdl()});
    std::string chunk;
    for (int t = 0; t < kTypes; ++t) {
      for (int i = 0; i < kInstancesPerType; ++i) {
        Resource r = NewResource(s, t, 8);
        chunk += m.InsertRdl(r);
        m.AddResource(std::move(r));
      }
    }
    setup_[s].push_back({false, std::move(chunk)});
    for (const Qualification& q : quals) m.AddQualification(q);
    for (const Requirement& r : reqs) m.AddRequirement(r);
    for (const Substitution& sub : subs) m.AddSubstitution(sub);
    for (const std::string& text : pl_chunks) setup_[s].push_back({true, text});
  }

  // Request templates: more distinct requests per shard than the
  // 1024-entry rewrite LRU holds, drawn Zipf-skewed (s = 1) by rank. The
  // shape of the template at each rank (requested type, activity, shard,
  // whether it has a Where clause) is fixed, so the hot requests cost the
  // same under every seed; the seed draws their values.
  for (int i = 0; i < kTemplates; ++i) {
    Query q;
    q.type = i % 7;
    q.act = 15 + (i / 7) % 16;
    if ((i / 112) % 2 == 1) q.where = {Ge(kSkill, Uniform(rng_, 0, 1000))};
    q.spec[kSize] = Uniform(rng_, 0, kSizeDomain);
    q.spec[kUrgency] = Uniform(rng_, 0, 2);
    templates_.push_back(MakeRequest(static_cast<size_t>(i) % shards, std::move(q), i));
  }
  double sum = 0;
  for (int i = 0; i < kTemplates; ++i) {
    sum += 1.0 / static_cast<double>(i + 1);
    zipf_cdf_.push_back(sum);
  }
  for (double& c : zipf_cdf_) c /= sum;
}

Request Workload::MakeRequest(size_t shard, Query q, int template_id) const {
  Request r;
  r.shard = shard;
  r.rql = QueryText(*schema_, q);
  r.query = std::move(q);
  r.template_id = template_id;
  return r;
}

Request Workload::FleetRequest(std::mt19937_64& rng) const {
  Query q;
  // Three in four requests are broad; the rest are narrow (a leaf type,
  // a zone and a high skill bar), so their few primary matches run out
  // and §4.3 substitution answers.
  const bool narrow = Uniform(rng, 0, 4) == 0;
  const auto& t = Pick(rng, narrow ? kNarrowTemplates : kBroadTemplates);
  q.type = t.first;
  q.act = t.second;
  if (narrow) {
    q.where = {Ge(kSkill, Uniform(rng, 600, 900)), Eq(kZone, Uniform(rng, 0, 16))};
  } else {
    q.where = {Ge(kSkill, Uniform(rng, 0, 700))};
  }
  q.spec[kSize] = Uniform(rng, 0, kSizeDomain);
  q.spec[kUrgency] = Uniform(rng, 0, 10);
  const size_t shard =
      static_cast<size_t>(Uniform(rng, 0, static_cast<int64_t>(num_shards())));
  return MakeRequest(shard, std::move(q));
}

Request Workload::Next() {
  if (kind_ == Kind::kEnforcePolicyHeavy) {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng_);
    size_t i = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    return templates_[std::min(i, templates_.size() - 1)];
  }
  return FleetRequest(rng_);
}

AdminWrite Workload::NextWrite() {
  AdminWrite w;
  w.shard = (next_write_ / 2) % num_shards();
  w.is_policy = next_write_ % 2 == 1;
  ++next_write_;
  if (w.is_policy) {
    // Only (type, activity) pairs with qualified resources, so the reopen
    // probe for this requirement can tell whether it survived.
    Requirement& r = w.requirement;
    do {
      r.type = static_cast<int>(Uniform(rng_, 1, kNumFleetTypes));
      r.act = Pick(rng_, kRequirementActs);
    } while (models_[w.shard]
                 .QualifiedSubtypes(r.type, ProbeAct(schema_->acts, r.act))
                 .empty());
    r.where = {Ge(kSkill, Uniform(rng_, 0, 1000))};
    const int64_t lo = Uniform(rng_, 0, kSizeDomain - kSizeDomain / 200);
    r.with = {Range{kSize, lo, lo + kSizeDomain / 200}};
    w.text = RequirementText(*schema_, r);
  } else {
    for (int i = 0; i < 2; ++i) {
      Resource r = NewResource(
          w.shard, static_cast<int>(Uniform(rng_, 0, kNumFleetTypes)), note_len_);
      w.text += models_[w.shard].InsertRdl(r);
      w.inserts.push_back(std::move(r));
    }
  }
  return w;
}

void Workload::Acknowledge(const AdminWrite& w) {
  ShardModel& m = models_[w.shard];
  if (w.is_policy) {
    m.AddRequirement(w.requirement);
    added_[w.shard].push_back(w.requirement);
  } else {
    for (const Resource& r : w.inserts) m.AddResource(r);
  }
}

Request Workload::RecoveryRequest() const {
  // A fixed shape, so reopen-to-grant times compare across seeds: the
  // hottest template on shard 0, or a broad Eng request.
  const std::unordered_set<std::string> none;
  if (kind_ == Kind::kEnforcePolicyHeavy) {
    for (const Request& r : templates_) {
      if (r.shard == 0 && !models_[0].Evaluate(r.query, none).free.empty()) {
        return r;
      }
    }
  }
  Query q;
  q.type = kEng;
  q.act = kCompile;
  q.where = {Ge(kSkill, 0)};
  return MakeRequest(0, std::move(q));
}

std::vector<Request> Workload::Probes(size_t shard) const {
  std::vector<Request> out;
  Query all;
  all.type = kStaff;
  all.act = kAudit;
  out.push_back(MakeRequest(shard, std::move(all)));
  for (const Requirement& r : added_[shard]) {
    Query q;
    q.type = r.type;
    q.act = ProbeAct(schema_->acts, r.act);
    q.spec[kSize] = r.with[0].lo;
    q.spec[kUrgency] = 0;
    out.push_back(MakeRequest(shard, std::move(q)));
  }
  return out;
}

}  // namespace perfbench
