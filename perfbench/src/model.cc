#include "model.h"

#include <algorithm>

namespace perfbench {

const char* AttrName(int attr) {
  static const char* kNames[kNumAttrs] = {"Skill", "Level", "Zone"};
  return kNames[attr];
}

const char* ParamName(int param) {
  static const char* kNames[kNumParams] = {"Size", "Urgency"};
  return kNames[param];
}

int Hierarchy::Add(std::string name, int parent_node) {
  names.push_back(std::move(name));
  parent.push_back(parent_node);
  return size() - 1;
}

bool Hierarchy::IsAncestorOrSelf(int anc, int node) const {
  for (int n = node; n >= 0; n = parent[n]) {
    if (n == anc) return true;
  }
  return false;
}

std::vector<int> Hierarchy::Ancestors(int node) const {
  std::vector<int> out;
  for (int n = node; n >= 0; n = parent[n]) out.push_back(n);
  return out;
}

std::vector<int> Hierarchy::Descendants(int node) const {
  std::vector<int> out = {node};
  for (size_t i = 0; i < out.size(); ++i) {
    for (int c = 0; c < size(); ++c) {
      if (parent[c] == out[i]) out.push_back(c);
    }
  }
  return out;
}

std::string Schema::Rdl() const {
  std::string out;
  for (int t = 0; t < types.size(); ++t) {
    out += "Define Resource Type " + types.names[t];
    if (t == 0) {
      out += " (Skill Int, Level Int, Zone Int, Note String);\n";
    } else {
      out += " Under " + types.names[types.parent[t]] + ";\n";
    }
  }
  for (int a = 0; a < acts.size(); ++a) {
    out += "Define Activity Type " + acts.names[a];
    if (a == 0) {
      out += " (Size Int, Urgency Int);\n";
    } else {
      out += " Under " + acts.names[acts.parent[a]] + ";\n";
    }
  }
  return out;
}

std::string RefKey(const std::string& type, const std::string& id) {
  return type + "/" + id;
}

void ShardModel::AddResource(Resource r) {
  if (by_type_.size() < static_cast<size_t>(schema_->types.size())) {
    by_type_.resize(schema_->types.size());
  }
  by_key_[RefKey(schema_->types.names[r.type], r.id)] =
      static_cast<int>(resources_.size());
  by_type_[r.type].push_back(static_cast<int>(resources_.size()));
  resources_.push_back(std::move(r));
}

void ShardModel::AddRequirement(Requirement r) {
  req_index_[{r.type, r.act}].push_back(static_cast<int>(reqs_.size()));
  reqs_.push_back(std::move(r));
}

const Resource* ShardModel::Find(const std::string& key) const {
  auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : &resources_[it->second];
}

bool InRanges(const RangeSet& ranges, const int64_t* spec) {
  for (const Range& r : ranges) {
    const int64_t v = spec[r.param];
    if (v < r.lo || v >= r.hi) return false;
  }
  return true;
}

bool Holds(const Cond& cond, const Resource& r, const int64_t* spec) {
  for (const Atom& a : cond) {
    const int64_t lhs = r.attr[a.attr];
    const int64_t rhs = a.param ? spec[a.value] : a.value;
    switch (a.op) {
      case Op::kGe:
        if (!(lhs >= rhs)) return false;
        break;
      case Op::kLt:
        if (!(lhs < rhs)) return false;
        break;
      case Op::kEq:
        if (lhs != rhs) return false;
        break;
    }
  }
  return true;
}

std::vector<int> ShardModel::QualifiedSubtypes(int type, int act) const {
  const Hierarchy& types = schema_->types;
  const Hierarchy& acts = schema_->acts;
  std::vector<int> out;
  for (int sub : types.Descendants(type)) {
    for (const Qualification& q : quals_) {
      if (types.IsAncestorOrSelf(q.type, sub) &&
          acts.IsAncestorOrSelf(q.act, act)) {
        out.push_back(sub);
        break;
      }
    }
  }
  return out;
}

void ShardModel::EligibleOfType(int type, const Cond& where, int act,
                                const int64_t* spec,
                                std::vector<const Resource*>* out) const {
  std::vector<const Requirement*> relevant;
  for (int t : schema_->types.Ancestors(type)) {
    for (int a : schema_->acts.Ancestors(act)) {
      auto it = req_index_.find({t, a});
      if (it == req_index_.end()) continue;
      for (int idx : it->second) {
        if (InRanges(reqs_[idx].with, spec)) relevant.push_back(&reqs_[idx]);
      }
    }
  }
  if (static_cast<size_t>(type) >= by_type_.size()) return;
  for (int idx : by_type_[type]) {
    const Resource& r = resources_[idx];
    if (!Holds(where, r, spec)) continue;
    bool ok = true;
    for (const Requirement* req : relevant) {
      if (!Holds(req->where, r, spec)) {
        ok = false;
        break;
      }
    }
    if (ok) out->push_back(&r);
  }
}

Expected ShardModel::Evaluate(
    const Query& q, const std::unordered_set<std::string>& held) const {
  const Hierarchy& types = schema_->types;
  Expected out;
  auto collect = [&](int type, const Cond& where) {
    for (int sub : QualifiedSubtypes(type, q.act)) {
      std::vector<const Resource*> found;
      EligibleOfType(sub, where, q.act, q.spec, &found);
      for (const Resource* r : found) {
        std::string key = RefKey(types.names[r->type], r->id);
        if (held.count(key) == 0) out.free.insert(std::move(key));
      }
    }
  };
  if (QualifiedSubtypes(q.type, q.act).empty()) {
    out.kind = Expected::Kind::kNoQualified;
    return out;
  }
  collect(q.type, q.where);
  if (!out.free.empty()) {
    out.kind = Expected::Kind::kPrimary;
    return out;
  }
  // §4.3: the substituted resource is related to the requested one (an
  // ancestor or a descendant), the policy's activity is an ancestor of
  // the request's, and the specification lies in its ranges. Each
  // alternative is re-enforced but never substituted again.
  for (const Substitution& s : subs_) {
    if (!types.IsAncestorOrSelf(s.from, q.type) &&
        !types.IsAncestorOrSelf(q.type, s.from)) {
      continue;
    }
    if (!schema_->acts.IsAncestorOrSelf(s.act, q.act)) continue;
    if (!InRanges(s.with, q.spec)) continue;
    collect(s.to, s.to_where);
  }
  out.kind = out.free.empty() ? Expected::Kind::kUnavailable
                              : Expected::Kind::kSubstitution;
  return out;
}

std::string ShardModel::InsertRdl(const Resource& r) const {
  return "Insert Resource " + schema_->types.names[r.type] + " '" + r.id +
         "' (Skill = " + std::to_string(r.attr[kSkill]) +
         ", Level = " + std::to_string(r.attr[kLevel]) +
         ", Zone = " + std::to_string(r.attr[kZone]) + ", Note = '" +
         r.note + "');\n";
}

// ---- Text rendering -------------------------------------------------------

std::string CondText(const Cond& cond) {
  std::string out;
  for (const Atom& a : cond) {
    if (!out.empty()) out += " And ";
    out += AttrName(a.attr);
    out += a.op == Op::kGe ? " >= " : a.op == Op::kLt ? " < " : " = ";
    out += a.param ? "[" + std::string(ParamName(a.value)) + "]"
                   : std::to_string(a.value);
  }
  return out;
}

namespace {

std::string WithText(const RangeSet& ranges) {
  std::string out;
  for (const Range& r : ranges) {
    out += out.empty() ? " With " : " And ";
    out += std::string(ParamName(r.param)) + " >= " + std::to_string(r.lo) +
           " And " + ParamName(r.param) + " < " + std::to_string(r.hi);
  }
  return out;
}

std::string WhereText(const Cond& cond) {
  return cond.empty() ? "" : " Where " + CondText(cond);
}

}  // namespace

std::string QualificationText(const Schema& s, const Qualification& q) {
  return "Qualify " + s.types.names[q.type] + " For " + s.acts.names[q.act] +
         ";\n";
}

std::string RequirementText(const Schema& s, const Requirement& r) {
  return "Require " + s.types.names[r.type] + WhereText(r.where) + " For " +
         s.acts.names[r.act] + WithText(r.with) + ";\n";
}

std::string SubstitutionText(const Schema& s, const Substitution& sub) {
  return "Substitute " + s.types.names[sub.from] + " By " +
         s.types.names[sub.to] + WhereText(sub.to_where) + " For " +
         s.acts.names[sub.act] + WithText(sub.with) + ";\n";
}

std::string QueryText(const Schema& s, const Query& q) {
  std::string out = "Select Skill From " + s.types.names[q.type] +
                    WhereText(q.where) + " For " + s.acts.names[q.act];
  for (int p = 0; p < kNumParams; ++p) {
    out += p == 0 ? " With " : " And ";
    out += std::string(ParamName(p)) + " = " + std::to_string(q.spec[p]);
  }
  return out;
}

}  // namespace perfbench
