// The benchmark's own model of one shard: resource/activity hierarchies,
// resource instances and policies, kept as plain structs. The generator
// renders the model to RDL/PL/RQL text for the program, and the oracle
// evaluates requests against the model alone — never against the
// program's answers.
#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace perfbench {

/// Integer resource attributes, declared on the root resource type (every
/// type inherits them). A `Note` string attribute pads the org text.
enum Attr { kSkill = 0, kLevel, kZone, kNumAttrs };
/// Integer activity attributes, declared on the root activity type.
enum Param { kSize = 0, kUrgency, kNumParams };

const char* AttrName(int attr);
const char* ParamName(int param);

enum class Op { kGe, kLt, kEq };

/// `attr op value`, or `attr op [Param]` when `param` is true (the value
/// is then the activity binding of Param `value`).
struct Atom {
  int attr = kSkill;
  Op op = Op::kGe;
  bool param = false;
  int64_t value = 0;
};
/// A conjunction of atoms; empty = no condition.
using Cond = std::vector<Atom>;

/// `lo <= param < hi`.
struct Range {
  int param = kSize;
  int64_t lo = 0;
  int64_t hi = 0;
};
/// A conjunction of ranges (a With clause); empty = applies to every
/// specification.
using RangeSet = std::vector<Range>;

struct Hierarchy {
  std::vector<std::string> names;
  std::vector<int> parent;  // -1 for the root (node 0).

  int Add(std::string name, int parent_node);
  /// True when `anc` is `node` or one of its ancestors.
  bool IsAncestorOrSelf(int anc, int node) const;
  /// `node` and its ancestors, nearest first.
  std::vector<int> Ancestors(int node) const;
  /// `node` and its descendants in preorder.
  std::vector<int> Descendants(int node) const;
  int size() const { return static_cast<int>(names.size()); }
};

/// Shared by every shard of a workload.
struct Schema {
  Hierarchy types;
  Hierarchy acts;
  /// The RDL defining both hierarchies and their attributes.
  std::string Rdl() const;
};

struct Resource {
  int type = 0;
  std::string id;
  int64_t attr[kNumAttrs] = {0, 0, 0};
  std::string note;
};

struct Qualification {
  int type = 0;
  int act = 0;
};
struct Requirement {
  int type = 0;
  int act = 0;
  Cond where;
  RangeSet with;
};
/// `Substitute <from> By <to> [Where to_where] For <act> [With ...]`; the
/// substituted side never carries a Where clause.
struct Substitution {
  int from = 0;
  int to = 0;
  Cond to_where;
  int act = 0;
  RangeSet with;
};

struct Query {
  int type = 0;
  Cond where;
  int act = 0;
  int64_t spec[kNumParams] = {0, 0};
};

/// "Type/id" — the identity of a resource within one shard.
std::string RefKey(const std::string& type, const std::string& id);

/// The oracle's answer for one request against one shard state.
struct Expected {
  enum class Kind { kNoQualified, kPrimary, kSubstitution, kUnavailable };
  Kind kind = Kind::kUnavailable;
  /// Free eligible resources (RefKey) of the stage that answers: the
  /// primary stage, else the substitution stage; empty otherwise.
  std::set<std::string> free;
};

/// One shard's resources and policies, plus the oracle over them.
class ShardModel {
 public:
  explicit ShardModel(const Schema* schema) : schema_(schema) {}

  const Schema& schema() const { return *schema_; }

  void AddResource(Resource r);
  void AddQualification(Qualification q) { quals_.push_back(q); }
  void AddRequirement(Requirement r);
  void AddSubstitution(Substitution s) { subs_.push_back(std::move(s)); }

  const Resource* Find(const std::string& key) const;

  /// §4.1 under the closed-world assumption: the sub-types of `type`
  /// (preorder) one of whose ancestors is qualified for an ancestor of
  /// `act`.
  std::vector<int> QualifiedSubtypes(int type, int act) const;
  /// Resources of exact type `type` meeting `where` and every requirement
  /// relevant to (type, act, spec) — the §4.2 conjunction.
  void EligibleOfType(int type, const Cond& where, int act,
                      const int64_t* spec,
                      std::vector<const Resource*>* out) const;
  /// The full pipeline: qualification, requirement, and — only when no
  /// primary match is free — one round of substitution (never
  /// transitive). `held` holds RefKeys of allocated resources.
  Expected Evaluate(const Query& q,
                    const std::unordered_set<std::string>& held) const;

  /// The RDL `Insert Resource` statement for `r`.
  std::string InsertRdl(const Resource& r) const;

 private:
  const Schema* schema_;
  std::vector<Resource> resources_;
  std::vector<std::vector<int>> by_type_;
  std::map<std::string, int> by_key_;
  std::vector<Qualification> quals_;
  std::vector<Requirement> reqs_;
  /// (type, act) -> indexes into reqs_.
  std::map<std::pair<int, int>, std::vector<int>> req_index_;
  std::vector<Substitution> subs_;
};

bool InRanges(const RangeSet& ranges, const int64_t* spec);
bool Holds(const Cond& cond, const Resource& r, const int64_t* spec);

// ---- Text rendering -------------------------------------------------------

std::string CondText(const Cond& cond);
std::string QualificationText(const Schema& s, const Qualification& q);
std::string RequirementText(const Schema& s, const Requirement& r);
std::string SubstitutionText(const Schema& s, const Substitution& sub);
std::string QueryText(const Schema& s, const Query& q);

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
