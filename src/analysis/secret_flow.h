// The secret oracle and the one secret-flow fixed point shared by the
// taint (data channels) and ct_flow (timing) passes.
//
// The oracle is nominal: the repo's naming convention marks key/PUF
// material (config_key, id_key, puf_*, key_* ...), and the raw-word
// accessors .bits()/.to_hex() expose it on any receiver. The
// Key64/WrappedKey types are a taint-only extra (is_secret_type).
//
// Each pass seeds one SecretSummary per function with its own direct
// facts, then SecretFlow composes them over the cross-TU call graph:
//
//   returns_tainted  some return expression carries key material, on its
//                   own or through a call whose callee returns it;
//   to[f][i]        parameter i reaches the pass's sink kind f inside
//                   the function or down a call chain (via[f][i]).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/model.h"
#include "analysis/parser.h"

namespace analock::analysis {

/// True when `identifier` names key/PUF material by the repo's naming
/// convention.
[[nodiscard]] bool is_secret_identifier(std::string_view identifier);

/// True when `text` calls a raw-word accessor, `.bits()` / `.to_hex()`
/// (or through `->`): the oracle's other half, secret on any receiver.
[[nodiscard]] bool has_secret_accessor(std::string_view text);

/// First secret-named identifier in `expr` used as data, or "". A name
/// followed by '(' is a callee and is judged by its summary instead.
[[nodiscard]] std::string first_secret_name(std::string_view expr);

/// True when a declared type names the key types Key64/WrappedKey.
[[nodiscard]] bool is_secret_type(std::string_view type);

/// True for a member call whose name collides with the std vocabulary
/// (`enabled_.load()`, `p.get()`): opaque to name resolution.
[[nodiscard]] bool is_opaque_member_call(const CallSite& call);

/// Sanctioned releases of key material: the values a pass may treat as
/// public, and the calls that carry no secret flow.
struct Releases {
  /// Callee base names: `ct_equal` and every `// analock: ct_safe`
  /// function (see blessed_callees).
  std::set<std::string, std::less<>> blessed;
  /// Lines (and the line below each) carrying a non-empty
  /// `// analock: declassified(reason)` (see declassified_lines).
  std::map<const SourceFile*, std::set<int>> declassified;

  [[nodiscard]] bool is_declassified(const SourceFile& source,
                                     std::size_t offset) const;
};

[[nodiscard]] std::set<std::string, std::less<>> blessed_callees(
    const CallGraph& graph);
[[nodiscard]] std::map<const SourceFile*, std::set<int>> declassified_lines(
    const std::vector<ParsedFile>& files);

/// The one callee lookup: resolves each `name(` in `expr`, left to
/// right, through CallGraph::by_base, skipping opaque member calls,
/// until `visit(callee, open)` accepts a candidate (`open` is the
/// offset of the call's '('). Returns whether one did.
bool any_callee(
    const CallGraph& graph, std::string_view expr,
    const std::function<bool(const FunctionRef&, std::size_t)>& visit);

/// One function's secret-flow facts: seeded by a pass, completed by
/// SecretFlow.
struct SecretSummary {
  SecretSummary(std::size_t fact_count, std::size_t params)
      : facts(fact_count),
        to(fact_count * params, 0),
        via(fact_count * params) {}

  /// Records the candidate callees of the calls in a return expression:
  /// the function returns key material once one of them does.
  void add_return(const CallGraph& graph, std::string_view text);

  [[nodiscard]] bool reaches(std::size_t fact, std::size_t param) const {
    return to[param * facts + fact] != 0;
  }
  [[nodiscard]] const std::string& chain(std::size_t fact,
                                         std::size_t param) const {
    return via[param * facts + fact];
  }
  void mark(std::size_t fact, std::size_t param, std::string path) {
    to[param * facts + fact] = 1;
    via[param * facts + fact] = std::move(path);
  }

  bool returns_tainted = false;
  std::vector<std::size_t> return_callees;  ///< CallGraph::all() ids
  std::size_t facts;
  std::vector<char> to;          ///< [param * facts + fact]
  std::vector<std::string> via;  ///< the call chain of each `to` entry
};

class SecretFlow {
 public:
  /// Runs `seeds` (one per graph.all() entry) to a fixed point, capped
  /// at max(max_depth, 8) rounds. Parameter facts travel through every
  /// call except calls to `releases.blessed` callees, opaque member
  /// calls, calls on declassified lines, and calls made by ct_safe
  /// functions.
  SecretFlow(const CallGraph& graph, std::vector<SecretSummary> seeds,
             const Releases& releases, int max_depth);

  [[nodiscard]] const CallGraph& graph() const { return graph_; }
  [[nodiscard]] const SecretSummary& operator[](const FunctionRef& ref) const {
    return summaries_[ref.id];
  }

  /// The call-site report both passes share: over the callees `call`
  /// resolves to, other than `caller`, finds the first argument whose
  /// parameter reaches some fact and whose witness is non-empty, and
  /// hands the callee's summary, the argument index and the witness to
  /// `report`.
  void report_call(
      const CallSite& call, const FunctionDef& caller,
      const std::function<std::string(const std::string&)>& witness,
      const std::function<void(const SecretSummary&, std::size_t,
                               const std::string&)>& report) const;

 private:
  const CallGraph& graph_;
  std::vector<SecretSummary> summaries_;
};

}  // namespace analock::analysis
