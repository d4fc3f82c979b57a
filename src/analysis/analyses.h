// The seven analysis passes of analock-verify. Each takes the parsed
// files (plus the cross-TU call graph where relevant) and appends
// findings; the engine owns suppression, fingerprints, and ordering.
// Taint and ct_flow share one secret oracle and one secret-flow fixed
// point (secret_flow.h); each seeds it with its own facts.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/model.h"
#include "analysis/parser.h"

namespace analock::analysis {

/// Interprocedural secret taint: key/PUF material flowing into obs
/// events/metrics, printf-family calls, `.emit()` sinks, and stream
/// inserts — directly (taint-sink) or through a call chain that reaches
/// one (taint-call). A witness looks through up to `max_depth` nested
/// calls of one expression.
void run_taint_analysis(const std::vector<ParsedFile>& files,
                        const CallGraph& graph, int max_depth,
                        std::vector<Finding>& out);

/// Lock-capability checking for `// analock: guarded_by(m)` members:
/// every access in the owning class must be dominated by a
/// lock_guard/scoped_lock/unique_lock on `m`, or sit in a function
/// annotated `// analock: requires(m)` whose call sites are checked
/// instead. Constructors and destructors are exempt.
void run_lock_analysis(const std::vector<ParsedFile>& files,
                       const CallGraph& graph, std::vector<Finding>& out);

/// Determinism dataflow: floating-point accumulation whose order depends
/// on unordered-container iteration, and std <random> engines
/// constructed from non-sim::Rng sources.
void run_determinism_analysis(const std::vector<ParsedFile>& files,
                              std::vector<Finding>& out);

/// Parallel-region safety: `ThreadPool::parallel_for` lambda bodies and
/// functions annotated `// analock: parallel_region` are concurrent
/// scopes. By-reference captures written inside one must be lane-
/// disjoint (indexed by the region's induction variables), guarded_by a
/// held lock, or std::atomic (parallel-shared-write); calls out of a
/// region must reach functions annotated `// analock: thread_safe` and
/// must not touch mutable static state (parallel-unsafe-call).
void run_parallel_analysis(const std::vector<ParsedFile>& files,
                           const CallGraph& graph, int max_depth,
                           std::vector<Finding>& out);

/// Lock-order cycle detection: builds a lock-acquisition graph from
/// nested lock scopes plus `requires(m)` summaries and call-through
/// acquisitions across TUs; every edge on a cycle is reported as a
/// potential deadlock (lock-order-cycle).
void run_lock_order_analysis(const std::vector<ParsedFile>& files,
                             const CallGraph& graph,
                             std::vector<Finding>& out);

/// FP bit-exactness rules, scoped to batch-lane code (receiver_batch,
/// batch_evaluator, fft_plan, or any file annotated `// analock:
/// bit_exact`): reassociable reductions and thread-count-dependent
/// accumulation (fp-reassoc), and fused-multiply-add expressions
/// (fp-contract).
void run_fp_exact_analysis(const std::vector<ParsedFile>& files,
                           std::vector<Finding>& out);

/// Constant-time flow: secret-dependent control flow (secret-branch),
/// data-dependent memory access (secret-index), operand-dependent
/// latency and loop shapes (vartime-op), and secrets passed to known
/// variable-time library callees (ct-leak-call). Per-function
/// returns-secret / param-flows-to-branch/index/vartime summaries come
/// from the shared secret-flow fixed point; `// analock: ct_safe`
/// blesses a reviewed constant-time function (ct_equal implicitly) and
/// `// analock: declassified(reason)` marks an audited deliberate
/// release on its line and the line below.
void run_ct_flow_analysis(const std::vector<ParsedFile>& files,
                          const CallGraph& graph, int max_depth,
                          std::vector<Finding>& out);

// Helpers that more than one pass uses.

/// A half-open source-offset range [first, second).
using OffsetRange = std::pair<std::size_t, std::size_t>;

/// True when `offset` falls inside one of `ranges` (determinism.cpp).
bool inside_any(const std::vector<OffsetRange>& ranges, std::size_t offset);

/// True when `fn` holds a lock on `mutex_name` at `offset`; "mu_",
/// "this->mu_" and "other.mu_" all name "mu_" (locks.cpp).
bool held_at(const FunctionDef& fn, const std::string& mutex_name,
             std::size_t offset);

}  // namespace analock::analysis
