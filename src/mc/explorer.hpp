// starmc: a stateless model checker for the starvm engine's deterministic
// simulation mode (docs/MODEL_CHECKING.md).
//
// The engine's kDeterministic mode runs the whole simulation single-threaded
// under one mutex, with every scheduling tie broken canonically. That makes
// each *individual* execution reproducible — but the production (hybrid)
// engine resolves the same ties by OS-thread timing, so a bug that needs an
// unusual release order or queue-pop order never shows up in one canonical
// run. The explorer closes that gap: it drives the deterministic engine
// through *every* reduced interleaving of its choice points (dependency
// release order, per-device ready-queue pops, placement-class member ties,
// fault firing, blacklist re-routing) and checks safety invariants at every
// terminal state.
//
// Exploration is stateless in the model-checking sense (Godefroot's VeriSoft
// lineage): no engine state is saved or restored. Each node of the decision
// tree is visited by running a *fresh* engine from scratch with a replay
// oracle that forces the decision prefix and takes the canonical alternative
// beyond it. Sleep-set partial-order reduction prunes interleavings that
// only reorder independent schedule picks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "starvm/device.hpp"
#include "starvm/engine.hpp"
#include "starvm/oracle.hpp"
#include "starvm/stats.hpp"

namespace mc {

/// A model-checkable program: how to build the engine, what to submit, and
/// (optionally) how to judge the result.
///
/// `make_config` must produce a simulation-mode config (kDeterministic or
/// kPureSim); the explorer installs its own oracle into the copy it uses.
/// `body` submits work; the explorer calls wait_all() itself afterwards, so
/// the body may also wait mid-stream (interleaving-sensitive tests do).
struct Program {
  std::function<starvm::EngineConfig()> make_config;
  std::function<void(starvm::Engine&)> body;

  /// Hash of program outputs (buffer contents) after a run; 0-arg because
  /// the program owns its storage. Null disables the divergent-replay
  /// (A602) output comparison.
  std::function<std::uint64_t()> output_hash;

  /// May tasks a and b conflict (same data, ordered, or otherwise
  /// non-commuting)? Used by the sleep-set independence relation; null
  /// means "assume everything conflicts", which disables pruning but stays
  /// sound.
  std::function<bool(starvm::TaskId, starvm::TaskId)> conflicts;

  /// Tasks the body submits (engine ids are dense 1..expected_tasks).
  /// 0 disables the lost-task (A601) accounting.
  std::size_t expected_tasks = 0;
};

struct Options {
  /// Branch points per execution considered for branching; deeper choice
  /// points follow the canonical alternative. Hitting the cap sets
  /// Result::truncated.
  std::size_t max_depth = 256;

  /// Engine executions budget, the canonical run and its replay check
  /// included: no more than this many engines run. Hitting it sets
  /// Result::truncated.
  std::size_t max_runs = 200000;

  /// Sleep-set partial-order reduction. Off = naive DFS over the full
  /// decision tree (the baseline the DPOR ratio is measured against).
  bool dpor = true;

  /// Compare every terminal state's output hash against the canonical
  /// (all-zero decision) run and report divergence as A602.
  bool check_serial = true;

  /// Execute the canonical run twice and require identical decision
  /// vectors and state hashes (byte-stable replay regression, A602).
  bool replay_check = true;
};

/// One recorded branch point: the choice the engine offered and the
/// alternative the oracle picked.
struct RecordedChoice {
  starvm::ChoicePoint point;
  int chosen = 0;
};

/// One forced (single-alternative) transition, kept so counterexample
/// traces show the full schedule, not just the branch points.
struct ForcedStep {
  starvm::ChoiceKind kind = starvm::ChoiceKind::kSchedule;
  starvm::TaskId task = 0;
  starvm::DeviceId device = -1;
  /// Branch points recorded before this step; orders forced steps
  /// relative to RecordedChoice entries.
  std::size_t after_choice = 0;
};

/// One terminal execution of the program under a decision prefix.
struct RunOutcome {
  std::vector<RecordedChoice> choices;
  std::vector<ForcedStep> forced;
  starvm::EngineStats stats;
  bool wait_ok = true;
  std::string wait_message;
  std::uint64_t output_hash = 0;
  /// Hash over the observable terminal state (trace, errors, outputs);
  /// identical decision vectors must produce identical state hashes.
  std::uint64_t state_hash = 0;
};

/// A violated invariant with a replayable counterexample.
struct Finding {
  std::string rule;     ///< "A601-deadlock" ... "A604-unbounded-retry-cycle"
  std::string message;  ///< what went wrong in this terminal state
  std::vector<int> trace;       ///< decision vector reproducing it
  std::size_t occurrences = 1;  ///< terminal states violating this rule
};

struct Result {
  std::size_t runs = 0;           ///< engine executions performed
  std::size_t terminals = 0;      ///< distinct terminal states checked
  std::size_t branch_points = 0;  ///< interior nodes of the decision tree
  std::size_t sleep_pruned = 0;   ///< subtrees skipped by the sleep set
  /// Root alternatives skipped by device-symmetry reduction (an initial
  /// placement-class tie among history-free identical devices).
  std::size_t symmetry_pruned = 0;
  bool truncated = false;         ///< a budget/depth cap was hit
  std::vector<Finding> findings;  ///< one entry per rule, first counterexample
};

/// Depth-first stateless explorer with sleep-set partial-order reduction.
class Explorer {
 public:
  Explorer(Program program, Options options);

  /// Explore the reduced decision tree; checks invariants at every
  /// terminal state. Safe to call repeatedly (each call starts fresh).
  Result explore();

  /// Re-execute one decision vector (counterexample replay). Runs a fresh
  /// engine; does not touch exploration state. A non-empty
  /// `flight_dump_prefix` writes the replay's flight recorder to
  /// <prefix>.jsonl / <prefix>.trace.json before the engine is destroyed.
  RunOutcome replay(const std::vector<int>& decisions,
                    const std::string& flight_dump_prefix = {}) const;

 private:
  /// (kind, task, device) identity of one alternative, the unit the sleep
  /// set reasons about.
  struct Key {
    starvm::ChoiceKind kind = starvm::ChoiceKind::kSchedule;
    starvm::TaskId task = 0;
    starvm::DeviceId device = -1;
    bool operator==(const Key& other) const {
      return kind == other.kind && task == other.task &&
             device == other.device;
    }
  };

  RunOutcome execute(const std::vector<int>& prefix,
                     const std::string& flight_dump_prefix = {}) const;
  void explore_node(std::vector<int>& prefix, std::vector<Key> sleep,
                    const RunOutcome* reuse, Result* result) const;
  void check_terminal(const RunOutcome& run, const std::vector<int>& prefix,
                      Result* result) const;
  bool independent(const Key& a, const Key& b) const;
  void add_finding(Result* result, const std::string& rule,
                   const std::string& message,
                   const std::vector<int>& trace) const;

  Program program_;
  Options options_;
  mutable bool canonical_known_ = false;
  mutable std::uint64_t canonical_hash_ = 0;
  /// Retry ceiling derived from the program's config (engine budget and
  /// per-device overrides); attempts beyond it are A604.
  mutable int attempt_ceiling_ = 0;
};

/// Serialize a terminal execution as a replayable decision-trace JSON
/// document (schema: docs/MODEL_CHECKING.md "Counterexample format").
std::string trace_to_json(const RunOutcome& run);

}  // namespace mc
