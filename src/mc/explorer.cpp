#include "mc/explorer.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "mc/invariants.hpp"

namespace mc {

namespace {

/// The oracle the explorer installs into each fresh engine: forces the
/// decision prefix, takes the canonical alternative (0) beyond it, and
/// records every branch point and forced step it sees. All calls happen
/// on the single simulation thread with the engine mutex held.
class ReplayOracle final : public starvm::DecisionOracle {
 public:
  explicit ReplayOracle(const std::vector<int>* prefix) : prefix_(prefix) {}

  int choose(const starvm::ChoicePoint& cp) override {
    int pick = 0;
    if (index_ < prefix_->size()) {
      pick = (*prefix_)[index_];
      // A stale prefix (shrunk alternative set on replay) falls back to
      // canonical rather than indexing out of range; the state-hash
      // comparison then reports the divergence.
      if (pick < 0 || static_cast<std::size_t>(pick) >= cp.alts.size()) {
        pick = 0;
      }
    }
    ++index_;
    recorded_.push_back({cp, pick});
    return pick;
  }

  void note(starvm::ChoiceKind kind, starvm::TaskId task,
            starvm::DeviceId device) override {
    forced_.push_back({kind, task, device, recorded_.size()});
  }

  std::vector<RecordedChoice> take_choices() { return std::move(recorded_); }
  std::vector<ForcedStep> take_forced() { return std::move(forced_); }

 private:
  const std::vector<int>* prefix_;
  std::size_t index_ = 0;
  std::vector<RecordedChoice> recorded_;
  std::vector<ForcedStep> forced_;
};

void append_json_escaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

Explorer::Explorer(Program program, Options options)
    : program_(std::move(program)), options_(options) {
  assert(program_.make_config && program_.body);
  // Attempt ceiling for A604: the engine-wide retry budget, raised by any
  // per-device override, plus the initial attempt.
  const starvm::EngineConfig config = program_.make_config();
  int retries = config.fault_tolerance.max_retries;
  for (const starvm::DeviceSpec& spec : config.devices) {
    retries = std::max(retries, spec.max_retries);
  }
  attempt_ceiling_ = retries + 1;
}

RunOutcome Explorer::execute(const std::vector<int>& prefix,
                             const std::string& flight_dump_prefix) const {
  ReplayOracle oracle(&prefix);
  starvm::EngineConfig config = program_.make_config();
  // The explorer only steers the single-threaded simulation; a hybrid
  // config would race real threads against the replay prefix.
  if (config.mode == starvm::ExecutionMode::kHybrid) {
    config.mode = starvm::ExecutionMode::kDeterministic;
  }
  config.oracle = &oracle;

  RunOutcome run;
  {
    starvm::Engine engine(config);
    program_.body(engine);
    const pdl::util::Status status = engine.wait_all();
    run.wait_ok = status.ok();
    if (!status.ok()) run.wait_message = status.error().str();
    run.stats = engine.stats();
    if (!flight_dump_prefix.empty()) {
      engine.dump_flight_recorder(flight_dump_prefix, "starmc counterexample");
    }
  }
  run.choices = oracle.take_choices();
  run.forced = oracle.take_forced();
  run.output_hash = program_.output_hash ? program_.output_hash() : 0;
  run.state_hash = state_hash(run.stats, run.output_hash);
  return run;
}

RunOutcome Explorer::replay(const std::vector<int>& decisions,
                            const std::string& flight_dump_prefix) const {
  return execute(decisions, flight_dump_prefix);
}

bool Explorer::independent(const Key& a, const Key& b) const {
  // Without conflict information everything is dependent — no pruning,
  // but sound.
  if (!program_.conflicts) return false;
  // Schedule picks commute when they run different, non-conflicting tasks
  // on different devices: neither pop changes what the other returns, and
  // the executions touch disjoint data.
  if (a.kind == starvm::ChoiceKind::kSchedule &&
      b.kind == starvm::ChoiceKind::kSchedule) {
    return a.task != b.task && a.device != b.device &&
           !program_.conflicts(a.task, b.task);
  }
  // Releases of two non-conflicting successors commute: a push never
  // advances a device's virtual clock, and HEFT's placement estimate reads
  // device avail times (not queue contents), so either push order yields
  // the same placements. Everything else — member ties, fault steps, and
  // any cross-kind pair (a schedule pop advances a clock, which can move a
  // later placement estimate) — stays dependent.
  if (a.kind == starvm::ChoiceKind::kRelease &&
      b.kind == starvm::ChoiceKind::kRelease) {
    return a.task != b.task && !program_.conflicts(a.task, b.task);
  }
  return false;
}

void Explorer::add_finding(Result* result, const std::string& rule,
                           const std::string& message,
                           const std::vector<int>& trace) const {
  for (Finding& f : result->findings) {
    if (f.rule == rule) {
      ++f.occurrences;
      return;  // keep the first counterexample per rule
    }
  }
  Finding f;
  f.rule = rule;
  f.message = message;
  f.trace = trace;
  result->findings.push_back(std::move(f));
}

void Explorer::check_terminal(const RunOutcome& run,
                              const std::vector<int>& prefix,
                              Result* result) const {
  ++result->terminals;
  InvariantContext ctx;
  ctx.expected_tasks = program_.expected_tasks;
  ctx.attempt_ceiling = attempt_ceiling_;
  ctx.check_serial = options_.check_serial && program_.output_hash != nullptr;
  ctx.has_canonical = canonical_known_;
  ctx.canonical_hash = canonical_hash_;
  for (const Violation& v : check_invariants(run, ctx)) {
    add_finding(result, v.rule, v.message, prefix);
  }
}

void Explorer::explore_node(std::vector<int>& prefix, std::vector<Key> sleep,
                            const RunOutcome* reuse, Result* result) const {
  if (result->truncated) return;
  RunOutcome local;
  const RunOutcome* run = reuse;
  if (run == nullptr) {
    if (result->runs >= options_.max_runs) {
      result->truncated = true;
      return;
    }
    local = execute(prefix);
    ++result->runs;
    run = &local;
  }

  const std::size_t depth = prefix.size();

  // Classical sleep-set semantics walks *every* transition on the edge
  // into this node, not just the branch point that ended it: a forced
  // (single-alternative) step whose key is asleep proves this whole path
  // is Mazurkiewicz-equivalent to one already explored — prune the
  // subtree. Forced steps with after_choice == depth ran after branch
  // point depth-1 was resolved and before branch point depth.
  if (options_.dpor) {
    for (const ForcedStep& fs : run->forced) {
      if (fs.after_choice != depth) continue;
      const Key key{fs.kind, fs.task, fs.device};
      if (std::find(sleep.begin(), sleep.end(), key) != sleep.end()) {
        ++result->sleep_pruned;
        return;
      }
      std::vector<Key> filtered;
      for (const Key& s : sleep) {
        if (independent(s, key)) filtered.push_back(s);
      }
      sleep = std::move(filtered);
    }
  }

  if (depth >= run->choices.size()) {
    check_terminal(*run, prefix, result);
    return;
  }
  if (depth >= options_.max_depth) {
    // Branch points remain beyond the cap; the run itself (canonical from
    // here on) is still a real terminal state worth checking.
    result->truncated = true;
    check_terminal(*run, prefix, result);
    return;
  }

  ++result->branch_points;
  // Copy the branch point: `run` may point at a child's storage once we
  // recurse and must not be read after that for j > 0.
  const starvm::ChoicePoint cp = run->choices[depth].point;

  // Device-symmetry reduction: when the very first transition of the
  // execution is a placement-class member tie, the candidate devices have
  // identical specs (that is what a placement class is) and empty
  // histories, so the alternatives differ only by device relabeling and
  // one representative suffices.
  const bool symmetric_root =
      options_.dpor && depth == 0 &&
      cp.kind == starvm::ChoiceKind::kMember &&
      std::none_of(run->forced.begin(), run->forced.end(),
                   [](const ForcedStep& fs) { return fs.after_choice == 0; });

  std::vector<Key> done;
  for (std::size_t j = 0; j < cp.alts.size(); ++j) {
    if (symmetric_root && j > 0) {
      result->symmetry_pruned += cp.alts.size() - j;
      break;
    }
    const Key key{cp.kind, cp.alts[j].task, cp.alts[j].device};
    if (options_.dpor &&
        std::find(sleep.begin(), sleep.end(), key) != sleep.end()) {
      ++result->sleep_pruned;
      done.push_back(key);
      continue;
    }
    std::vector<Key> child_sleep;
    if (options_.dpor) {
      for (const Key& s : sleep) {
        if (independent(s, key)) child_sleep.push_back(s);
      }
      for (const Key& s : done) {
        if (independent(s, key)) child_sleep.push_back(s);
      }
    }
    prefix.push_back(static_cast<int>(j));
    // The current run already embodies alternative 0 beyond the prefix —
    // reuse it for the leftmost child instead of re-executing.
    explore_node(prefix, std::move(child_sleep), j == 0 ? run : nullptr,
                 result);
    prefix.pop_back();
    if (result->truncated) return;
    done.push_back(key);
  }
}

Result Explorer::explore() {
  Result result;
  canonical_known_ = false;
  canonical_hash_ = 0;

  std::vector<int> prefix;
  if (options_.max_runs == 0) {
    result.truncated = true;
    return result;
  }
  RunOutcome root = execute(prefix);
  ++result.runs;
  canonical_hash_ = root.output_hash;
  canonical_known_ = program_.output_hash != nullptr;

  // The replay check costs a second run; a budget of one run skips it and
  // reports the exploration as truncated.
  const bool replay = options_.replay_check && result.runs < options_.max_runs;
  if (replay) {
    // Byte-stable replay: a second fresh engine driven by the same (empty)
    // prefix must make identical decisions and reach an identical state.
    RunOutcome again = execute(prefix);
    ++result.runs;
    bool same = again.choices.size() == root.choices.size() &&
                again.state_hash == root.state_hash;
    for (std::size_t i = 0; same && i < root.choices.size(); ++i) {
      same = again.choices[i].chosen == root.choices[i].chosen &&
             again.choices[i].point.alts.size() ==
                 root.choices[i].point.alts.size();
    }
    if (!same) {
      add_finding(&result, "A602-divergent-replay",
                  "two fresh engines replaying the same decision vector "
                  "diverged (decision count " +
                      std::to_string(root.choices.size()) + " vs " +
                      std::to_string(again.choices.size()) +
                      ", state hash " + std::to_string(root.state_hash) +
                      " vs " + std::to_string(again.state_hash) + ")",
                  prefix);
    }
  }

  explore_node(prefix, {}, &root, &result);
  if (options_.replay_check && !replay) result.truncated = true;
  return result;
}

std::string trace_to_json(const RunOutcome& run) {
  std::string out = "{\n  \"schema\": \"starmc-trace-v1\",\n  \"decisions\": [";
  for (std::size_t i = 0; i < run.choices.size(); ++i) {
    const RecordedChoice& rc = run.choices[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"index\": " + std::to_string(i) + ", \"kind\": \"" +
           std::string(starvm::to_string(rc.point.kind)) +
           "\", \"chosen\": " + std::to_string(rc.chosen) + ", \"alts\": [";
    for (std::size_t a = 0; a < rc.point.alts.size(); ++a) {
      if (a > 0) out += ", ";
      out += "{\"task\": " + std::to_string(rc.point.alts[a].task) +
             ", \"device\": " + std::to_string(rc.point.alts[a].device) + "}";
    }
    out += "]}";
  }
  out += "\n  ],\n  \"forced\": [";
  for (std::size_t i = 0; i < run.forced.size(); ++i) {
    const ForcedStep& fs = run.forced[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"kind\": \"" + std::string(starvm::to_string(fs.kind)) +
           "\", \"task\": " + std::to_string(fs.task) +
           ", \"device\": " + std::to_string(fs.device) +
           ", \"after_choice\": " + std::to_string(fs.after_choice) + "}";
  }
  out += "\n  ],\n  \"terminal\": {";
  out += "\"tasks_completed\": " + std::to_string(run.stats.tasks_completed);
  out += ", \"failed_tasks\": " + std::to_string(run.stats.failed_tasks);
  out += ", \"cancelled_tasks\": " + std::to_string(run.stats.cancelled_tasks);
  out += ", \"makespan_seconds\": " + std::to_string(run.stats.makespan_seconds);
  out += ", \"output_hash\": " + std::to_string(run.output_hash);
  out += ", \"state_hash\": " + std::to_string(run.state_hash);
  out += "},\n  \"wait_status\": \"";
  if (run.wait_ok) {
    out += "ok";
  } else {
    append_json_escaped(&out, run.wait_message);
  }
  out += "\"\n}\n";
  return out;
}

}  // namespace mc
