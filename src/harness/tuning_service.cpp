#include "harness/tuning_service.hpp"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "apps/registry.hpp"
#include "common/error.hpp"
#include "harness/campaign.hpp"
#include "harness/explorer.hpp"
#include "pragma/parser.hpp"
#include "sim/device.hpp"

namespace hpac::harness {

/// Benchmark + Explorer pair kept alive across queries so the accurate
/// baseline is computed once per (benchmark, device). Only the single
/// active evaluator thread touches engines, so no lock guards them.
struct TuningService::Engine {
  std::unique_ptr<Benchmark> app;
  std::unique_ptr<Explorer> explorer;
};

TuningService::TuningService(ResultStore& store, TuningServiceConfig config)
    : store_(store), config_(std::move(config)) {
  HPAC_REQUIRE(config_.max_pending > 0,
               "tuning service needs a positive admission bound");
  HPAC_REQUIRE(config_.max_eval_failures > 0,
               "tuning service needs a positive evaluation retry budget");
}

TuningService::~TuningService() = default;

TuningService::Stats TuningService::stats() const {
  common::MutexLock lock(mutex_);
  return stats_;
}

bool TuningService::nearest_known(const ResultStore::Snapshot& snap,
                                  const Pending& pending, RunRecord& out) {
  // A degraded answer must still be *about* the asked benchmark — a
  // blackscholes config says nothing about kmeans. Within the benchmark,
  // prefer (in order) feasible configs, the asked device, the asked
  // technique, then the closest items-per-thread; final ties break on
  // spec text and append order, so the choice is deterministic across
  // runs and store layouts.
  const TuningQuery& q = pending.query;
  bool found = false;
  int best_score = -1;
  std::uint64_t best_ipt_gap = 0;
  snap.for_each([&](const RunRecord& record) {
    if (record.benchmark != q.benchmark) return;
    const int score = (record.feasible ? 8 : 0) + (record.device == q.device ? 4 : 0) +
                      (record.technique == pending.spec.technique ? 2 : 0);
    const std::uint64_t ipt_gap = record.items_per_thread > q.items_per_thread
                                      ? record.items_per_thread - q.items_per_thread
                                      : q.items_per_thread - record.items_per_thread;
    const bool better =
        !found || score > best_score ||
        (score == best_score &&
         (ipt_gap < best_ipt_gap ||
          (ipt_gap == best_ipt_gap && record.spec_text < out.spec_text)));
    if (better) {
      out = record;
      best_score = score;
      best_ipt_gap = ipt_gap;
      found = true;
    }
  });
  return found;
}

TuningAnswer TuningService::degrade_or(TuningStatus fallback, const Pending& pending,
                                       const std::string& reason) {
  TuningAnswer answer;
  answer.error = reason;
  RunRecord nearest;
  if (nearest_known(store_.snapshot(), pending, nearest)) {
    answer.status = TuningStatus::kDegraded;
    answer.record = nearest;
    ++stats_.degraded;
  } else {
    answer.status = fallback;
    if (fallback == TuningStatus::kRejected) ++stats_.rejected;
  }
  return answer;
}

TuningAnswer TuningService::query(const TuningQuery& query, const std::string& client) {
  TuningAnswer answer;

  // --- validate and canonicalize: aliases ("nvidia") and equivalent spec
  // spellings must resolve to the store key a campaign would have used ---
  Pending pending;
  try {
    if (!apps::is_benchmark(query.benchmark)) {
      throw ConfigError("unknown benchmark: " + query.benchmark);
    }
    HPAC_REQUIRE(query.items_per_thread > 0, "items-per-thread must be positive");
    const sim::DeviceConfig device = sim::device_by_name(query.device);
    pending.spec = pragma::parse_approx(query.spec_text);
    pending.query = query;
    pending.query.device = device.name;
    pending.query.spec_text = pending.spec.to_string();
    pending.key = Campaign::tuple_key(pending.query.benchmark, pending.query.device,
                                      pending.query.spec_text, query.items_per_thread);
  } catch (const Error& e) {
    common::MutexLock lock(mutex_);
    ++stats_.queries;
    answer.error = e.what();
    return answer;  // status defaults to kError
  }
  const std::string key = pending.key;

  // --- memoized fast path: one snapshot load, no evaluation machinery ---
  {
    const ResultStore::Snapshot snap = store_.snapshot();
    if (const RunRecord* hit = snap.find_key(key)) {
      answer.record = *hit;  // copy out before the snapshot dies
      answer.status = TuningStatus::kOk;
      answer.memoized = true;
      common::MutexLock lock(mutex_);
      ++stats_.queries;
      ++stats_.memoized;
      return answer;
    }
  }

  const Clock::time_point deadline =
      query.deadline_ms > 0 ? Clock::now() + std::chrono::milliseconds(query.deadline_ms)
                            : Clock::time_point::max();

  common::UniqueMutexLock lock(mutex_);
  ++stats_.queries;

  // --- unified admission/evaluation loop. One loop instead of an admit
  // phase followed by a wait phase: with deadlines, the thread that
  // admitted a tuple may depart before it is evaluated, so ANY thread
  // whose key is pending must be able to become the evaluator — otherwise
  // coalesced waiters hang on work nobody owns. ---
  bool we_admitted = false;  // our queue entry exists (we pushed it)
  bool waited = false;       // we slept at least once on someone's progress
  for (;;) {
    {
      const ResultStore::Snapshot snap = store_.snapshot();
      if (const RunRecord* hit = snap.find_key(key)) {
        answer.record = *hit;
        answer.status = TuningStatus::kOk;
        if (we_admitted || waited) {
          answer.memoized = false;
          if (!we_admitted) ++stats_.coalesced;
        } else {
          answer.memoized = true;  // raced with a concurrent producer: still free
          ++stats_.memoized;
        }
        return answer;
      }
    }

    // Quarantine: a tuple that exhausted its retry budget never reaches
    // the evaluator again — it answers from the nearest known config, or
    // reports its recorded failure. The daemon outlives any poisonous
    // tuple.
    if (const auto it = failures_.find(key);
        it != failures_.end() && it->second.count >= config_.max_eval_failures) {
      return degrade_or(TuningStatus::kError, pending,
                        "tuple quarantined after " + std::to_string(it->second.count) +
                            " failed evaluations: " + it->second.last_error);
    }

    if (Clock::now() >= deadline) {
      ++stats_.deadline_exceeded;
      return degrade_or(TuningStatus::kDeadlineExceeded, pending,
                        "deadline of " + std::to_string(query.deadline_ms) +
                            "ms elapsed before evaluation");
    }

    if (config_.read_only) {
      return degrade_or(TuningStatus::kError, pending,
                        "tuple not in store and service is read-only");
    }

    const bool key_inflight = inflight_.count(key) != 0;
    // Our entry was consumed but the tuple is not in the store: the
    // evaluation failed. Re-admit (the quarantine check above bounds how
    // often) — this is where a tuple's retry budget is spent.
    if (we_admitted && !key_inflight) we_admitted = false;
    if (!key_inflight && !we_admitted) {
      if (pending_total_ >= config_.max_pending) {
        // Saturation: availability over exactness — answer with the
        // nearest known config rather than turning load into failure.
        // kRejected only when the store has nothing useful.
        return degrade_or(TuningStatus::kRejected, pending,
                          "admission queue full (" +
                              std::to_string(config_.max_pending) +
                              " tuples pending)");
      }
      auto& queue = queues_[client];
      if (queue.empty()) rotation_.push_back(client);
      inflight_.insert(key);
      queue.push_back(pending);  // keep `pending` — degraded paths still need it
      ++pending_total_;
      we_admitted = true;
      continue;
    }
    if (key_inflight && !we_admitted) waited = true;

    if (!evaluator_running_ && pending_total_ > 0) {
      // Work-conserving: whichever thread finds queued work and no
      // evaluator becomes the evaluator, draining the whole queue in fair
      // order. One evaluator at a time keeps the engine cache lock-free.
      evaluator_running_ = true;
      run_evaluator(deadline);  // absorbs evaluation failures
      evaluator_running_ = false;
      progress_.notify_all();
      continue;
    }
    if (deadline == Clock::time_point::max()) {
      progress_.wait(lock);
    } else {
      progress_.wait_until(lock, deadline);
    }
  }
}

void TuningService::run_evaluator(Clock::time_point deadline) {
  while (pending_total_ > 0) {
    // Stop before starting an evaluation we have no time for; the queue
    // survives for the next thread that picks up the evaluator role.
    if (Clock::now() >= deadline) return;
    Pending next = take_next_fair();
    // Drop the caller's lock around the evaluation (on the mutex itself,
    // not the caller's scoped guard — the guard is restored to "locked"
    // before returning, so its view of ownership never diverges). Nothing
    // in the unlocked region can throw: evaluate() is fully absorbed.
    mutex_.unlock();
    RunRecord record;
    bool ok = false;
    std::string failure;
    try {
      record = evaluate(next);
      ok = true;
    } catch (const std::exception& e) {
      failure = e.what();
    } catch (...) {
      failure = "evaluation failed with a non-standard exception";
    }
    mutex_.lock();
    if (ok) {
      // A concurrent campaign on the same store may have produced the
      // tuple while we evaluated; first writer wins, the store stays
      // consistent.
      store_.append_if_absent(record);
      ++stats_.evaluated;
      failures_.erase(next.key);
    } else {
      // Crash isolation: the failure is bookkeeping, never a throw — the
      // daemon must outlive any tuple that takes the evaluator down. The
      // querying thread re-admits on its next loop pass, giving the tuple
      // its bounded retry budget.
      auto& state = failures_[next.key];
      ++state.count;
      state.last_error = failure;
      ++stats_.eval_failures;
      if (state.count == config_.max_eval_failures) ++stats_.quarantined;
    }
    inflight_.erase(next.key);
    --pending_total_;
    progress_.notify_all();
  }
}

TuningService::Pending TuningService::take_next_fair() {
  HPAC_REQUIRE(!rotation_.empty(), "fair pick on an empty admission queue");
  if (rotation_next_ >= rotation_.size()) rotation_next_ = 0;
  const std::string client = rotation_[rotation_next_];
  const auto it = queues_.find(client);
  Pending next = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) {
    // Client leaves the rotation; the cursor now points at its successor.
    queues_.erase(it);
    rotation_.erase(rotation_.begin() + static_cast<std::ptrdiff_t>(rotation_next_));
  } else {
    ++rotation_next_;
  }
  return next;
}

RunRecord TuningService::evaluate(const Pending& pending) {
  RunRecord record;
  if (config_.evaluate_override) {
    record = config_.evaluate_override(pending.query, pending.spec);
  } else {
    const std::string engine_key = pending.query.benchmark + '\x1f' + pending.query.device;
    auto it = engines_.find(engine_key);
    if (it == engines_.end()) {
      auto engine = std::make_unique<Engine>();
      engine->app = apps::make_benchmark(pending.query.benchmark);
      engine->explorer = std::make_unique<Explorer>(
          *engine->app, sim::device_by_name(pending.query.device));
      it = engines_.emplace(engine_key, std::move(engine)).first;
    }
    record = it->second->explorer
                 ->measure_configs({ConfigRequest{pending.spec,
                                                  pending.query.items_per_thread}},
                                   /*num_threads=*/1)
                 .front();
  }
  // Canonical identity regardless of what the evaluator filled in, so the
  // stored key always matches the admitted key.
  record.benchmark = pending.query.benchmark;
  record.device = pending.query.device;
  record.items_per_thread = pending.query.items_per_thread;
  record.set_spec(pending.spec);
  return record;
}

}  // namespace hpac::harness
