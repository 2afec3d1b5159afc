#include "harness/campaign.hpp"

#include <atomic>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "approx/audit.hpp"
#include "common/annotated_mutex.hpp"
#include "apps/registry.hpp"
#include "common/error.hpp"
#include "common/scheduler.hpp"
#include "common/strings.hpp"
#include "harness/explorer.hpp"
#include "harness/params.hpp"

namespace hpac::harness {

namespace {

std::vector<pragma::ApproxSpec> curated_specs_for(const sim::DeviceConfig& device) {
  std::vector<pragma::ApproxSpec> specs = curated_taf_specs(table2::hierarchies());
  for (auto& s : curated_iact_specs(device.warp_size, table2::hierarchies())) {
    specs.push_back(std::move(s));
  }
  for (auto& s : curated_perfo_specs()) specs.push_back(std::move(s));
  return specs;
}

/// Hands the pending (benchmark, device) pairs of one Campaign::run to its
/// participants: to owners in plan order, then, once none is left
/// unowned, to helpers of the published pair with the most unclaimed
/// tuples. Owner and helpers claim the pair's tuples from one cursor.
class PairBoard {
 public:
  struct Pair {
    std::size_t shard = 0;
    /// Shard-relative offsets of the tuples to evaluate, in plan order.
    /// Restored tuples never enter it.
    std::vector<std::size_t> tuples;
  };

  /// What a participant works on next. `prototype` and `baseline` are
  /// null for the pair's owner and the pair's published state for a
  /// helper.
  struct Assignment {
    std::size_t pair = 0;
    std::shared_ptr<const Benchmark> prototype;
    std::shared_ptr<const BaselineSummary> baseline;
  };

  explicit PairBoard(std::vector<Pair> pairs)
      : pairs_(std::move(pairs)), cursors_(pairs_.size()), published_(pairs_.size()) {}

  /// The campaign mutex. Guards the board's pair state; Campaign::run
  /// also holds it to fill record slots and append to the journal.
  common::Mutex mutex;

  const Pair& pair(std::size_t p) const { return pairs_[p]; }

  /// The next pair to own, else the published pair with the most
  /// unclaimed tuples to help. Waits while the only work left is behind
  /// baselines still being computed; nullopt once nothing is left or a
  /// participant failed. The wait holds a scheduler thread, but never
  /// deadlocks: an owner computing its baseline joins only its own nested
  /// launches, never a waiting participant.
  std::optional<Assignment> next() EXCLUDES(mutex) {
    common::UniqueMutexLock lock(mutex);
    for (;;) {
      if (failed_.load()) return std::nullopt;
      if (next_owned_ < pairs_.size()) {
        ++unpublished_;
        return Assignment{next_owned_++, nullptr, nullptr};
      }
      std::size_t best = pairs_.size();
      std::size_t most = 0;
      for (std::size_t p = 0; p < pairs_.size(); ++p) {
        const std::size_t left = unclaimed(p);
        if (published_[p].prototype && left > most) {
          best = p;
          most = left;
        }
      }
      if (best < pairs_.size()) {
        return Assignment{best, published_[best].prototype, published_[best].baseline};
      }
      if (unpublished_ == 0) return std::nullopt;
      changed_.wait(lock);
    }
  }

  /// Owner: make the pair helpable.
  void publish(std::size_t p, std::shared_ptr<const Benchmark> prototype,
               std::shared_ptr<const BaselineSummary> baseline) EXCLUDES(mutex) {
    {
      common::MutexLock lock(mutex);
      published_[p] = Published{std::move(prototype), std::move(baseline)};
      --unpublished_;
    }
    changed_.notify_all();
  }

  /// Claim the pair's next tuple offset; nullopt once the cursor is
  /// drained (the pair then drops its prototype and baseline) or after a
  /// participant failed.
  std::optional<std::size_t> next_tuple(std::size_t p) EXCLUDES(mutex) {
    if (failed_.load()) return std::nullopt;
    const std::size_t i = cursors_[p].fetch_add(1);
    if (i < pairs_[p].tuples.size()) return pairs_[p].tuples[i];
    common::MutexLock lock(mutex);
    published_[p] = Published{};
    return std::nullopt;
  }

  /// A participant threw: stop every claim and wake waiting helpers.
  void fail() EXCLUDES(mutex) {
    {
      common::MutexLock lock(mutex);
      failed_.store(true);
    }
    changed_.notify_all();
  }

 private:
  struct Published {
    std::shared_ptr<const Benchmark> prototype;  ///< pristine: never run, only forked
    std::shared_ptr<const BaselineSummary> baseline;
  };

  std::size_t unclaimed(std::size_t p) const {
    const std::size_t claimed = cursors_[p].load();
    return claimed < pairs_[p].tuples.size() ? pairs_[p].tuples.size() - claimed : 0;
  }

  const std::vector<Pair> pairs_;
  /// Next index into each pair's `tuples`, claimed without the mutex.
  std::vector<std::atomic<std::size_t>> cursors_;
  /// Set under the mutex (waiters must not miss it), read without it.
  std::atomic<bool> failed_{false};
  common::CondVar changed_;  ///< a pair was published, or a participant failed
  std::size_t next_owned_ GUARDED_BY(mutex) = 0;  ///< pairs [0, next_owned_) have owners
  std::size_t unpublished_ GUARDED_BY(mutex) = 0;  ///< owned pairs still computing a baseline
  /// Per pair: set by publish(), cleared when its cursor is drained.
  std::vector<Published> published_ GUARDED_BY(mutex);
};

}  // namespace

std::string Campaign::tuple_key(const std::string& benchmark, const std::string& device,
                                const std::string& spec_text,
                                std::uint64_t items_per_thread) {
  // '\x1f' (unit separator) cannot appear in names or canonical clause
  // text, so the join is collision-free.
  std::string key;
  key.reserve(benchmark.size() + device.size() + spec_text.size() + 24);
  key += benchmark;
  key += '\x1f';
  key += device;
  key += '\x1f';
  key += spec_text;
  key += '\x1f';
  key += std::to_string(items_per_thread);
  return key;
}

Campaign::Campaign(CampaignPlan plan) : plan_(std::move(plan)) {
  HPAC_REQUIRE(!plan_.benchmarks.empty(), "campaign needs at least one benchmark");
  HPAC_REQUIRE(!plan_.devices.empty(), "campaign needs at least one device");
  HPAC_REQUIRE(!plan_.items_per_thread.empty(),
               "campaign needs at least one items-per-thread value");
  for (const std::uint64_t ipt : plan_.items_per_thread) {
    HPAC_REQUIRE(ipt > 0, "items-per-thread values must be positive");
  }
  for (const auto& name : plan_.benchmarks) {
    if (!apps::is_benchmark(name)) throw ConfigError("unknown benchmark: " + name);
  }

  // Resolve devices eagerly: a bad preset name fails here, and aliases
  // ("nvidia" -> "v100") collapse before the uniqueness check below.
  std::vector<sim::DeviceConfig> devices;
  devices.reserve(plan_.devices.size());
  for (const auto& name : plan_.devices) devices.push_back(sim::device_by_name(name));

  std::unordered_set<std::string> seen;
  for (const auto& device : devices) {
    const auto specs = std::make_shared<const std::vector<pragma::ApproxSpec>>(
        plan_.specs_for ? plan_.specs_for(device) : curated_specs_for(device));
    HPAC_REQUIRE(!specs->empty(), "campaign spec grid is empty for device " + device.name);
    for (const auto& benchmark : plan_.benchmarks) {
      Shard shard;
      shard.benchmark = benchmark;
      shard.device = device;
      shard.specs = specs;
      shard.first_tuple = keys_.size();
      for (const auto& spec : *shard.specs) {
        const std::string spec_text = spec.to_string();
        for (const std::uint64_t ipt : plan_.items_per_thread) {
          std::string key = tuple_key(benchmark, device.name, spec_text, ipt);
          HPAC_REQUIRE(seen.insert(key).second,
                       "duplicate campaign tuple: " + benchmark + " on " + device.name +
                           " '" + spec_text + "' ipt " + std::to_string(ipt));
          keys_.push_back(std::move(key));
        }
      }
      shard.tuple_count = keys_.size() - shard.first_tuple;
      shards_.push_back(std::move(shard));
    }
  }
}

Campaign::ShardView Campaign::shard_view(std::size_t index) const {
  HPAC_REQUIRE(index < shards_.size(), "shard index out of range");
  const Shard& shard = shards_[index];
  return ShardView{shard.benchmark, shard.device, *shard.specs, shard.first_tuple,
                   shard.tuple_count};
}

CampaignResult Campaign::run() {
  // The store re-creates the historical checkpoint behavior exactly:
  // absorb any existing journal (torn tail dropped), append-mode flushed
  // rows while running, canonical-order atomic rewrite at the end — the
  // final CSV is byte-identical to the pre-ResultStore campaign's.
  ResultStore store(plan_.output_path);
  CampaignResult result = run(store);
  store.finalize(result.db);
  return result;
}

CampaignResult Campaign::run(ResultStore& store) {
  CampaignResult result;
  result.planned = keys_.size();
  std::vector<RunRecord> records(keys_.size());
  std::vector<char> done(keys_.size(), 0);

  // --- resume: absorb every plan tuple the store already holds ---
  // Duplicate journal rows were already dropped by the store's load (it
  // indexes the first occurrence per tuple); they count as stale exactly
  // like rows that are not part of this plan.
  result.stale = store.load_stats().duplicates;
  const ResultStore::Snapshot checkpoint = store.snapshot();
  if (!checkpoint.empty()) {
    std::unordered_map<std::string, std::size_t> index_of;
    index_of.reserve(keys_.size());
    for (std::size_t i = 0; i < keys_.size(); ++i) index_of.emplace(keys_[i], i);
    checkpoint.for_each([&](const RunRecord& r) {
      const auto it =
          index_of.find(tuple_key(r.benchmark, r.device, r.spec_text, r.items_per_thread));
      if (it == index_of.end()) {
        ++result.stale;  // not part of this plan
        return;
      }
      records[it->second] = r;
      done[it->second] = 1;
      ++result.restored;
    });
  }

  // Pairs that still have work, each with only its missing tuples: fully
  // restored pairs never build their benchmark or rerun the baseline.
  std::vector<PairBoard::Pair> pending;
  std::size_t tuples_left = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    PairBoard::Pair pair{s, {}};
    for (std::size_t t = 0; t < shards_[s].tuple_count; ++t) {
      if (!done[shards_[s].first_tuple + t]) pair.tuples.push_back(t);
    }
    tuples_left += pair.tuples.size();
    if (!pair.tuples.empty()) pending.push_back(std::move(pair));
  }

  // Two locks with disjoint jobs: `board.mutex` (the campaign mutex)
  // guards the pair board, the record slots and the journal;
  // `callback_mutex` serializes on_record invocations. The callback runs
  // with the campaign mutex *released* — its journal row is already
  // flushed — so a blocked callback stalls only other callbacks, never
  // the journaling by concurrent participants. (Holding the campaign
  // mutex across the callback used to deadlock exactly that pattern.)
  PairBoard board(std::move(pending));
  common::Mutex callback_mutex;
  const std::size_t ipt_count = plan_.items_per_thread.size();

  auto work_on = [&](const PairBoard::Assignment& assignment) {
    const Shard& shard = shards_[board.pair(assignment.pair).shard];
    std::shared_ptr<const Benchmark> prototype = assignment.prototype;
    if (!prototype) prototype = apps::make_benchmark(shard.benchmark);  // owner
    // Every participant drives its own fork; the prototype itself never
    // runs, so helpers can fork it while the owner evaluates.
    const std::unique_ptr<Benchmark> app = prototype->fork();
    HPAC_REQUIRE(app != nullptr, "campaign benchmark " + shard.benchmark + " is not forkable");
    Explorer explorer(*app, shard.device);
    if (assignment.baseline) {
      explorer.seed_baseline(*assignment.baseline);
    } else {
      board.publish(assignment.pair, std::move(prototype),
                    std::make_shared<const BaselineSummary>(explorer.baseline_summary()));
    }
    while (const std::optional<std::size_t> t = board.next_tuple(assignment.pair)) {
      const std::size_t index = shard.first_tuple + *t;
      const RunRecord record = explorer.run_config((*shard.specs)[*t / ipt_count],
                                                   plan_.items_per_thread[*t % ipt_count]);
      {
        common::MutexLock lock(board.mutex);
        records[index] = record;
        // The store flushes the journal row before publishing, so by the
        // time on_record (or any store reader) sees the record it is
        // already durable.
        store.append(record);
        ++result.evaluated;
      }
      if (plan_.on_record) {
        common::MutexLock lock(callback_mutex);
        plan_.on_record(record);
      }
    }
  };
  auto participate = [&] {
    try {
      while (const std::optional<PairBoard::Assignment> assignment = board.next()) {
        work_on(*assignment);
      }
    } catch (...) {
      board.fail();  // no participant claims another tuple
      throw;
    }
  };

  // One scheduler index per participant; the scheduler rethrows the first
  // exception once the other participants have stopped.
  const std::size_t participants = Scheduler::recommended_threads(plan_.num_threads, tuples_left);
  Scheduler::shared().parallel_for(
      participants, [&](std::size_t, std::size_t) { participate(); },
      /*max_participants=*/participants);

  // --- canonical assembly (plan order, independent of worker count) ---
  for (auto& record : records) {
    result.feasible += record.feasible ? 1 : 0;
    // Both audit surfaces embed audit::kConflictToken: report-mode notes
    // from Explorer::evaluate and enforce-mode ConfigError texts. The
    // shared constant keeps this count immune to rewording.
    if (record.note.find(approx::audit::kConflictToken) != std::string::npos) {
      ++result.audit_flagged;
    }
    result.db.add(std::move(record));
  }
  return result;
}

}  // namespace hpac::harness
