#include "harness/result_store.hpp"

#include <unistd.h>

#include <cstdio>
#include <deque>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/fileops.hpp"
#include "harness/campaign.hpp"

namespace hpac::harness {

namespace {

bool file_has_content(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good() && in.peek() != std::char_traits<char>::eof();
}

/// Bytes of `path` up to and including its final newline — the durable
/// prefix of the journal. Anything past it is a torn row from a writer
/// killed mid-append.
std::streamoff durable_prefix(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::streamoff keep = 0;
  std::streamoff pos = 0;
  char buffer[4096];
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    const std::streamsize n = in.gcount();
    for (std::streamsize i = 0; i < n; ++i) {
      if (buffer[i] == '\n') keep = pos + i + 1;
    }
    pos += n;
    if (n < static_cast<std::streamsize>(sizeof(buffer))) break;
  }
  return keep;
}

/// `Log::find` limit that admits every record.
constexpr std::size_t kWholeLog = std::numeric_limits<std::size_t>::max();

}  // namespace

// --- Log ---------------------------------------------------------------------

/// The records in append order plus the tuple-key index. A deque never
/// moves an element on push_back, so a record's address stays valid for
/// the log's lifetime; the mutex guards only the containers' own
/// structure, held for a count, a lookup or an address.
class ResultStore::Log {
 public:
  std::size_t size() const {
    common::MutexLock lock(mutex_);
    return records_.size();
  }

  /// The record for `key` when it is among the first `limit` records.
  const RunRecord* find(const std::string& key, std::size_t limit) const {
    common::MutexLock lock(mutex_);
    const auto it = index_.find(key);
    return it != index_.end() && it->second < limit ? &records_[it->second] : nullptr;
  }

  const RunRecord& at(std::size_t index) const {
    common::MutexLock lock(mutex_);
    return records_[index];
  }

  /// Callers check absence first; the writer mutex makes check + push atomic.
  void push(std::string key, const RunRecord& record) {
    common::MutexLock lock(mutex_);
    index_.emplace(std::move(key), records_.size());
    records_.push_back(record);
  }

 private:
  mutable common::Mutex mutex_;
  std::deque<RunRecord> records_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::size_t> index_ GUARDED_BY(mutex_);
};

// --- Snapshot ----------------------------------------------------------------

const RunRecord* ResultStore::Snapshot::find_key(const std::string& tuple_key) const {
  return empty() ? nullptr : log_->find(tuple_key, size_);
}

const RunRecord* ResultStore::Snapshot::find(const std::string& benchmark,
                                             const std::string& device,
                                             const std::string& spec_text,
                                             std::uint64_t items_per_thread) const {
  return find_key(Campaign::tuple_key(benchmark, device, spec_text, items_per_thread));
}

const RunRecord& ResultStore::Snapshot::at(std::size_t index) const {
  HPAC_REQUIRE(index < size_, "result store snapshot index out of range");
  return log_->at(index);
}

ResultDb ResultStore::Snapshot::to_db() const {
  ResultDb db;
  for_each([&db](const RunRecord& record) { db.add(record); });
  return db;
}

// --- ResultStore -------------------------------------------------------------

std::string ResultStore::key_of(const RunRecord& record) {
  return Campaign::tuple_key(record.benchmark, record.device, record.spec_text,
                             record.items_per_thread);
}

ResultStore::ResultStore(std::string path, bool read_only)
    : path_(std::move(path)), read_only_(read_only), log_(std::make_shared<Log>()) {
  // Serialize against writers in OTHER processes sharing this journal:
  // append_if_absent holds the same flock around each row. Without it, a
  // peer's complete rows landing between the durable-prefix read and the
  // truncate below would be destroyed as a "torn tail". Read-only opens
  // never truncate, so they take no lock (and must work on read-only
  // filesystems where the lock file cannot be created).
  std::optional<fileops::FileLock> open_lock;
  if (persistent() && !read_only_) open_lock.emplace(path_ + ".lock");
  // The durable prefix decides everything: a file whose final newline is
  // its last durable byte resumes normally; a file with NO newline (a
  // writer killed mid-header-write) has nothing durable at all and must
  // not even be parsed — ResultDb::load would reject its torn header.
  const std::streamoff durable =
      persistent() && file_has_content(path_) ? durable_prefix(path_) : 0;
  bool resuming = durable > 0;
  HPAC_REQUIRE(!read_only_ || resuming,
               "read-only result store needs an existing journal: " + path_);
  if (resuming) {
    // drop_torn_tail: a writer killed mid-append must not brick the store.
    const ResultDb journal = ResultDb::load(path_, /*drop_torn_tail=*/true);
    for (const RunRecord& record : journal.records()) {
      std::string key = key_of(record);
      if (log_->find(key, kWholeLog) != nullptr) {
        ++load_stats_.duplicates;  // e.g. two writers raced on one file
        continue;
      }
      log_->push(std::move(key), record);
      ++load_stats_.restored;
    }
  }
  if (persistent() && !read_only_) {
    if (file_has_content(path_)) {
      // The load above *skipped* a torn trailing row (or, when nothing
      // durable survived, the whole file); the file must shed it too, or
      // the append stream below would glue the next row onto the half row
      // — turning a recoverable torn tail into a corrupt mid-file line on
      // the following reload.
      std::ifstream probe(path_, std::ios::binary | std::ios::ate);
      const std::streamoff size = probe.tellg();
      probe.close();
      if (durable < size) {
        HPAC_REQUIRE(::truncate(path_.c_str(), durable) == 0,
                     "cannot drop torn tail of result store journal: " + path_);
      }
    }
    journal_.open(path_, std::ios::app);
    HPAC_REQUIRE(journal_.good(), "cannot open result store journal: " + path_);
    if (!resuming) {
      // An empty table writes exactly the header line, guaranteeing the
      // journal and any final canonical rewrite share one format.
      CsvTable(RunRecord::csv_columns()).write(journal_);
      journal_.flush();
    }
  }
}

ResultStore::~ResultStore() = default;

ResultStore::Snapshot ResultStore::snapshot() const { return Snapshot(log_, log_->size()); }

std::size_t ResultStore::size() const { return log_->size(); }

void ResultStore::append(const RunRecord& record) {
  const bool appended = append_if_absent(record);
  HPAC_REQUIRE(appended, "result store already holds tuple: " + record.benchmark + " on " +
                             record.device + " '" + record.spec_text + "'");
}

bool ResultStore::append_if_absent(const RunRecord& record) {
  common::MutexLock lock(writer_mutex_);
  HPAC_REQUIRE(!read_only_, "result store is read-only: " + path_);
  HPAC_REQUIRE(!finalized_, "result store was finalized; no further appends");
  std::string key = key_of(record);
  if (log_->find(key, kWholeLog) != nullptr) return false;
  // Journal first, push second: a record is only ever visible once its row
  // is flushed, so a snapshot can never lead the durable journal.
  if (persistent()) {
    // The flock pairs with the constructor's open-time truncation window
    // in peer processes; O_APPEND then lands the flushed row at the
    // (possibly just-truncated) real end of file.
    fileops::FileLock append_lock(path_ + ".lock");
    write_csv_row(journal_, record.to_row());
    journal_.flush();
  }
  log_->push(std::move(key), record);
  return true;
}

void ResultStore::finalize(const ResultDb& canonical) {
  common::MutexLock lock(writer_mutex_);
  HPAC_REQUIRE(!read_only_, "result store is read-only: " + path_);
  HPAC_REQUIRE(!finalized_, "result store was already finalized");
  finalized_ = true;
  if (!persistent()) return;
  journal_.close();
  const std::string tmp = path_ + ".tmp";
  canonical.save(tmp);
  HPAC_REQUIRE(std::rename(tmp.c_str(), path_.c_str()) == 0,
               "cannot replace result store journal: " + path_);
}

}  // namespace hpac::harness
