#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "common/annotated_mutex.hpp"
#include "harness/record.hpp"

namespace hpac::harness {

/// Snapshot-readable, append-only result store over the Campaign journal —
/// the persistence layer that turns one-shot batch sweeps into a serving
/// substrate (ROADMAP item 1). One writer appends records through the
/// existing flushed-CSV journal path (so files stay byte-compatible with
/// pre-store campaigns and a killed writer loses at most the in-flight
/// record); any number of readers take snapshots.
///
/// Concurrency contract:
///  * The store and all its snapshots share one log: the records in append
///    order, in a container whose element addresses never move, plus a
///    tuple-key index, guarded by one mutex. A record is never modified or
///    removed, so a snapshot is a prefix of the log: the log plus a count.
///  * `append` serializes writers on the writer mutex and writes + flushes
///    the journal row before it pushes the record under the log mutex, so
///    no snapshot can ever count a row that is not yet durable.
///  * Readers hold the log mutex only for a count (`snapshot`, `size`), an
///    index lookup (`find_key`) or one record's address (`at`). No journal
///    IO and no caller code ever runs under it, so a `for_each` callback
///    may append to the very store it iterates.
///  * A snapshot sees exactly its prefix for its whole lifetime: lookups of
///    later tuples miss, and every record reference it hands out stays
///    valid while the snapshot lives, even past the store itself.
class ResultStore {
  class Log;

 public:
  /// A fixed-length prefix of the store's log. Copies are cheap (a
  /// shared_ptr and a count); all methods are const and thread-safe.
  class Snapshot {
   public:
    Snapshot() = default;

    /// Records visible to this snapshot (restored rows included).
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /// Record for a (benchmark, device, spec, items-per-thread) tuple, or
    /// nullptr when the tuple is absent from this snapshot's prefix. The
    /// pointee lives in the shared log: it stays valid while this snapshot
    /// (or any other holder of the log) lives.
    const RunRecord* find(const std::string& benchmark, const std::string& device,
                          const std::string& spec_text,
                          std::uint64_t items_per_thread) const;
    const RunRecord* find_key(const std::string& tuple_key) const;
    bool contains_key(const std::string& tuple_key) const {
      return find_key(tuple_key) != nullptr;
    }

    /// Record by append order (0 = oldest); `index` must be below size().
    const RunRecord& at(std::size_t index) const;

    /// Visit the snapshot's records in append order. The log mutex is held
    /// only while each record's address is fetched, never across `fn`.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (std::size_t i = 0; i < size_; ++i) fn(at(i));
    }

    /// Materialize as a ResultDb (append order) for the analysis helpers.
    ResultDb to_db() const;

   private:
    friend class ResultStore;

    Snapshot(std::shared_ptr<const Log> shared_log, std::size_t prefix)
        : log_(std::move(shared_log)), size_(prefix) {}

    std::shared_ptr<const Log> log_;
    std::size_t size_ = 0;
  };

  /// Counters of the journal absorption performed by the constructor.
  struct LoadStats {
    std::size_t restored = 0;    ///< rows loaded into the index
    std::size_t duplicates = 0;  ///< journal rows whose tuple was already present
  };

  /// Open (or create) a store journaling to `path`; empty = in-memory
  /// only. An existing journal is absorbed first — torn trailing rows
  /// (writer killed mid-append) are dropped, duplicate tuples keep the
  /// first occurrence — and subsequent appends continue the same file in
  /// append mode. Before appending resumes, a torn trailing row is also
  /// truncated out of the file itself: leaving the half row in place would
  /// make the next append glue onto it and corrupt a mid-file line. A
  /// fresh file gets the canonical CSV header immediately, so journal and
  /// final CSV share one format.
  ///
  /// `read_only` opens an existing journal (or finalized CSV) for serving
  /// only: the file is never opened for writing, never truncated, and
  /// every append throws. This is what lets a daemon serve a store that
  /// another process owns — or a finalized artifact — without risking a
  /// write to it.
  explicit ResultStore(std::string path = "", bool read_only = false);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// The current prefix: the log mutex is held only to read the count,
  /// never the writer lock.
  Snapshot snapshot() const;

  /// Append one record: journal row written and flushed under the writer
  /// lock, then the record becomes visible. Throws hpac::Error when the
  /// record's tuple is already present (the resume paths check first).
  void append(const RunRecord& record);

  /// Like `append`, but when the tuple is already present it writes
  /// nothing and returns false. For producers racing on one store — e.g. a
  /// TuningService evaluation vs. a concurrent campaign.
  bool append_if_absent(const RunRecord& record);

  /// `size()` of the latest snapshot, without building one.
  std::size_t size() const;

  const std::string& path() const { return path_; }
  bool persistent() const { return !path_.empty(); }
  bool read_only() const { return read_only_; }
  const LoadStats& load_stats() const { return load_stats_; }

  /// Rewrite the journal file as the canonical CSV `db` serializes to
  /// (write-to-temp + atomic rename — the Campaign's final rewrite). The
  /// in-memory index keeps serving the appended order; only the file
  /// changes. No-op for in-memory stores. The journal stream is closed:
  /// finalize is terminal, appends afterwards throw.
  void finalize(const ResultDb& canonical);

  /// The canonical identity key of a record (Campaign::tuple_key order).
  static std::string key_of(const RunRecord& record);

 private:
  std::string path_;
  bool read_only_ = false;
  LoadStats load_stats_;
  /// The records and their index, shared with every snapshot.
  const std::shared_ptr<Log> log_;
  common::Mutex writer_mutex_;  ///< serializes append/finalize
  /// Journal stream, open while persistent() && !finalized_. Written by
  /// the constructor (single-threaded) and then only under writer_mutex_.
  std::ofstream journal_ GUARDED_BY(writer_mutex_);
  bool finalized_ GUARDED_BY(writer_mutex_) = false;
};

}  // namespace hpac::harness
