// Write-ahead log for NoSQL-style record-level transactions (paper §III
// item 9). Redo-only: every committed mutation of a dataset partition is
// appended before it is applied to the LSM memory component. Recovery
// replays the log in LSN order into the LSM trees (replay is idempotent:
// re-applying an upsert that already reached a disk component just shadows
// it with an identical newer version). A checkpoint — taken after flushing
// every dataset on the node — truncates the log.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/io.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace asterix::txn {

enum class LogRecordType : uint8_t {
  kUpsert = 1,
  kDelete = 2,
};

/// One redo record.
struct LogRecord {
  LogRecordType type = LogRecordType::kUpsert;
  uint64_t dataset_id = 0;  // the dataset's catalog id (DatasetDef::id)
  uint32_t partition = 0;
  std::string key;       // encoded primary key
  std::string value;     // serialized record (empty for deletes)
};

/// Durability knob: whether Append fsyncs (group commit is out of scope;
/// tests use kNoSync for speed, recovery tests use kSync).
enum class SyncMode { kNoSync, kSync };

/// What Replay saw. A torn tail (partial header, body past end-of-file, or
/// checksum mismatch on the last record) is expected after a crash mid-append
/// and is silently dropped, but callers may want to surface it as a warning.
struct ReplayStats {
  uint64_t records_replayed = 0;
  uint64_t torn_tail_records = 0;  // incomplete trailing records dropped
  uint64_t torn_tail_bytes = 0;    // bytes past the last intact record
};

/// Append-only log over a single file. Thread-safe.
class LogManager {
 public:
  /// Open (creating if absent) the log at `path`.
  static Result<std::unique_ptr<LogManager>> Open(const std::string& path,
                                                  SyncMode sync_mode);

  /// Append a record; returns its LSN (byte offset).
  Result<uint64_t> Append(const LogRecord& record) AX_EXCLUDES(mu_);

  /// Force buffered records to disk.
  Status Sync() AX_EXCLUDES(mu_);

  /// Replay every record in LSN order. Stops (without error) at the first
  /// torn record; pass `stats` to observe how much, if anything, was dropped.
  /// Torn records also bump the `txn.wal.torn_tail_records` counter.
  Status Replay(const std::function<Status(const LogRecord&)>& fn,
                ReplayStats* stats = nullptr) AX_EXCLUDES(mu_);

  /// Truncate the log (after a full checkpoint: all datasets flushed).
  Status Truncate() AX_EXCLUDES(mu_);

  uint64_t tail_lsn() const AX_EXCLUDES(mu_) {
    std::lock_guard<std::mutex> lock(mu_);
    return tail_;
  }
  const std::string& path() const { return path_; }

 private:
  LogManager(std::string path, std::unique_ptr<File> file, SyncMode mode)
      : path_(std::move(path)), file_(std::move(file)), sync_mode_(mode),
        tail_(file_->size()) {}

  std::string path_;
  std::unique_ptr<File> file_ AX_GUARDED_BY(mu_);
  SyncMode sync_mode_;
  mutable std::mutex mu_;
  uint64_t tail_ AX_GUARDED_BY(mu_);
};

}  // namespace asterix::txn
