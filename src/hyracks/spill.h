// Spill files ("run files"): temporary on-disk tuple sequences written by
// memory-bounded operators (external sort runs, grace-join partitions,
// group-by spill partitions). This is what lets asterix-lite honour the
// paper's founding assumption that data — and intermediate results — can
// well exceed memory (paper §III, Fig. 2 "working memory").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/result.h"
#include "hyracks/stream.h"
#include "hyracks/tuple.h"

namespace asterix::hyracks {

/// Sequential writer of a tuple run. Buffered; call Finish() to flush.
class RunWriter {
 public:
  static Result<std::unique_ptr<RunWriter>> Create(const std::string& path);
  Status Write(const Tuple& t);
  /// Flush and close; the file can then be read with RunReader.
  Status Finish();
  uint64_t tuple_count() const { return count_; }
  /// Serialized bytes written so far (spill volume; operators report this
  /// per-operator, and `hyracks.spill.bytes_written` totals it globally).
  uint64_t bytes_written() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  RunWriter(std::string path, std::unique_ptr<File> file)
      : path_(std::move(path)), file_(std::move(file)) {}
  Status FlushBuffer();
  std::string path_;
  std::unique_ptr<File> file_;
  std::string buffer_;
  uint64_t count_ = 0;
  uint64_t bytes_ = 0;
  bool finished_ = false;
};

/// The spill files of one operator. Creates every run the operator writes
/// and remembers its path; Remove (and the destructor) deletes each one
/// that is still on disk, so a cancelled or failed operator leaks none.
/// Consumed runs are already gone: a RunReader deletes its file.
class SpillFiles {
 public:
  explicit SpillFiles(TempFileManager* tmp) : tmp_(tmp) {}
  ~SpillFiles() { Remove(); }
  SpillFiles(const SpillFiles&) = delete;
  SpillFiles& operator=(const SpillFiles&) = delete;

  /// A writer for a new run file named after `tag`.
  Result<std::unique_ptr<RunWriter>> Create(const std::string& tag);
  /// Best-effort removal of every file created so far.
  void Remove();

 private:
  TempFileManager* tmp_;
  std::vector<std::string> paths_;
};

/// Sequential reader over a run file. Deletes the file on destruction when
/// `delete_on_close` (spill files are single-consumer temporaries). It is a
/// file cursor first: the k-way merges (external sort passes, feed spill
/// catch-up) step it one tuple at a time with Read. It is also a stream,
/// so a spilled partition can be re-fed to the operator that spilled it.
class RunReader : public TupleStream {
 public:
  static Result<std::unique_ptr<RunReader>> Open(const std::string& path,
                                                 bool delete_on_close = true);
  ~RunReader() override;

  /// Deserialize the next tuple into `*out`; false at end of file.
  Result<bool> Read(Tuple* out);

  Status Open() override { return Status::OK(); }
  /// Deserializes a frame's worth of tuples per call straight into the
  /// batch slots.
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override { return Status::OK(); }

 private:
  RunReader(std::string path, std::unique_ptr<File> file, bool del)
      : path_(std::move(path)), file_(std::move(file)), delete_on_close_(del) {}
  Status Refill();
  std::string path_;
  std::unique_ptr<File> file_;
  bool delete_on_close_;
  std::string buffer_;
  size_t buf_pos_ = 0;
  uint64_t file_pos_ = 0;
};

}  // namespace asterix::hyracks
