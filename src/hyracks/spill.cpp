#include "hyracks/spill.h"

#include "common/metrics.h"

namespace asterix::hyracks {

namespace {
constexpr size_t kWriteBuffer = 256 * 1024;
constexpr size_t kReadChunk = 256 * 1024;

metrics::Counter* SpillRunsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.spill.runs_written");
  return c;
}
metrics::Counter* SpillBytesCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.spill.bytes_written");
  return c;
}
}  // namespace

Result<std::unique_ptr<RunWriter>> RunWriter::Create(const std::string& path) {
  AX_ASSIGN_OR_RETURN(auto file, File::Create(path));
  return std::unique_ptr<RunWriter>(new RunWriter(path, std::move(file)));
}

Status RunWriter::Write(const Tuple& t) {
  const size_t before = buffer_.size();
  SerializeTuple(t, &buffer_);
  count_++;
  bytes_ += buffer_.size() - before;
  if (buffer_.size() >= kWriteBuffer) return FlushBuffer();
  return Status::OK();
}

Status RunWriter::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  AX_ASSIGN_OR_RETURN(uint64_t off, file_->Append(buffer_.size(), buffer_.data()));
  (void)off;
  buffer_.clear();
  return Status::OK();
}

Status RunWriter::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  AX_RETURN_NOT_OK(FlushBuffer());
  file_.reset();  // close fd (no fsync: spill files need no durability)
  SpillRunsCounter()->Add(1);
  SpillBytesCounter()->Add(bytes_);
  return Status::OK();
}

Result<std::unique_ptr<RunWriter>> SpillFiles::Create(const std::string& tag) {
  AX_ASSIGN_OR_RETURN(auto writer, RunWriter::Create(tmp_->NextPath(tag)));
  paths_.push_back(writer->path());
  return writer;
}

void SpillFiles::Remove() {
  for (const auto& p : paths_) {
    // Usually gone already: readers delete what they consumed.
    // axlint: allow(must-check): best-effort abort-path cleanup
    (void)fs::RemoveFile(p);
  }
  paths_.clear();
}

Result<std::unique_ptr<RunReader>> RunReader::Open(const std::string& path,
                                                   bool delete_on_close) {
  AX_ASSIGN_OR_RETURN(auto file, File::Open(path));
  return std::unique_ptr<RunReader>(
      new RunReader(path, std::move(file), delete_on_close));
}

RunReader::~RunReader() {
  file_.reset();
  // axlint: allow(must-check): best-effort temp cleanup in a destructor
  if (delete_on_close_) (void)fs::RemoveFile(path_);
}

Status RunReader::Refill() {
  // Keep unconsumed bytes (a tuple may straddle chunk boundaries).
  buffer_.erase(0, buf_pos_);
  buf_pos_ = 0;
  size_t want = kReadChunk;
  uint64_t remaining = file_->size() - file_pos_;
  if (want > remaining) want = static_cast<size_t>(remaining);
  if (want == 0) return Status::OK();
  size_t old = buffer_.size();
  buffer_.resize(old + want);
  AX_RETURN_NOT_OK(file_->ReadAt(file_pos_, want, buffer_.data() + old));
  file_pos_ += want;
  return Status::OK();
}

Result<bool> RunReader::Read(Tuple* out) {
  while (true) {
    size_t try_pos = buf_pos_;
    auto r = DeserializeTuple(buffer_, &try_pos);
    if (r.ok()) {
      *out = std::move(r).value();
      buf_pos_ = try_pos;
      return true;
    }
    // Possibly a tuple split across the chunk boundary: refill and retry.
    bool at_eof = file_pos_ >= file_->size();
    if (at_eof) {
      if (buf_pos_ >= buffer_.size()) return false;  // clean end
      return Status::Corruption("trailing bytes in run file '" + path_ + "'");
    }
    AX_RETURN_NOT_OK(Refill());
  }
}

Result<bool> RunReader::NextBatch(Batch* out) {
  out->Clear();
  while (!out->full()) {
    AX_RETURN_NOT_OK(PollAlive());
    Tuple* slot = out->Add();
    AX_ASSIGN_OR_RETURN(bool more, Read(slot));
    if (!more) {
      out->PopLast();
      break;
    }
  }
  if (out->empty()) return false;
  NoteBatchEmitted(out->size());
  return true;
}

}  // namespace asterix::hyracks
