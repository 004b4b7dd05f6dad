#include "txn/log_manager.h"

#include <cstring>

#include "adm/serde.h"
#include "common/metrics.h"

namespace asterix::txn {

namespace {
metrics::Counter* WalAppendsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("txn.wal.appends");
  return c;
}
metrics::Counter* WalBytesCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("txn.wal.bytes");
  return c;
}
metrics::Counter* WalFsyncsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("txn.wal.fsyncs");
  return c;
}
metrics::Counter* WalTornTailCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("txn.wal.torn_tail_records");
  return c;
}
// Simple additive checksum — catches torn tail writes on recovery.
uint32_t Checksum(const std::string& data) {
  uint32_t sum = 2166136261u;
  for (unsigned char c : data) {
    sum ^= c;
    sum *= 16777619u;
  }
  return sum;
}
}  // namespace

Result<std::unique_ptr<LogManager>> LogManager::Open(const std::string& path,
                                                     SyncMode sync_mode) {
  std::unique_ptr<File> file;
  if (fs::Exists(path)) {
    AX_ASSIGN_OR_RETURN(file, File::Open(path, /*writable=*/true));
  } else {
    AX_ASSIGN_OR_RETURN(file, File::Create(path));
  }
  return std::unique_ptr<LogManager>(
      new LogManager(path, std::move(file), sync_mode));
}

Result<uint64_t> LogManager::Append(const LogRecord& record) {
  std::string body;
  body.push_back(static_cast<char>(record.type));
  adm::PutVarint(record.dataset_id, &body);
  adm::PutVarint(record.partition, &body);
  adm::PutVarint(record.key.size(), &body);
  body += record.key;
  adm::PutVarint(record.value.size(), &body);
  body += record.value;

  std::string framed;
  uint32_t len = static_cast<uint32_t>(body.size());
  uint32_t crc = Checksum(body);
  framed.append(reinterpret_cast<const char*>(&len), 4);
  framed.append(reinterpret_cast<const char*>(&crc), 4);
  framed += body;

  std::lock_guard<std::mutex> lock(mu_);
  uint64_t lsn = tail_;
  AX_RETURN_NOT_OK(file_->WriteAt(tail_, framed.size(), framed.data()));
  tail_ += framed.size();
  WalAppendsCounter()->Add(1);
  WalBytesCounter()->Add(framed.size());
  if (sync_mode_ == SyncMode::kSync) {
    // axlint: allow(blocking-under-lock): WAL group commit orders the fsync
    // under mu_ by design — releasing first would let a later append reorder
    // ahead of this record's durability point.
    AX_RETURN_NOT_OK(file_->Sync());
    WalFsyncsCounter()->Add(1);
  }
  return lsn;
}

Status LogManager::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  // axlint: allow(blocking-under-lock): same WAL ordering contract as
  // Append — the sync must cover every append framed before it.
  AX_RETURN_NOT_OK(file_->Sync());
  WalFsyncsCounter()->Add(1);
  return Status::OK();
}

Status LogManager::Replay(const std::function<Status(const LogRecord&)>& fn,
                          ReplayStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t pos = 0;
  uint64_t torn = 0;
  while (pos + 8 <= tail_) {
    char header[8];
    AX_RETURN_NOT_OK(file_->ReadAt(pos, 8, header));
    uint32_t len, crc;
    std::memcpy(&len, header, 4);
    std::memcpy(&crc, header + 4, 4);
    if (pos + 8 + len > tail_) {  // torn tail — stop replay here
      torn++;
      break;
    }
    std::string body(len, '\0');
    AX_RETURN_NOT_OK(file_->ReadAt(pos + 8, len, body.data()));
    if (Checksum(body) != crc) {  // torn/corrupt tail
      torn++;
      break;
    }
    LogRecord rec;
    size_t p = 0;
    rec.type = static_cast<LogRecordType>(body[p]);
    p++;
    AX_ASSIGN_OR_RETURN(rec.dataset_id, adm::GetVarint(body, &p));
    AX_ASSIGN_OR_RETURN(uint64_t part, adm::GetVarint(body, &p));
    rec.partition = static_cast<uint32_t>(part);
    AX_ASSIGN_OR_RETURN(uint64_t klen, adm::GetVarint(body, &p));
    rec.key = body.substr(p, klen);
    p += klen;
    AX_ASSIGN_OR_RETURN(uint64_t vlen, adm::GetVarint(body, &p));
    rec.value = body.substr(p, vlen);
    AX_RETURN_NOT_OK(fn(rec));
    if (stats != nullptr) stats->records_replayed++;
    pos += 8 + len;
  }
  // Fewer than 8 trailing bytes is a partial header from a torn append.
  if (torn == 0 && pos < tail_) torn++;
  if (torn > 0) {
    WalTornTailCounter()->Add(torn);
    if (stats != nullptr) {
      stats->torn_tail_records += torn;
      stats->torn_tail_bytes += tail_ - pos;
    }
  }
  return Status::OK();
}

Status LogManager::Truncate() {
  std::lock_guard<std::mutex> lock(mu_);
  file_.reset();
  AX_ASSIGN_OR_RETURN(file_, File::Create(path_));
  tail_ = 0;
  return Status::OK();
}

}  // namespace asterix::txn
