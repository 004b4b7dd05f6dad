#include "feeds/runtime.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "adm/json.h"
#include "common/io.h"
#include "hyracks/batch.h"

namespace asterix::feeds {

using hyracks::Frame;
using hyracks::kFrameTuples;

// ---- ProgressTracker --------------------------------------------------------

bool ProgressTracker::RetireLocked(uint64_t seqno) {
  if (seqno < next_) return false;  // duplicate: re-emitted after a restart
  if (seqno != next_) {
    pending_.insert(seqno);
    return false;
  }
  next_++;
  while (!pending_.empty() && *pending_.begin() == next_) {
    pending_.erase(pending_.begin());
    next_++;
  }
  watermark_ = next_ - 1;
  return true;
}

void ProgressTracker::Retire(uint64_t seqno) {
  std::lock_guard<std::mutex> lock(mu_);
  if (RetireLocked(seqno)) cv_.notify_all();
}

void ProgressTracker::RetireMany(const std::vector<uint64_t>& seqnos) {
  if (seqnos.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  bool advanced = false;
  for (uint64_t s : seqnos) advanced |= RetireLocked(s);
  if (advanced) cv_.notify_all();
}

uint64_t ProgressTracker::watermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return watermark_;
}

bool ProgressTracker::WaitForWatermark(uint64_t seqno, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  // Explicit wait loop (not a predicate lambda) so thread-safety analysis
  // sees the guarded accesses under the lock.
  while (watermark_ < seqno) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return watermark_ >= seqno;
    }
  }
  return true;
}

// ---- FeedRuntime ------------------------------------------------------------

FeedRuntime::FeedRuntime(FeedSink* sink,
                         std::unique_ptr<FeedAdapter> adapter,
                         FeedRuntimeOptions options)
    : sink_(sink),
      adapter_(std::move(adapter)),
      options_(std::move(options)),
      intake_q_(options_.policy.queue_capacity_tuples),
      storage_q_(options_.policy.queue_capacity_tuples),
      progress_(options_.resume_after) {
  parse_fused_ = options_.parse.format == ParseSpec::Format::kParsed;
  out_q_ = parse_fused_ ? &storage_q_ : &intake_q_;
  intake_q_.SetProducerCount(1);
  storage_q_.SetProducerCount(1);
  auto& reg = metrics::Registry::Global();
  const std::string& feed = options_.feed_name;
  m_ingested_ = reg.GetCounter("feeds.ingested_tuples", feed);
  m_discarded_ = reg.GetCounter("feeds.discarded", feed);
  m_spilled_bytes_ = reg.GetCounter("feeds.spilled_bytes", feed);
  m_spilled_records_ = reg.GetCounter("feeds.spilled_records", feed);
  m_retries_parse_ = reg.GetCounter("feeds.retries", "parse");
  m_retries_storage_ = reg.GetCounter("feeds.retries", "storage");
  m_retries_adapter_ = reg.GetCounter("feeds.retries", "adapter");
  m_restarts_ = reg.GetCounter("feeds.restarts", feed);
  m_parse_errors_ = reg.GetCounter("feeds.parse_errors", feed);
  m_throttled_ = reg.GetCounter("feeds.throttled", feed);
  m_intake_blocked_ = reg.GetCounter("feeds.intake_blocked", feed);
  m_depth_intake_ = reg.GetHistogram("feeds.queue_depth", "intake");
  m_depth_storage_ = reg.GetHistogram("feeds.queue_depth", "storage");
}

FeedRuntime::~FeedRuntime() {
  if (started_.load()) Kill();
}

Status FeedRuntime::Start() {
  if (started_.load()) return Status::InvalidArgument("feed already started");
  if (options_.policy.kind == PolicyKind::kSpill) {
    if (options_.spill_dir.empty()) {
      return Status::InvalidArgument("Spill policy requires a spill dir");
    }
    AX_RETURN_NOT_OK(fs::CreateDirs(options_.spill_dir));
  }
  adapter_->SetStopProbe(
      [this] { return stop_requested_.load() || killed_.load(); });
  AX_RETURN_NOT_OK(adapter_->Open(options_.resume_after));
  last_enqueued_ = options_.resume_after;
  throttle_epoch_ns_ = metrics::NowNs();
  started_.store(true);
  intake_thread_ = std::thread([this] { IntakeLoop(); });
  if (!parse_fused_) parse_thread_ = std::thread([this] { ParseLoop(); });
  storage_thread_ = std::thread([this] { StorageLoop(); });
  return Status::OK();
}

Status FeedRuntime::Stop() {
  if (!started_.load()) return error();
  stop_requested_.store(true);
  intake_thread_.join();
  if (parse_thread_.joinable()) parse_thread_.join();
  storage_thread_.join();
  started_.store(false);
  // axlint: allow(must-check): already draining; Close failure is moot
  (void)adapter_->Close();
  if (!killed_.load() && !options_.progress_path.empty()) {
    Status st = PersistProgress();
    if (!st.ok() && error().ok()) SetError(st);
  }
  return error();
}

void FeedRuntime::Kill() {
  if (!started_.load()) return;
  killed_.store(true);
  stop_requested_.store(true);
  Status st = Status::IOError("feed killed");
  intake_q_.Poison(st);
  storage_q_.Poison(st);
  intake_thread_.join();
  if (parse_thread_.joinable()) parse_thread_.join();
  storage_thread_.join();
  started_.store(false);
  // axlint: allow(must-check): kill path tears down unconditionally
  (void)adapter_->Close();
  // Deliberately no PersistProgress: a crash resumes from the checkpoint.
}

Status FeedRuntime::WaitForCompletion(int timeout_ms) {
  std::unique_lock<std::mutex> lock(finish_mu_);
  bool done = finish_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                                  [&] { return finished_.load(); });
  if (!done) return Status::IOError("timed out waiting for feed completion");
  return error();
}

Status FeedRuntime::WaitForSeqno(uint64_t seqno, int timeout_ms) {
  if (progress_.WaitForWatermark(seqno, timeout_ms)) return Status::OK();
  Status st = error();
  if (!st.ok()) return st;
  return Status::IOError("timed out waiting for feed watermark " +
                         std::to_string(seqno));
}

Status FeedRuntime::error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return error_;
}

void FeedRuntime::SetError(const Status& st) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (error_.ok()) error_ = st;
}

void FeedRuntime::BackoffSleep(int attempt) const {
  double ms = options_.policy.initial_backoff_ms;
  for (int i = 1; i < attempt; i++) ms *= options_.policy.backoff_multiplier;
  ms = std::min<double>(ms, options_.policy.max_backoff_ms);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(ms * 1000)));
}

// ---- progress persistence ---------------------------------------------------

Status FeedRuntime::PersistProgress() const {
  if (options_.progress_path.empty()) return Status::OK();
  adm::Value doc = adm::ObjectBuilder()
                       .Add("feed", adm::Value::String(options_.feed_name))
                       .Add("dataset", adm::Value::String(options_.dataset))
                       .Add("seqno", adm::Value::Int(static_cast<int64_t>(
                                         progress_.watermark())))
                       .Build();
  std::string tmp = options_.progress_path + ".tmp";
  AX_RETURN_NOT_OK(fs::WriteStringToFile(tmp, doc.ToString()));
  return fs::RenameFile(tmp, options_.progress_path);
}

Result<uint64_t> FeedRuntime::LoadProgress(const std::string& path) {
  if (!fs::Exists(path)) return uint64_t{0};
  AX_ASSIGN_OR_RETURN(std::string text, fs::ReadFileToString(path));
  AX_ASSIGN_OR_RETURN(adm::Value doc, adm::ParseAdm(text));
  const adm::Value& s = doc.GetField("seqno");
  if (!s.is_int()) {
    return Status::Corruption("malformed feed progress file: " + path);
  }
  return static_cast<uint64_t>(s.AsInt());
}

// ---- intake stage -----------------------------------------------------------

void FeedRuntime::IntakeLoop() {
  Status st = RunIntake();
  if (!st.ok()) {
    SetError(st);
    intake_q_.Poison(st);
    storage_q_.Poison(st);
  }
  out_q_->CloseOneProducer();
}

Status FeedRuntime::RunIntake() {
  int restarts = 0;
  bool ended = false;
  while (!ended) {
    if (killed_.load()) return Status::IOError("feed killed");
    if (stop_requested_.load()) break;
    Status st = PullOnce(&ended);
    if (st.ok()) continue;
    // Adapter-level failure: bounded reopen-at-resume-point with backoff.
    // Records at or below last_enqueued_ are already in the pipeline, so
    // the reopened adapter resumes right behind them (at-least-once; the
    // storage stage is idempotent if it re-sees any).
    for (;;) {
      if (killed_.load() || stop_requested_.load()) return st;
      if (restarts >= options_.policy.adapter_max_restarts) return st;
      restarts++;
      m_restarts_->Add();
      m_retries_adapter_->Add();
      BackoffSleep(restarts);
      // axlint: allow(must-check): adapter already failed; reopen decides
      (void)adapter_->Close();
      Status open_st = adapter_->Open(last_enqueued_);
      if (open_st.ok()) break;
      st = open_st;
    }
    // The failed poll may have reported end-of-feed before dying; the
    // reopened adapter decides that afresh from the resume point.
    ended = false;
  }
  // Graceful end (adapter end-of-feed or requested stop): everything that
  // overflowed to disk still has to reach the dataset.
  return DrainSpill(/*blocking=*/true);
}

Status FeedRuntime::PullOnce(bool* ended) {
  // Opportunistically move spilled backlog forward while the queue has room.
  AX_RETURN_NOT_OK(DrainSpill(/*blocking=*/false));

  std::vector<FeedRecord> batch;
  auto more = adapter_->NextBatch(&batch, options_.adapter_batch, 50);
  if (!more.ok()) return more.status();
  if (!more.value()) *ended = true;
  if (batch.empty()) return Status::OK();

  // An injected adapter death fires right after its target record was
  // emitted: later records of this poll were never produced.
  bool die = false;
  if (options_.faults != nullptr) {
    for (size_t i = 0; i < batch.size(); i++) {
      if (options_.faults->TakeAdapterKill(batch[i].seqno)) {
        batch.resize(i + 1);
        die = true;
        break;
      }
    }
  }

  // Throttle pacing: once the clamp engaged, delay delivery to the target
  // rate so downstream pressure stays under control without drops.
  if (options_.policy.kind == PolicyKind::kThrottle && throttle_rate_ > 0) {
    double need = static_cast<double>(throttle_sent_ + batch.size());
    for (;;) {
      double elapsed_s =
          static_cast<double>(metrics::NowNs() - throttle_epoch_ns_) / 1e9;
      if (elapsed_s * throttle_rate_ >= need) break;
      if (killed_.load() || stop_requested_.load()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  throttle_sent_ += batch.size();

  uint64_t last_seq = batch.back().seqno;
  Frame frame;
  frame.reserve(kFrameTuples);
  for (auto& r : batch) {
    frame.push_back(RecordToTuple(std::move(r)));
    if (frame.size() >= kFrameTuples) AX_RETURN_NOT_OK(DeliverFrame(&frame));
  }
  AX_RETURN_NOT_OK(DeliverFrame(&frame));
  last_enqueued_ = std::max(last_enqueued_, last_seq);
  if (die) return Status::IOError("injected adapter death");
  return Status::OK();
}

Status FeedRuntime::DeliverFrame(Frame* frame) {
  if (frame->empty()) return Status::OK();
  m_depth_intake_->Record(out_q_->ApproxFrames());
  switch (options_.policy.kind) {
    case PolicyKind::kBasic: {
      AX_ASSIGN_OR_RETURN(bool pushed, out_q_->TryPushFrame(frame));
      if (pushed) return Status::OK();
      // Block: backpressure propagates through the adapter to the source.
      m_intake_blocked_->Add();
      Frame recycled;
      Status st = out_q_->PushFrame(std::move(*frame), &recycled);
      *frame = std::move(recycled);
      return st;
    }
    case PolicyKind::kSpill: {
      // While a disk backlog exists all new arrivals join it, so the
      // dataset still sees records in seqno order.
      if (!SpillBacklogEmpty()) return SpillFrame(frame);
      AX_ASSIGN_OR_RETURN(bool pushed, out_q_->TryPushFrame(frame));
      if (pushed) return Status::OK();
      return SpillFrame(frame);
    }
    case PolicyKind::kDiscard: {
      AX_ASSIGN_OR_RETURN(bool pushed, out_q_->TryPushFrame(frame));
      if (pushed) return Status::OK();
      m_discarded_->Add(frame->size());
      // Dropped records are retired: the watermark must advance past them
      // or a crash would resurrect deliberately shed load.
      for (const auto& t : *frame) {
        progress_.Retire(static_cast<uint64_t>(t.fields[0].AsInt()));
      }
      frame->clear();
      return Status::OK();
    }
    case PolicyKind::kThrottle: {
      AX_ASSIGN_OR_RETURN(bool pushed, out_q_->TryPushFrame(frame));
      if (pushed) {
        if (throttle_rate_ > 0 && ++clean_pushes_ >= 32) {
          // Congestion cleared for a stretch: recover offered rate by 25%.
          throttle_rate_ *= 1.25;
          throttle_epoch_ns_ = metrics::NowNs();
          throttle_sent_ = 0;
          clean_pushes_ = 0;
        }
        return Status::OK();
      }
      m_throttled_->Add();
      // Clamp: halve the rate (seeding from the observed rate the first
      // time), floored at the policy minimum, and deliver blocking.
      double elapsed_s =
          static_cast<double>(metrics::NowNs() - throttle_epoch_ns_) / 1e9;
      double observed = elapsed_s > 0
                            ? static_cast<double>(throttle_sent_) / elapsed_s
                            : options_.policy.throttle_min_rate * 2;
      double base = throttle_rate_ > 0 ? throttle_rate_ : observed;
      throttle_rate_ =
          std::max(options_.policy.throttle_min_rate, base / 2);
      throttle_epoch_ns_ = metrics::NowNs();
      throttle_sent_ = 0;
      clean_pushes_ = 0;
      Frame recycled;
      Status st = out_q_->PushFrame(std::move(*frame), &recycled);
      *frame = std::move(recycled);
      return st;
    }
  }
  return Status::Internal("unreachable feed policy");
}

// ---- spill overflow ---------------------------------------------------------

bool FeedRuntime::SpillBacklogEmpty() const {
  return spill_pending_.empty() && spill_reader_ == nullptr &&
         spill_segments_.empty() &&
         (spill_writer_ == nullptr || spill_writer_->tuple_count() == 0);
}

Status FeedRuntime::SpillFrame(Frame* frame) {
  if (spill_writer_ == nullptr) {
    std::string path = options_.spill_dir + "/" + options_.feed_name +
                       ".spill." + std::to_string(spill_seq_++);
    AX_ASSIGN_OR_RETURN(spill_writer_, hyracks::RunWriter::Create(path));
  }
  for (const auto& t : *frame) AX_RETURN_NOT_OK(spill_writer_->Write(t));
  m_spilled_records_->Add(frame->size());
  frame->clear();
  if (spill_writer_->tuple_count() >= options_.policy.spill_segment_tuples) {
    AX_RETURN_NOT_OK(RotateSpill());
  }
  return Status::OK();
}

Status FeedRuntime::RotateSpill() {
  AX_RETURN_NOT_OK(spill_writer_->Finish());
  m_spilled_bytes_->Add(spill_writer_->bytes_written());
  spill_segments_.push_back(spill_writer_->path());
  spill_writer_.reset();
  return Status::OK();
}

Status FeedRuntime::DrainSpill(bool blocking) {
  if (options_.policy.kind != PolicyKind::kSpill) return Status::OK();
  for (;;) {
    // 1. A frame read off disk but not yet accepted has priority: it holds
    //    the oldest spilled records.
    if (!spill_pending_.empty()) {
      if (blocking) {
        Frame recycled;
        AX_RETURN_NOT_OK(
            out_q_->PushFrame(std::move(spill_pending_), &recycled));
        spill_pending_ = std::move(recycled);
        spill_pending_.clear();
      } else {
        AX_ASSIGN_OR_RETURN(bool pushed,
                            out_q_->TryPushFrame(&spill_pending_));
        if (!pushed) return Status::OK();  // queue still full; try later
      }
    }
    // 2. Refill from the open reader / next finished segment.
    if (spill_reader_ == nullptr) {
      if (spill_segments_.empty()) {
        if (spill_writer_ == nullptr || spill_writer_->tuple_count() == 0) {
          return Status::OK();  // backlog fully drained
        }
        // Only the open segment remains. Cut it early when the pipeline is
        // idle (or on the final drain); under sustained overload keep
        // batching into it instead of churning tiny run files.
        if (!blocking && out_q_->ApproxFrames() > 0) return Status::OK();
        AX_RETURN_NOT_OK(RotateSpill());
      }
      AX_ASSIGN_OR_RETURN(
          spill_reader_,
          hyracks::RunReader::Open(spill_segments_.front(),
                                   /*delete_on_close=*/true));
      spill_segments_.pop_front();
    }
    for (size_t i = spill_pending_.size(); i < kFrameTuples; i++) {
      hyracks::Tuple t;
      AX_ASSIGN_OR_RETURN(bool have, spill_reader_->Read(&t));
      if (!have) {
        spill_reader_.reset();
        break;
      }
      spill_pending_.push_back(std::move(t));
    }
  }
}

// ---- parse stage ------------------------------------------------------------

void FeedRuntime::ParseLoop() {
  Status st = RunParse();
  if (!st.ok()) {
    SetError(st);
    intake_q_.Poison(st);
    storage_q_.Poison(st);
  }
  storage_q_.CloseOneProducer();
}

Status FeedRuntime::RunParse() {
  Frame in, out;
  out.reserve(kFrameTuples);
  auto flush = [&]() -> Status {
    if (out.empty()) return Status::OK();
    m_depth_storage_->Record(storage_q_.ApproxFrames());
    Frame recycled;
    Status st = storage_q_.PushFrame(std::move(out), &recycled);
    out = std::move(recycled);
    out.clear();
    return st;
  };
  for (;;) {
    AX_ASSIGN_OR_RETURN(bool more, intake_q_.PopFrame(&in));
    if (!more) break;
    for (auto& t : in) {
      // Fast path: deletions and records the adapter already produced in
      // parsed form have no work in this stage — forward the tuple as-is
      // instead of paying the record↔tuple round trip per record.
      if (t.fields.size() == 3 && t.fields[1].is_int() &&
          t.fields[1].AsInt() != 0) {
        out.push_back(std::move(t));
        if (out.size() >= kFrameTuples) AX_RETURN_NOT_OK(flush());
        continue;
      }
      AX_ASSIGN_OR_RETURN(FeedRecord r, TupleToRecord(std::move(t)));
      if (!r.deletion && !r.parsed) {
        bool parsed_ok = false;
        for (int attempt = 0; attempt <= options_.policy.max_retries;
             attempt++) {
          if (attempt > 0) {
            m_retries_parse_->Add();
            BackoffSleep(attempt);
          }
          Status st = options_.faults != nullptr
                          ? options_.faults->CheckParse(r.seqno)
                          : Status::OK();
          if (st.ok()) {
            auto v = ParseRaw(options_.parse, r.raw);
            if (v.ok()) {
              r.value = std::move(v).value();
              r.parsed = true;
              r.raw.clear();
              parsed_ok = true;
              break;
            }
          }
          if (killed_.load()) return Status::IOError("feed killed");
        }
        if (!parsed_ok) {
          // Soft error (feeds-paper semantics): a malformed record is
          // skipped and counted, not fatal — but it must retire or the
          // watermark would stall behind it forever.
          m_parse_errors_->Add();
          progress_.Retire(r.seqno);
          continue;
        }
      }
      out.push_back(RecordToTuple(std::move(r)));
      if (out.size() >= kFrameTuples) AX_RETURN_NOT_OK(flush());
    }
    in.clear();
    // Ship the partial frame now rather than holding it for the next pop:
    // a quiescent feed must not strand its last records in this stage.
    AX_RETURN_NOT_OK(flush());
  }
  return flush();
}

// ---- storage stage ----------------------------------------------------------

void FeedRuntime::StorageLoop() {
  Status st = RunStorage();
  if (!st.ok()) {
    SetError(st);
    intake_q_.Poison(st);
    storage_q_.Poison(st);
  }
  finished_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(finish_mu_);
  }
  finish_cv_.notify_all();
}

Status FeedRuntime::RunStorage() {
  Frame in;
  std::vector<uint64_t> done;  // applied this frame, not yet retired
  done.reserve(kFrameTuples);
  // Progress bookkeeping is batched per frame (one lock, one counter
  // update); a fatal mid-frame exit settles the batch first so the
  // watermark and applied count stay exact up to the failing record.
  auto settle = [&]() {
    if (done.empty()) return;
    applied_.fetch_add(done.size(), std::memory_order_relaxed);
    m_ingested_->Add(done.size());
    progress_.RetireMany(done);
    done.clear();
  };
  for (;;) {
    AX_ASSIGN_OR_RETURN(bool more, storage_q_.PopFrame(&in));
    if (!more) return Status::OK();
    for (auto& t : in) {
      // Decode in place (the layout of RecordToTuple): every record on
      // this queue is a deletion key or a parsed value, and applying it
      // by reference skips a FeedRecord construction per record.
      if (t.fields.size() != 3 || !t.fields[0].is_int() ||
          !t.fields[1].is_int()) {
        return Status::Corruption("malformed feed record tuple");
      }
      const uint64_t seqno = static_cast<uint64_t>(t.fields[0].AsInt());
      const bool deletion =
          (t.fields[1].AsInt() & kRecordFlagDeletion) != 0;
      const adm::Value& payload = t.fields[2];
      Status last = Status::OK();
      bool applied = false;
      for (int attempt = 0; attempt <= options_.policy.max_retries;
           attempt++) {
        if (attempt > 0) {
          m_retries_storage_->Add();
          BackoffSleep(attempt);
        }
        last = options_.faults != nullptr
                   ? options_.faults->CheckStorage(seqno)
                   : Status::OK();
        if (last.ok()) last = ApplyRecord(deletion, payload);
        if (last.ok()) {
          applied = true;
          break;
        }
        if (killed_.load()) {
          settle();
          return Status::IOError("feed killed");
        }
      }
      // Storage failure past the retry budget is fatal: the WAL'd upsert
      // path refusing a record means the feed cannot make progress.
      if (!applied) {
        settle();
        return last;
      }
      done.push_back(seqno);
    }
    in.clear();
    settle();
  }
}

Status FeedRuntime::ApplyRecord(bool deletion, const adm::Value& payload) {
  if (deletion) {
    // Deleting an absent key is a no-op, not an error: an at-least-once
    // replay may re-delete.
    auto res = sink_->DeleteByKey(options_.dataset, payload);
    return res.ok() ? Status::OK() : res.status();
  }
  return sink_->UpsertValue(options_.dataset, payload);
}

}  // namespace asterix::feeds
