#include "storage/lsm_lifecycle.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "common/io.h"
#include "common/metrics.h"
#include "storage/maintenance.h"

namespace asterix::storage {

namespace {
// Parses the decimal digits at `*pos` (at least one) into `*out`.
bool ParseSeq(const std::string& s, size_t* pos, uint64_t* out) {
  size_t start = *pos;
  uint64_t v = 0;
  while (*pos < s.size() && s[*pos] >= '0' && s[*pos] <= '9') {
    v = v * 10 + static_cast<uint64_t>(s[*pos] - '0');
    (*pos)++;
  }
  *out = v;
  return *pos > start;
}

// True iff `file` is exactly `<name>_<digits>_<digits><ext>`: another tree
// whose name extends this one's (ix_a vs ix_a_1) never matches.
bool ParseComponentName(const std::string& file, const std::string& name,
                        const std::string& ext, uint64_t* lo, uint64_t* hi) {
  if (file.size() <= name.size() + ext.size()) return false;
  if (file.compare(0, name.size(), name) != 0) return false;
  if (file.compare(file.size() - ext.size(), ext.size(), ext) != 0) {
    return false;
  }
  const std::string mid =
      file.substr(name.size(), file.size() - name.size() - ext.size());
  size_t pos = 0;
  if (pos >= mid.size() || mid[pos++] != '_') return false;
  if (!ParseSeq(mid, &pos, lo)) return false;
  if (pos >= mid.size() || mid[pos++] != '_') return false;
  if (!ParseSeq(mid, &pos, hi)) return false;
  return pos == mid.size();
}
}  // namespace

LsmDiskComponent::~LsmDiskComponent() {
  // Best-effort unlink: leftovers are re-collected at the next open.
  if (!obsolete) return;
  for (const auto& path : files) {
    // axlint: allow(must-check): best-effort obsolete-component unlink
    (void)fs::RemoveFile(path);
  }
}

std::string LsmLifecycle::ComponentBase(uint64_t lo, uint64_t hi) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "_%010llu_%010llu",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi));
  return options_.dir + "/" + options_.name + buf;
}

Status LsmLifecycle::Recover() {
  if (options_.cache == nullptr) {
    return Status::InvalidArgument("LsmTreeOptions.cache is required");
  }
  AX_RETURN_NOT_OK(fs::CreateDirs(options_.dir));
  AX_ASSIGN_OR_RETURN(auto names, fs::ListDir(options_.dir));
  // (seq_hi, seq_lo, file), sorted newest first. A tree may hold several
  // data formats (the B+tree's .cmp and .col): reads dispatch per component.
  std::vector<std::tuple<uint64_t, uint64_t, std::string, std::string>> found;
  for (const auto& n : names) {
    for (const auto& ext : layout_.data_exts) {
      uint64_t lo = 0, hi = 0;
      if (ParseComponentName(n, options_.name, ext, &lo, &hi)) {
        found.emplace_back(hi, lo, n, ext);
      }
    }
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a > b; });
  std::lock_guard<std::mutex> lock(mu_);  // satisfies GUARDED_BY
  for (const auto& [hi, lo, file, ext] : found) {
    const std::string base =
        options_.dir + "/" + file.substr(0, file.size() - ext.size());
    // The commit-point file is written last: a data file without one is a
    // flush that was in flight at a crash. Drop it — WAL replay (the
    // caller's recovery) re-ingests those rows.
    if (!fs::Exists(base + layout_.commit_ext)) {
      layout_.counters.incomplete_components_dropped->Add(1);
      // axlint: allow(must-check): best-effort incomplete-component unlink
      (void)fs::RemoveFile(base + ext);
      continue;
    }
    AX_ASSIGN_OR_RETURN(DiskPtr comp, OpenDiskComponent(base, ext));
    comp->seq_lo = lo;
    comp->seq_hi = hi;
    components_.push_back(std::move(comp));
    next_seq_ = std::max(next_seq_, hi + 1);
  }
  return Status::OK();
}

void LsmLifecycle::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  closing_ = true;
  maint_cv_.notify_all();
  // Wait for background tasks (including ones still queued on the
  // scheduler — they run, observe closing_, and bail).
  while (tasks_inflight_ > 0 || flush_active_ || merge_active_) {
    maint_cv_.wait(lock);
  }
  if (!dropped_) return;
  std::vector<DiskPtr> components = std::move(components_);
  components_.clear();
  lock.unlock();
  components.clear();  // closes their files before the directory goes
  // axlint: allow(must-check): best-effort; Instance::Open sweeps leftovers
  (void)fs::RemoveAll(options_.dir);
}

void LsmLifecycle::MarkDropped() {
  std::lock_guard<std::mutex> lock(mu_);
  dropped_ = true;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void LsmLifecycle::RotateLocked() {
  std::shared_ptr<LsmMemComponent> imm = FreezeMemLocked();
  if (imm == nullptr) {
    mem_bytes_ = 0;  // writes that cancelled each other out in memory
    return;
  }
  imm->seq = next_seq_++;
  imm->bytes = mem_bytes_;
  mem_bytes_ = 0;
  immutables_.insert(immutables_.begin(), std::move(imm));
}

Status LsmLifecycle::WaitForRoomLocked(std::unique_lock<std::mutex>& lock) {
  const size_t bound = std::max<size_t>(1, options_.max_pending_immutables);
  if (immutables_.size() < bound) return maint_error_;
  write_stalls_++;
  layout_.counters.write_stalls->Add(1);
  const uint64_t t0 = metrics::NowNs();
  while (immutables_.size() >= bound && maint_error_.ok() && !closing_) {
    maint_cv_.wait(lock);
  }
  layout_.counters.write_stall_ns->Add(metrics::NowNs() - t0);
  return maint_error_;
}

Status LsmLifecycle::HandleBudgetLocked(std::unique_lock<std::mutex>& lock) {
  if (options_.scheduler != nullptr) {
    AX_RETURN_NOT_OK(WaitForRoomLocked(lock));
    // Another writer may have rotated while we waited.
    if (mem_bytes_ <= options_.mem_budget_bytes) return Status::OK();
    RotateLocked();
    ScheduleFlushLocked();
    return Status::OK();
  }
  // Inline maintenance (no scheduler): the writing thread pays for the
  // flush and any policy merge.
  RotateLocked();
  AX_RETURN_NOT_OK(DrainLocked(lock));
  AX_ASSIGN_OR_RETURN(bool merged, ApplyMergePolicyLocked(lock));
  (void)merged;
  return Status::OK();
}

Status LsmLifecycle::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!maint_error_.ok()) return maint_error_;
  RotateLocked();
  return DrainLocked(lock);
}

// ---------------------------------------------------------------------------
// Flushing
// ---------------------------------------------------------------------------

Status LsmLifecycle::FlushOldestLocked(std::unique_lock<std::mutex>& lock) {
  while (flush_active_ && !closing_) maint_cv_.wait(lock);
  if (closing_) return Status::OK();
  if (!maint_error_.ok()) return maint_error_;
  if (immutables_.empty()) return Status::OK();
  flush_active_ = true;
  MemPtr victim = immutables_.back();  // oldest
  // Deletions can be dropped only when nothing older could hide a live
  // row. Newer immutables are irrelevant; only disk components are older,
  // and the flush slot we hold is the only thing that installs new ones.
  const bool oldest = components_.empty();
  const std::string base = ComponentBase(victim->seq, victim->seq);
  lock.unlock();
  auto built = BuildFlushComponent(*victim, oldest, base);
  lock.lock();
  flush_active_ = false;
  if (!built.ok()) {
    maint_cv_.notify_all();
    return built.status();
  }
  DiskPtr comp = std::move(built).value();
  comp->seq_lo = comp->seq_hi = victim->seq;
  layout_.counters.flush_bytes->Add(comp->bytes);
  components_.insert(components_.begin(), std::move(comp));
  immutables_.pop_back();
  flushes_++;
  layout_.counters.flushes->Add(1);
  maint_cv_.notify_all();  // backpressure waiters, drain barriers
  return Status::OK();
}

Status LsmLifecycle::DrainLocked(std::unique_lock<std::mutex>& lock) {
  // Cooperative: this thread does the flush work itself instead of waiting
  // on a queued scheduler task, so a bounded pool can never deadlock on a
  // barrier (e.g. Instance::Checkpoint fanning out partition flushes).
  while (true) {
    while (flush_active_) maint_cv_.wait(lock);
    if (!maint_error_.ok()) return maint_error_;
    if (immutables_.empty()) return Status::OK();
    AX_RETURN_NOT_OK(FlushOldestLocked(lock));
  }
}

// ---------------------------------------------------------------------------
// Background scheduling
// ---------------------------------------------------------------------------

void LsmLifecycle::ScheduleFlushLocked() {
  if (options_.scheduler == nullptr || flush_queued_ || closing_) return;
  flush_queued_ = true;
  tasks_inflight_++;
  options_.scheduler->Submit([this] { BackgroundFlush(); });
}

void LsmLifecycle::ScheduleMergeLocked() {
  if (options_.scheduler == nullptr || merge_queued_ || merge_active_ ||
      closing_) {
    return;
  }
  if (PickMergeRunLocked() < 2) return;
  merge_queued_ = true;
  tasks_inflight_++;
  options_.scheduler->Submit([this] { BackgroundMerge(); });
}

void LsmLifecycle::BackgroundFlush() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!closing_ && maint_error_.ok()) {
    if (flush_active_) {  // a barrier (Flush/Checkpoint) is doing our work
      maint_cv_.wait(lock);
      continue;
    }
    if (immutables_.empty()) break;
    Status s = FlushOldestLocked(lock);
    if (!s.ok()) {
      if (maint_error_.ok()) maint_error_ = std::move(s);
      break;
    }
  }
  // Cleared under the same lock hold as the emptiness check: a rotation
  // after this point submits a fresh task.
  flush_queued_ = false;
  if (!closing_ && maint_error_.ok()) ScheduleMergeLocked();
  tasks_inflight_--;
  maint_cv_.notify_all();
}

void LsmLifecycle::BackgroundMerge() {
  std::unique_lock<std::mutex> lock(mu_);
  merge_queued_ = false;
  if (!closing_ && maint_error_.ok() && !merge_active_) {
    auto merged = ApplyMergePolicyLocked(lock);
    if (!merged.ok() && maint_error_.ok()) maint_error_ = merged.status();
  }
  tasks_inflight_--;
  maint_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Merging
// ---------------------------------------------------------------------------

size_t LsmLifecycle::PickMergeRunLocked() const {
  const MergePolicy& mp = options_.merge_policy;
  switch (mp.kind) {
    case MergePolicyKind::kNoMerge:
      return 0;
    case MergePolicyKind::kConstant:
      if (components_.size() > static_cast<size_t>(mp.max_components)) {
        return components_.size();
      }
      return 0;
    case MergePolicyKind::kPrefix: {
      // Merge the longest newest-first run of small components whose total
      // stays under the cap; skip if the run is trivial.
      size_t run = 0;
      uint64_t total = 0;
      for (const auto& comp : components_) {
        uint64_t bytes = comp->bytes;
        if (bytes > mp.max_merged_bytes) break;
        if (total + bytes > mp.max_merged_bytes) break;
        total += bytes;
        run++;
      }
      return run >= 2 ? run : 0;
    }
  }
  return 0;
}

Status LsmLifecycle::MergeRunLocked(std::unique_lock<std::mutex>& lock,
                                    size_t run) {
  if (merge_active_) return Status::OK();  // another thread is merging
  if (run < 2 || run > components_.size()) {
    return Status::InvalidArgument("bad merge component count");
  }
  merge_active_ = true;
  const bool includes_oldest = run == components_.size();
  std::vector<DiskPtr> victims(
      components_.begin(), components_.begin() + static_cast<ptrdiff_t>(run));
  const uint64_t seq_lo = victims.back()->seq_lo;
  const uint64_t seq_hi = victims.front()->seq_hi;
  const std::string base = ComponentBase(seq_lo, seq_hi);
  lock.unlock();
  auto built = BuildMergedComponent(victims, includes_oldest, base);
  lock.lock();
  merge_active_ = false;
  maint_cv_.notify_all();
  if (!built.ok()) return built.status();
  // Flushes only prepend, so the victim run is still contiguous (and still
  // the oldest suffix if it was one); splice the merged component into its
  // place. Readers that pinned the victims keep reading them until their
  // last reference drops, at which point the files are unlinked.
  auto first =
      std::find(components_.begin(), components_.end(), victims.front());
  if (first == components_.end()) {
    return Status::Internal("merge victims vanished from component list");
  }
  DiskPtr merged = std::move(built).value();
  merged->seq_lo = seq_lo;
  merged->seq_hi = seq_hi;
  layout_.counters.merge_bytes->Add(merged->bytes);
  for (auto& victim : victims) victim->obsolete = true;
  auto pos = components_.erase(first, first + static_cast<ptrdiff_t>(run));
  components_.insert(pos, std::move(merged));
  merges_++;
  layout_.counters.merges->Add(1);
  return Status::OK();
}

Result<bool> LsmLifecycle::ApplyMergePolicyLocked(
    std::unique_lock<std::mutex>& lock) {
  if (merge_active_) return false;
  size_t run = PickMergeRunLocked();
  if (run < 2) return false;
  AX_RETURN_NOT_OK(MergeRunLocked(lock, run));
  return true;
}

Result<bool> LsmLifecycle::MaybeMerge() {
  std::unique_lock<std::mutex> lock(mu_);
  while (merge_active_) maint_cv_.wait(lock);
  return ApplyMergePolicyLocked(lock);
}

Status LsmLifecycle::ForceFullMerge() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!maint_error_.ok()) return maint_error_;
  RotateLocked();
  AX_RETURN_NOT_OK(DrainLocked(lock));
  while (merge_active_) maint_cv_.wait(lock);
  if (components_.size() < 2) return Status::OK();
  return MergeRunLocked(lock, components_.size());
}

LsmStats LsmLifecycle::StatsLocked() const {
  LsmStats s;
  s.mem_bytes = mem_bytes_;
  s.pending_immutables = immutables_.size();
  for (const auto& imm : immutables_) {
    s.mem_entries += imm->entries;
    s.mem_bytes += imm->bytes;
  }
  s.disk_components = components_.size();
  for (const auto& comp : components_) {
    s.disk_entries += comp->entries;
    s.disk_bytes += comp->bytes;
  }
  s.flushes = flushes_;
  s.merges = merges_;
  s.write_stalls = write_stalls_;
  return s;
}

}  // namespace asterix::storage
