// The benchmark's own arithmetic, kept free of the database so it can be
// unit-tested: percentile selection, the per-class geometric mean, the
// /proc/self/io write counter, the ADM-text denominators of space and write
// amplification, and span self time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples strictly above the nearest-rank `p` percentile of `n` samples
/// (the ceil(p/100 * n)-th smallest, 0 < p <= 100).
size_t SamplesBeyond(size_t n, double p);

/// Nearest-rank percentile of `samples` (need not be sorted). 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// The highest percentile in `candidates` that leaves at least
/// `min_beyond` samples beyond it in every class of `class_counts`;
/// nullopt when none does (or there are no classes).
std::optional<double> ChooseTailPercentile(
    const std::vector<size_t>& class_counts, std::vector<double> candidates,
    size_t min_beyond = 10);

/// Geometric mean of strictly positive values; 0 if empty or any <= 0.
double GeometricMean(const std::vector<double>& values);

/// The `wchar:` field (bytes passed to write-class syscalls) of a
/// /proc/<pid>/io document; nullopt if absent or malformed.
std::optional<uint64_t> ParseWchar(std::string_view proc_io);

/// ParseWchar over /proc/self/io (whole process, every thread).
std::optional<uint64_t> ReadSelfWchar();

/// Bytes written between two readings; 0 if the counter went backwards.
uint64_t WcharDelta(uint64_t before, uint64_t after);

/// Self time of a span: its length minus the part of [start, end) that the
/// union of its children's intervals covers (children may overlap or
/// extend past the parent; only the covered overlap is subtracted).
uint64_t SelfTimeNs(uint64_t start, uint64_t end,
                    std::vector<std::pair<uint64_t, uint64_t>> children);

/// Shadow of a dataset with dense integer keys [0, n): per key, whether it
/// is live, a fingerprint of its latest value and that value's ADM-text
/// size. It is the correctness oracle for reads and the denominator of
/// both amplification metrics:
///   space_amp = bytes on disk / live_text_bytes()
///   write_amp = bytes written  / written_text_bytes()
/// An upsert writes its record's ADM text; a delete writes its key's.
class ShadowStore {
 public:
  struct Entry {
    bool live = false;
    uint64_t fingerprint = 0;
    uint32_t text_bytes = 0;
  };

  explicit ShadowStore(size_t keys = 0) : entries_(keys) {}

  void Reset(size_t keys);
  void Put(int64_t key, uint64_t fingerprint, size_t text_bytes);
  /// Returns whether the key was live.
  bool Erase(int64_t key, size_t key_text_bytes);
  const Entry& Get(int64_t key) const {
    return entries_[static_cast<size_t>(key)];
  }

  size_t live_count() const { return live_count_; }
  uint64_t live_text_bytes() const { return live_text_bytes_; }
  uint64_t written_text_bytes() const { return written_text_bytes_; }
  /// Start a new write window (the live state is kept).
  void ResetWritten() { written_text_bytes_ = 0; }

 private:
  std::vector<Entry> entries_;
  size_t live_count_ = 0;
  uint64_t live_text_bytes_ = 0;
  uint64_t written_text_bytes_ = 0;
};

}  // namespace perfbench
