#include "bench_math.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {
namespace {

// 0-based index into the sorted sample of the nearest-rank percentile `p`.
size_t NearestRankIndex(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  if (rank < 1) rank = 1;
  size_t r = static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - NearestRankIndex(n, p);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  size_t i = NearestRankIndex(samples.size(), p);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(i),
                   samples.end());
  return samples[i];
}

std::optional<double> ChooseTailPercentile(
    const std::vector<size_t>& class_counts, std::vector<double> candidates,
    size_t min_beyond) {
  if (class_counts.empty()) return std::nullopt;
  std::sort(candidates.begin(), candidates.end(), std::greater<>());
  for (double p : candidates) {
    bool ok = std::all_of(class_counts.begin(), class_counts.end(),
                          [&](size_t n) { return SamplesBeyond(n, p) >= min_beyond; });
    if (ok) return p;
  }
  return std::nullopt;
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) {
    if (!(v > 0)) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::optional<uint64_t> ParseWchar(std::string_view proc_io) {
  constexpr std::string_view kField = "wchar:";
  size_t pos = 0;
  while (pos < proc_io.size()) {
    size_t eol = proc_io.find('\n', pos);
    if (eol == std::string_view::npos) eol = proc_io.size();
    std::string_view line = proc_io.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.substr(0, kField.size()) != kField) continue;
    line.remove_prefix(kField.size());
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    uint64_t v = 0;
    auto [end, ec] = std::from_chars(line.data(), line.data() + line.size(), v);
    if (ec != std::errc() || end == line.data()) return std::nullopt;
    return v;
  }
  return std::nullopt;
}

std::optional<uint64_t> ReadSelfWchar() {
  std::ifstream in("/proc/self/io");
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  return ParseWchar(ss.str());
}

uint64_t WcharDelta(uint64_t before, uint64_t after) {
  return after >= before ? after - before : 0;
}

uint64_t SelfTimeNs(uint64_t start, uint64_t end,
                    std::vector<std::pair<uint64_t, uint64_t>> children) {
  if (end <= start) return 0;
  std::sort(children.begin(), children.end());
  uint64_t covered = 0;
  uint64_t cursor = start;  // everything before cursor is accounted for
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e <= s) continue;
    covered += e - s;
    cursor = e;
  }
  return end - start - covered;
}

void ShadowStore::Reset(size_t keys) {
  entries_.assign(keys, Entry{});
  live_count_ = 0;
  live_text_bytes_ = 0;
  written_text_bytes_ = 0;
}

void ShadowStore::Put(int64_t key, uint64_t fingerprint, size_t text_bytes) {
  Entry& e = entries_[static_cast<size_t>(key)];
  if (e.live) {
    live_text_bytes_ -= e.text_bytes;
  } else {
    live_count_++;
  }
  e.live = true;
  e.fingerprint = fingerprint;
  e.text_bytes = static_cast<uint32_t>(text_bytes);
  live_text_bytes_ += text_bytes;
  written_text_bytes_ += text_bytes;
}

bool ShadowStore::Erase(int64_t key, size_t key_text_bytes) {
  Entry& e = entries_[static_cast<size_t>(key)];
  written_text_bytes_ += key_text_bytes;
  if (!e.live) return false;
  live_text_bytes_ -= e.text_bytes;
  live_count_--;
  e = Entry{};
  return true;
}

}  // namespace perfbench
