#include "storage/lsm_btree.h"

#include <algorithm>

#include "adm/serde.h"
#include "common/compress.h"
#include "common/io.h"
#include "common/metrics.h"

namespace asterix::storage {

namespace {
// Component files: <name>_<lo>_<hi>.cmp (row B+tree) or .col (columnar),
// each with a .bloom sidecar that is written last (the commit point).
const LsmLayout& BTreeLayout() {
  static const LsmLayout layout{
      {".cmp", ".col"},
      ".bloom",
      {metrics::Registry::Global().GetCounter("storage.lsm.flushes"),
       metrics::Registry::Global().GetCounter("storage.lsm.flush_bytes"),
       metrics::Registry::Global().GetCounter("storage.lsm.merges"),
       metrics::Registry::Global().GetCounter("storage.lsm.merge_bytes"),
       metrics::Registry::Global().GetCounter("storage.lsm.write_stalls"),
       metrics::Registry::Global().GetCounter("storage.lsm.write_stall_ns"),
       metrics::Registry::Global().GetCounter(
           "storage.lsm.incomplete_components_dropped")}};
  return layout;
}
metrics::Counter* ColumnarComponentsCounter() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "storage.columnar.components_written");
  return c;
}

constexpr char kLive = 0;
constexpr char kAntimatter = 1;
constexpr char kLiveCompressed = 2;
constexpr size_t kCompressThreshold = 64;

// Encode a live value per the compression option; antimatter entries are
// always the bare kAntimatter byte.
std::string EncodeDiskValue(const std::string& value, bool antimatter,
                            bool compress) {
  if (antimatter) return std::string(1, kAntimatter);
  if (compress && value.size() >= kCompressThreshold) {
    std::string packed = Compress(value);
    if (packed.size() < value.size()) {
      std::string out(1, kLiveCompressed);
      out += packed;
      return out;
    }
  }
  std::string out(1, kLive);
  out += value;
  return out;
}

// True (and fills `records`, antimatter slots left Missing) iff every live
// row decodes to an ADM value the columnar layout can represent.
bool DecodeColumnarRecords(const std::vector<LsmBTree::SnapshotEntry>& rows,
                           std::vector<adm::Value>* records) {
  records->clear();
  records->reserve(rows.size());
  for (const auto& row : rows) {
    if (row.antimatter) {
      records->push_back(adm::Value::Missing());
      continue;
    }
    auto decoded = adm::Deserialize(row.value);
    if (!decoded.ok() || !RecordIsColumnar(decoded.value())) return false;
    records->push_back(std::move(decoded).value());
  }
  return true;
}
}  // namespace

bool DiskEntryIsAntimatter(const std::string& raw) {
  return !raw.empty() && raw[0] == kAntimatter;
}

Result<std::string> DecodeDiskEntry(const std::string& raw) {
  if (raw.empty()) return Status::Corruption("empty LSM disk entry");
  if (raw[0] == kLiveCompressed) return Decompress(raw.substr(1));
  return raw.substr(1);
}

LsmBTree::LsmBTree(const LsmOptions& options)
    : LsmLifecycle(options, BTreeLayout()),
      bloom_bits_per_key_(options.bloom_bits_per_key),
      compress_values_(options.compress_values),
      storage_format_(options.storage_format) {}

LsmBTree::~LsmBTree() { Close(); }

Result<std::unique_ptr<LsmBTree>> LsmBTree::Open(const LsmOptions& options) {
  auto tree = std::unique_ptr<LsmBTree>(new LsmBTree(options));
  AX_RETURN_NOT_OK(tree->Recover());
  return tree;
}

Result<LsmLifecycle::DiskPtr> LsmBTree::OpenDiskComponent(
    const std::string& base, const std::string& ext) const {
  auto comp = std::make_shared<DiskComponent>();
  const std::string data_path = base + ext;
  const std::string bloom_path = base + ".bloom";
  comp->files = {data_path, bloom_path};
  if (ext == ".col") {
    AX_ASSIGN_OR_RETURN(comp->col, ColumnarReader::Open(data_path));
    comp->bytes = comp->col->file_bytes();
    comp->entries = comp->col->row_count();
  } else {
    AX_ASSIGN_OR_RETURN(comp->tree, BTree::Open(data_path, options_.cache));
    comp->bytes =
        static_cast<uint64_t>(comp->tree->meta().page_count) * kPageSize;
    comp->entries = comp->tree->entry_count();
  }
  AX_ASSIGN_OR_RETURN(auto bloom_data, fs::ReadFileToString(bloom_path));
  AX_ASSIGN_OR_RETURN(comp->bloom, BloomFilter::Deserialize(bloom_data));
  return DiskPtr(std::move(comp));
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

std::shared_ptr<LsmMemComponent> LsmBTree::FreezeMemLocked() {
  if (mem_.empty()) return nullptr;
  auto imm = std::make_shared<MemComponent>();
  imm->entries = mem_.size();
  imm->rows = std::move(mem_);
  mem_.clear();
  return imm;
}

Status LsmBTree::Put(const std::string& key, const std::string& value) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!maint_error().ok()) return maint_error();
  mem_.insert_or_assign(key, MemEntry{false, value});
  return AfterWriteLocked(lock, key.size() + value.size() + 32);
}

Status LsmBTree::Delete(const std::string& key) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!maint_error().ok()) return maint_error();
  mem_.insert_or_assign(key, MemEntry{true, ""});
  return AfterWriteLocked(lock, key.size() + 32);
}

Result<bool> LsmBTree::Get(const std::string& key, std::string* value) const {
  std::vector<MemPtr> imms;
  std::vector<DiskPtr> comps;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = mem_.find(key);
    if (it != mem_.end()) {
      if (it->second.antimatter) return false;
      if (value) *value = it->second.value;
      return true;
    }
    imms = immutables_;
    comps = components_;
  }
  // Immutable memory components are frozen; probing them off-lock is safe.
  for (const auto& imm : imms) {
    const auto& rows = static_cast<const MemComponent&>(*imm).rows;
    auto it = rows.find(key);
    if (it == rows.end()) continue;
    if (it->second.antimatter) return false;
    if (value) *value = it->second.value;
    return true;
  }
  for (const auto& c : comps) {
    const DiskComponent& comp = AsDisk(c);
    if (!comp.bloom.MayContain(key)) continue;
    if (comp.columnar()) {
      uint64_t row = comp.col->LowerBound(key);
      if (row >= comp.col->row_count() || comp.col->key(row) != key) continue;
      if (comp.col->antimatter(row)) return false;
      if (value) {
        AX_ASSIGN_OR_RETURN(adm::Value record, comp.col->ReadRecord(row));
        *value = adm::Serialize(record);
      }
      return true;
    }
    std::string raw;
    AX_ASSIGN_OR_RETURN(bool found, comp.tree->Get(key, &raw));
    if (!found) continue;
    if (raw.empty()) return Status::Corruption("empty LSM disk entry");
    if (raw[0] == kAntimatter) return false;
    if (value) {
      AX_ASSIGN_OR_RETURN(*value, DecodeDiskEntry(raw));
    }
    return true;
  }
  return false;
}

Result<LsmLifecycle::DiskPtr> LsmBTree::BuildDiskComponent(
    const std::vector<SnapshotEntry>& rows, const std::string& base) const {
  auto comp = std::make_shared<DiskComponent>();
  const std::string bloom_path = base + ".bloom";
  comp->bloom =
      BloomFilter(std::max<uint64_t>(rows.size(), 16), bloom_bits_per_key_);
  for (const auto& row : rows) comp->bloom.Add(row.key);
  comp->entries = rows.size();

  std::vector<adm::Value> records;
  if (storage_format_ == StorageFormat::kColumnar &&
      DecodeColumnarRecords(rows, &records)) {
    const std::string data_path = base + ".col";
    comp->files = {data_path, bloom_path};
    ColumnarComponentWriter writer(data_path);
    for (size_t i = 0; i < rows.size(); i++) {
      writer.Add(rows[i].key, rows[i].antimatter, std::move(records[i]));
    }
    AX_ASSIGN_OR_RETURN(auto wrote, writer.Finish());
    AX_ASSIGN_OR_RETURN(comp->col, ColumnarReader::Open(data_path));
    comp->bytes = wrote.file_bytes;
    ColumnarComponentsCounter()->Add(1);
  } else {
    const std::string data_path = base + ".cmp";
    comp->files = {data_path, bloom_path};
    AX_ASSIGN_OR_RETURN(auto builder, BTreeBuilder::Create(data_path));
    for (const auto& row : rows) {
      AX_RETURN_NOT_OK(builder->Add(
          row.key,
          EncodeDiskValue(row.value, row.antimatter, compress_values_)));
    }
    AX_ASSIGN_OR_RETURN(auto meta, builder->Finish());
    AX_ASSIGN_OR_RETURN(comp->tree, BTree::Open(data_path, options_.cache));
    comp->bytes = static_cast<uint64_t>(meta.page_count) * kPageSize;
  }
  // The Bloom file is written last: it is the flush commit point that
  // recovery uses to distinguish complete components from torn flushes.
  AX_RETURN_NOT_OK(fs::WriteStringToFile(bloom_path, comp->bloom.Serialize()));
  return DiskPtr(std::move(comp));
}

Result<LsmLifecycle::DiskPtr> LsmBTree::BuildFlushComponent(
    const LsmMemComponent& mem, bool oldest, const std::string& base) const {
  const auto& frozen = static_cast<const MemComponent&>(mem);
  std::vector<SnapshotEntry> rows;
  rows.reserve(frozen.rows.size());
  for (const auto& [key, entry] : frozen.rows) {
    if (entry.antimatter && oldest) continue;  // nothing below to hide
    rows.push_back(SnapshotEntry{key, entry.antimatter, entry.value});
  }
  return BuildDiskComponent(rows, base);
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

struct LsmBTree::Iterator::Source {
  int rank = 0;  // lower = newer
  // Memory snapshot source:
  std::vector<std::pair<std::string, MemEntry>> snapshot;
  size_t idx = 0;
  bool is_mem = false;
  // Disk source (row component):
  ComponentPtr comp;
  std::unique_ptr<BTree::Iterator> disk;
  // Disk source (columnar component): all columns preloaded so full scans
  // and merges materialize from memory instead of per-row preads.
  bool is_col = false;
  std::vector<ColumnData> cols;
  uint64_t row = 0;

  bool valid() const {
    if (is_mem) return idx < snapshot.size();
    if (is_col) return row < comp->col->row_count();
    return disk && disk->Valid();
  }
  const std::string& key() const {
    if (is_mem) return snapshot[idx].first;
    if (is_col) return comp->col->key(row);
    return disk->key();
  }
  bool antimatter() const {
    if (is_mem) return snapshot[idx].second.antimatter;
    if (is_col) return comp->col->antimatter(row);
    return !disk->value().empty() && disk->value()[0] == kAntimatter;
  }
  Result<std::string> value() const {
    if (is_mem) return snapshot[idx].second.value;
    if (is_col) {
      AX_ASSIGN_OR_RETURN(adm::Value record, comp->col->MaterializeRow(cols, row));
      return adm::Serialize(record);
    }
    return DecodeDiskEntry(disk->value());
  }
  Status Next() {
    if (is_mem) {
      idx++;
      return Status::OK();
    }
    if (is_col) {
      row++;
      return Status::OK();
    }
    return disk->Next();
  }
  Status Seek(const std::string& k) {
    if (is_mem) {
      idx = static_cast<size_t>(
          std::lower_bound(snapshot.begin(), snapshot.end(), k,
                           [](const auto& a, const std::string& b) {
                             return a.first < b;
                           }) -
          snapshot.begin());
      return Status::OK();
    }
    if (is_col) {
      row = comp->col->LowerBound(k);
      return Status::OK();
    }
    return disk->Seek(k);
  }
  Status SeekToFirst() {
    if (is_mem) {
      idx = 0;
      return Status::OK();
    }
    if (is_col) {
      row = 0;
      return Status::OK();
    }
    return disk->SeekToFirst();
  }

  static Result<std::unique_ptr<Source>> ForComponent(const DiskPtr& c,
                                                      int rank) {
    auto src = std::make_unique<Source>();
    src->rank = rank;
    src->comp = std::static_pointer_cast<const DiskComponent>(c);
    if (src->comp->columnar()) {
      src->is_col = true;
      AX_ASSIGN_OR_RETURN(src->cols, src->comp->col->ReadAllColumns());
    } else {
      src->disk =
          std::make_unique<BTree::Iterator>(src->comp->tree->NewIterator());
    }
    return src;
  }
};

LsmBTree::Iterator::Iterator(std::vector<std::unique_ptr<Source>> sources)
    : sources_(std::move(sources)) {}
LsmBTree::Iterator::Iterator(Iterator&&) noexcept = default;
LsmBTree::Iterator& LsmBTree::Iterator::operator=(Iterator&&) noexcept =
    default;
LsmBTree::Iterator::~Iterator() = default;

Status LsmBTree::Iterator::Seek(const std::string& key) {
  for (auto& s : sources_) AX_RETURN_NOT_OK(s->Seek(key));
  return Advance(true);
}

Status LsmBTree::Iterator::SeekToFirst() {
  for (auto& s : sources_) AX_RETURN_NOT_OK(s->SeekToFirst());
  return Advance(true);
}

Status LsmBTree::Iterator::Next() { return Advance(false); }

Status LsmBTree::Iterator::Advance(bool first) {
  (void)first;
  valid_ = false;
  while (true) {
    // Find the smallest key across sources; the newest source wins.
    const Source* winner = nullptr;
    const std::string* min_key = nullptr;
    for (const auto& s : sources_) {
      if (!s->valid()) continue;
      if (min_key == nullptr || s->key() < *min_key) {
        min_key = &s->key();
        winner = s.get();
      } else if (s->key() == *min_key && s->rank < winner->rank) {
        winner = s.get();
      }
    }
    if (winner == nullptr) return Status::OK();  // exhausted
    std::string k = *min_key;
    bool anti = winner->antimatter();
    std::string v;
    if (!anti) {
      AX_ASSIGN_OR_RETURN(v, winner->value());
    }
    // Advance every source positioned at this key.
    for (auto& s : sources_) {
      while (s->valid() && s->key() == k) AX_RETURN_NOT_OK(s->Next());
    }
    if (anti) continue;  // deleted — try the next key
    key_ = std::move(k);
    value_ = std::move(v);
    valid_ = true;
    return Status::OK();
  }
}

Result<LsmBTree::Iterator> LsmBTree::NewIterator() const {
  std::vector<std::unique_ptr<Iterator::Source>> sources;
  std::vector<MemPtr> imms;
  std::vector<DiskPtr> comps;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto mem_src = std::make_unique<Iterator::Source>();
    mem_src->is_mem = true;
    mem_src->rank = 0;
    mem_src->snapshot.assign(mem_.begin(), mem_.end());
    sources.push_back(std::move(mem_src));
    imms = immutables_;
    comps = components_;
  }
  int rank = 1;
  for (const auto& imm : imms) {  // newest first, like components_
    auto src = std::make_unique<Iterator::Source>();
    src->is_mem = true;
    src->rank = rank++;
    const auto& rows = static_cast<const MemComponent&>(*imm).rows;
    src->snapshot.assign(rows.begin(), rows.end());
    sources.push_back(std::move(src));
  }
  for (const auto& comp : comps) {
    AX_ASSIGN_OR_RETURN(auto src, Iterator::Source::ForComponent(comp, rank++));
    sources.push_back(std::move(src));
  }
  return Iterator(std::move(sources));
}

LsmBTree::ScanSnapshot LsmBTree::GetScanSnapshot() const {
  ScanSnapshot snap;
  std::vector<MemPtr> imms;
  std::vector<DiskPtr> comps;
  std::map<std::string, MemEntry> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    merged = mem_;
    imms = immutables_;
    comps = components_;
  }
  // Fold immutable memory components under the mutable one, newest wins
  // (map::insert keeps the existing — newer — entry on key collision).
  for (const auto& imm : imms) {
    const auto& rows = static_cast<const MemComponent&>(*imm).rows;
    merged.insert(rows.begin(), rows.end());
  }
  snap.mem.reserve(merged.size());
  for (const auto& [key, entry] : merged) {
    snap.mem.push_back(SnapshotEntry{key, entry.antimatter, entry.value});
  }
  for (const auto& c : comps) {
    const DiskComponent& comp = AsDisk(c);
    ComponentRef ref;
    ref.keepalive = c;
    if (comp.columnar()) {
      ref.columnar = comp.col.get();
    } else {
      ref.tree = comp.tree.get();
    }
    snap.components.push_back(std::move(ref));
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Merging
// ---------------------------------------------------------------------------

Result<LsmLifecycle::DiskPtr> LsmBTree::BuildMergedComponent(
    const std::vector<DiskPtr>& victims, bool includes_oldest,
    const std::string& base) const {
  // Build a merged stream over the victim components only. Victims are
  // pinned by shared_ptr and immutable, so no lock is needed.
  std::vector<std::unique_ptr<Iterator::Source>> sources;
  int rank = 0;
  for (const auto& comp : victims) {
    AX_ASSIGN_OR_RETURN(auto src, Iterator::Source::ForComponent(comp, rank++));
    sources.push_back(std::move(src));
  }
  for (auto& s : sources) AX_RETURN_NOT_OK(s->SeekToFirst());

  // Buffer the merged rows, then write them out in the configured format
  // (this is what converges a mixed row/columnar stack: the merge output is
  // a single component in the tree's current format).
  std::vector<SnapshotEntry> rows;
  while (true) {
    Iterator::Source* winner = nullptr;
    const std::string* min_key = nullptr;
    for (auto& s : sources) {
      if (!s->valid()) continue;
      if (min_key == nullptr || s->key() < *min_key) {
        min_key = &s->key();
        winner = s.get();
      } else if (s->key() == *min_key && s->rank < winner->rank) {
        winner = s.get();
      }
    }
    if (winner == nullptr) break;
    std::string k = *min_key;
    bool anti = winner->antimatter();
    std::string v;
    if (!anti) {
      AX_ASSIGN_OR_RETURN(v, winner->value());
    }
    for (auto& s : sources) {
      while (s->valid() && s->key() == k) AX_RETURN_NOT_OK(s->Next());
    }
    if (anti && includes_oldest) continue;  // nothing older to annihilate
    rows.push_back(SnapshotEntry{std::move(k), anti, std::move(v)});
  }
  return BuildDiskComponent(rows, base);
}

LsmStats LsmBTree::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  LsmStats s = StatsLocked();
  s.mem_entries += mem_.size();
  for (const auto& comp : components_) {
    if (AsDisk(comp).columnar()) s.columnar_components++;
  }
  return s;
}

}  // namespace asterix::storage
