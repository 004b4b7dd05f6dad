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

bool DiskEntryIsAntimatter(const std::string& raw) {
  return !raw.empty() && raw[0] == kAntimatter;
}

// The live value of a row-component entry, written into `*out` (whose
// capacity a scan reuses from entry to entry).
Status DecodeDiskEntry(const std::string& raw, std::string* out) {
  if (raw.empty()) return Status::Corruption("empty LSM disk entry");
  if (raw[0] == kLiveCompressed) {
    AX_ASSIGN_OR_RETURN(*out, Decompress(raw.substr(1)));
    return Status::OK();
  }
  out->assign(raw, 1, std::string::npos);
  return Status::OK();
}
}  // namespace

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
    if (value) AX_RETURN_NOT_OK(DecodeDiskEntry(raw, value));
    return true;
  }
  return false;
}

Result<LsmLifecycle::DiskPtr> LsmBTree::BuildDiskComponent(
    const std::vector<ComponentRow>& rows, const std::string& base) const {
  auto comp = std::make_shared<DiskComponent>();
  const std::string bloom_path = base + ".bloom";
  comp->bloom =
      BloomFilter(std::max<uint64_t>(rows.size(), 16), bloom_bits_per_key_);
  for (const auto& row : rows) comp->bloom.Add(row.key);
  comp->entries = rows.size();

  // Columnar only if every live row decodes to an ADM value the columnar
  // layout can represent (antimatter slots stay Missing).
  std::vector<adm::Value> records;
  bool columnar = storage_format_ == StorageFormat::kColumnar;
  if (columnar) records.reserve(rows.size());
  for (size_t i = 0; columnar && i < rows.size(); i++) {
    if (rows[i].antimatter) {
      records.push_back(adm::Value::Missing());
      continue;
    }
    auto decoded = adm::Deserialize(rows[i].value);
    columnar = decoded.ok() && RecordIsColumnar(decoded.value());
    if (columnar) records.push_back(std::move(decoded).value());
  }
  if (columnar) {
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
  std::vector<ComponentRow> rows;
  rows.reserve(frozen.rows.size());
  for (const auto& [key, entry] : frozen.rows) {
    if (entry.antimatter && oldest) continue;  // nothing below to hide
    rows.push_back(ComponentRow{key, entry.antimatter, entry.value});
  }
  return BuildDiskComponent(rows, base);
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

// One input of the merge: a copy of a memory component, a row (.cmp)
// component or a columnar (.col) component. A disk source pins its
// component.
struct LsmBTree::Iterator::Source {
  // Memory component:
  bool is_mem = false;
  std::vector<std::pair<std::string, MemEntry>> snapshot;
  size_t idx = 0;
  // Disk component:
  ComponentPtr comp;
  std::unique_ptr<BTree::Iterator> disk;  // row component
  const ColumnarReader* col = nullptr;    // columnar component
  uint64_t row = 0;
  bool cols_loaded = false;
  std::vector<ColumnData> cols;  // every column, once a value is asked for

  bool valid() const {
    if (is_mem) return idx < snapshot.size();
    if (col) return row < col->row_count();
    return disk->Valid();
  }
  const std::string& key() const {
    if (is_mem) return snapshot[idx].first;
    if (col) return col->key(row);
    return disk->key();
  }
  bool antimatter() const {
    if (is_mem) return snapshot[idx].second.antimatter;
    if (col) return col->antimatter(row);
    return DiskEntryIsAntimatter(disk->value());
  }
  /// The current disk entry's value (memory values are read in place).
  Status DiskValue(std::string* out) {
    if (col == nullptr) return DecodeDiskEntry(disk->value(), out);
    if (!cols_loaded) {
      AX_ASSIGN_OR_RETURN(cols, col->ReadAllColumns());
      cols_loaded = true;
    }
    AX_ASSIGN_OR_RETURN(adm::Value record, col->MaterializeRow(cols, row));
    out->clear();
    adm::SerializeValue(record, out);
    return Status::OK();
  }
  Status Next() {
    if (is_mem) {
      idx++;
      return Status::OK();
    }
    if (col) {
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
    if (col) {
      row = col->LowerBound(k);
      return Status::OK();
    }
    return disk->Seek(k);
  }
  Status SeekToFirst() {
    if (is_mem) {
      idx = 0;
      return Status::OK();
    }
    if (col) {
      row = 0;
      return Status::OK();
    }
    return disk->SeekToFirst();
  }

  static std::unique_ptr<Source> ForMemory(
      const std::map<std::string, MemEntry>& rows) {
    auto src = std::make_unique<Source>();
    src->is_mem = true;
    src->snapshot.assign(rows.begin(), rows.end());
    return src;
  }
  static std::unique_ptr<Source> ForComponent(const DiskPtr& c) {
    auto src = std::make_unique<Source>();
    src->comp = std::static_pointer_cast<const DiskComponent>(c);
    if (src->comp->columnar()) {
      src->col = src->comp->col.get();
    } else {
      src->disk =
          std::make_unique<BTree::Iterator>(src->comp->tree->NewIterator());
    }
    return src;
  }
};

LsmBTree::Iterator::Iterator(std::vector<std::unique_ptr<Source>> sources,
                             bool surface_antimatter)
    : sources_(std::move(sources)), surface_antimatter_(surface_antimatter) {}
LsmBTree::Iterator::Iterator(Iterator&&) noexcept = default;
LsmBTree::Iterator& LsmBTree::Iterator::operator=(Iterator&&) noexcept =
    default;
LsmBTree::Iterator::~Iterator() = default;

Status LsmBTree::Iterator::Seek(const std::string& key) {
  for (auto& s : sources_) AX_RETURN_NOT_OK(s->Seek(key));
  status_ = Status::OK();
  live_ = 0;
  return Select();
}

Status LsmBTree::Iterator::SeekToFirst() {
  for (auto& s : sources_) AX_RETURN_NOT_OK(s->SeekToFirst());
  status_ = Status::OK();
  live_ = 0;
  return Select();
}

Status LsmBTree::Iterator::Next() {
  if (!status_.ok()) return status_;
  if (current_ == nullptr) return Status::OK();
  AX_RETURN_NOT_OK(StepPast());
  return Select();
}

Status LsmBTree::Iterator::StepPast() {
  if (live_ > 1) {
    // Keys are unique within a source, so each steps at most once.
    for (auto& s : sources_) {
      if (s.get() != current_ && s->valid() && s->key() == current_->key()) {
        AX_RETURN_NOT_OK(s->Next());
      }
    }
  }
  return current_->Next();
}

Status LsmBTree::Iterator::Select() {
  value_ready_ = false;
  while (true) {
    if (live_ == 1) {
      // The other sources are exhausted: no keys to compare.
      if (!current_->valid()) {
        current_ = nullptr;
        live_ = 0;
      }
    } else {
      current_ = nullptr;
      live_ = 0;
      for (auto& s : sources_) {
        if (!s->valid()) continue;
        live_++;
        // Strictly smaller: on equal keys the newer source, met first, wins.
        if (current_ == nullptr || s->key() < current_->key()) {
          current_ = s.get();
        }
      }
    }
    if (current_ == nullptr || surface_antimatter_ || !current_->antimatter()) {
      return Status::OK();
    }
    AX_RETURN_NOT_OK(StepPast());  // a deleted key: try the next one
  }
}

const std::string& LsmBTree::Iterator::key() const { return current_->key(); }

const std::string& LsmBTree::Iterator::value() const {
  if (current_->is_mem) return current_->snapshot[current_->idx].second.value;
  if (!value_ready_) {
    value_ready_ = true;
    Status s = current_->DiskValue(&value_);
    if (!s.ok()) {
      value_.clear();
      status_ = std::move(s);
    }
  }
  return value_;
}

bool LsmBTree::Iterator::antimatter() const { return current_->antimatter(); }

const ColumnarReader* LsmBTree::Iterator::columnar_reader() const {
  return current_->col;
}

uint64_t LsmBTree::Iterator::columnar_row() const { return current_->row; }

Result<LsmBTree::Iterator> LsmBTree::NewIterator() const {
  std::vector<std::unique_ptr<Iterator::Source>> sources;
  std::vector<MemPtr> imms;
  std::vector<DiskPtr> comps;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!mem_.empty()) sources.push_back(Iterator::Source::ForMemory(mem_));
    imms = immutables_;
    comps = components_;
  }
  for (const auto& imm : imms) {  // newest first, like components_
    sources.push_back(Iterator::Source::ForMemory(
        static_cast<const MemComponent&>(*imm).rows));
  }
  for (const auto& comp : comps) {
    sources.push_back(Iterator::Source::ForComponent(comp));
  }
  return Iterator(std::move(sources), /*surface_antimatter=*/false);
}

// ---------------------------------------------------------------------------
// Merging
// ---------------------------------------------------------------------------

Result<LsmLifecycle::DiskPtr> LsmBTree::BuildMergedComponent(
    const std::vector<DiskPtr>& victims, bool includes_oldest,
    const std::string& base) const {
  // Iterate the victims only; they are pinned and immutable, so no lock is
  // needed. Antimatter survives unless the run includes the oldest
  // component, which leaves nothing below for it to hide.
  std::vector<std::unique_ptr<Iterator::Source>> sources;
  for (const auto& comp : victims) {
    sources.push_back(Iterator::Source::ForComponent(comp));
  }
  Iterator it(std::move(sources), /*surface_antimatter=*/!includes_oldest);

  // Buffer the merged rows, then write them out in the configured format
  // (this is what converges a mixed row/columnar stack: the merge output is
  // a single component in the tree's current format).
  std::vector<ComponentRow> rows;
  AX_RETURN_NOT_OK(it.SeekToFirst());
  while (it.Valid()) {
    const bool anti = it.antimatter();
    rows.push_back(ComponentRow{it.key(), anti, anti ? "" : it.value()});
    AX_RETURN_NOT_OK(it.Next());
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
