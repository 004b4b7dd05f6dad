#include "hyracks/columnar_scan.h"

#include <algorithm>

#include "adm/serde.h"
#include "common/metrics.h"

namespace asterix::hyracks {

namespace {
metrics::Counter* ColumnsSkippedCounter() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "storage.columnar.columns_skipped");
  return c;
}
metrics::Counter* BatchPredicateEvalsCounter() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "storage.columnar.batch_predicate_evals");
  return c;
}

bool PassesCmp(int c, ScanCmp cmp) {
  switch (cmp) {
    case ScanCmp::kEq: return c == 0;
    case ScanCmp::kLt: return c < 0;
    case ScanCmp::kLe: return c <= 0;
    case ScanCmp::kGt: return c > 0;
    case ScanCmp::kGe: return c >= 0;
  }
  return false;
}
}  // namespace

// One merge-input cursor: the memory snapshot, a row (.cmp) component, or a
// columnar (.col) component with its needed columns preloaded.
struct ColumnarScanSource::Source {
  int rank = 0;  // lower = newer

  // Memory snapshot:
  bool is_mem = false;
  const std::vector<storage::LsmBTree::SnapshotEntry>* mem = nullptr;
  size_t idx = 0;

  // Row component:
  const storage::BTree* tree = nullptr;
  std::unique_ptr<storage::BTree::Iterator> iter;

  // Columnar component:
  const storage::ColumnarReader* col = nullptr;
  uint64_t row = 0;
  // Loaded columns, parallel to reader column indexes in `col_idx`. When
  // the projection was not pushed this is every column (in reader order,
  // so MaterializeRow applies); otherwise only the needed subset.
  std::vector<storage::ColumnData> cols;
  std::vector<int> col_idx;

  /// Loaded column for `name`, or nullptr (absent column == MISSING field).
  const storage::ColumnData* Find(const std::string& name) const {
    int want = col->FindColumn(name);
    if (want < 0) return nullptr;
    auto it = std::lower_bound(col_idx.begin(), col_idx.end(), want);
    if (it == col_idx.end() || *it != want) return nullptr;
    return &cols[static_cast<size_t>(it - col_idx.begin())];
  }

  bool valid() const {
    if (is_mem) return idx < mem->size();
    if (col) return row < col->row_count();
    return iter->Valid();
  }
  const std::string& key() const {
    if (is_mem) return (*mem)[idx].key;
    if (col) return col->key(row);
    return iter->key();
  }
  bool antimatter() const {
    if (is_mem) return (*mem)[idx].antimatter;
    if (col) return col->antimatter(row);
    return storage::DiskEntryIsAntimatter(iter->value());
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
    return iter->Next();
  }
};

// One row that won the newest-version merge for its key. Columnar rows are
// addressed by (source, row) — cells decode straight from columns; other
// rows carry their serialized record, deserialized lazily at most once.
struct ColumnarScanSource::Candidate {
  Source* src = nullptr;
  uint64_t row = 0;       // columnar: row index in src
  std::string raw;        // mem/row: serialized record
  bool keep = true;
  bool decoded = false;
  adm::Value record = adm::Value::Missing();

  Result<const adm::Value*> Record() {
    if (!decoded) {
      AX_ASSIGN_OR_RETURN(record, adm::Deserialize(raw));
      decoded = true;
    }
    return &record;
  }
};

ColumnarScanSource::ColumnarScanSource(const storage::LsmBTree* tree,
                                       std::vector<std::string> fields,
                                       bool fields_pushed,
                                       std::vector<ScanPredicate> predicates)
    : tree_(tree), fields_(std::move(fields)), fields_pushed_(fields_pushed),
      predicates_(std::move(predicates)) {}

ColumnarScanSource::~ColumnarScanSource() = default;

Status ColumnarScanSource::Open() {
  snap_ = tree_->GetScanSnapshot();
  sources_.clear();
  rows_.clear();
  pos_ = 0;
  exhausted_ = false;

  // Columns a columnar component must load: the projected fields plus every
  // predicate field (predicates may reference non-projected fields).
  std::vector<std::string> needed = fields_;
  for (const auto& p : predicates_) needed.push_back(p.field);
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());

  int rank = 0;
  if (!snap_.mem.empty()) {
    auto src = std::make_unique<Source>();
    src->is_mem = true;
    src->mem = &snap_.mem;
    src->rank = rank;
    sources_.push_back(std::move(src));
  }
  rank++;
  for (const auto& comp : snap_.components) {
    auto src = std::make_unique<Source>();
    src->rank = rank++;
    if (comp.columnar != nullptr) {
      src->col = comp.columnar;
      if (fields_pushed_) {
        for (const auto& name : needed) {
          int c = src->col->FindColumn(name);
          if (c < 0) continue;
          AX_ASSIGN_OR_RETURN(auto data,
                              src->col->ReadColumn(static_cast<size_t>(c)));
          src->cols.push_back(std::move(data));
          src->col_idx.push_back(c);
        }
        ColumnsSkippedCounter()->Add(src->col->num_columns() -
                                     src->cols.size());
      } else {
        AX_ASSIGN_OR_RETURN(src->cols, src->col->ReadAllColumns());
        src->col_idx.resize(src->cols.size());
        for (size_t c = 0; c < src->cols.size(); c++) {
          src->col_idx[c] = static_cast<int>(c);
        }
      }
    } else {
      src->tree = comp.tree;
      src->iter = std::make_unique<storage::BTree::Iterator>(
          comp.tree->NewIterator());
      AX_RETURN_NOT_OK(src->iter->SeekToFirst());
    }
    sources_.push_back(std::move(src));
  }
  return Status::OK();
}

Status ColumnarScanSource::Refill() {
  rows_.clear();
  pos_ = 0;
  if (exhausted_) return Status::OK();

  // Phase 1: gather up to kFrameTuples newest-version live candidates.
  std::vector<Candidate> cands;
  cands.reserve(kFrameTuples);
  const bool single_col = sources_.size() == 1 && sources_[0]->col != nullptr;
  while (cands.size() < kFrameTuples) {
    if (single_col) {
      // Fast path: one columnar component, no key comparisons at all.
      Source* s = sources_[0].get();
      if (!s->valid()) {
        exhausted_ = true;
        break;
      }
      if (!s->antimatter()) {
        Candidate c;
        c.src = s;
        c.row = s->row;
        cands.push_back(std::move(c));
      }
      AX_RETURN_NOT_OK(s->Next());
      continue;
    }
    Source* winner = nullptr;
    const std::string* min_key = nullptr;
    for (auto& s : sources_) {
      if (!s->valid()) continue;
      if (min_key == nullptr || s->key() < *min_key) {
        min_key = &s->key();
        winner = s.get();
      } else if (s->key() == *min_key && s->rank < winner->rank) {
        winner = s.get();
      }
    }
    if (winner == nullptr) {
      exhausted_ = true;
      break;
    }
    std::string k = *min_key;
    if (!winner->antimatter()) {
      Candidate c;
      c.src = winner;
      if (winner->col != nullptr) {
        c.row = winner->row;
      } else if (winner->is_mem) {
        c.raw = (*winner->mem)[winner->idx].value;
      } else {
        AX_ASSIGN_OR_RETURN(c.raw, storage::DecodeDiskEntry(
                                       winner->iter->value()));
      }
      cands.push_back(std::move(c));
    }
    for (auto& s : sources_) {
      while (s->valid() && s->key() == k) AX_RETURN_NOT_OK(s->Next());
    }
  }
  if (cands.empty()) return Status::OK();

  // Phase 2: predicates, column-at-a-time over the batch. For candidates
  // from columnar sources the cell decodes straight from the loaded column
  // (raw payload compare for matching fixed-width tags); other candidates
  // deserialize their record lazily, at most once across all predicates.
  for (const auto& pred : predicates_) {
    BatchPredicateEvalsCounter()->Add(1);
    if (pred.constant.is_unknown()) {  // never true in SQL++ 3-valued logic
      for (auto& c : cands) c.keep = false;
      break;
    }
    for (auto& c : cands) {
      if (!c.keep) continue;
      if (c.src->col != nullptr) {
        const storage::ColumnData* col = c.src->Find(pred.field);
        if (col == nullptr || col->IsUnknown(c.row)) {
          c.keep = false;
          continue;
        }
        if (col->kind == storage::ColumnKind::kFixed &&
            col->tag == adm::TypeTag::kInt64 && pred.constant.is_int()) {
          // Vectorized fast path: compare raw packed payloads.
          int64_t v = col->FixedPayload(c.row), w = pred.constant.AsInt();
          c.keep = PassesCmp(v < w ? -1 : (v > w ? 1 : 0), pred.cmp);
          continue;
        }
        AX_ASSIGN_OR_RETURN(adm::Value v, col->ValueAt(c.row));
        c.keep = PassesCmp(v.Compare(pred.constant), pred.cmp);
      } else {
        AX_ASSIGN_OR_RETURN(const adm::Value* rec, c.Record());
        const adm::Value& v = rec->GetField(pred.field);
        c.keep = !v.is_unknown() && PassesCmp(v.Compare(pred.constant),
                                              pred.cmp);
      }
    }
  }

  // Phase 3: materialize survivors into 1-field tuples.
  for (auto& c : cands) {
    if (!c.keep) continue;
    adm::Value out = adm::Value::Missing();
    if (fields_pushed_) {
      adm::FieldVec fv;
      fv.reserve(fields_.size());
      if (c.src->col != nullptr) {
        for (const auto& name : fields_) {
          const storage::ColumnData* col = c.src->Find(name);
          if (col == nullptr || col->IsMissing(c.row)) continue;
          AX_ASSIGN_OR_RETURN(adm::Value v, col->ValueAt(c.row));
          fv.emplace_back(name, std::move(v));
        }
      } else {
        AX_ASSIGN_OR_RETURN(const adm::Value* rec, c.Record());
        for (const auto& name : fields_) {
          const adm::Value& v = rec->GetField(name);
          if (v.is_missing()) continue;
          fv.emplace_back(name, v);
        }
      }
      out = adm::Value::Object(std::move(fv));
    } else if (c.src->col != nullptr) {
      AX_ASSIGN_OR_RETURN(out, c.src->col->MaterializeRow(c.src->cols, c.row));
    } else {
      AX_ASSIGN_OR_RETURN(const adm::Value* rec, c.Record());
      out = *rec;
    }
    Tuple t;
    t.fields.push_back(std::move(out));
    rows_.push_back(std::move(t));
  }
  return Status::OK();
}

Result<bool> ColumnarScanSource::NextBatch(Batch* out) {
  out->Clear();
  while (pos_ >= rows_.size()) {
    AX_RETURN_NOT_OK(PollAlive());
    if (exhausted_ && pos_ >= rows_.size() && rows_.empty()) break;
    AX_RETURN_NOT_OK(Refill());
    if (rows_.empty() && exhausted_) break;
  }
  const size_t take = std::min(kFrameTuples, rows_.size() - pos_);
  if (take == 0) return false;
  out->FillBySwap(rows_.data() + pos_, take);
  pos_ += take;
  NoteBatchEmitted(take);
  return true;
}

Status ColumnarScanSource::Close() {
  sources_.clear();
  rows_.clear();
  return Status::OK();
}

}  // namespace asterix::hyracks
