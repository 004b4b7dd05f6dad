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

// The columns one columnar component supplies to this scan. When the
// projection was not pushed this is every column (in reader order, so
// MaterializeRow applies); otherwise only the needed subset.
struct ColumnarScanSource::Columns {
  const storage::ColumnarReader* reader = nullptr;
  std::vector<storage::ColumnData> cols;
  std::vector<int> col_idx;  // reader column index of each of cols

  /// Loaded column for `name`, or nullptr (absent column == MISSING field).
  const storage::ColumnData* Find(const std::string& name) const {
    int want = reader->FindColumn(name);
    if (want < 0) return nullptr;
    auto it = std::lower_bound(col_idx.begin(), col_idx.end(), want);
    if (it == col_idx.end() || *it != want) return nullptr;
    return &cols[static_cast<size_t>(it - col_idx.begin())];
  }
};

// One row that won the newest-version merge for its key. Columnar rows are
// addressed by (columns, row) — cells decode straight from columns; other
// rows carry their serialized record, deserialized lazily at most once.
struct ColumnarScanSource::Candidate {
  const Columns* cols = nullptr;  // columnar winner's component
  uint64_t row = 0;               // columnar: row index in the component
  std::string raw;                // mem/row: serialized record
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
      predicates_(std::move(predicates)) {
  // Columns a columnar component must load: the projected fields plus every
  // predicate field (predicates may reference non-projected fields).
  needed_ = fields_;
  for (const auto& p : predicates_) needed_.push_back(p.field);
  std::sort(needed_.begin(), needed_.end());
  needed_.erase(std::unique(needed_.begin(), needed_.end()), needed_.end());
}

ColumnarScanSource::~ColumnarScanSource() = default;

Status ColumnarScanSource::Open() {
  loaded_.clear();
  rows_.clear();
  pos_ = 0;
  AX_ASSIGN_OR_RETURN(it_, tree_->NewIterator());
  AX_RETURN_NOT_OK(it_->SeekToFirst());
  exhausted_ = !it_->Valid();
  return Status::OK();
}

Result<const ColumnarScanSource::Columns*> ColumnarScanSource::ColumnsFor(
    const storage::ColumnarReader* reader) {
  // A stack holds a few components: a linear search will do.
  for (const auto& c : loaded_) {
    if (c->reader == reader) return c.get();
  }
  auto c = std::make_unique<Columns>();
  c->reader = reader;
  if (fields_pushed_) {
    for (const auto& name : needed_) {
      int col = reader->FindColumn(name);
      if (col < 0) continue;
      AX_ASSIGN_OR_RETURN(auto data,
                          reader->ReadColumn(static_cast<size_t>(col)));
      c->cols.push_back(std::move(data));
      c->col_idx.push_back(col);
    }
    ColumnsSkippedCounter()->Add(reader->num_columns() - c->cols.size());
  } else {
    AX_ASSIGN_OR_RETURN(c->cols, reader->ReadAllColumns());
    c->col_idx.resize(c->cols.size());
    for (size_t col = 0; col < c->cols.size(); col++) {
      c->col_idx[col] = static_cast<int>(col);
    }
  }
  loaded_.push_back(std::move(c));
  return loaded_.back().get();
}

Status ColumnarScanSource::Refill() {
  rows_.clear();
  pos_ = 0;
  if (exhausted_) return Status::OK();

  // Phase 1: gather up to kFrameTuples newest-version live candidates.
  std::vector<Candidate> cands;
  cands.reserve(kFrameTuples);
  const Columns* last = nullptr;  // winners come in runs from one component
  while (cands.size() < kFrameTuples && it_->Valid()) {
    Candidate c;
    if (const storage::ColumnarReader* reader = it_->columnar_reader()) {
      if (last == nullptr || last->reader != reader) {
        AX_ASSIGN_OR_RETURN(last, ColumnsFor(reader));
      }
      c.cols = last;
      c.row = it_->columnar_row();
    } else {
      c.raw = it_->value();
    }
    cands.push_back(std::move(c));
    AX_RETURN_NOT_OK(it_->Next());
  }
  exhausted_ = !it_->Valid();
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
      if (c.cols != nullptr) {
        const storage::ColumnData* col = c.cols->Find(pred.field);
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
      if (c.cols != nullptr) {
        for (const auto& name : fields_) {
          const storage::ColumnData* col = c.cols->Find(name);
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
    } else if (c.cols != nullptr) {
      AX_ASSIGN_OR_RETURN(out, c.cols->reader->MaterializeRow(c.cols->cols,
                                                              c.row));
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
  it_.reset();
  loaded_.clear();
  rows_.clear();
  return Status::OK();
}

}  // namespace asterix::hyracks
