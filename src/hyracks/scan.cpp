#include "hyracks/scan.h"

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
metrics::Counter* PredicateEvalsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.scan.predicate_evals");
  return c;
}
}  // namespace

// The columns one columnar component supplies to this scan. When the
// projection was not pushed this is every column (in reader order, so
// MaterializeRow applies); otherwise only the needed subset.
struct ScanSource::Columns {
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

// One row that won the newest-version merge for its key. A columnar winner
// is addressed by (columns, row), its cells decoding straight from the
// columns; any other winner is decoded into `record` when it is gathered
// (only the needed fields when the projection was pushed).
struct ScanSource::Candidate {
  const Columns* cols = nullptr;  // columnar winner's component
  uint64_t row = 0;               // columnar: row index in the component
  adm::Value record;              // mem/row: the decoded record
  bool keep = true;
};

ScanSource::ScanSource(const storage::LsmBTree* tree,
                       std::vector<std::string> fields, bool fields_pushed,
                       std::vector<ScanPredicate> predicates,
                       std::optional<std::string> lo_key,
                       std::optional<std::string> hi_key)
    : tree_(tree), fields_(std::move(fields)), fields_pushed_(fields_pushed),
      predicates_(std::move(predicates)), lo_key_(std::move(lo_key)),
      hi_key_(std::move(hi_key)) {
  auto sort_unique = [](std::vector<std::string>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  // Columns a columnar component must load, and fields a row winner
  // decodes: the projected fields plus every predicate field (predicates
  // may reference non-projected fields).
  needed_ = fields_;
  for (const auto& p : predicates_) needed_.push_back(p.field);
  sort_unique(&needed_);
  std::vector<std::string> projected = fields_;
  sort_unique(&projected);
  prune_decoded_ = needed_ != projected;
}

ScanSource::~ScanSource() = default;

Status ScanSource::Open() {
  loaded_.clear();
  cands_.clear();
  AX_ASSIGN_OR_RETURN(it_, tree_->NewIterator());
  return lo_key_ ? it_->Seek(*lo_key_) : it_->SeekToFirst();
}

Result<const ScanSource::Columns*> ScanSource::ColumnsFor(
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

bool ScanSource::InRange() const {
  return it_->Valid() && (!hi_key_ || it_->key() <= *hi_key_);
}

Status ScanSource::Gather() {
  cands_.clear();
  const Columns* last = nullptr;  // winners come in runs from one component
  while (cands_.size() < kFrameTuples && InRange()) {
    AX_RETURN_NOT_OK(PollAlive());
    Candidate& c = cands_.emplace_back();
    if (const storage::ColumnarReader* reader = it_->columnar_reader()) {
      if (last == nullptr || last->reader != reader) {
        AX_ASSIGN_OR_RETURN(last, ColumnsFor(reader));
      }
      c.cols = last;
      c.row = it_->columnar_row();
      AX_RETURN_NOT_OK(it_->Next());
      continue;
    }
    Result<adm::Value> record = Decode(it_->value());
    AX_RETURN_NOT_OK(it_->Next());  // a failed value() reports here first
    AX_ASSIGN_OR_RETURN(c.record, std::move(record));
  }
  return Status::OK();
}

Result<adm::Value> ScanSource::Decode(const std::string& data) const {
  if (!fields_pushed_) return adm::Deserialize(data);
  if (needed_.empty()) {  // COUNT(*): Materialize hands out empty_
    AX_RETURN_NOT_OK(adm::Validate(data));
    return adm::Value();
  }
  return adm::DeserializeFields(data, needed_);
}

Status ScanSource::Filter() {
  for (const auto& pred : predicates_) {
    uint64_t evals = 0;
    for (auto& c : cands_) {
      if (!c.keep) continue;
      evals++;
      if (c.cols == nullptr) {
        c.keep = adm::Satisfies(c.record.GetField(pred.field), pred.cmp,
                                pred.constant);
        continue;
      }
      const storage::ColumnData* col = c.cols->Find(pred.field);
      if (col == nullptr || col->IsUnknown(c.row)) {
        c.keep = false;
      } else if (col->kind == storage::ColumnKind::kFixed &&
                 col->tag == adm::TypeTag::kInt64 && pred.constant.is_int()) {
        // Vectorized fast path: compare raw packed payloads.
        int64_t v = col->FixedPayload(c.row), w = pred.constant.AsInt();
        c.keep = adm::Holds(pred.cmp, v < w ? -1 : (v > w ? 1 : 0));
      } else {
        AX_ASSIGN_OR_RETURN(adm::Value v, col->ValueAt(c.row));
        c.keep = adm::Satisfies(v, pred.cmp, pred.constant);
      }
    }
    PredicateEvalsCounter()->Add(evals);
  }
  return Status::OK();
}

Result<adm::Value> ScanSource::Materialize(Candidate* c) const {
  if (!fields_pushed_) {
    if (c->cols == nullptr) return std::move(c->record);
    return c->cols->reader->MaterializeRow(c->cols->cols, c->row);
  }
  if (fields_.empty()) return empty_;
  if (c->cols == nullptr && !prune_decoded_) return std::move(c->record);
  adm::FieldVec fv;
  fv.reserve(fields_.size());
  for (const auto& name : fields_) {
    if (c->cols == nullptr) {
      const adm::Value& v = c->record.GetField(name);
      if (!v.is_missing()) fv.emplace_back(name, v);
      continue;
    }
    const storage::ColumnData* col = c->cols->Find(name);
    if (col == nullptr || col->IsMissing(c->row)) continue;
    AX_ASSIGN_OR_RETURN(adm::Value v, col->ValueAt(c->row));
    fv.emplace_back(name, std::move(v));
  }
  return adm::Value::Object(std::move(fv));
}

Result<bool> ScanSource::NextBatch(Batch* out) {
  out->Clear();
  // A gathered batch can lose every row to the predicates: gather again.
  while (out->empty() && InRange()) {
    AX_RETURN_NOT_OK(Gather());
    AX_RETURN_NOT_OK(Filter());
    for (auto& c : cands_) {
      if (!c.keep) continue;
      AX_ASSIGN_OR_RETURN(adm::Value record, Materialize(&c));
      out->Add()->fields.push_back(std::move(record));
    }
  }
  if (out->empty()) return false;
  NoteBatchEmitted(out->size());
  return true;
}

Status ScanSource::Close() {
  it_.reset();
  loaded_.clear();
  cands_.clear();
  return Status::OK();
}

}  // namespace asterix::hyracks
