#include "asterix/metadata.h"

#include <algorithm>

#include "adm/json.h"
#include "common/io.h"

namespace asterix::meta {

using adm::Value;

namespace {
Value IndexToDoc(const IndexDef& ix) {
  return adm::ObjectBuilder()
      .Add("name", Value::String(ix.name))
      .Add("field", Value::String(ix.field))
      .Add("kind", Value::Int(static_cast<int64_t>(ix.kind)))
      .Add("id", Value::Int(static_cast<int64_t>(ix.id)))
      .Build();
}

Value DatasetToDoc(const DatasetDef& ds) {
  std::vector<Value> indexes;
  for (const auto& ix : ds.indexes) indexes.push_back(IndexToDoc(ix));
  adm::FieldVec props;
  for (const auto& [k, v] : ds.external_props) {
    props.emplace_back(k, Value::String(v));
  }
  return adm::ObjectBuilder()
      .Add("name", Value::String(ds.name))
      .Add("type", Value::String(ds.type_name))
      .Add("primary_key", Value::String(ds.primary_key))
      .Add("external", Value::Boolean(ds.external))
      .Add("props", Value::Object(std::move(props)))
      .Add("indexes", Value::Array(std::move(indexes)))
      .Add("storage_format", Value::String(ds.storage_format))
      .Add("id", Value::Int(static_cast<int64_t>(ds.id)))
      .Build();
}
Value FeedToDoc(const FeedDef& fd) {
  adm::FieldVec props;
  for (const auto& [k, v] : fd.props) {
    props.emplace_back(k, Value::String(v));
  }
  return adm::ObjectBuilder()
      .Add("name", Value::String(fd.name))
      .Add("adapter", Value::String(fd.adapter))
      .Add("props", Value::Object(std::move(props)))
      .Add("dataset", Value::String(fd.connected_dataset))
      .Add("policy", Value::String(fd.policy))
      .Build();
}

// Catalogs written before storage ids existed lack them and cannot reopen:
// their storage directories are named differently.
Result<uint64_t> IdField(const Value& id) {
  if (!id.is_int() || id.AsInt() <= 0) {
    return Status::Corruption("catalog entry without a storage id");
  }
  return static_cast<uint64_t>(id.AsInt());
}
}  // namespace

adm::Value MetadataManager::TypeToDoc(const adm::TypePtr& type) {
  using adm::TypeKind;
  switch (type->kind()) {
    case TypeKind::kAny:
      return adm::ObjectBuilder().Add("kind", Value::String("any")).Build();
    case TypeKind::kPrimitive:
      return adm::ObjectBuilder()
          .Add("kind", Value::String("primitive"))
          .Add("tag", Value::String(adm::TypeTagName(type->primitive_tag())))
          .Build();
    case TypeKind::kArray:
    case TypeKind::kMultiset:
      return adm::ObjectBuilder()
          .Add("kind", Value::String(type->kind() == TypeKind::kArray
                                         ? "array"
                                         : "multiset"))
          .Add("item", TypeToDoc(type->item_type()
                                     ? type->item_type()
                                     : adm::Type::Any()))
          .Build();
    case TypeKind::kObject: {
      std::vector<Value> fields;
      for (const auto& f : type->object_fields()) {
        fields.push_back(adm::ObjectBuilder()
                             .Add("name", Value::String(f.name))
                             .Add("optional", Value::Boolean(f.optional))
                             .Add("type", TypeToDoc(f.type ? f.type
                                                           : adm::Type::Any()))
                             .Build());
      }
      return adm::ObjectBuilder()
          .Add("kind", Value::String("object"))
          .Add("name", Value::String(type->name()))
          .Add("open", Value::Boolean(type->open()))
          .Add("fields", Value::Array(std::move(fields)))
          .Build();
    }
  }
  return Value::Null();
}

Result<adm::TypePtr> MetadataManager::TypeFromDoc(
    const adm::Value& doc, const std::map<std::string, adm::TypePtr>& known) {
  const std::string& kind = doc.GetField("kind").AsString();
  if (kind == "any") return adm::Type::Any();
  if (kind == "primitive") {
    const std::string& tag = doc.GetField("tag").AsString();
    AX_ASSIGN_OR_RETURN(adm::TypeTag t, adm::PrimitiveTagFromName(tag));
    return adm::Type::Primitive(t);
  }
  if (kind == "array" || kind == "multiset") {
    AX_ASSIGN_OR_RETURN(adm::TypePtr item,
                        TypeFromDoc(doc.GetField("item"), known));
    return kind == "array" ? adm::Type::MakeArray(item)
                           : adm::Type::MakeMultiset(item);
  }
  if (kind == "object") {
    std::vector<adm::FieldDef> fields;
    for (const auto& f : doc.GetField("fields").items()) {
      adm::FieldDef fd;
      fd.name = f.GetField("name").AsString();
      fd.optional = f.GetField("optional").AsBool();
      AX_ASSIGN_OR_RETURN(fd.type, TypeFromDoc(f.GetField("type"), known));
      fields.push_back(std::move(fd));
    }
    return adm::Type::MakeObject(doc.GetField("name").AsString(),
                                 std::move(fields),
                                 doc.GetField("open").AsBool());
  }
  return Status::Corruption("bad type document kind '" + kind + "'");
}


// ---------------------------------------------------------------------------
// WriteGate
// ---------------------------------------------------------------------------

bool WriteGate::Enter(uint64_t version) {
  std::unique_lock<std::mutex> lock(mu_);
  while (closed_) cv_.wait(lock);
  if (version < min_version_) return false;
  writers_++;
  return true;
}

void WriteGate::Exit() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--writers_ == 0) cv_.notify_all();
}

void WriteGate::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  closed_ = true;
  while (writers_ > 0) cv_.wait(lock);
}

void WriteGate::Open(uint64_t min_version) {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = false;
  min_version_ = min_version;
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

Result<adm::TypePtr> Catalog::GetType(const std::string& name) const {
  auto it = types.find(name);
  if (it == types.end()) return Status::NotFound("no type '" + name + "'");
  return it->second;
}

Result<const Catalog::Dataset*> Catalog::GetDataset(
    const std::string& name) const {
  auto it = datasets.find(name);
  if (it == datasets.end()) {
    return Status::NotFound("no dataset '" + name + "'");
  }
  return it->second.get();
}

Result<FeedDef> Catalog::GetFeed(const std::string& name) const {
  auto it = feeds.find(name);
  if (it == feeds.end()) return Status::NotFound("no feed '" + name + "'");
  return it->second;
}

Status Catalog::AddType(const std::string& name, adm::TypePtr type) {
  if (!types.emplace(name, std::move(type)).second) {
    return Status::AlreadyExists("type '" + name + "' exists");
  }
  return Status::OK();
}

Status Catalog::RemoveType(const std::string& name) {
  for (const auto& [ds_name, ds] : datasets) {
    if (ds->def.type_name == name) {
      return Status::InvalidArgument("type '" + name + "' in use by dataset '" +
                                     ds_name + "'");
    }
  }
  if (types.erase(name) == 0) {
    return Status::NotFound("no type '" + name + "'");
  }
  return Status::OK();
}

Result<Catalog::Dataset*> Catalog::AddDataset(DatasetDef def) {
  if (datasets.count(def.name)) {
    return Status::AlreadyExists("dataset '" + def.name + "' exists");
  }
  auto ds = std::make_shared<Dataset>();
  AX_ASSIGN_OR_RETURN(ds->type, GetType(def.type_name));
  def.id = next_id++;
  ds->def = std::move(def);
  ds->gate = std::make_shared<WriteGate>();
  Dataset* out = ds.get();
  datasets[out->def.name] = std::move(ds);
  return out;
}

Result<std::shared_ptr<const Catalog::Dataset>> Catalog::RemoveDataset(
    const std::string& name) {
  auto it = datasets.find(name);
  if (it == datasets.end()) {
    return Status::NotFound("no dataset '" + name + "'");
  }
  std::shared_ptr<const Dataset> out = std::move(it->second);
  datasets.erase(it);
  return out;
}

Result<Catalog::Dataset*> Catalog::MutableDataset(const std::string& name) {
  auto it = datasets.find(name);
  if (it == datasets.end()) {
    return Status::NotFound("no dataset '" + name + "'");
  }
  auto copy = std::make_shared<Dataset>(*it->second);
  Dataset* out = copy.get();
  it->second = std::move(copy);
  return out;
}

Result<Catalog::Dataset*> Catalog::AddIndex(const std::string& dataset,
                                            IndexDef index) {
  AX_ASSIGN_OR_RETURN(Dataset* ds, MutableDataset(dataset));
  if (ds->def.external) {
    return Status::InvalidArgument("cannot index external dataset '" +
                                   dataset + "'");
  }
  for (const auto& ix : ds->def.indexes) {
    if (ix.name == index.name) {
      return Status::AlreadyExists("index '" + index.name + "' exists on '" +
                                   dataset + "'");
    }
  }
  index.id = next_id++;
  ds->def.indexes.push_back(std::move(index));
  return ds;
}

Result<Catalog::Dataset*> Catalog::RemoveIndex(const std::string& dataset,
                                               const std::string& index) {
  AX_ASSIGN_OR_RETURN(Dataset* ds, MutableDataset(dataset));
  auto& ixs = ds->def.indexes;
  auto pos = std::find_if(ixs.begin(), ixs.end(),
                          [&](const IndexDef& ix) { return ix.name == index; });
  if (pos == ixs.end()) {
    return Status::NotFound("no index '" + index + "' on '" + dataset + "'");
  }
  ixs.erase(pos);
  return ds;
}

Status Catalog::AddFeed(FeedDef def) {
  if (feeds.count(def.name)) {
    return Status::AlreadyExists("feed '" + def.name + "' exists");
  }
  std::string name = def.name;
  feeds.emplace(std::move(name), std::move(def));
  return Status::OK();
}

Status Catalog::RemoveFeed(const std::string& name) {
  if (feeds.erase(name) == 0) {
    return Status::NotFound("no feed '" + name + "'");
  }
  return Status::OK();
}

Status Catalog::SetFeedConnection(const std::string& feed,
                                  const std::string& dataset,
                                  const std::string& policy) {
  auto it = feeds.find(feed);
  if (it == feeds.end()) return Status::NotFound("no feed '" + feed + "'");
  it->second.connected_dataset = dataset;
  it->second.policy = policy;
  return Status::OK();
}

bool Catalog::HasDataset(const std::string& name) const {
  return datasets.count(name) > 0;
}

std::string Catalog::PrimaryKeyField(const std::string& name) const {
  auto it = datasets.find(name);
  return it == datasets.end() ? "" : it->second->def.primary_key;
}

std::vector<algebricks::Catalog::IndexInfo> Catalog::SecondaryIndexes(
    const std::string& name) const {
  std::vector<IndexInfo> out;
  auto it = datasets.find(name);
  if (it == datasets.end()) return out;
  for (const auto& ix : it->second->def.indexes) {
    IndexInfo info;
    info.name = ix.name;
    info.field = ix.field;
    info.kind = ix.kind == IndexKind::kBTree ? IndexInfo::kBTree
                : ix.kind == IndexKind::kRTree ? IndexInfo::kRTree
                                               : IndexInfo::kKeyword;
    out.push_back(std::move(info));
  }
  return out;
}

// ---------------------------------------------------------------------------
// MetadataManager
// ---------------------------------------------------------------------------

Result<std::unique_ptr<MetadataManager>> MetadataManager::Open(
    const std::string& path, const Edit& attach) {
  auto mgr = std::unique_ptr<MetadataManager>(new MetadataManager(path));
  auto catalog = std::make_shared<meta::Catalog>();
  if (fs::Exists(path)) {
    AX_ASSIGN_OR_RETURN(*catalog, Load(path));
  }
  if (attach) AX_RETURN_NOT_OK(attach(catalog.get()));
  mgr->Publish(std::move(catalog));
  return mgr;
}

CatalogPtr MetadataManager::Snapshot() const {
  std::lock_guard<std::mutex> lock(published_mu_);
  return published_;
}

void MetadataManager::Publish(CatalogPtr catalog) {
  std::lock_guard<std::mutex> lock(published_mu_);
  published_ = std::move(catalog);
}

Result<meta::Catalog> MetadataManager::Load(const std::string& path) {
  AX_ASSIGN_OR_RETURN(std::string text, fs::ReadFileToString(path));
  // Types nest each named type they use, so the catalog may be deeper than
  // an input record; Persist refuses one the decoder bound could not read.
  AX_ASSIGN_OR_RETURN(Value doc, adm::ParseAdm(text, adm::kMaxDecodeDepth));
  meta::Catalog c;
  AX_ASSIGN_OR_RETURN(c.next_id, IdField(doc.GetField("next_id")));
  const Value& partitions = doc.GetField("num_partitions");
  if (partitions.is_int()) {
    c.num_partitions = static_cast<size_t>(partitions.AsInt());
  }
  for (const auto& tdoc : doc.GetField("types").items()) {
    AX_ASSIGN_OR_RETURN(adm::TypePtr t, TypeFromDoc(tdoc, c.types));
    c.types[t->name()] = t;
  }
  for (const auto& dsdoc : doc.GetField("datasets").items()) {
    auto ds = std::make_shared<meta::Catalog::Dataset>();
    DatasetDef& def = ds->def;
    def.name = dsdoc.GetField("name").AsString();
    def.type_name = dsdoc.GetField("type").AsString();
    def.primary_key = dsdoc.GetField("primary_key").AsString();
    def.external = dsdoc.GetField("external").AsBool();
    for (const auto& [k, v] : dsdoc.GetField("props").fields()) {
      def.external_props[k] = v.AsString();
    }
    for (const auto& ixdoc : dsdoc.GetField("indexes").items()) {
      IndexDef ix;
      ix.name = ixdoc.GetField("name").AsString();
      ix.field = ixdoc.GetField("field").AsString();
      ix.kind = static_cast<IndexKind>(ixdoc.GetField("kind").AsInt());
      AX_ASSIGN_OR_RETURN(ix.id, IdField(ixdoc.GetField("id")));
      def.indexes.push_back(std::move(ix));
    }
    def.storage_format = dsdoc.GetField("storage_format").AsString();
    AX_ASSIGN_OR_RETURN(def.id, IdField(dsdoc.GetField("id")));
    AX_ASSIGN_OR_RETURN(ds->type, c.GetType(def.type_name));
    ds->gate = std::make_shared<WriteGate>();
    c.datasets[def.name] = std::move(ds);
  }
  for (const auto& fdoc : doc.GetField("feeds").items()) {
    FeedDef fd;
    fd.name = fdoc.GetField("name").AsString();
    fd.adapter = fdoc.GetField("adapter").AsString();
    for (const auto& [k, v] : fdoc.GetField("props").fields()) {
      fd.props[k] = v.AsString();
    }
    fd.connected_dataset = fdoc.GetField("dataset").AsString();
    fd.policy = fdoc.GetField("policy").AsString();
    c.feeds[fd.name] = std::move(fd);
  }
  return c;
}

Status MetadataManager::Persist(const meta::Catalog& catalog) const {
  std::vector<Value> types;
  for (const auto& [name, t] : catalog.types) types.push_back(TypeToDoc(t));
  std::vector<Value> datasets;
  for (const auto& [name, ds] : catalog.datasets) {
    datasets.push_back(DatasetToDoc(ds->def));
  }
  std::vector<Value> feeds;
  for (const auto& [name, fd] : catalog.feeds) feeds.push_back(FeedToDoc(fd));
  Value doc =
      adm::ObjectBuilder()
          .Add("next_id", Value::Int(static_cast<int64_t>(catalog.next_id)))
          .Add("num_partitions",
               Value::Int(static_cast<int64_t>(catalog.num_partitions)))
          .Add("types", Value::Array(std::move(types)))
          .Add("datasets", Value::Array(std::move(datasets)))
          .Add("feeds", Value::Array(std::move(feeds)))
          .Build();
  if (!adm::WithinDepth(doc, adm::kMaxDecodeDepth)) {
    return Status::InvalidArgument("type definitions nested too deeply");
  }
  const std::string tmp = path_ + ".tmp";
  AX_RETURN_NOT_OK(fs::WriteStringToFile(tmp, doc.ToString()));
  return fs::RenameFile(tmp, path_);
}

Status MetadataManager::Update(
    const Edit& edit,
    const std::function<void(const meta::Catalog&)>& finish) {
  std::lock_guard<std::mutex> lock(mu_);
  // Only updates publish, so the snapshot stays current while mu_ is held.
  auto next = std::make_shared<meta::Catalog>(*Snapshot());
  next->version++;
  Status s = edit(next.get());
  if (s.ok()) s = Persist(*next);
  if (s.ok()) Publish(std::move(next));
  if (finish) finish(*Snapshot());
  return s;
}

Status MetadataManager::WithUpdatesBlocked(
    const std::function<Status(const meta::Catalog&)>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  return fn(*Snapshot());
}

bool MetadataManager::HasDataset(const std::string& name) const {
  return Snapshot()->HasDataset(name);
}

std::string MetadataManager::PrimaryKeyField(const std::string& name) const {
  return Snapshot()->PrimaryKeyField(name);
}

std::vector<algebricks::Catalog::IndexInfo> MetadataManager::SecondaryIndexes(
    const std::string& name) const {
  return Snapshot()->SecondaryIndexes(name);
}

}  // namespace asterix::meta
