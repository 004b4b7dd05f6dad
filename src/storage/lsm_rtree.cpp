#include "storage/lsm_rtree.h"

#include <algorithm>

#include "common/metrics.h"

namespace asterix::storage {

namespace {
// Component files: <name>_<lo>_<hi>.rt (the R-tree) and .del (the
// deleted-key B+tree), the latter written last (the commit point).
const LsmLayout& RTreeLayout() {
  static const LsmLayout layout{
      {".rt"},
      ".del",
      {metrics::Registry::Global().GetCounter("storage.lsm_rtree.flushes"),
       metrics::Registry::Global().GetCounter("storage.lsm_rtree.flush_bytes"),
       metrics::Registry::Global().GetCounter("storage.lsm_rtree.merges"),
       metrics::Registry::Global().GetCounter("storage.lsm_rtree.merge_bytes"),
       metrics::Registry::Global().GetCounter("storage.lsm_rtree.write_stalls"),
       metrics::Registry::Global().GetCounter(
           "storage.lsm_rtree.write_stall_ns"),
       metrics::Registry::Global().GetCounter(
           "storage.lsm_rtree.incomplete_components_dropped")}};
  return layout;
}

bool IsPoint(const SpatialEntry& e) {
  return e.mbr.lo.x == e.mbr.hi.x && e.mbr.lo.y == e.mbr.hi.y;
}
}  // namespace

LsmRTree::LsmRTree(const LsmTreeOptions& options)
    : LsmLifecycle(options, RTreeLayout()) {}

LsmRTree::~LsmRTree() { Close(); }

std::string LsmRTree::DeleteKey(const adm::Rectangle& mbr,
                                const std::string& payload) {
  // Identity of an entry: raw MBR bytes + payload. Only equality matters;
  // the deleted-key B+tree just needs a deterministic order.
  std::string key;
  key.append(reinterpret_cast<const char*>(&mbr.lo.x), 8);
  key.append(reinterpret_cast<const char*>(&mbr.lo.y), 8);
  key.append(reinterpret_cast<const char*>(&mbr.hi.x), 8);
  key.append(reinterpret_cast<const char*>(&mbr.hi.y), 8);
  key += payload;
  return key;
}

Result<std::unique_ptr<LsmRTree>> LsmRTree::Open(
    const LsmTreeOptions& options) {
  auto tree = std::unique_ptr<LsmRTree>(new LsmRTree(options));
  AX_RETURN_NOT_OK(tree->Recover());
  return tree;
}

Result<LsmLifecycle::DiskPtr> LsmRTree::OpenDiskComponent(
    const std::string& base, const std::string& ext) const {
  auto comp = std::make_shared<DiskComponent>();
  comp->files = {base + ext, base + ".del"};
  AX_ASSIGN_OR_RETURN(comp->rtree, RTree::Open(base + ext, options_.cache));
  AX_ASSIGN_OR_RETURN(comp->deleted, BTree::Open(base + ".del", options_.cache));
  comp->entries = comp->rtree->entry_count();
  comp->bytes = static_cast<uint64_t>(comp->rtree->meta().page_count +
                                      comp->deleted->meta().page_count) *
                kPageSize;
  return DiskPtr(std::move(comp));
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

std::shared_ptr<LsmMemComponent> LsmRTree::FreezeMemLocked() {
  if (mem_inserts_.empty() && mem_deleted_.empty()) return nullptr;
  auto imm = std::make_shared<MemComponent>();
  imm->entries = mem_inserts_.size();
  imm->inserts = std::move(mem_inserts_);
  imm->deleted = std::move(mem_deleted_);
  mem_inserts_.clear();
  mem_deleted_.clear();
  return imm;
}

Status LsmRTree::Insert(const adm::Rectangle& mbr, const std::string& payload) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!maint_error().ok()) return maint_error();
  // A re-insert cancels a pending in-memory delete of the same entry. (A
  // delete already frozen in an immutable component is older than this
  // insert, so layering keeps the new entry live regardless.)
  mem_deleted_.erase(DeleteKey(mbr, payload));
  mem_inserts_.push_back(SpatialEntry{mbr, payload});
  return AfterWriteLocked(lock, 48 + payload.size());
}

Status LsmRTree::Remove(const adm::Rectangle& mbr, const std::string& payload) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!maint_error().ok()) return maint_error();
  std::string dk = DeleteKey(mbr, payload);
  // Annihilate a pending in-memory insert directly if present.
  auto it = std::find_if(mem_inserts_.begin(), mem_inserts_.end(),
                         [&](const SpatialEntry& e) {
                           return e.payload == payload && e.mbr == mbr;
                         });
  if (it != mem_inserts_.end()) {
    mem_inserts_.erase(it);
    if (components_.empty() && immutables_.empty()) {
      return Status::OK();  // nothing older to hide
    }
  }
  mem_deleted_.insert(std::move(dk));
  return AfterWriteLocked(lock, 48 + payload.size());
}

Result<std::vector<SpatialEntry>> LsmRTree::Query(
    const adm::Rectangle& query) const {
  std::vector<SpatialEntry> mem_hits;
  std::set<std::string> mem_deleted;
  std::vector<MemPtr> imms;
  std::vector<DiskPtr> comps;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& e : mem_inserts_) {
      if (e.mbr.Intersects(query)) mem_hits.push_back(e);
    }
    mem_deleted = mem_deleted_;
    imms = immutables_;
    comps = components_;
  }
  std::vector<SpatialEntry> out = std::move(mem_hits);
  // An entry is live iff no strictly newer layer deleted it. Layers,
  // newest first: mutable mem, immutable mem components, disk components.
  auto imm = [&](size_t k) -> const MemComponent& {
    return static_cast<const MemComponent&>(*imms[k]);
  };
  auto deleted_in_imms = [&](const std::string& dk, size_t newer_than) {
    for (size_t j = 0; j < newer_than; j++) {
      if (imm(j).deleted.count(dk)) return true;
    }
    return false;
  };
  for (size_t k = 0; k < imms.size(); k++) {
    for (const auto& e : imm(k).inserts) {
      if (!e.mbr.Intersects(query)) continue;
      std::string dk = DeleteKey(e.mbr, e.payload);
      if (mem_deleted.count(dk) || deleted_in_imms(dk, k)) continue;
      out.push_back(e);
    }
  }
  for (size_t i = 0; i < comps.size(); i++) {
    AX_ASSIGN_OR_RETURN(auto candidates,
                        AsDisk(comps[i]).rtree->SearchCollect(query));
    for (auto& cand : candidates) {
      std::string dk = DeleteKey(cand.mbr, cand.payload);
      if (mem_deleted.count(dk) || deleted_in_imms(dk, imms.size())) continue;
      bool dead = false;
      for (size_t j = 0; j < i && !dead; j++) {
        std::string unused;
        AX_ASSIGN_OR_RETURN(bool hit,
                            AsDisk(comps[j]).deleted->Get(dk, &unused));
        dead = hit;
      }
      if (!dead) out.push_back(std::move(cand));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Component builds
// ---------------------------------------------------------------------------

Result<LsmLifecycle::DiskPtr> LsmRTree::BuildDiskComponent(
    const std::vector<SpatialEntry>& inserts,
    const std::set<std::string>& deleted, const std::string& base) const {
  auto comp = std::make_shared<DiskComponent>();
  const std::string rtree_path = base + ".rt";
  const std::string deleted_path = base + ".del";
  comp->files = {rtree_path, deleted_path};
  // The compact point leaf format whenever this component's entries allow
  // it; a single rectangle switches the component to full MBR leaves.
  const bool point_mode = std::all_of(inserts.begin(), inserts.end(), IsPoint);
  AX_ASSIGN_OR_RETURN(auto rbuilder,
                      RTreeBuilder::Create(rtree_path, point_mode));
  for (const auto& e : inserts) {
    AX_RETURN_NOT_OK(rbuilder->Add(e.mbr, e.payload));
  }
  AX_ASSIGN_OR_RETURN(auto rmeta, rbuilder->Finish());
  // The deleted-key tree is written last: it is the flush commit point
  // recovery checks when collecting torn flushes.
  AX_ASSIGN_OR_RETURN(auto dbuilder, BTreeBuilder::Create(deleted_path));
  for (const auto& dk : deleted) AX_RETURN_NOT_OK(dbuilder->Add(dk, ""));
  AX_ASSIGN_OR_RETURN(auto dmeta, dbuilder->Finish());
  AX_ASSIGN_OR_RETURN(comp->rtree, RTree::Open(rtree_path, options_.cache));
  AX_ASSIGN_OR_RETURN(comp->deleted, BTree::Open(deleted_path, options_.cache));
  comp->entries = rmeta.entry_count;
  // Both files count: deleted keys carried through partial merges grow the
  // .del tree, and the merge policy sizes runs from these bytes.
  comp->bytes =
      static_cast<uint64_t>(rmeta.page_count + dmeta.page_count) * kPageSize;
  return DiskPtr(std::move(comp));
}

Result<LsmLifecycle::DiskPtr> LsmRTree::BuildFlushComponent(
    const LsmMemComponent& mem, bool oldest, const std::string& base) const {
  static const std::set<std::string> kNone;
  const auto& frozen = static_cast<const MemComponent&>(mem);
  // Deletes only need persisting when something older could hide a live
  // entry.
  return BuildDiskComponent(frozen.inserts, oldest ? kNone : frozen.deleted,
                            base);
}

Result<LsmLifecycle::DiskPtr> LsmRTree::BuildMergedComponent(
    const std::vector<DiskPtr>& victims, bool includes_oldest,
    const std::string& base) const {
  // Collect live entries: an entry of victim i survives unless deleted by a
  // strictly newer victim (i-1 .. 0). A run that stops short of the oldest
  // component keeps its deleted keys — they still hide entries below it —
  // just as the B+tree keeps antimatter. Victims are pinned and immutable,
  // so no lock is needed.
  std::vector<SpatialEntry> live;
  std::set<std::string> deleted;
  const adm::Rectangle everything{{-1e308, -1e308}, {1e308, 1e308}};
  for (size_t i = 0; i < victims.size(); i++) {
    const DiskComponent& victim = AsDisk(victims[i]);
    AX_ASSIGN_OR_RETURN(auto entries, victim.rtree->SearchCollect(everything));
    for (auto& e : entries) {
      std::string dk = DeleteKey(e.mbr, e.payload);
      bool dead = false;
      for (size_t j = 0; j < i && !dead; j++) {
        std::string unused;
        AX_ASSIGN_OR_RETURN(bool hit,
                            AsDisk(victims[j]).deleted->Get(dk, &unused));
        dead = hit;
      }
      if (!dead) live.push_back(std::move(e));
    }
    if (includes_oldest) continue;
    BTree::Iterator it = victim.deleted->NewIterator();
    AX_RETURN_NOT_OK(it.SeekToFirst());
    while (it.Valid()) {
      deleted.insert(it.key());
      AX_RETURN_NOT_OK(it.Next());
    }
  }
  return BuildDiskComponent(live, deleted, base);
}

LsmStats LsmRTree::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  LsmStats s = StatsLocked();
  s.mem_entries += mem_inserts_.size();
  return s;
}

}  // namespace asterix::storage
