#include "asterix/feed_manager.h"

#include <utility>
#include <vector>

#include "asterix/gleambook_feed.h"
#include "asterix/instance.h"
#include "common/io.h"

namespace asterix::feeds {

FeedManager::FeedManager(Instance* instance, meta::MetadataManager* metadata,
                         std::string feeds_dir)
    : instance_(instance),
      metadata_(metadata),
      feeds_dir_(std::move(feeds_dir)) {
  // Make the asterix-layer adapters (gleambook) resolvable by name before
  // any CONNECT FEED can reach MakeAdapter.
  RegisterAsterixFeedAdapters();
}

FeedManager::~FeedManager() {
  // axlint: allow(must-check): destructor; nowhere to surface the error
  (void)StopAll();
}

Status FeedManager::CreateFeed(const std::string& name,
                               const std::string& adapter,
                               std::map<std::string, std::string> props) {
  if (!HasAdapterFactory(adapter)) {
    return Status::InvalidArgument("unknown feed adapter '" + adapter + "'");
  }
  meta::FeedDef def;
  def.name = name;
  def.adapter = adapter;
  def.props = std::move(props);
  return metadata_->Update([&](meta::Catalog* c) { return c->AddFeed(def); });
}

Status FeedManager::DropFeed(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (connections_.count(name) > 0) {
      return Status::InvalidArgument("feed '" + name +
                                     "' is connected; disconnect it first");
    }
  }
  AX_RETURN_NOT_OK(
      metadata_->Update([&](meta::Catalog* c) { return c->RemoveFeed(name); }));
  const std::string progress = ProgressPathFor(name);
  if (fs::Exists(progress)) {
    AX_RETURN_NOT_OK(fs::RemoveFile(progress));
  }
  return Status::OK();
}

Status FeedManager::ConnectFeed(const std::string& name,
                                const std::string& dataset,
                                const std::string& policy_name) {
  AX_ASSIGN_OR_RETURN(
      FeedPolicy policy,
      FeedPolicy::Named(policy_name.empty() ? "BASIC" : policy_name));
  AX_RETURN_NOT_OK(Connect(name, dataset, policy));
  Status recorded = metadata_->Update([&](meta::Catalog* c) -> Status {
    // A DROP DATASET that committed after Connect checked the dataset but
    // before it registered the runtime leaves nothing to feed.
    AX_RETURN_NOT_OK(c->GetDataset(dataset).status());
    return c->SetFeedConnection(name, dataset, policy.name());
  });
  if (!recorded.ok()) {
    std::unique_ptr<FeedRuntime> runtime = TakeRuntime(name);
    // axlint: allow(must-check): the failed catalog update is the error
    if (runtime) (void)runtime->Stop();
  }
  return recorded;
}

Status FeedManager::RunUnlessFed(const std::string& dataset,
                                 const std::function<Status()>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, conn] : connections_) {
    if (conn.dataset == dataset) {
      return Status::InvalidArgument("dataset '" + dataset +
                                     "' is fed by connected feed '" + name +
                                     "'; disconnect it first");
    }
  }
  return fn();
}

std::unique_ptr<FeedRuntime> FeedManager::TakeRuntime(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = connections_.find(name);
  if (it == connections_.end()) return nullptr;
  std::unique_ptr<FeedRuntime> runtime = std::move(it->second.runtime);
  connections_.erase(it);
  return runtime;
}

Status FeedManager::DisconnectFeed(const std::string& name) {
  std::unique_ptr<FeedRuntime> runtime = TakeRuntime(name);
  if (!runtime) {
    return Status::NotFound("feed '" + name + "' is not connected");
  }
  // Graceful stop persists the drained watermark; the progress file is kept
  // so a later CONNECT resumes after the last applied record.
  Status stop_status = runtime->Stop();
  AX_RETURN_NOT_OK(metadata_->Update([&](meta::Catalog* c) -> Status {
    AX_ASSIGN_OR_RETURN(meta::FeedDef def, c->GetFeed(name));
    return c->SetFeedConnection(name, "", def.policy);
  }));
  return stop_status;
}

Status FeedManager::Connect(const std::string& name, const std::string& dataset,
                            const FeedPolicy& policy, FaultInjector* faults) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (connections_.count(name) > 0) {
      return Status::AlreadyExists("feed '" + name + "' is already connected");
    }
  }
  meta::CatalogPtr catalog = metadata_->Snapshot();
  AX_ASSIGN_OR_RETURN(meta::FeedDef def, catalog->GetFeed(name));
  AX_ASSIGN_OR_RETURN(const meta::Catalog::Dataset* ds,
                      catalog->GetDataset(dataset));
  if (ds->def.external) {
    return Status::InvalidArgument(
        "cannot connect a feed to external dataset '" + dataset + "'");
  }
  AX_ASSIGN_OR_RETURN(ParseSpec parse, BuildParseSpec(def.props, ds->type));
  AX_ASSIGN_OR_RETURN(std::unique_ptr<FeedAdapter> adapter,
                      MakeAdapter(def.adapter, def.props));
  AX_RETURN_NOT_OK(fs::CreateDirs(feeds_dir_));
  AX_ASSIGN_OR_RETURN(uint64_t resume_after,
                      FeedRuntime::LoadProgress(ProgressPathFor(name)));

  FeedRuntimeOptions options;
  options.feed_name = name;
  options.dataset = dataset;
  options.policy = policy;
  options.parse = parse;
  options.faults = faults;
  options.spill_dir = feeds_dir_ + "/spill";
  options.progress_path = ProgressPathFor(name);
  options.resume_after = resume_after;

  auto* chan = dynamic_cast<ChannelAdapter*>(adapter.get());
  auto runtime = std::make_unique<FeedRuntime>(instance_, std::move(adapter),
                                               std::move(options));
  AX_RETURN_NOT_OK(runtime->Start());

  std::lock_guard<std::mutex> lock(mu_);
  Connection& conn = connections_[name];
  conn.dataset = dataset;
  conn.runtime = std::move(runtime);
  conn.channel = chan;
  return Status::OK();
}

FeedRuntime* FeedManager::runtime(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = connections_.find(name);
  return it == connections_.end() ? nullptr : it->second.runtime.get();
}

ChannelAdapter* FeedManager::channel(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = connections_.find(name);
  return it == connections_.end() ? nullptr : it->second.channel;
}

Status FeedManager::PersistProgress() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, conn] : connections_) {
    AX_RETURN_NOT_OK(conn.runtime->PersistProgress());
  }
  return Status::OK();
}

Status FeedManager::StopAll() {
  std::vector<std::unique_ptr<FeedRuntime>> runtimes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, conn] : connections_) {
      runtimes.push_back(std::move(conn.runtime));
    }
    connections_.clear();
  }
  Status first_error = Status::OK();
  for (auto& runtime : runtimes) {
    Status st = runtime->Stop();
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

}  // namespace asterix::feeds
