// FeedManager: the per-instance registry of feed connections. Binds the
// catalog's FeedDef (what to ingest: adapter + properties) to a live
// FeedRuntime (how it is ingested: policy + pipeline) and owns the durable
// per-feed progress files used for at-least-once resume after a crash.
// DDL-facing entry points (CreateFeed/ConnectFeed/...) are called by
// Instance::RunDdl; the programmatic Connect() overload
// lets tests and benches supply an explicit policy and fault injector.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "asterix/metadata.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "feeds/adapter.h"
#include "feeds/fault_injector.h"
#include "feeds/policy.h"
#include "feeds/runtime.h"
#include "feeds/sink.h"

namespace asterix {
class Instance;
}

namespace asterix::feeds {

class FeedManager {
 public:
  /// `feeds_dir` holds progress files and spill runs; created lazily.
  FeedManager(Instance* instance, meta::MetadataManager* metadata,
              std::string feeds_dir);
  ~FeedManager();

  // ---- DDL surface ----------------------------------------------------------
  /// CREATE FEED name USING adapter (props). Validates the adapter name;
  /// the adapter itself is instantiated at connect time.
  Status CreateFeed(const std::string& name, const std::string& adapter,
                    std::map<std::string, std::string> props)
      AX_EXCLUDES(mu_);
  /// DROP FEED. Refuses while connected; removes the progress file.
  Status DropFeed(const std::string& name) AX_EXCLUDES(mu_);
  /// CONNECT FEED name TO DATASET ds USING POLICY p (empty = BASIC).
  /// Records the connection in the catalog so it survives restart. If the
  /// dataset is dropped before that record commits, the connect fails and
  /// stops the runtime it started.
  Status ConnectFeed(const std::string& name, const std::string& dataset,
                     const std::string& policy_name) AX_EXCLUDES(mu_);
  /// DISCONNECT FEED: graceful stop (drain + persist progress); the feed's
  /// progress file is kept so a later reconnect resumes where it left off.
  Status DisconnectFeed(const std::string& name) AX_EXCLUDES(mu_);

  /// Run `fn` (DROP DATASET's catalog update) unless a live connection
  /// feeds `dataset`, which is refused with InvalidArgument naming the
  /// feed. `fn` runs under mu_, so a racing CONNECT FEED either registers
  /// its runtime first or finds the dataset gone at its own catalog
  /// update. A connection recorded in the catalog but not running —
  /// nothing reconnects feeds after a restart — does not count.
  Status RunUnlessFed(const std::string& dataset,
                      const std::function<Status()>& fn) AX_EXCLUDES(mu_);

  // ---- programmatic surface -------------------------------------------------
  /// Connect with an explicit policy and optional fault injector (which must
  /// outlive the connection). Does NOT record the connection in the catalog.
  Status Connect(const std::string& name, const std::string& dataset,
                 const FeedPolicy& policy, FaultInjector* faults = nullptr)
      AX_EXCLUDES(mu_);

  /// Running runtime for a connected feed, or nullptr. The pointer stays
  /// valid until the feed is disconnected.
  FeedRuntime* runtime(const std::string& name) AX_EXCLUDES(mu_);
  /// The in-process channel endpoint of a connected "channel" feed, or
  /// nullptr for other adapters / unconnected feeds.
  ChannelAdapter* channel(const std::string& name) AX_EXCLUDES(mu_);

  /// Persist the progress watermark of every connected feed (checkpoint
  /// hook: called before WAL truncation so the persisted watermark is
  /// always covered by either the WAL or the flushed components).
  Status PersistProgress() AX_EXCLUDES(mu_);
  /// Gracefully stop every connected feed (instance shutdown).
  Status StopAll() AX_EXCLUDES(mu_);

  std::string ProgressPathFor(const std::string& feed) const {
    return feeds_dir_ + "/" + feed + ".progress";
  }

 private:
  struct Connection {
    std::string dataset;
    std::unique_ptr<FeedRuntime> runtime;
    ChannelAdapter* channel = nullptr;  // borrowed from runtime's adapter
  };

  /// Remove `name`'s connection and return its runtime, still running
  /// (null when the feed is not connected).
  std::unique_ptr<FeedRuntime> TakeRuntime(const std::string& name)
      AX_EXCLUDES(mu_);

  Instance* instance_;
  meta::MetadataManager* metadata_;
  std::string feeds_dir_;
  mutable std::mutex mu_;
  std::map<std::string, Connection> connections_ AX_GUARDED_BY(mu_);
};

}  // namespace asterix::feeds
