// LSM inverted keyword index (paper §III item 8: "several variants of
// inverted keyword indexes"). Maps terms to primary keys; backed by an LSM
// B+tree over composite (term, pk) keys so postings inherit LSM flush,
// antimatter-delete and merge behaviour.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/lsm_btree.h"

namespace asterix::storage {

/// Split text into lowercase alphanumeric word tokens (the keyword
/// tokenizer behind CREATE INDEX ... TYPE KEYWORD).
std::vector<std::string> TokenizeKeywords(const std::string& text);

/// Inverted index from terms to opaque payloads (encoded primary keys).
class LsmInvertedIndex {
 public:
  /// Open (or create) the index over an LSM B+tree with `options`.
  static Result<std::unique_ptr<LsmInvertedIndex>> Open(
      const LsmOptions& options);

  /// Add one (term, payload) posting.
  Status Insert(const std::string& term, const std::string& payload);
  /// Remove one posting.
  Status Remove(const std::string& term, const std::string& payload);
  /// Index every keyword token of `text` for `payload`.
  Status InsertText(const std::string& text, const std::string& payload);
  Status RemoveText(const std::string& text, const std::string& payload);

  /// Payloads of all postings for `term` (exact match, lowercase).
  Result<std::vector<std::string>> Search(const std::string& term) const;
  /// Payloads containing every term (conjunctive search).
  Result<std::vector<std::string>> SearchAll(
      const std::vector<std::string>& terms) const;

  Status Flush() { return tree_->Flush(); }
  Status ForceFullMerge() { return tree_->ForceFullMerge(); }
  void MarkDropped() { tree_->MarkDropped(); }
  LsmStats stats() const { return tree_->stats(); }

 private:
  explicit LsmInvertedIndex(std::unique_ptr<LsmBTree> tree)
      : tree_(std::move(tree)) {}
  std::unique_ptr<LsmBTree> tree_;
};

}  // namespace asterix::storage
