#include "storage/lsm_inverted.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "adm/key_encoder.h"

namespace asterix::storage {

std::vector<std::string> TokenizeKeywords(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur.push_back(static_cast<char>(std::tolower(c)));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

namespace {
Result<std::string> PostingKey(const std::string& term,
                               const std::string& payload) {
  return adm::EncodeKey(
      {adm::Value::String(term), adm::Value::String(payload)});
}
}  // namespace

Result<std::unique_ptr<LsmInvertedIndex>> LsmInvertedIndex::Open(
    const LsmOptions& options) {
  AX_ASSIGN_OR_RETURN(auto tree, LsmBTree::Open(options));
  return std::unique_ptr<LsmInvertedIndex>(
      new LsmInvertedIndex(std::move(tree)));
}

Status LsmInvertedIndex::Insert(const std::string& term,
                                const std::string& payload) {
  AX_ASSIGN_OR_RETURN(std::string key, PostingKey(term, payload));
  return tree_->Put(key, "");
}

Status LsmInvertedIndex::Remove(const std::string& term,
                                const std::string& payload) {
  AX_ASSIGN_OR_RETURN(std::string key, PostingKey(term, payload));
  return tree_->Delete(key);
}

Status LsmInvertedIndex::InsertText(const std::string& text,
                                    const std::string& payload) {
  std::set<std::string> unique_terms;
  for (auto& t : TokenizeKeywords(text)) unique_terms.insert(std::move(t));
  for (const auto& t : unique_terms) AX_RETURN_NOT_OK(Insert(t, payload));
  return Status::OK();
}

Status LsmInvertedIndex::RemoveText(const std::string& text,
                                    const std::string& payload) {
  std::set<std::string> unique_terms;
  for (auto& t : TokenizeKeywords(text)) unique_terms.insert(std::move(t));
  for (const auto& t : unique_terms) AX_RETURN_NOT_OK(Remove(t, payload));
  return Status::OK();
}

Result<std::vector<std::string>> LsmInvertedIndex::Search(
    const std::string& term) const {
  AX_ASSIGN_OR_RETURN(std::string lo, adm::EncodeKey(adm::Value::String(term)));
  std::vector<std::string> out;
  AX_ASSIGN_OR_RETURN(auto it, tree_->NewIterator());
  AX_RETURN_NOT_OK(it.Seek(lo));
  while (it.Valid()) {
    if (it.key().compare(0, lo.size(), lo) != 0) break;
    AX_ASSIGN_OR_RETURN(auto parts, adm::DecodeKey(it.key()));
    if (parts.size() == 2 && parts[0].is_string() &&
        parts[0].AsString() == term && parts[1].is_string()) {
      out.push_back(parts[1].AsString());
    }
    AX_RETURN_NOT_OK(it.Next());
  }
  return out;
}

Result<std::vector<std::string>> LsmInvertedIndex::SearchAll(
    const std::vector<std::string>& terms) const {
  if (terms.empty()) return std::vector<std::string>{};
  AX_ASSIGN_OR_RETURN(auto acc, Search(terms[0]));
  std::set<std::string> current(acc.begin(), acc.end());
  for (size_t i = 1; i < terms.size() && !current.empty(); i++) {
    AX_ASSIGN_OR_RETURN(auto next, Search(terms[i]));
    std::set<std::string> next_set(next.begin(), next.end());
    std::set<std::string> inter;
    std::set_intersection(current.begin(), current.end(), next_set.begin(),
                          next_set.end(), std::inserter(inter, inter.begin()));
    current = std::move(inter);
  }
  return std::vector<std::string>(current.begin(), current.end());
}

}  // namespace asterix::storage
