// Tuples: the unit of data flowing through Hyracks operators. A tuple is a
// fixed-arity vector of ADM values; operators append/project fields by
// position (the Algebricks compiler maps its variables to positions).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "adm/serde.h"
#include "adm/value.h"
#include "common/result.h"

namespace asterix::hyracks {

/// One dataflow tuple.
struct Tuple {
  std::vector<adm::Value> fields;

  Tuple() = default;
  explicit Tuple(std::vector<adm::Value> f) : fields(std::move(f)) {}

  size_t arity() const { return fields.size(); }
  const adm::Value& at(size_t i) const { return fields[i]; }

  /// Approximate memory footprint, used by operator budgets.
  size_t ByteSize() const {
    size_t s = sizeof(Tuple);
    for (const auto& v : fields) s += v.ByteSize();
    return s;
  }

  /// In-memory footprint for grant accounting: ByteSize plus the fields
  /// vector's unused capacity slots. Reserve slack is real allocated
  /// memory, so budget arithmetic that ignores it undercounts exactly when
  /// tuples are widest — this is the uniform estimator every blocking
  /// operator's spill trigger uses.
  size_t ApproxBytes() const {
    size_t s = sizeof(Tuple) +
               (fields.capacity() - fields.size()) * sizeof(adm::Value);
    for (const auto& v : fields) s += v.ByteSize();
    return s;
  }

  /// Concatenate two tuples (join output).
  static Tuple Concat(const Tuple& a, const Tuple& b) {
    Tuple out;
    out.fields.reserve(a.arity() + b.arity());
    out.fields.insert(out.fields.end(), a.fields.begin(), a.fields.end());
    out.fields.insert(out.fields.end(), b.fields.begin(), b.fields.end());
    return out;
  }

  std::string ToString() const {
    std::string s = "(";
    for (size_t i = 0; i < fields.size(); i++) {
      if (i) s += ", ";
      s += fields[i].ToString();
    }
    s += ")";
    return s;
  }
};

/// Per-entry bookkeeping estimate (bucket node, key-string header, chain
/// pointer) added by hash-table operators (join build, group-by) on top of
/// Tuple::ApproxBytes, so their spill triggers count memory the same way.
constexpr size_t kHashEntryOverheadBytes = 64;

/// Serialize a tuple for spill files and exchange framing.
inline void SerializeTuple(const Tuple& t, std::string* out) {
  adm::PutVarint(t.fields.size(), out);
  for (const auto& v : t.fields) adm::SerializeValue(v, out);
}

inline Result<Tuple> DeserializeTuple(const std::string& data, size_t* pos) {
  AX_ASSIGN_OR_RETURN(uint64_t n, adm::GetVarint(data, pos));
  Tuple t;
  // Every field takes at least one byte: a corrupt count reserves no more.
  t.fields.reserve(std::min<uint64_t>(n, data.size() - *pos));
  for (uint64_t i = 0; i < n; i++) {
    AX_ASSIGN_OR_RETURN(adm::Value v, adm::DeserializeValue(data, pos));
    t.fields.push_back(std::move(v));
  }
  return t;
}

}  // namespace asterix::hyracks
