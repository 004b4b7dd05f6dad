// Binary serialization of ADM values: a compact tagged format used for
// LSM storage payloads, spill files, and the write-ahead log. Not ordered —
// index keys use the separate order-preserving encoding in key_encoder.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adm/value.h"
#include "common/result.h"

namespace asterix::adm {

/// Append the binary encoding of `v` to `out`.
void SerializeValue(const Value& v, std::string* out);

/// Serialize to a fresh buffer.
inline std::string Serialize(const Value& v) {
  std::string out;
  SerializeValue(v, &out);
  return out;
}

/// Decode one value from `data` starting at `*pos`; advances `*pos`.
Result<Value> DeserializeValue(const std::string& data, size_t* pos);

/// Decode a buffer that contains exactly one value.
Result<Value> Deserialize(const std::string& data);

/// Decode only the top-level fields `names` (sorted, unique) of a buffer
/// that contains exactly one value: Deserialize followed by GetField on each
/// name, keeping those not MISSING (an empty object for a non-object value).
/// Every other field is stepped over in place, with the same checks
/// Deserialize makes, so both reject the same buffers with Corruption.
Result<Value> DeserializeFields(const std::string& data,
                                const std::vector<std::string>& names);

/// OK if `data` contains exactly one value Deserialize would accept, else
/// Corruption; builds nothing.
Status Validate(const std::string& data);

/// Varint helpers shared with the storage layer (LEB128, unsigned).
void PutVarint(uint64_t v, std::string* out);
Result<uint64_t> GetVarint(const std::string& data, size_t* pos);

}  // namespace asterix::adm
