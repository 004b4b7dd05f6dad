// Order-preserving key encoding: encodes ADM scalar values (and composite
// keys) into byte strings whose memcmp order equals Value::Compare order.
// This is what lets on-disk B+trees compare keys without deserializing.
//
// Encoding per value: one class byte, then a class-specific payload:
//   numbers   -> class 0x20, 8-byte order-preserving double image + an
//                order-preserving int64 image as tiebreak (keeps int64
//                precision beyond 2^53 while ordering ints and doubles
//                together, as Value::Compare does); an integral double
//                below 2^53 in magnitude encodes exactly as the equal
//                int64, so equal numbers are equal keys (and decode as
//                int64)
//   strings   -> class 0x30, bytes with 0x00 escaped as {0x00,0xFF},
//                terminated by {0x00,0x00}
//   temporals -> class 0x4x (per tag), big-endian biased int64
// Composite keys are simple concatenations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adm/value.h"
#include "common/result.h"

namespace asterix::adm {

/// Append the order-preserving encoding of `v` to `out`.
/// Supported tags: missing, null, boolean, int64, double, string,
/// date, time, datetime, duration, point (as x then y). Other tags fail.
Status EncodeKeyPart(const Value& v, std::string* out);

/// Encode a composite key from `parts` (concatenated part encodings).
Result<std::string> EncodeKey(const std::vector<Value>& parts);

/// Encode a single-part key.
Result<std::string> EncodeKey(const Value& v);

/// Decode one key part from `data` at `*pos` (inverse of EncodeKeyPart).
Result<Value> DecodeKeyPart(const std::string& data, size_t* pos);

/// Decode all parts of a composite key.
Result<std::vector<Value>> DecodeKey(const std::string& data);

/// Smallest possible key ("" — less than every encoded key).
inline std::string MinKey() { return std::string(); }
/// A key greater than every encoded key.
inline std::string MaxKey() { return std::string(1, '\xff'); }

}  // namespace asterix::adm
