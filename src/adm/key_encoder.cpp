#include "adm/key_encoder.h"

#include <cmath>
#include <cstring>

namespace asterix::adm {

namespace {

constexpr char kClassMissing = 0x01;
constexpr char kClassNull = 0x02;
constexpr char kClassFalse = 0x10;
constexpr char kClassTrue = 0x11;
constexpr char kClassNumber = 0x20;
constexpr char kClassString = 0x30;
constexpr char kClassDate = 0x40;
constexpr char kClassTime = 0x41;
constexpr char kClassDatetime = 0x42;
constexpr char kClassDuration = 0x43;
constexpr char kClassPoint = 0x50;

// Big-endian image of an int64 with the sign bit flipped: memcmp order
// equals numeric order.
void PutOrderedInt64(int64_t v, std::string* out) {
  uint64_t u = static_cast<uint64_t>(v) ^ (1ULL << 63);
  for (int i = 7; i >= 0; i--) out->push_back(static_cast<char>(u >> (8 * i)));
}

int64_t GetOrderedInt64(const unsigned char* p) {
  uint64_t u = 0;
  for (int i = 0; i < 8; i++) u = (u << 8) | p[i];
  return static_cast<int64_t>(u ^ (1ULL << 63));
}

// Order-preserving image of a double: flip all bits for negatives, flip
// sign bit for non-negatives. (-0.0 normalized to 0.0 first.)
uint64_t OrderedDoubleBits(double d) {
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  if (bits & (1ULL << 63)) return ~bits;
  return bits | (1ULL << 63);
}

double DoubleFromOrderedBits(uint64_t u) {
  uint64_t bits = (u & (1ULL << 63)) ? (u & ~(1ULL << 63)) : ~u;
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

void PutOrderedDoubleBits(uint64_t u, std::string* out) {
  for (int i = 7; i >= 0; i--) out->push_back(static_cast<char>(u >> (8 * i)));
}

uint64_t GetBe64(const unsigned char* p) {
  uint64_t u = 0;
  for (int i = 0; i < 8; i++) u = (u << 8) | p[i];
  return u;
}

}  // namespace

Status EncodeKeyPart(const Value& v, std::string* out) {
  switch (v.tag()) {
    case TypeTag::kMissing:
      out->push_back(kClassMissing);
      return Status::OK();
    case TypeTag::kNull:
      out->push_back(kClassNull);
      return Status::OK();
    case TypeTag::kBoolean:
      out->push_back(v.AsBool() ? kClassTrue : kClassFalse);
      return Status::OK();
    case TypeTag::kInt64:
    case TypeTag::kDouble: {
      out->push_back(kClassNumber);
      // Primary order: the double image (orders ints and doubles together).
      PutOrderedDoubleBits(OrderedDoubleBits(v.AsNumber()), out);
      // Tiebreak: the exact int64 (only consulted when double images are
      // equal, i.e. for ints beyond 2^53). A double equal to an int of
      // magnitude below 2^53 encodes as that int, so numerically equal keys
      // get equal bytes whatever their tag, as Value::Hash does: a search
      // for 42.0 finds the key 42 and routes to 42's partition. Other
      // doubles encode a 0 tiebreak and tag byte 1.
      const double d = v.AsNumber();
      if (v.tag() == TypeTag::kInt64) {
        PutOrderedInt64(v.AsInt(), out);
        out->push_back(0);
      } else if (std::abs(d) < 0x1p53 && d == std::trunc(d)) {
        PutOrderedInt64(static_cast<int64_t>(d), out);
        out->push_back(0);
      } else {
        PutOrderedInt64(0, out);
        out->push_back(1);
      }
      return Status::OK();
    }
    case TypeTag::kString: {
      out->push_back(kClassString);
      for (char c : v.AsString()) {
        if (c == '\x00') {
          out->push_back('\x00');
          out->push_back('\xff');
        } else {
          out->push_back(c);
        }
      }
      out->push_back('\x00');
      out->push_back('\x00');
      return Status::OK();
    }
    case TypeTag::kDate:
    case TypeTag::kTime:
    case TypeTag::kDatetime:
    case TypeTag::kDuration: {
      char cls = v.tag() == TypeTag::kDate       ? kClassDate
                 : v.tag() == TypeTag::kTime     ? kClassTime
                 : v.tag() == TypeTag::kDatetime ? kClassDatetime
                                                 : kClassDuration;
      out->push_back(cls);
      PutOrderedInt64(v.TemporalValue(), out);
      return Status::OK();
    }
    case TypeTag::kPoint: {
      out->push_back(kClassPoint);
      Point p = v.AsPoint();
      PutOrderedDoubleBits(OrderedDoubleBits(p.x), out);
      PutOrderedDoubleBits(OrderedDoubleBits(p.y), out);
      return Status::OK();
    }
    default:
      return Status::NotSupported(std::string("cannot use ") +
                                  TypeTagName(v.tag()) + " as an index key");
  }
}

Result<std::string> EncodeKey(const std::vector<Value>& parts) {
  std::string out;
  for (const auto& p : parts) AX_RETURN_NOT_OK(EncodeKeyPart(p, &out));
  return out;
}

Result<std::string> EncodeKey(const Value& v) {
  std::string out;
  AX_RETURN_NOT_OK(EncodeKeyPart(v, &out));
  return out;
}

Result<Value> DecodeKeyPart(const std::string& data, size_t* pos) {
  if (*pos >= data.size()) return Status::Corruption("truncated key");
  char cls = data[*pos];
  (*pos)++;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  switch (cls) {
    case kClassMissing: return Value::Missing();
    case kClassNull: return Value::Null();
    case kClassFalse: return Value::Boolean(false);
    case kClassTrue: return Value::Boolean(true);
    case kClassNumber: {
      if (*pos + 17 > data.size()) return Status::Corruption("truncated number key");
      uint64_t dbits = GetBe64(bytes + *pos);
      int64_t ival = GetOrderedInt64(bytes + *pos + 8);
      char tag = data[*pos + 16];
      *pos += 17;
      if (tag == 0) return Value::Int(ival);
      return Value::Double(DoubleFromOrderedBits(dbits));
    }
    case kClassString: {
      std::string s;
      while (true) {
        if (*pos >= data.size()) return Status::Corruption("truncated string key");
        char c = data[*pos];
        (*pos)++;
        if (c == '\x00') {
          if (*pos >= data.size()) return Status::Corruption("truncated string key");
          char next = data[*pos];
          (*pos)++;
          if (next == '\x00') break;
          if (next == '\xff') {
            s.push_back('\x00');
            continue;
          }
          return Status::Corruption("bad string key escape");
        }
        s.push_back(c);
      }
      return Value::String(std::move(s));
    }
    case kClassDate:
    case kClassTime:
    case kClassDatetime:
    case kClassDuration: {
      if (*pos + 8 > data.size()) return Status::Corruption("truncated temporal key");
      int64_t raw = GetOrderedInt64(bytes + *pos);
      *pos += 8;
      switch (cls) {
        case kClassDate: return Value::Date(raw);
        case kClassTime: return Value::Time(raw);
        case kClassDatetime: return Value::Datetime(raw);
        default: return Value::Duration(raw);
      }
    }
    case kClassPoint: {
      if (*pos + 16 > data.size()) return Status::Corruption("truncated point key");
      double x = DoubleFromOrderedBits(GetBe64(bytes + *pos));
      double y = DoubleFromOrderedBits(GetBe64(bytes + *pos + 8));
      *pos += 16;
      return Value::MakePoint(x, y);
    }
    default:
      return Status::Corruption("bad key class byte " + std::to_string(cls));
  }
}

Result<std::vector<Value>> DecodeKey(const std::string& data) {
  std::vector<Value> out;
  size_t pos = 0;
  while (pos < data.size()) {
    AX_ASSIGN_OR_RETURN(Value v, DecodeKeyPart(data, &pos));
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace asterix::adm
