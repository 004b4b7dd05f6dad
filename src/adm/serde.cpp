#include "adm/serde.h"

#include <algorithm>
#include <cstring>
#include <string_view>

namespace asterix::adm {

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Result<uint64_t> GetVarint(const std::string& data, size_t* pos) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < data.size() && shift <= 63) {
    uint8_t b = static_cast<uint8_t>(data[*pos]);
    (*pos)++;
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
  return Status::Corruption("truncated varint");
}

namespace {
void PutFixed64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

Result<uint64_t> GetFixed64(const std::string& data, size_t* pos) {
  if (*pos + 8 > data.size()) return Status::Corruption("truncated fixed64");
  uint64_t v;
  std::memcpy(&v, data.data() + *pos, 8);
  *pos += 8;
  return v;
}

void PutDouble(double d, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  PutFixed64(bits, out);
}

Result<double> GetDouble(const std::string& data, size_t* pos) {
  AX_ASSIGN_OR_RETURN(uint64_t bits, GetFixed64(data, pos));
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

// True if `n` bytes remain at `pos` (`pos` is never past the end).
bool Fits(const std::string& data, size_t pos, uint64_t n) {
  return n <= data.size() - pos;
}

// A reservation for `n` elements decoded from the rest of `data`. Every
// element takes at least one byte, so a corrupt count cannot reserve more.
size_t ReserveFor(const std::string& data, size_t pos, uint64_t n) {
  return static_cast<size_t>(std::min<uint64_t>(n, data.size() - pos));
}

Status SkipBytes(const std::string& data, size_t* pos, uint64_t n,
                 const char* what) {
  if (!Fits(data, *pos, n)) return Status::Corruption(what);
  *pos += n;
  return Status::OK();
}

// The error for a container opened with no depth left: a value nested
// deeper than any the system writes.
Status TooDeep() {
  return Status::Corruption("value nested more than " +
                            std::to_string(kMaxDecodeDepth) + " deep");
}

// Zig-zag so small negative ints stay short.
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}
}  // namespace

void SerializeValue(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.tag()));
  switch (v.tag()) {
    case TypeTag::kMissing:
    case TypeTag::kNull:
      return;
    case TypeTag::kBoolean:
      out->push_back(v.AsBool() ? 1 : 0);
      return;
    case TypeTag::kInt64:
      PutVarint(ZigZag(v.AsInt()), out);
      return;
    case TypeTag::kDate:
    case TypeTag::kTime:
    case TypeTag::kDatetime:
    case TypeTag::kDuration:
      PutVarint(ZigZag(v.TemporalValue()), out);
      return;
    case TypeTag::kDouble:
      PutDouble(v.AsDoubleExact(), out);
      return;
    case TypeTag::kString: {
      const std::string& s = v.AsString();
      PutVarint(s.size(), out);
      out->append(s);
      return;
    }
    case TypeTag::kPoint: {
      Point p = v.AsPoint();
      PutDouble(p.x, out);
      PutDouble(p.y, out);
      return;
    }
    case TypeTag::kRectangle: {
      Rectangle r = v.AsRectangle();
      PutDouble(r.lo.x, out);
      PutDouble(r.lo.y, out);
      PutDouble(r.hi.x, out);
      PutDouble(r.hi.y, out);
      return;
    }
    case TypeTag::kArray:
    case TypeTag::kMultiset: {
      PutVarint(v.items().size(), out);
      for (const auto& item : v.items()) SerializeValue(item, out);
      return;
    }
    case TypeTag::kObject: {
      PutVarint(v.fields().size(), out);
      for (const auto& [name, fv] : v.fields()) {
        PutVarint(name.size(), out);
        out->append(name);
        SerializeValue(fv, out);
      }
      return;
    }
  }
}

namespace {
// DeserializeValue with `depth` containers left to open.
Result<Value> DecodeValue(const std::string& data, size_t* pos, size_t depth) {
  if (*pos >= data.size()) return Status::Corruption("truncated value tag");
  auto tag = static_cast<TypeTag>(data[*pos]);
  (*pos)++;
  switch (tag) {
    case TypeTag::kMissing: return Value::Missing();
    case TypeTag::kNull: return Value::Null();
    case TypeTag::kBoolean: {
      if (*pos >= data.size()) return Status::Corruption("truncated boolean");
      bool b = data[*pos] != 0;
      (*pos)++;
      return Value::Boolean(b);
    }
    case TypeTag::kInt64: {
      AX_ASSIGN_OR_RETURN(uint64_t z, GetVarint(data, pos));
      return Value::Int(UnZigZag(z));
    }
    case TypeTag::kDate:
    case TypeTag::kTime:
    case TypeTag::kDatetime:
    case TypeTag::kDuration: {
      AX_ASSIGN_OR_RETURN(uint64_t z, GetVarint(data, pos));
      int64_t raw = UnZigZag(z);
      switch (tag) {
        case TypeTag::kDate: return Value::Date(raw);
        case TypeTag::kTime: return Value::Time(raw);
        case TypeTag::kDatetime: return Value::Datetime(raw);
        default: return Value::Duration(raw);
      }
    }
    case TypeTag::kDouble: {
      AX_ASSIGN_OR_RETURN(double d, GetDouble(data, pos));
      return Value::Double(d);
    }
    case TypeTag::kString: {
      AX_ASSIGN_OR_RETURN(uint64_t n, GetVarint(data, pos));
      if (!Fits(data, *pos, n)) return Status::Corruption("truncated string");
      Value v = Value::String(data.substr(*pos, n));
      *pos += n;
      return v;
    }
    case TypeTag::kPoint: {
      AX_ASSIGN_OR_RETURN(double x, GetDouble(data, pos));
      AX_ASSIGN_OR_RETURN(double y, GetDouble(data, pos));
      return Value::MakePoint(x, y);
    }
    case TypeTag::kRectangle: {
      AX_ASSIGN_OR_RETURN(double x1, GetDouble(data, pos));
      AX_ASSIGN_OR_RETURN(double y1, GetDouble(data, pos));
      AX_ASSIGN_OR_RETURN(double x2, GetDouble(data, pos));
      AX_ASSIGN_OR_RETURN(double y2, GetDouble(data, pos));
      return Value::MakeRectangle({x1, y1}, {x2, y2});
    }
    case TypeTag::kArray:
    case TypeTag::kMultiset: {
      if (depth == 0) return TooDeep();
      AX_ASSIGN_OR_RETURN(uint64_t n, GetVarint(data, pos));
      std::vector<Value> items;
      items.reserve(ReserveFor(data, *pos, n));
      for (uint64_t i = 0; i < n; i++) {
        AX_ASSIGN_OR_RETURN(Value item, DecodeValue(data, pos, depth - 1));
        items.push_back(std::move(item));
      }
      return tag == TypeTag::kArray ? Value::Array(std::move(items))
                                    : Value::Multiset(std::move(items));
    }
    case TypeTag::kObject: {
      if (depth == 0) return TooDeep();
      AX_ASSIGN_OR_RETURN(uint64_t n, GetVarint(data, pos));
      FieldVec fields;
      fields.reserve(ReserveFor(data, *pos, n));
      for (uint64_t i = 0; i < n; i++) {
        AX_ASSIGN_OR_RETURN(uint64_t len, GetVarint(data, pos));
        if (!Fits(data, *pos, len)) {
          return Status::Corruption("truncated field name");
        }
        std::string name = data.substr(*pos, len);
        *pos += len;
        AX_ASSIGN_OR_RETURN(Value fv, DecodeValue(data, pos, depth - 1));
        fields.emplace_back(std::move(name), std::move(fv));
      }
      return Value::Object(std::move(fields));
    }
  }
  return Status::Corruption("bad type tag " + std::to_string(data[*pos - 1]));
}

// Steps over one value without building it, making DecodeValue's checks
// on every tag, varint, length and depth.
Status SkipValue(const std::string& data, size_t* pos, size_t depth) {
  if (*pos >= data.size()) return Status::Corruption("truncated value tag");
  auto tag = static_cast<TypeTag>(data[*pos]);
  (*pos)++;
  switch (tag) {
    case TypeTag::kMissing:
    case TypeTag::kNull:
      return Status::OK();
    case TypeTag::kBoolean:
      return SkipBytes(data, pos, 1, "truncated boolean");
    case TypeTag::kInt64:
    case TypeTag::kDate:
    case TypeTag::kTime:
    case TypeTag::kDatetime:
    case TypeTag::kDuration:
      return GetVarint(data, pos).status();
    case TypeTag::kDouble:
      return SkipBytes(data, pos, 8, "truncated fixed64");
    case TypeTag::kString: {
      AX_ASSIGN_OR_RETURN(uint64_t n, GetVarint(data, pos));
      return SkipBytes(data, pos, n, "truncated string");
    }
    case TypeTag::kPoint:
      return SkipBytes(data, pos, 16, "truncated fixed64");
    case TypeTag::kRectangle:
      return SkipBytes(data, pos, 32, "truncated fixed64");
    case TypeTag::kArray:
    case TypeTag::kMultiset: {
      if (depth == 0) return TooDeep();
      AX_ASSIGN_OR_RETURN(uint64_t n, GetVarint(data, pos));
      for (uint64_t i = 0; i < n; i++) {
        AX_RETURN_NOT_OK(SkipValue(data, pos, depth - 1));
      }
      return Status::OK();
    }
    case TypeTag::kObject: {
      if (depth == 0) return TooDeep();
      AX_ASSIGN_OR_RETURN(uint64_t n, GetVarint(data, pos));
      for (uint64_t i = 0; i < n; i++) {
        AX_ASSIGN_OR_RETURN(uint64_t len, GetVarint(data, pos));
        AX_RETURN_NOT_OK(SkipBytes(data, pos, len, "truncated field name"));
        AX_RETURN_NOT_OK(SkipValue(data, pos, depth - 1));
      }
      return Status::OK();
    }
  }
  return Status::Corruption("bad type tag " + std::to_string(data[*pos - 1]));
}

Status CheckConsumed(const std::string& data, size_t pos) {
  if (pos != data.size()) {
    return Status::Corruption("trailing bytes after serialized value");
  }
  return Status::OK();
}
}  // namespace

Result<Value> DeserializeValue(const std::string& data, size_t* pos) {
  return DecodeValue(data, pos, kMaxDecodeDepth);
}

Result<Value> Deserialize(const std::string& data) {
  size_t pos = 0;
  AX_ASSIGN_OR_RETURN(Value v, DeserializeValue(data, &pos));
  AX_RETURN_NOT_OK(CheckConsumed(data, pos));
  return v;
}

Result<Value> DeserializeFields(const std::string& data,
                                const std::vector<std::string>& names) {
  if (data.empty() || static_cast<TypeTag>(data[0]) != TypeTag::kObject) {
    AX_RETURN_NOT_OK(Validate(data));
    return Value::Object({});
  }
  size_t pos = 1;
  AX_ASSIGN_OR_RETURN(uint64_t n, GetVarint(data, &pos));
  FieldVec kept;
  kept.reserve(std::min<uint64_t>(n, names.size()));
  bool has_missing = false;
  // Fields and names are both in ascending order: walk them together.
  size_t next = 0;  // the first of `names` not below the previous field
  std::string_view prev;
  for (uint64_t i = 0; i < n; i++) {
    AX_ASSIGN_OR_RETURN(uint64_t len, GetVarint(data, &pos));
    if (!Fits(data, pos, len)) {
      return Status::Corruption("truncated field name");
    }
    std::string_view name(data.data() + pos, len);
    pos += len;
    if (name < prev) next = 0;  // out of order (not written by Serialize)
    prev = name;
    int cmp = 1;
    while (next < names.size() && (cmp = names[next].compare(name)) < 0) {
      next++;
    }
    // Each field sits one level inside the record.
    if (next == names.size() || cmp != 0) {
      AX_RETURN_NOT_OK(SkipValue(data, &pos, kMaxDecodeDepth - 1));
      continue;
    }
    AX_ASSIGN_OR_RETURN(Value fv, DecodeValue(data, &pos, kMaxDecodeDepth - 1));
    has_missing |= fv.is_missing();
    kept.emplace_back(std::string(name), std::move(fv));
  }
  AX_RETURN_NOT_OK(CheckConsumed(data, pos));
  // Serialized fields are in name order, which Value::Object keeps as it
  // is; any other order is sorted and deduplicated there as in Deserialize.
  Value out = Value::Object(std::move(kept));
  if (!has_missing) return out;
  // GetField reads a MISSING field as absent: drop it, after duplicates
  // were resolved.
  FieldVec present;
  for (const auto& f : out.fields()) {
    if (!f.second.is_missing()) present.push_back(f);
  }
  return Value::Object(std::move(present));
}

Status Validate(const std::string& data) {
  size_t pos = 0;
  AX_RETURN_NOT_OK(SkipValue(data, &pos, kMaxDecodeDepth));
  return CheckConsumed(data, pos);
}

}  // namespace asterix::adm
