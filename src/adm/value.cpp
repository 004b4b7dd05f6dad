#include "adm/value.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "adm/temporal.h"

namespace asterix::adm {

const char* TypeTagName(TypeTag tag) {
  switch (tag) {
    case TypeTag::kMissing: return "missing";
    case TypeTag::kNull: return "null";
    case TypeTag::kBoolean: return "boolean";
    case TypeTag::kInt64: return "int64";
    case TypeTag::kDouble: return "double";
    case TypeTag::kString: return "string";
    case TypeTag::kDate: return "date";
    case TypeTag::kTime: return "time";
    case TypeTag::kDatetime: return "datetime";
    case TypeTag::kDuration: return "duration";
    case TypeTag::kPoint: return "point";
    case TypeTag::kRectangle: return "rectangle";
    case TypeTag::kArray: return "array";
    case TypeTag::kMultiset: return "multiset";
    case TypeTag::kObject: return "object";
  }
  return "unknown";
}

namespace {
// Indexed by CmpOp: the one table of comparison function names.
constexpr const char* kCmpOpNames[] = {"eq", "neq", "lt", "le", "gt", "ge"};
}  // namespace

const char* CmpOpName(CmpOp op) {
  return kCmpOpNames[static_cast<size_t>(op)];
}

std::optional<CmpOp> CmpOpNamed(std::string_view name) {
  for (size_t i = 0; i < std::size(kCmpOpNames); i++) {
    if (name == kCmpOpNames[i]) return static_cast<CmpOp>(i);
  }
  return std::nullopt;
}

Value Value::Double(double v) {
  Value out;
  out.tag_ = TypeTag::kDouble;
  out.dbl_ = v;
  return out;
}

Value Value::String(std::string s) {
  Value out;
  out.tag_ = TypeTag::kString;
  out.str_ = std::make_shared<const std::string>(std::move(s));
  return out;
}

Value Value::MakePoint(double x, double y) {
  Value out;
  out.tag_ = TypeTag::kPoint;
  out.dbl_ = x;
  out.dbl2_ = y;
  return out;
}

Value Value::MakeRectangle(Point lo, Point hi) {
  Value out;
  out.tag_ = TypeTag::kRectangle;
  out.dbl_ = lo.x;
  out.dbl2_ = lo.y;
  out.dbl3_ = hi.x;
  out.dbl4_ = hi.y;
  return out;
}

Rectangle Value::AsRectangle() const {
  return Rectangle{{dbl_, dbl2_}, {dbl3_, dbl4_}};
}

Value Value::Array(std::vector<Value> items) {
  Value out;
  out.tag_ = TypeTag::kArray;
  out.items_ = std::make_shared<const std::vector<Value>>(std::move(items));
  return out;
}

Value Value::Multiset(std::vector<Value> items) {
  Value out;
  out.tag_ = TypeTag::kMultiset;
  out.items_ = std::make_shared<const std::vector<Value>>(std::move(items));
  return out;
}

Value Value::Object(FieldVec fields) {
  // Canonical input — names strictly ascending, as in every decoded record
  // and every record a scan prunes — is kept as it is.
  if (std::adjacent_find(fields.begin(), fields.end(),
                         [](const auto& a, const auto& b) {
                           return !(a.first < b.first);
                         }) != fields.end()) {
    // Stable sort + keep the last occurrence of each duplicate name.
    std::stable_sort(
        fields.begin(), fields.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    FieldVec dedup;
    dedup.reserve(fields.size());
    for (auto& f : fields) {
      if (!dedup.empty() && dedup.back().first == f.first) {
        dedup.back().second = std::move(f.second);
      } else {
        dedup.emplace_back(std::move(f));
      }
    }
    fields = std::move(dedup);
  }
  Value out;
  out.tag_ = TypeTag::kObject;
  out.fields_ = std::make_shared<const FieldVec>(std::move(fields));
  return out;
}

namespace {
const Value kMissingValue;
}

const Value& Value::GetField(std::string_view name) const {
  if (tag_ != TypeTag::kObject) return kMissingValue;
  const FieldVec& fv = *fields_;
  auto it = std::lower_bound(
      fv.begin(), fv.end(), name,
      [](const auto& f, std::string_view n) { return f.first < n; });
  if (it != fv.end() && it->first == name) return it->second;
  return kMissingValue;
}

bool Value::HasField(std::string_view name) const {
  return !GetField(name).is_missing();
}

Rectangle Value::Mbr() const {
  if (tag_ == TypeTag::kPoint) {
    Point p = AsPoint();
    return Rectangle{p, p};
  }
  return AsRectangle();
}

namespace {
int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

int CompareNumeric(const Value& a, const Value& b) {
  if (a.tag() == TypeTag::kInt64 && b.tag() == TypeTag::kInt64) {
    int64_t x = a.AsInt(), y = b.AsInt();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  return CompareDoubles(a.AsNumber(), b.AsNumber());
}
}  // namespace

int Value::Compare(const Value& other) const {
  bool num_a = is_numeric();
  bool num_b = other.is_numeric();
  if (num_a && num_b) return CompareNumeric(*this, other);
  if (tag_ != other.tag_) {
    return static_cast<int>(tag_) < static_cast<int>(other.tag_) ? -1 : 1;
  }
  switch (tag_) {
    case TypeTag::kMissing:
    case TypeTag::kNull:
      return 0;
    case TypeTag::kBoolean:
    case TypeTag::kInt64:
    case TypeTag::kDate:
    case TypeTag::kTime:
    case TypeTag::kDatetime:
    case TypeTag::kDuration:
      return i64_ < other.i64_ ? -1 : (i64_ > other.i64_ ? 1 : 0);
    case TypeTag::kDouble:
      return CompareDoubles(dbl_, other.dbl_);
    case TypeTag::kString:
      return str_->compare(*other.str_) < 0   ? -1
             : str_->compare(*other.str_) > 0 ? 1
                                              : 0;
    case TypeTag::kPoint: {
      int c = CompareDoubles(dbl_, other.dbl_);
      if (c != 0) return c;
      return CompareDoubles(dbl2_, other.dbl2_);
    }
    case TypeTag::kRectangle: {
      const double a[4] = {dbl_, dbl2_, dbl3_, dbl4_};
      const double b[4] = {other.dbl_, other.dbl2_, other.dbl3_, other.dbl4_};
      for (int i = 0; i < 4; i++) {
        int c = CompareDoubles(a[i], b[i]);
        if (c != 0) return c;
      }
      return 0;
    }
    case TypeTag::kArray: {
      const auto& a = *items_;
      const auto& b = *other.items_;
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; i++) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
    }
    case TypeTag::kMultiset: {
      // Bags compare as sorted sequences (order-insensitive equality).
      std::vector<Value> a = *items_;
      std::vector<Value> b = *other.items_;
      auto lt = [](const Value& x, const Value& y) { return x.Compare(y) < 0; };
      std::sort(a.begin(), a.end(), lt);
      std::sort(b.begin(), b.end(), lt);
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; i++) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
    }
    case TypeTag::kObject: {
      const auto& a = *fields_;
      const auto& b = *other.fields_;
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; i++) {
        int c = a[i].first.compare(b[i].first);
        if (c != 0) return c < 0 ? -1 : 1;
        c = a[i].second.Compare(b[i].second);
        if (c != 0) return c;
      }
      return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
    }
  }
  return 0;
}

namespace {
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t HashBytes(const void* data, size_t n, uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
}
}  // namespace

uint64_t Value::Hash() const {
  switch (tag_) {
    case TypeTag::kMissing: return 0x6d697373;
    case TypeTag::kNull: return 0x6e756c6c;
    case TypeTag::kBoolean: return i64_ ? 0xb001 : 0xb000;
    case TypeTag::kInt64:
    case TypeTag::kDouble: {
      // Numbers equal across tags must hash equal: hash the double image
      // when the int is exactly representable, else hash the int bits.
      if (tag_ == TypeTag::kInt64) {
        double d = static_cast<double>(i64_);
        if (static_cast<int64_t>(d) == i64_ &&
            std::abs(i64_) < (int64_t{1} << 53)) {
          uint64_t bits;
          std::memcpy(&bits, &d, 8);
          return HashBytes(&bits, 8);
        }
        return HashBytes(&i64_, 8);
      }
      double d = dbl_ == 0.0 ? 0.0 : dbl_;  // normalize -0.0
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      return HashBytes(&bits, 8);
    }
    case TypeTag::kDate:
    case TypeTag::kTime:
    case TypeTag::kDatetime:
    case TypeTag::kDuration: {
      uint64_t h = HashBytes(&i64_, 8);
      return HashCombine(h, static_cast<uint64_t>(tag_));
    }
    case TypeTag::kString:
      return HashBytes(str_->data(), str_->size());
    case TypeTag::kPoint: {
      double d[2] = {dbl_, dbl2_};
      return HashBytes(d, sizeof(d));
    }
    case TypeTag::kRectangle: {
      double d[4] = {dbl_, dbl2_, dbl3_, dbl4_};
      return HashBytes(d, sizeof(d));
    }
    case TypeTag::kArray: {
      uint64_t h = 0xa77a;
      for (const auto& v : *items_) h = HashCombine(h, v.Hash());
      return h;
    }
    case TypeTag::kMultiset: {
      // Order-insensitive: combine with addition.
      uint64_t h = 0xba6;
      for (const auto& v : *items_) h += v.Hash() * kFnvPrime;
      return h;
    }
    case TypeTag::kObject: {
      uint64_t h = 0x0b7ec7;
      for (const auto& [name, v] : *fields_) {
        h = HashCombine(h, HashBytes(name.data(), name.size()));
        h = HashCombine(h, v.Hash());
      }
      return h;
    }
  }
  return 0;
}

size_t Value::ByteSize() const {
  size_t base = sizeof(Value);
  switch (tag_) {
    case TypeTag::kString:
      return base + str_->size();
    case TypeTag::kArray:
    case TypeTag::kMultiset: {
      size_t s = base + sizeof(std::vector<Value>);
      for (const auto& v : *items_) s += v.ByteSize();
      return s;
    }
    case TypeTag::kObject: {
      size_t s = base + sizeof(FieldVec);
      for (const auto& [name, v] : *fields_) s += name.size() + v.ByteSize();
      return s;
    }
    default:
      return base;
  }
}

namespace {
void AppendEscapedJson(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendDouble(double d, std::string* out) {
  if (d == static_cast<int64_t>(d) && std::abs(d) < 1e15) {
    *out += std::to_string(static_cast<int64_t>(d));
    *out += ".0";
    return;
  }
  std::ostringstream ss;
  ss.precision(17);
  ss << d;
  *out += ss.str();
}

void AppendValue(const Value& v, std::string* out) {
  switch (v.tag()) {
    case TypeTag::kMissing: *out += "missing"; return;
    case TypeTag::kNull: *out += "null"; return;
    case TypeTag::kBoolean: *out += v.AsBool() ? "true" : "false"; return;
    case TypeTag::kInt64: *out += std::to_string(v.AsInt()); return;
    case TypeTag::kDouble: AppendDouble(v.AsDoubleExact(), out); return;
    case TypeTag::kString: AppendEscapedJson(v.AsString(), out); return;
    case TypeTag::kDate:
      *out += "date(\"" + temporal::FormatDate(v.TemporalValue()) + "\")";
      return;
    case TypeTag::kTime:
      *out += "time(\"" + temporal::FormatTime(v.TemporalValue()) + "\")";
      return;
    case TypeTag::kDatetime:
      *out += "datetime(\"" + temporal::FormatDatetime(v.TemporalValue()) + "\")";
      return;
    case TypeTag::kDuration:
      *out += "duration(\"" + temporal::FormatDuration(v.TemporalValue()) + "\")";
      return;
    case TypeTag::kPoint: {
      Point p = v.AsPoint();
      *out += "point(\"";
      AppendDouble(p.x, out);
      *out += ",";
      AppendDouble(p.y, out);
      *out += "\")";
      return;
    }
    case TypeTag::kRectangle: {
      Rectangle r = v.AsRectangle();
      *out += "rectangle(\"";
      AppendDouble(r.lo.x, out);
      *out += ",";
      AppendDouble(r.lo.y, out);
      *out += " ";
      AppendDouble(r.hi.x, out);
      *out += ",";
      AppendDouble(r.hi.y, out);
      *out += "\")";
      return;
    }
    case TypeTag::kArray: {
      *out += "[";
      bool first = true;
      for (const auto& item : v.items()) {
        if (!first) *out += ",";
        first = false;
        AppendValue(item, out);
      }
      *out += "]";
      return;
    }
    case TypeTag::kMultiset: {
      *out += "{{";
      bool first = true;
      for (const auto& item : v.items()) {
        if (!first) *out += ",";
        first = false;
        AppendValue(item, out);
      }
      *out += "}}";
      return;
    }
    case TypeTag::kObject: {
      *out += "{";
      bool first = true;
      for (const auto& [name, fv] : v.fields()) {
        if (!first) *out += ",";
        first = false;
        AppendEscapedJson(name, out);
        *out += ":";
        AppendValue(fv, out);
      }
      *out += "}";
      return;
    }
  }
}
}  // namespace

std::string Value::ToString() const {
  std::string out;
  AppendValue(*this, &out);
  return out;
}

bool WithinDepth(const Value& v, size_t max_depth) {
  if (v.is_collection()) {
    if (max_depth == 0) return false;
    for (const auto& item : v.items()) {
      if (!WithinDepth(item, max_depth - 1)) return false;
    }
  } else if (v.is_object()) {
    if (max_depth == 0) return false;
    for (const auto& f : v.fields()) {
      if (!WithinDepth(f.second, max_depth - 1)) return false;
    }
  }
  return true;
}

}  // namespace asterix::adm
