// ADM (Asterix Data Model) values: JSON extended with the database-oriented
// modeling features the paper describes in Section III — multisets in
// addition to lists, temporal types (date/time/datetime/duration), simple
// spatial types (point/rectangle), and distinct NULL vs MISSING semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace asterix::adm {

/// Runtime type tag of an ADM value. The enum order defines the cross-type
/// total order used by comparisons and index key encoding (with the single
/// exception that kInt64 and kDouble compare numerically against each other).
enum class TypeTag : uint8_t {
  kMissing = 0,
  kNull = 1,
  kBoolean = 2,
  kInt64 = 3,
  kDouble = 4,
  kString = 5,
  kDate = 6,      // days since 1970-01-01
  kTime = 7,      // milliseconds since midnight
  kDatetime = 8,  // milliseconds since epoch
  kDuration = 9,  // milliseconds
  kPoint = 10,
  kRectangle = 11,
  kArray = 12,     // ordered list  [ ... ]
  kMultiset = 13,  // unordered bag {{ ... }}
  kObject = 14,
};

/// Human-readable tag name ("int64", "object", ...).
const char* TypeTagName(TypeTag tag);

/// 2-D point, the paper's "simple (Googlemap style) spatial" primitive.
struct Point {
  double x = 0;
  double y = 0;
  bool operator==(const Point&) const = default;
};

/// Axis-aligned rectangle (lo = bottom-left, hi = top-right).
struct Rectangle {
  Point lo;
  Point hi;
  bool operator==(const Rectangle&) const = default;
  bool Intersects(const Rectangle& o) const {
    return lo.x <= o.hi.x && o.lo.x <= hi.x && lo.y <= o.hi.y && o.lo.y <= hi.y;
  }
  bool Contains(const Point& p) const {
    return lo.x <= p.x && p.x <= hi.x && lo.y <= p.y && p.y <= hi.y;
  }
};

class Value;
/// An object's fields, kept sorted by field name for canonical comparison.
using FieldVec = std::vector<std::pair<std::string, Value>>;

/// An immutable ADM value. Copy is cheap (nested data is shared). Values
/// form a total order (Compare) and hash consistently with that order, which
/// the storage and runtime layers rely on for indexing, sorting and hashing.
class Value {
 public:
  /// Default-constructed value is MISSING.
  Value() : tag_(TypeTag::kMissing) {}

  // ---- constructors -------------------------------------------------------
  static Value Missing() { return Value(); }
  static Value Null() { return Scalar(TypeTag::kNull, 0); }
  static Value Boolean(bool b) { return Scalar(TypeTag::kBoolean, b ? 1 : 0); }
  static Value Int(int64_t v) { return Scalar(TypeTag::kInt64, v); }
  static Value Double(double v);
  static Value String(std::string s);
  static Value Date(int64_t days) { return Scalar(TypeTag::kDate, days); }
  static Value Time(int64_t ms) { return Scalar(TypeTag::kTime, ms); }
  static Value Datetime(int64_t ms) { return Scalar(TypeTag::kDatetime, ms); }
  static Value Duration(int64_t ms) { return Scalar(TypeTag::kDuration, ms); }
  static Value MakePoint(double x, double y);
  static Value MakeRectangle(Point lo, Point hi);
  static Value Array(std::vector<Value> items);
  static Value Multiset(std::vector<Value> items);
  /// Builds an object; fields are sorted by name, later duplicates win.
  static Value Object(FieldVec fields);

  // ---- inspectors ---------------------------------------------------------
  TypeTag tag() const { return tag_; }
  bool is_missing() const { return tag_ == TypeTag::kMissing; }
  bool is_null() const { return tag_ == TypeTag::kNull; }
  bool is_unknown() const { return is_missing() || is_null(); }
  bool is_boolean() const { return tag_ == TypeTag::kBoolean; }
  bool is_int() const { return tag_ == TypeTag::kInt64; }
  bool is_double() const { return tag_ == TypeTag::kDouble; }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_string() const { return tag_ == TypeTag::kString; }
  bool is_temporal() const {
    return tag_ == TypeTag::kDate || tag_ == TypeTag::kTime ||
           tag_ == TypeTag::kDatetime || tag_ == TypeTag::kDuration;
  }
  bool is_point() const { return tag_ == TypeTag::kPoint; }
  bool is_rectangle() const { return tag_ == TypeTag::kRectangle; }
  bool is_array() const { return tag_ == TypeTag::kArray; }
  bool is_multiset() const { return tag_ == TypeTag::kMultiset; }
  bool is_collection() const { return is_array() || is_multiset(); }
  bool is_object() const { return tag_ == TypeTag::kObject; }

  /// Raw accessors; valid only for the matching tag.
  bool AsBool() const { return i64_ != 0; }
  int64_t AsInt() const { return i64_; }
  double AsDoubleExact() const { return dbl_; }
  /// Numeric value promoted to double (valid for kInt64/kDouble).
  double AsNumber() const {
    return tag_ == TypeTag::kInt64 ? static_cast<double>(i64_) : dbl_;
  }
  /// Raw temporal payload (days or ms depending on tag).
  int64_t TemporalValue() const { return i64_; }
  const std::string& AsString() const { return *str_; }
  Point AsPoint() const { return Point{dbl_, dbl2_}; }
  Rectangle AsRectangle() const;
  const std::vector<Value>& items() const { return *items_; }
  const FieldVec& fields() const { return *fields_; }

  /// Field lookup by name; returns MISSING when absent (ADM semantics).
  const Value& GetField(std::string_view name) const;
  /// True if the object has the named field.
  bool HasField(std::string_view name) const;

  /// Minimal bounding rectangle of a point or rectangle value.
  Rectangle Mbr() const;

  // ---- algebra ------------------------------------------------------------
  /// Total-order comparison: negative/zero/positive. Numbers compare
  /// numerically across kInt64/kDouble; otherwise differing tags compare by
  /// tag. Collections compare lexicographically (multisets as sorted bags),
  /// objects by their sorted field vectors.
  int Compare(const Value& other) const;
  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }

  /// Hash consistent with Compare (equal values hash equal).
  uint64_t Hash() const;

  /// Approximate in-memory footprint, used for operator memory budgeting.
  size_t ByteSize() const;

  /// Render in ADM text syntax (JSON extended with typed constructors,
  /// e.g. datetime("2017-01-01T00:00:00.000Z"), {{ ... }} for multisets).
  std::string ToString() const;

 private:
  static Value Scalar(TypeTag tag, int64_t v) {
    Value out;
    out.tag_ = tag;
    out.i64_ = v;
    return out;
  }

  TypeTag tag_;
  int64_t i64_ = 0;   // ints, booleans, temporals
  double dbl_ = 0;    // double payload; point.x; rect.lo.x
  double dbl2_ = 0;   // point.y; rect.lo.y
  double dbl3_ = 0;   // rect.hi.x
  double dbl4_ = 0;   // rect.hi.y
  std::shared_ptr<const std::string> str_;
  std::shared_ptr<const std::vector<Value>> items_;
  std::shared_ptr<const FieldVec> fields_;
};

/// The six SQL++ comparisons, defined once for every evaluator: the scalar
/// functions, the vectorized select masks and the pushed scan predicates.
enum class CmpOp : uint8_t { kEq, kNeq, kLt, kLe, kGt, kGe };

/// Whether a Compare result `cmp` (negative/zero/positive) satisfies `op`.
constexpr bool Holds(CmpOp op, int cmp) {
  switch (op) {
    case CmpOp::kEq: return cmp == 0;
    case CmpOp::kNeq: return cmp != 0;
    case CmpOp::kLt: return cmp < 0;
    case CmpOp::kLe: return cmp <= 0;
    case CmpOp::kGt: return cmp > 0;
    case CmpOp::kGe: return cmp >= 0;
  }
  return false;
}

/// The operator for swapped operands: `a op b` == `b Mirror(op) a`.
constexpr CmpOp Mirror(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;  // eq/neq are symmetric
  }
}

/// True iff `a op b` is true under SQL++ three-valued logic: an unknown
/// (NULL/MISSING) operand makes every comparison unknown, never true.
inline bool Satisfies(const Value& a, CmpOp op, const Value& b) {
  return !a.is_unknown() && !b.is_unknown() && Holds(op, a.Compare(b));
}

/// The SQL++ function name of `op`, from the one name table.
const char* CmpOpName(CmpOp op);
/// The comparison a function name stands for, or nullopt.
std::optional<CmpOp> CmpOpNamed(std::string_view name);

/// Nesting bounds. A value's depth is the number of arrays, multisets and
/// objects on its deepest path; a scalar's is 0. ParseAdm and every write
/// refuse a value deeper than kMaxInputDepth.
constexpr size_t kMaxInputDepth = 256;
/// The binary decoder refuses a value deeper than kMaxDecodeDepth. That
/// leaves room for a stored record at kMaxInputDepth wrapped by a query's
/// constructors and subqueries up to the SQL++ nesting bound (128 levels,
/// each adding a few), so whatever the system accepted decodes from its
/// spill files.
constexpr size_t kMaxDecodeDepth = 1024;

/// True if `v` is at most `max_depth` deep. Descends at most one level
/// past the bound, so it is safe on a value of any depth.
bool WithinDepth(const Value& v, size_t max_depth);

/// Convenience helpers for building objects in C++ call sites.
class ObjectBuilder {
 public:
  ObjectBuilder& Add(std::string name, Value v) {
    fields_.emplace_back(std::move(name), std::move(v));
    return *this;
  }
  Value Build() { return Value::Object(std::move(fields_)); }

 private:
  FieldVec fields_;
};

}  // namespace asterix::adm
