// The scalar function registry shared by all language front ends. SQL++
// and AQL both compile to calls into this registry (paper §IV: SQL++ was
// implemented "fairly quickly as a peer of AQL, sharing the Algebricks
// query algebra"). Functions follow SQL++'s unknown-propagation rules:
// MISSING dominates NULL, and both propagate through most functions.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adm/value.h"
#include "common/result.h"

namespace asterix::algebricks {

/// A scalar function over its evaluated arguments. The span is only valid
/// for the call: compiled calls pass a buffer on the evaluator's stack.
using ScalarFn =
    std::function<Result<adm::Value>(std::span<const adm::Value>)>;

/// The argument counts a function accepts: [min, max].
struct Arity {
  static constexpr size_t kVariadic = std::numeric_limits<size_t>::max();
  size_t min = 0;
  size_t max = kVariadic;

  bool Accepts(size_t n) const { return n >= min && n <= max; }
};

/// field-access's semantics, the one kernel behind the registry's
/// `field-access` and the compiler's in-place read of a constant field
/// name: NULL in gives NULL; MISSING in, a non-object or an absent field
/// gives MISSING. The result refers into `record` (or a static MISSING).
inline const adm::Value& FieldAccess(const adm::Value& record,
                                     std::string_view name) {
  if (record.is_null()) return record;
  return record.GetField(name);
}

/// Registry of scalar functions by name. One shared instance per process
/// (Instance()); tests may build private registries.
class FunctionRegistry {
 public:
  FunctionRegistry();

  /// The function to call with `argc` arguments: NotFound if unregistered,
  /// InvalidArgument if `argc` is outside its arity. Bodies index their
  /// arguments without checking, so every caller resolves through here.
  Result<const ScalarFn*> Lookup(const std::string& name, size_t argc) const;

  /// Register/override a function taking `arity` arguments (extensions use
  /// this — paper §VII's "recognized extensions" add their own functions).
  /// field-access with a constant name never reaches the registry: the
  /// compiler reads the field in place.
  void Register(const std::string& name, Arity arity, ScalarFn fn);

  bool Contains(const std::string& name) const {
    return fns_.count(name) > 0;
  }

  /// Every registered name with its arity, in name order.
  std::vector<std::pair<std::string, Arity>> Signatures() const;

  /// Process-wide registry with all built-ins.
  static const FunctionRegistry& Instance();

 private:
  struct Entry {
    Arity arity;
    ScalarFn fn;
  };
  std::map<std::string, Entry> fns_;
};

}  // namespace asterix::algebricks
