#include "algebricks/functions.h"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "adm/temporal.h"
#include "hyracks/groupby.h"
#include "storage/lsm_inverted.h"

namespace asterix::algebricks {

namespace {

using adm::Value;
using Args = std::span<const Value>;
constexpr size_t kVariadic = Arity::kVariadic;

// SQL++ unknown propagation: MISSING beats NULL beats values.
bool PropagateUnknown(Args args, Value* out) {
  bool missing = false, null = false;
  for (const auto& a : args) {
    if (a.is_missing()) missing = true;
    if (a.is_null()) null = true;
  }
  if (missing) {
    *out = Value::Missing();
    return true;
  }
  if (null) {
    *out = Value::Null();
    return true;
  }
  return false;
}

}  // namespace

FunctionRegistry::FunctionRegistry() {
  // ---- comparisons ---------------------------------------------------------
  for (adm::CmpOp op : {adm::CmpOp::kEq, adm::CmpOp::kNeq, adm::CmpOp::kLt,
                        adm::CmpOp::kLe, adm::CmpOp::kGt, adm::CmpOp::kGe}) {
    Register(adm::CmpOpName(op), {2, 2}, [op](Args a) -> Result<Value> {
      Value unknown;
      if (PropagateUnknown(a, &unknown)) return unknown;
      return Value::Boolean(adm::Holds(op, a[0].Compare(a[1])));
    });
  }

  // ---- boolean logic (3-valued) -------------------------------------------
  Register("and", {0, kVariadic}, [](Args a) -> Result<Value> {
    bool has_unknown = false;
    for (const auto& v : a) {
      if (v.is_unknown()) {
        has_unknown = true;
      } else if (v.is_boolean() && !v.AsBool()) {
        return Value::Boolean(false);
      } else if (!v.is_boolean()) {
        return Value::Null();  // non-boolean operand -> unknown
      }
    }
    if (has_unknown) return Value::Null();
    return Value::Boolean(true);
  });
  Register("or", {0, kVariadic}, [](Args a) -> Result<Value> {
    bool has_unknown = false;
    for (const auto& v : a) {
      if (v.is_unknown()) {
        has_unknown = true;
      } else if (v.is_boolean() && v.AsBool()) {
        return Value::Boolean(true);
      } else if (!v.is_boolean()) {
        return Value::Null();
      }
    }
    if (has_unknown) return Value::Null();
    return Value::Boolean(false);
  });
  Register("not", {1, 1}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[0].is_boolean()) return Value::Null();
    return Value::Boolean(!a[0].AsBool());
  });

  // ---- unknown tests (must NOT propagate) ----------------------------------
  Register("is-null", {1, 1}, [](Args a) -> Result<Value> {
    return Value::Boolean(a[0].is_null());
  });
  Register("is-missing", {1, 1}, [](Args a) -> Result<Value> {
    return Value::Boolean(a[0].is_missing());
  });
  Register("is-unknown", {1, 1}, [](Args a) -> Result<Value> {
    return Value::Boolean(a[0].is_unknown());
  });
  Register("if-missing-or-null", {0, kVariadic},
           [](Args a) -> Result<Value> {
             for (const auto& v : a) {
               if (!v.is_unknown()) return v;
             }
             return Value::Null();
           });

  // ---- arithmetic ----------------------------------------------------------
  auto arith = [this](const std::string& name, auto op_int, auto op_dbl,
                      bool int_result_possible) {
    Register(name, {2, 2}, [name, op_int, op_dbl,
                            int_result_possible](Args a) -> Result<Value> {
      Value unknown;
      if (PropagateUnknown(a, &unknown)) return unknown;
      if (!a[0].is_numeric() || !a[1].is_numeric()) {
        // Temporal arithmetic: datetime +/- duration.
        if (name == "add" && a[0].tag() == adm::TypeTag::kDatetime &&
            a[1].tag() == adm::TypeTag::kDuration) {
          return Value::Datetime(a[0].TemporalValue() + a[1].TemporalValue());
        }
        if (name == "sub" && a[0].tag() == adm::TypeTag::kDatetime &&
            a[1].tag() == adm::TypeTag::kDuration) {
          return Value::Datetime(a[0].TemporalValue() - a[1].TemporalValue());
        }
        if (name == "sub" && a[0].tag() == adm::TypeTag::kDatetime &&
            a[1].tag() == adm::TypeTag::kDatetime) {
          return Value::Duration(a[0].TemporalValue() - a[1].TemporalValue());
        }
        return Value::Null();
      }
      if (int_result_possible && a[0].is_int() && a[1].is_int()) {
        return Value::Int(op_int(a[0].AsInt(), a[1].AsInt()));
      }
      return Value::Double(op_dbl(a[0].AsNumber(), a[1].AsNumber()));
    });
  };
  arith("add", [](int64_t x, int64_t y) { return x + y; },
        [](double x, double y) { return x + y; }, true);
  arith("sub", [](int64_t x, int64_t y) { return x - y; },
        [](double x, double y) { return x - y; }, true);
  arith("mul", [](int64_t x, int64_t y) { return x * y; },
        [](double x, double y) { return x * y; }, true);
  Register("div", {2, 2}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[0].is_numeric() || !a[1].is_numeric()) return Value::Null();
    if (a[1].AsNumber() == 0) return Value::Null();
    return Value::Double(a[0].AsNumber() / a[1].AsNumber());
  });
  Register("mod", {2, 2}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[0].is_int() || !a[1].is_int() || a[1].AsInt() == 0) {
      return Value::Null();
    }
    return Value::Int(a[0].AsInt() % a[1].AsInt());
  });
  Register("neg", {1, 1}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (a[0].is_int()) return Value::Int(-a[0].AsInt());
    if (a[0].is_double()) return Value::Double(-a[0].AsDoubleExact());
    return Value::Null();
  });
  Register("abs", {1, 1}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (a[0].is_int()) return Value::Int(std::abs(a[0].AsInt()));
    if (a[0].is_double()) return Value::Double(std::fabs(a[0].AsDoubleExact()));
    return Value::Null();
  });

  // ---- record / collection access ------------------------------------------
  Register("field-access", {2, 2}, [](Args a) -> Result<Value> {
    if (!a[1].is_string()) {
      return a[0].is_null() ? Value::Null() : Value::Missing();
    }
    return FieldAccess(a[0], a[1].AsString());
  });
  Register("get-item", {2, 2}, [](Args a) -> Result<Value> {
    if (a[0].is_unknown() || a[1].is_unknown()) return Value::Missing();
    if (!a[0].is_collection() || !a[1].is_int()) return Value::Missing();
    int64_t i = a[1].AsInt();
    const auto& items = a[0].items();
    if (i < 0) i += static_cast<int64_t>(items.size());
    if (i < 0 || static_cast<size_t>(i) >= items.size()) {
      return Value::Missing();
    }
    return items[static_cast<size_t>(i)];
  });
  Register("coll-count", {1, 1}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[0].is_collection()) return Value::Null();
    return Value::Int(static_cast<int64_t>(a[0].items().size()));
  });
  // Collection aggregates (AQL's aggregates over a group's `with` lists,
  // SQL++'s COLL_* forms): a fold of the group-by's aggregate kernel over
  // the items, so they answer what SUM/AVG/MIN/MAX answer.
  for (auto [name, kind] : {std::pair{"coll-sum", hyracks::AggKind::kSum},
                            {"coll-avg", hyracks::AggKind::kAvg},
                            {"coll-min", hyracks::AggKind::kMin},
                            {"coll-max", hyracks::AggKind::kMax}}) {
    Register(name, {1, 1}, [kind](Args a) -> Result<Value> {
      Value unknown;
      if (PropagateUnknown(a, &unknown)) return unknown;
      if (!a[0].is_collection()) return Value::Null();
      hyracks::AggState state(kind);
      size_t retained = 0;
      for (const auto& item : a[0].items()) {
        AX_RETURN_NOT_OK(state.Step(item, &retained));
      }
      return state.Finish();
    });
  }
  Register("in", {2, 2}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[1].is_collection()) return Value::Null();
    for (const auto& item : a[1].items()) {
      if (a[0].Compare(item) == 0) return Value::Boolean(true);
    }
    return Value::Boolean(false);
  });
  Register("array-append", {1, kVariadic}, [](Args a) -> Result<Value> {
    if (!a[0].is_collection()) return Value::Null();
    std::vector<Value> items = a[0].items();
    for (size_t i = 1; i < a.size(); i++) items.push_back(a[i]);
    return Value::Array(std::move(items));
  });
  // Record constructor: pairs of (name, value); missing values drop fields.
  Register("open-record", {0, kVariadic}, [](Args a) -> Result<Value> {
    if (a.size() % 2 != 0) {
      return Status::InvalidArgument("open-record expects name/value pairs");
    }
    adm::FieldVec fields;
    for (size_t i = 0; i < a.size(); i += 2) {
      if (!a[i].is_string()) {
        return Status::InvalidArgument("open-record: field name not a string");
      }
      if (a[i + 1].is_missing()) continue;  // MISSING fields vanish
      fields.emplace_back(a[i].AsString(), a[i + 1]);
    }
    return Value::Object(std::move(fields));
  });
  Register("ordered-list", {0, kVariadic}, [](Args a) -> Result<Value> {
    return Value::Array({a.begin(), a.end()});
  });
  Register("unordered-list", {0, kVariadic}, [](Args a) -> Result<Value> {
    return Value::Multiset({a.begin(), a.end()});
  });

  // ---- strings --------------------------------------------------------------
  Register("string-length", {1, 1}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[0].is_string()) return Value::Null();
    return Value::Int(static_cast<int64_t>(a[0].AsString().size()));
  });
  Register("lower", {1, 1}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[0].is_string()) return Value::Null();
    std::string s = a[0].AsString();
    for (auto& c : s) c = static_cast<char>(std::tolower(c));
    return Value::String(std::move(s));
  });
  Register("upper", {1, 1}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[0].is_string()) return Value::Null();
    std::string s = a[0].AsString();
    for (auto& c : s) c = static_cast<char>(std::toupper(c));
    return Value::String(std::move(s));
  });
  Register("concat", {0, kVariadic}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    std::string out;
    for (const auto& v : a) {
      if (!v.is_string()) return Value::Null();
      out += v.AsString();
    }
    return Value::String(std::move(out));
  });
  Register("contains", {2, 2}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[0].is_string() || !a[1].is_string()) return Value::Null();
    return Value::Boolean(a[0].AsString().find(a[1].AsString()) !=
                          std::string::npos);
  });
  Register("starts-with", {2, 2}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[0].is_string() || !a[1].is_string()) return Value::Null();
    return Value::Boolean(a[0].AsString().rfind(a[1].AsString(), 0) == 0);
  });
  Register("substring", {2, 3}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[0].is_string() || !a[1].is_int()) return Value::Null();
    const std::string& s = a[0].AsString();
    int64_t start = a[1].AsInt();
    if (start < 0 || static_cast<size_t>(start) > s.size()) {
      return Value::String("");
    }
    size_t len = s.size() - static_cast<size_t>(start);
    if (a.size() > 2 && a[2].is_int() && a[2].AsInt() >= 0) {
      len = std::min<size_t>(len, static_cast<size_t>(a[2].AsInt()));
    }
    return Value::String(s.substr(static_cast<size_t>(start), len));
  });
  // like with SQL % and _ wildcards (simple backtracking matcher).
  Register("like", {2, 2}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[0].is_string() || !a[1].is_string()) return Value::Null();
    const std::string& s = a[0].AsString();
    const std::string& p = a[1].AsString();
    std::function<bool(size_t, size_t)> match = [&](size_t si, size_t pi) {
      while (pi < p.size()) {
        if (p[pi] == '%') {
          for (size_t k = si; k <= s.size(); k++) {
            if (match(k, pi + 1)) return true;
          }
          return false;
        }
        if (si >= s.size()) return false;
        if (p[pi] != '_' && p[pi] != s[si]) return false;
        si++;
        pi++;
      }
      return si == s.size();
    };
    return Value::Boolean(match(0, 0));
  });
  // Full-text keyword containment (backs the KEYWORD index).
  Register("ftcontains", {2, 2}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[0].is_string() || !a[1].is_string()) return Value::Null();
    auto tokens = storage::TokenizeKeywords(a[0].AsString());
    auto wanted = storage::TokenizeKeywords(a[1].AsString());
    for (const auto& w : wanted) {
      bool found = false;
      for (const auto& t : tokens) {
        if (t == w) {
          found = true;
          break;
        }
      }
      if (!found) return Value::Boolean(false);
    }
    return Value::Boolean(true);
  });

  // ---- temporal -------------------------------------------------------------
  Register("datetime", {1, 1}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (a[0].tag() == adm::TypeTag::kDatetime) return a[0];
    if (!a[0].is_string()) return Value::Null();
    AX_ASSIGN_OR_RETURN(int64_t ms, adm::temporal::ParseDatetime(a[0].AsString()));
    return Value::Datetime(ms);
  });
  Register("date", {1, 1}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (a[0].tag() == adm::TypeTag::kDate) return a[0];
    if (!a[0].is_string()) return Value::Null();
    AX_ASSIGN_OR_RETURN(int64_t d, adm::temporal::ParseDate(a[0].AsString()));
    return Value::Date(d);
  });
  Register("duration", {1, 1}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (a[0].tag() == adm::TypeTag::kDuration) return a[0];
    if (!a[0].is_string()) return Value::Null();
    AX_ASSIGN_OR_RETURN(int64_t ms, adm::temporal::ParseDuration(a[0].AsString()));
    return Value::Duration(ms);
  });
  Register("current-datetime", {0, 0}, [](Args) -> Result<Value> {
    auto now = std::chrono::system_clock::now().time_since_epoch();
    return Value::Datetime(
        std::chrono::duration_cast<std::chrono::milliseconds>(now).count());
  });
  // interval-bin(ts, anchor, bin-duration) -> start datetime of the bin
  // (the §V-D temporal-study primitive).
  Register("interval-bin", {3, 3}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (a[0].tag() != adm::TypeTag::kDatetime ||
        a[1].tag() != adm::TypeTag::kDatetime ||
        a[2].tag() != adm::TypeTag::kDuration || a[2].TemporalValue() <= 0) {
      return Value::Null();
    }
    return Value::Datetime(adm::temporal::IntervalBinStart(
        a[0].TemporalValue(), a[1].TemporalValue(), a[2].TemporalValue()));
  });
  // overlap-ms(s1, e1, s2, e2): allocation of spanning activities to bins.
  Register("overlap-ms", {4, 4}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    for (const auto& v : a) {
      if (v.tag() != adm::TypeTag::kDatetime) return Value::Null();
    }
    return Value::Duration(adm::temporal::OverlapMs(
        a[0].TemporalValue(), a[1].TemporalValue(), a[2].TemporalValue(),
        a[3].TemporalValue()));
  });

  // ---- spatial ---------------------------------------------------------------
  // Typed constructors from strings, matching ADM literal syntax:
  // point("x,y") and rectangle("x1,y1 x2,y2").
  Register("point", {1, 1}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (a[0].is_point()) return a[0];
    if (!a[0].is_string()) return Value::Null();
    double x, y;
    if (std::sscanf(a[0].AsString().c_str(), "%lf,%lf", &x, &y) != 2) {
      return Status::ParseError("bad point literal '" + a[0].AsString() + "'");
    }
    return Value::MakePoint(x, y);
  });
  Register("rectangle", {1, 1}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (a[0].is_rectangle()) return a[0];
    if (!a[0].is_string()) return Value::Null();
    double x1, y1, x2, y2;
    if (std::sscanf(a[0].AsString().c_str(), "%lf,%lf %lf,%lf", &x1, &y1, &x2,
                    &y2) != 4) {
      return Status::ParseError("bad rectangle literal '" + a[0].AsString() +
                                "'");
    }
    return Value::MakeRectangle({x1, y1}, {x2, y2});
  });
  Register("create-point", {2, 2}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[0].is_numeric() || !a[1].is_numeric()) return Value::Null();
    return Value::MakePoint(a[0].AsNumber(), a[1].AsNumber());
  });
  Register("create-rectangle", {2, 2}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!a[0].is_point() || !a[1].is_point()) return Value::Null();
    return Value::MakeRectangle(a[0].AsPoint(), a[1].AsPoint());
  });
  Register("spatial-intersect", {2, 2}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (!(a[0].is_point() || a[0].is_rectangle()) ||
        !(a[1].is_point() || a[1].is_rectangle())) {
      return Value::Null();
    }
    return Value::Boolean(a[0].Mbr().Intersects(a[1].Mbr()));
  });

  // ---- conversions / misc ----------------------------------------------------
  Register("to-string", {1, 1}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (a[0].is_string()) return a[0];
    return Value::String(a[0].ToString());
  });
  Register("to-double", {1, 1}, [](Args a) -> Result<Value> {
    Value unknown;
    if (PropagateUnknown(a, &unknown)) return unknown;
    if (a[0].is_numeric()) return Value::Double(a[0].AsNumber());
    if (a[0].is_string()) return Value::Double(std::atof(a[0].AsString().c_str()));
    return Value::Null();
  });
  Register("switch-case", {0, kVariadic}, [](Args a) -> Result<Value> {
    // switch-case(cond1, val1, cond2, val2, ..., default)
    size_t i = 0;
    for (; i + 1 < a.size(); i += 2) {
      if (a[i].is_boolean() && a[i].AsBool()) return a[i + 1];
    }
    if (i < a.size()) return a[i];
    return Value::Null();
  });
}

Result<const ScalarFn*> FunctionRegistry::Lookup(const std::string& name,
                                                 size_t argc) const {
  auto it = fns_.find(name);
  if (it == fns_.end()) {
    return Status::NotFound("unknown function '" + name + "'");
  }
  const Arity& arity = it->second.arity;
  if (!arity.Accepts(argc)) {
    std::string want = std::to_string(arity.min);
    if (arity.max == Arity::kVariadic) {
      want = "at least " + want;
    } else if (arity.max != arity.min) {
      want += " to " + std::to_string(arity.max);
    }
    return Status::InvalidArgument("function " + name + " expects " + want +
                                   " argument(s), got " +
                                   std::to_string(argc));
  }
  return &it->second.fn;
}

void FunctionRegistry::Register(const std::string& name, Arity arity,
                                ScalarFn fn) {
  fns_[name] = Entry{arity, std::move(fn)};
}

std::vector<std::pair<std::string, Arity>> FunctionRegistry::Signatures()
    const {
  std::vector<std::pair<std::string, Arity>> out;
  out.reserve(fns_.size());
  for (const auto& [name, entry] : fns_) out.emplace_back(name, entry.arity);
  return out;
}

const FunctionRegistry& FunctionRegistry::Instance() {
  static FunctionRegistry* registry = new FunctionRegistry();
  return *registry;
}

}  // namespace asterix::algebricks
