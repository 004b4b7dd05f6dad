// Tests for ADM serialization, the text parser, the order-preserving key
// encoding, temporal parsing, and the type system. Heavy on property-style
// round-trip sweeps.
#include <gtest/gtest.h>

#include <thread>

#include "adm/json.h"
#include "adm/key_encoder.h"
#include "adm/serde.h"
#include "adm/temporal.h"
#include "adm/type.h"
#include "asterix/gleambook.h"
#include "common/rng.h"

namespace asterix::adm {
namespace {

// Random ADM value generator for property tests.
Value RandomValue(Rng* rng, int depth) {
  int pick = static_cast<int>(rng->Uniform(depth > 0 ? 12 : 9));
  switch (pick) {
    case 0: return Value::Null();
    case 1: return Value::Boolean(rng->Uniform(2) == 0);
    case 2: return Value::Int(static_cast<int64_t>(rng->Next()));
    case 3: return Value::Double(rng->NextDouble() * 1e6 - 5e5);
    case 4: return Value::String(rng->NextString(rng->Uniform(40)));
    case 5: return Value::Datetime(static_cast<int64_t>(rng->Next() % (1ll << 40)));
    case 6: return Value::Date(static_cast<int64_t>(rng->Uniform(40000)));
    case 7: return Value::MakePoint(rng->NextDouble() * 100, rng->NextDouble() * 100);
    case 8:
      return Value::MakeRectangle({0, 0},
                                  {rng->NextDouble() * 10, rng->NextDouble() * 10});
    case 9: {
      std::vector<Value> items;
      for (uint64_t i = 0; i < rng->Uniform(4); i++) {
        items.push_back(RandomValue(rng, depth - 1));
      }
      return Value::Array(std::move(items));
    }
    case 10: {
      std::vector<Value> items;
      for (uint64_t i = 0; i < rng->Uniform(4); i++) {
        items.push_back(RandomValue(rng, depth - 1));
      }
      return Value::Multiset(std::move(items));
    }
    default: {
      FieldVec fields;
      for (uint64_t i = 0; i < rng->Uniform(4); i++) {
        fields.emplace_back("f" + std::to_string(i), RandomValue(rng, depth - 1));
      }
      return Value::Object(std::move(fields));
    }
  }
}

TEST(Serde, RoundTripsRandomValues) {
  Rng rng(77);
  for (int i = 0; i < 500; i++) {
    Value v = RandomValue(&rng, 3);
    auto back = Deserialize(Serialize(v));
    ASSERT_TRUE(back.ok()) << v.ToString();
    EXPECT_EQ(v, back.value()) << v.ToString();
  }
}

TEST(Serde, RejectsTruncatedBuffers) {
  Value v = Value::String("hello world");
  std::string data = Serialize(v);
  for (size_t cut = 0; cut < data.size(); cut++) {
    EXPECT_FALSE(Deserialize(data.substr(0, cut)).ok()) << cut;
  }
  EXPECT_FALSE(Deserialize(data + "x").ok());  // trailing bytes
}

TEST(Serde, VarintRoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                     uint64_t{300}, uint64_t{1} << 20, uint64_t{1} << 40,
                     UINT64_MAX}) {
    std::string buf;
    PutVarint(v, &buf);
    size_t pos = 0;
    EXPECT_EQ(GetVarint(buf, &pos).value(), v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Serde, RejectsHugeElementCounts) {
  // A count of 2^62 must fail as Corruption, not reserve 2^62 elements.
  for (TypeTag tag : {TypeTag::kArray, TypeTag::kMultiset, TypeTag::kObject}) {
    std::string data(1, static_cast<char>(tag));
    PutVarint(uint64_t{1} << 62, &data);
    data.push_back(static_cast<char>(TypeTag::kNull));
    auto full = Deserialize(data);
    ASSERT_FALSE(full.ok()) << static_cast<int>(tag);
    EXPECT_EQ(full.status().code(), StatusCode::kCorruption);
    auto some = DeserializeFields(data, {"a"});
    ASSERT_FALSE(some.ok());
    EXPECT_EQ(some.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(Validate(data).code(), StatusCode::kCorruption);
  }
  // A string length near 2^64 must not wrap the bounds check.
  std::string data(1, static_cast<char>(TypeTag::kArray));
  PutVarint(2, &data);
  data.push_back(static_cast<char>(TypeTag::kString));
  PutVarint(UINT64_MAX, &data);
  EXPECT_EQ(Deserialize(data).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(Validate(data).code(), StatusCode::kCorruption);
}

// Deserialize, then keep each of `names` that GetField finds: what
// DeserializeFields must return.
Value Pruned(const Value& record, const std::vector<std::string>& names) {
  FieldVec fields;
  for (const auto& name : names) {
    const Value& v = record.GetField(name);
    if (!v.is_missing()) fields.emplace_back(name, v);
  }
  return Value::Object(std::move(fields));
}

// Both decoders (and Validate) agree on `data`: both fail with Corruption,
// or both succeed and DeserializeFields is the pruned full decode.
void ExpectDecodersAgree(const std::string& data,
                         const std::vector<std::string>& names) {
  auto full = Deserialize(data);
  auto some = DeserializeFields(data, names);
  Status valid = Validate(data);
  ASSERT_EQ(full.ok(), some.ok()) << full.status().ToString() << " vs "
                                  << some.status().ToString();
  ASSERT_EQ(full.ok(), valid.ok()) << valid.ToString();
  if (!full.ok()) {
    EXPECT_EQ(full.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(some.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(valid.code(), StatusCode::kCorruption);
    return;
  }
  EXPECT_EQ(some.value(), Pruned(full.value(), names))
      << full.value().ToString();
  EXPECT_TRUE(some.value().is_object());
}

TEST(Serde, DeserializeFieldsMatchesPrunedDeserialize) {
  Rng rng(4242);
  // Record fields come from "b".."m"; "a" sorts before all of them, "zz"
  // after, and "c" and "q" never occur.
  const std::vector<std::string> record_names = {"b", "d", "f", "h", "m"};
  const std::vector<std::string> query_names = {"a", "b", "c", "d",
                                                "f", "h", "m", "q", "zz"};
  for (int i = 0; i < 400; i++) {
    FieldVec fields;
    for (const auto& name : record_names) {
      uint64_t pick = rng.Uniform(6);
      if (pick == 0) continue;                            // absent
      if (pick == 1) fields.emplace_back(name, Value());  // stored MISSING
      if (pick >= 2) fields.emplace_back(name, RandomValue(&rng, 3));
    }
    // Now and then a non-object record: it yields an empty object.
    Value record = rng.Uniform(10) == 0 ? RandomValue(&rng, 2)
                                        : Value::Object(std::move(fields));
    std::string data = Serialize(record);
    std::vector<std::string> subset;
    for (const auto& name : query_names) {
      if (rng.Uniform(2) == 0) subset.push_back(name);
    }
    for (const auto& names : std::vector<std::vector<std::string>>{
             {}, subset, query_names, record_names, {"a"}, {"zz"},
             {"c", "q"}}) {
      ExpectDecodersAgree(data, names);
    }
  }
}

TEST(Serde, DeserializeFieldsMatchesOnUnsortedFields) {
  // Serialize writes names in ascending order, once each; a buffer from
  // elsewhere may not. Value::Object sorts and keeps the last duplicate.
  std::string data(1, static_cast<char>(TypeTag::kObject));
  PutVarint(5, &data);
  for (const auto& [name, v] :
       std::vector<std::pair<std::string, Value>>{{"m", Value::Int(1)},
                                                  {"b", Value::Int(2)},
                                                  {"m", Value()},
                                                  {"d", Value::Int(3)},
                                                  {"b", Value::Int(4)}}) {
    PutVarint(name.size(), &data);
    data += name;
    SerializeValue(v, &data);
  }
  for (const auto& names : std::vector<std::vector<std::string>>{
           {}, {"b"}, {"m"}, {"b", "d", "m"}, {"a", "zz"}}) {
    ExpectDecodersAgree(data, names);
  }
  EXPECT_EQ(DeserializeFields(data, {"b", "m"}).value(),
            ObjectBuilder().Add("b", Value::Int(4)).Build());
}

TEST(Serde, DeserializeFieldsRejectsWhatDeserializeRejects) {
  gleambook::GeneratorOptions options;
  options.num_users = 4;
  options.num_messages = 4;
  gleambook::Generator gen(options);
  const std::vector<Value> records = {gen.MakeUser(1), gen.MakeMessage(2)};
  for (const Value& record : records) {
    std::vector<std::string> all;
    for (const auto& [name, v] : record.fields()) all.push_back(name);
    const std::vector<std::vector<std::string>> name_sets = {
        {}, {all.front()}, {all[all.size() / 2], all.back()}};
    const std::string data = Serialize(record);
    for (const auto& names : name_sets) {
      for (size_t cut = 0; cut < data.size(); cut++) {
        ExpectDecodersAgree(data.substr(0, cut), names);
      }
      ExpectDecodersAgree(data + '\0', names);
      for (size_t at = 0; at < data.size(); at++) {
        std::string bad = data;
        for (int byte = 0; byte < 256; byte++) {
          bad[at] = static_cast<char>(byte);
          ExpectDecodersAgree(bad, names);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(AdmText, ParsesAndPrintsRoundTrip) {
  Rng rng(42);
  for (int i = 0; i < 300; i++) {
    Value v = RandomValue(&rng, 3);
    if (v.is_missing()) continue;
    auto parsed = ParseAdm(v.ToString());
    ASSERT_TRUE(parsed.ok()) << v.ToString() << " -> "
                             << parsed.status().ToString();
    // Doubles may lose exactness in text; compare text forms instead.
    EXPECT_EQ(parsed->ToString(), v.ToString());
  }
}

TEST(AdmText, ParsesPlainJson) {
  auto v = ParseAdm(R"({"a": [1, 2.5, "x"], "b": {"c": true, "d": null}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetField("a").items()[2].AsString(), "x");
  EXPECT_TRUE(v->GetField("b").GetField("d").is_null());
}

TEST(AdmText, ParsesExtendedSyntax) {
  auto v = ParseAdm(R"({"when": datetime("2024-01-02T03:04:05"),)"
                    R"( "ids": {{1, 2}}, "at": point("3.5,4.5")})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetField("when").tag(), TypeTag::kDatetime);
  EXPECT_TRUE(v->GetField("ids").is_multiset());
  EXPECT_EQ(v->GetField("at").AsPoint().x, 3.5);
}

TEST(AdmText, RejectsMalformed) {
  EXPECT_FALSE(ParseAdm("{").ok());
  EXPECT_FALSE(ParseAdm("[1,]").ok());
  EXPECT_FALSE(ParseAdm("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseAdm("datetime(\"not a date\")").ok());
  EXPECT_FALSE(ParseAdm("1 2").ok());
  EXPECT_FALSE(ParseAdm("{{1,2}").ok());
}

// `levels` containers, cycling through arrays, objects and multisets,
// around a null, as ADM text.
std::string NestedText(size_t levels) {
  std::string out;
  for (size_t i = 0; i < levels; i++) {
    out += i % 3 == 0 ? "[" : i % 3 == 1 ? "{\"a\": " : "{{";
  }
  out += "null";
  for (size_t i = levels; i-- > 0;) {
    out += i % 3 == 0 ? "]" : i % 3 == 1 ? "}" : "}}";
  }
  return out;
}

TEST(AdmText, ParsesUpToTheDepthBound) {
  auto at = ParseAdm(NestedText(kMaxInputDepth));
  ASSERT_TRUE(at.ok()) << at.status().ToString();
  EXPECT_TRUE(WithinDepth(*at, kMaxInputDepth));
  EXPECT_FALSE(WithinDepth(*at, kMaxInputDepth - 1));
  EXPECT_TRUE(ParseAdm(NestedText(10), /*max_depth=*/10).ok());
}

TEST(AdmText, RejectsValuesPastTheDepthBound) {
  for (size_t levels : {kMaxInputDepth + 1, size_t{100'000}}) {
    EXPECT_EQ(ParseAdm(NestedText(levels)).status().code(),
              StatusCode::kParseError)
        << levels;
    EXPECT_EQ(ParseAdm(std::string(levels, '[')).status().code(),
              StatusCode::kParseError)
        << levels;
  }
  EXPECT_EQ(ParseAdm(NestedText(11), /*max_depth=*/10).status().code(),
            StatusCode::kParseError);
}

// `levels` nested one-element arrays around a null, serialized. Built as
// bytes, so no value of that depth is ever made.
std::string NestedArrayBytes(size_t levels) {
  std::string out;
  for (size_t i = 0; i < levels; i++) {
    out.push_back(static_cast<char>(TypeTag::kArray));
    PutVarint(1, &out);
  }
  out.push_back(static_cast<char>(TypeTag::kNull));
  return out;
}

// A record whose one field "a" holds `levels` nested arrays.
std::string RecordWithNestedField(size_t levels) {
  std::string out(1, static_cast<char>(TypeTag::kObject));
  PutVarint(1, &out);
  PutVarint(1, &out);
  out += "a";
  return out + NestedArrayBytes(levels);
}

// Decoding runs on worker threads, so these tests do too.
TEST(Serde, DecodesUpToTheDepthBound) {
  std::thread([] {
    std::string at = NestedArrayBytes(kMaxDecodeDepth);
    auto v = Deserialize(at);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_TRUE(WithinDepth(*v, kMaxDecodeDepth));
    EXPECT_FALSE(WithinDepth(*v, kMaxDecodeDepth - 1));
    EXPECT_EQ(Serialize(*v), at);
    EXPECT_TRUE(Validate(at).ok());
    std::string rec = RecordWithNestedField(kMaxDecodeDepth - 1);
    EXPECT_TRUE(Deserialize(rec).ok());
    EXPECT_TRUE(Validate(rec).ok());
    EXPECT_TRUE(DeserializeFields(rec, {"a"}).ok());  // decodes the field
    EXPECT_TRUE(DeserializeFields(rec, {"b"}).ok());  // steps over it
  }).join();
}

TEST(Serde, RejectsValuesPastTheDepthBound) {
  std::thread([] {
    for (size_t levels : {kMaxDecodeDepth + 1, size_t{100'000}}) {
      auto corrupt = [](const Status& s) {
        return s.code() == StatusCode::kCorruption;
      };
      std::string deep = NestedArrayBytes(levels);
      EXPECT_TRUE(corrupt(Deserialize(deep).status())) << levels;
      EXPECT_TRUE(corrupt(Validate(deep))) << levels;
      EXPECT_TRUE(corrupt(DeserializeFields(deep, {"a"}).status())) << levels;
      std::string rec = RecordWithNestedField(levels - 1);
      EXPECT_TRUE(corrupt(Deserialize(rec).status())) << levels;
      EXPECT_TRUE(corrupt(Validate(rec))) << levels;
      EXPECT_TRUE(corrupt(DeserializeFields(rec, {"a"}).status())) << levels;
      EXPECT_TRUE(corrupt(DeserializeFields(rec, {"b"}).status())) << levels;
    }
  }).join();
}

TEST(AdmValue, WithinDepthStopsAtTheBound) {
  Value v = Value::Null();
  EXPECT_TRUE(WithinDepth(v, 0));
  for (int i = 0; i < 5; i++) v = Value::Array({v});
  v = Value::Object({{"x", Value::Int(1)}, {"y", v}});
  EXPECT_TRUE(WithinDepth(v, 6));
  EXPECT_FALSE(WithinDepth(v, 5));
  EXPECT_FALSE(WithinDepth(Value::Multiset({}), 0));
}

TEST(KeyEncoder, PreservesOrderForScalars) {
  Rng rng(11);
  std::vector<Value> values;
  for (int i = 0; i < 400; i++) {
    switch (rng.Uniform(5)) {
      case 0: values.push_back(Value::Int(static_cast<int64_t>(rng.Next()))); break;
      case 1: values.push_back(Value::Double(rng.NextDouble() * 2e6 - 1e6)); break;
      case 2: values.push_back(Value::String(rng.NextString(rng.Uniform(12)))); break;
      case 3: values.push_back(Value::Datetime(static_cast<int64_t>(rng.Next() % (1ll << 41)))); break;
      default: values.push_back(Value::Boolean(rng.Uniform(2) == 0));
    }
  }
  for (int i = 0; i < 3000; i++) {
    const Value& a = values[rng.Uniform(values.size())];
    const Value& b = values[rng.Uniform(values.size())];
    std::string ka = EncodeKey(a).value();
    std::string kb = EncodeKey(b).value();
    int vc = a.Compare(b);
    int kc = ka.compare(kb) < 0 ? -1 : (ka.compare(kb) > 0 ? 1 : 0);
    EXPECT_EQ(vc < 0, kc < 0) << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(vc == 0, kc == 0) << a.ToString() << " vs " << b.ToString();
  }
}

TEST(KeyEncoder, IntDoubleCrossTypeOrder) {
  // 3 < 3.5 < 4 must hold in encoded space.
  auto k3 = EncodeKey(Value::Int(3)).value();
  auto k35 = EncodeKey(Value::Double(3.5)).value();
  auto k4 = EncodeKey(Value::Int(4)).value();
  EXPECT_LT(k3, k35);
  EXPECT_LT(k35, k4);
  // Very large int64s beyond double precision stay ordered.
  int64_t big = (1ll << 60) + 1;
  auto ka = EncodeKey(Value::Int(big)).value();
  auto kb = EncodeKey(Value::Int(big + 1)).value();
  EXPECT_LT(ka, kb);
}

TEST(KeyEncoder, StringsWithEmbeddedNulsAndEscapes) {
  std::string tricky1("a\0b", 3);
  std::string tricky2("a\0", 2);
  std::string tricky3 = "a";
  auto k1 = EncodeKey(Value::String(tricky1)).value();
  auto k2 = EncodeKey(Value::String(tricky2)).value();
  auto k3 = EncodeKey(Value::String(tricky3)).value();
  EXPECT_LT(k3, k2);
  EXPECT_LT(k2, k1);
  // Round trip.
  EXPECT_EQ(DecodeKey(k1).value()[0].AsString(), tricky1);
}

TEST(KeyEncoder, CompositeKeysRoundTrip) {
  std::vector<Value> parts = {Value::String("alice"), Value::Int(42),
                              Value::Datetime(1234567)};
  auto key = EncodeKey(parts).value();
  auto back = DecodeKey(key).value();
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0], parts[0]);
  EXPECT_EQ(back[1], parts[1]);
  EXPECT_EQ(back[2], parts[2]);
}

TEST(KeyEncoder, RejectsNonScalarKeys) {
  EXPECT_FALSE(EncodeKey(Value::Array({Value::Int(1)})).ok());
  EXPECT_FALSE(EncodeKey(Value::Object({})).ok());
}

TEST(Temporal, DateRoundTrip) {
  for (const char* s : {"1970-01-01", "2024-02-29", "1969-12-31", "2100-06-15"}) {
    int64_t days = temporal::ParseDate(s).value();
    EXPECT_EQ(temporal::FormatDate(days), s);
  }
  EXPECT_EQ(temporal::ParseDate("1970-01-02").value(), 1);
  EXPECT_EQ(temporal::ParseDate("1969-12-31").value(), -1);
  EXPECT_FALSE(temporal::ParseDate("2024-13-01").ok());
  EXPECT_FALSE(temporal::ParseDate("garbage").ok());
}

TEST(Temporal, DatetimeParsing) {
  EXPECT_EQ(temporal::ParseDatetime("1970-01-01T00:00:00").value(), 0);
  EXPECT_EQ(temporal::ParseDatetime("1970-01-01T00:00:01.5").value(), 1500);
  EXPECT_EQ(temporal::ParseDatetime("1970-01-02T00:00:00Z").value(), 86400000);
  EXPECT_FALSE(temporal::ParseDatetime("1970-01-01").ok());
}

TEST(Temporal, DurationParsing) {
  EXPECT_EQ(temporal::ParseDuration("P30D").value(), 30ll * 86400000);
  EXPECT_EQ(temporal::ParseDuration("PT1H30M").value(), 5400000);
  EXPECT_EQ(temporal::ParseDuration("PT0.5S").value(), 500);
  EXPECT_EQ(temporal::ParseDuration("P1W").value(), 7ll * 86400000);
  EXPECT_FALSE(temporal::ParseDuration("P1Y").ok());   // months/years rejected
  EXPECT_FALSE(temporal::ParseDuration("P1M").ok());
  EXPECT_FALSE(temporal::ParseDuration("30D").ok());
}

TEST(Temporal, IntervalBinAndOverlap) {
  // Bins anchored at 0, width 1 hour.
  EXPECT_EQ(temporal::IntervalBinStart(3600000 + 5, 0, 3600000), 3600000);
  EXPECT_EQ(temporal::IntervalBinStart(-1, 0, 3600000), -3600000);
  EXPECT_EQ(temporal::OverlapMs(0, 100, 50, 200), 50);
  EXPECT_EQ(temporal::OverlapMs(0, 100, 100, 200), 0);
  EXPECT_EQ(temporal::OverlapMs(0, 300, 100, 200), 100);
}

TEST(TypeSystem, OpenAndClosedValidation) {
  auto t = Type::MakeObject(
      "T",
      {{"id", Type::Primitive(TypeTag::kInt64), false},
       {"name", Type::Primitive(TypeTag::kString), true}},
      /*open=*/false);
  EXPECT_TRUE(t->Validate(ObjectBuilder()
                              .Add("id", Value::Int(1))
                              .Add("name", Value::String("x"))
                              .Build())
                  .ok());
  // Optional field may be absent.
  EXPECT_TRUE(t->Validate(ObjectBuilder().Add("id", Value::Int(1)).Build()).ok());
  // Required field missing.
  EXPECT_FALSE(t->Validate(ObjectBuilder().Add("name", Value::String("x")).Build()).ok());
  // Extra field on a closed type.
  EXPECT_FALSE(t->Validate(ObjectBuilder()
                               .Add("id", Value::Int(1))
                               .Add("zzz", Value::Int(2))
                               .Build())
                   .ok());
  // Wrong field type.
  EXPECT_FALSE(t->Validate(ObjectBuilder()
                               .Add("id", Value::String("nope"))
                               .Build())
                   .ok());
}

TEST(TypeSystem, IntPromotesToDouble) {
  auto t = Type::MakeObject(
      "T", {{"x", Type::Primitive(TypeTag::kDouble), false}}, true);
  EXPECT_TRUE(t->Validate(ObjectBuilder().Add("x", Value::Int(3)).Build()).ok());
  EXPECT_TRUE(
      t->Validate(ObjectBuilder().Add("x", Value::Double(3.5)).Build()).ok());
}

TEST(TypeSystem, NestedCollections) {
  auto t = Type::MakeObject(
      "T",
      {{"tags", Type::MakeArray(Type::Primitive(TypeTag::kString)), false}},
      true);
  EXPECT_TRUE(t->Validate(ObjectBuilder()
                              .Add("tags", Value::Array({Value::String("a")}))
                              .Build())
                  .ok());
  EXPECT_FALSE(t->Validate(ObjectBuilder()
                               .Add("tags", Value::Array({Value::Int(1)}))
                               .Build())
                   .ok());
  EXPECT_FALSE(t->Validate(ObjectBuilder()
                               .Add("tags", Value::Multiset({}))
                               .Build())
                   .ok());
}

}  // namespace
}  // namespace asterix::adm
