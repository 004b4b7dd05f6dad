#include "workloads.h"

#include <algorithm>
#include <array>

#include "adm/key_encoder.h"
#include "adm/serde.h"
#include "algebricks/functions.h"
#include "algebricks/optimizer.h"
#include "asterix/gleambook.h"
#include "bench_math.h"
#include "common/rng.h"
#include "sqlpp/parser.h"
#include "sqlpp/translator.h"

namespace perfbench {

using asterix::Instance;
using asterix::QueryResult;
using asterix::Result;
using asterix::Rng;
using asterix::Status;
using asterix::adm::Value;
using asterix::gleambook::Generator;
using asterix::gleambook::GeneratorOptions;

namespace {

constexpr const char* kUsers = "GleambookUsers";
constexpr const char* kMessages = "GleambookMessages";

double MsBetween(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

// Operator family of a PlanProfile node label (see Executor::Build).
const char* OperatorFamily(const std::string& label) {
  auto starts = [&](const char* p) { return label.rfind(p, 0) == 0; };
  if (starts("SCAN") || starts("INDEX-SEARCH")) return "scan";
  if (starts("GROUPBY")) return "groupby";
  if (starts("JOIN")) return "join";
  if (starts("SORT") || starts("MERGE")) return "sort";
  if (starts("EXCHANGE")) return "exchange";
  return "other";
}

// Per-family self time of one query: each node's time minus its children's.
void AddProfile(const asterix::hyracks::PlanProfile& profile,
                TraceContext* trace) {
  for (size_t id = 0; id < profile.size(); id++) {
    const auto& node = profile.node(static_cast<int>(id));
    uint64_t total = node.TotalNs();
    uint64_t children = 0;
    for (int c : node.children) children += profile.node(c).TotalNs();
    uint64_t self = total > children ? total - children : 0;
    trace->hyracks_self_ms[OperatorFamily(node.label)] +=
        static_cast<double>(self) / 1e6;
  }
}

// Runs one SQL++ statement and returns its result; *latency_ms is the wall
// time of Instance::Execute. When traced, the statement's compile phases
// are first run on their own through each layer's public function; the
// part of Execute's wall time that neither they nor the executor's own
// elapsed_ms explain is the statement overhead.
Result<QueryResult> RunStatement(Instance* db, const std::string& stmt,
                                 TraceContext* trace, double* latency_ms) {
  double phases_ms = 0;
  bool is_query = false;
  if (trace != nullptr) {
    uint64_t t0 = NowNs();
    auto parsed = asterix::sqlpp::ParseStatement(stmt);
    uint64_t t1 = NowNs();
    trace->spans.Record("sqlpp.parse", t0, t1);
    phases_ms += MsBetween(t0, t1);
    if (parsed.ok() && parsed->kind == asterix::sqlpp::ast::Statement::kQuery) {
      is_query = true;
      asterix::sqlpp::Translator translator(db->metadata());
      auto translated = translator.TranslateQuery(*parsed->query);
      uint64_t t2 = NowNs();
      trace->spans.Record("sqlpp.translate", t1, t2);
      phases_ms += MsBetween(t1, t2);
      if (translated.ok()) {
        auto optimized = asterix::algebricks::Optimize(
            translated->plan, *db->metadata(),
            asterix::algebricks::OptimizerOptions{},
            asterix::algebricks::FunctionRegistry::Instance());
        uint64_t t3 = NowNs();
        trace->spans.Record("algebricks.optimize", t2, t3);
        phases_ms += MsBetween(t2, t3);
      }
    }
  }
  uint64_t start = NowNs();
  auto result = db->Execute(stmt);
  uint64_t end = NowNs();
  *latency_ms = MsBetween(start, end);
  if (trace != nullptr) {
    trace->spans.Record("asterix.statement", start, end);
    if (is_query && result.ok()) {
      trace->queries++;
      trace->execute_ms += result->elapsed_ms;
      trace->overhead_ms += *latency_ms - phases_ms - result->elapsed_ms;
      if (result->profile) AddProfile(*result->profile, trace);
    }
  }
  return result;
}

// A fixed sample of the workload's own messages, run through the ADM
// layer's public functions once per traced op: decode, re-encode, and
// encode the primary key.
class AdmProbe {
 public:
  static constexpr size_t kSample = 256;
  static constexpr size_t kPerOp = 4;

  void Add(const Value& message) {
    if (blobs_.size() < kSample) blobs_.push_back(asterix::adm::Serialize(message));
  }

  void Run(uint64_t op, TraceContext* trace) {
    if (trace == nullptr || blobs_.empty()) return;
    std::array<Value, kPerOp> decoded;
    uint64_t t0 = NowNs();
    for (size_t k = 0; k < kPerOp; k++) {
      auto v = asterix::adm::Deserialize(blobs_[(op * kPerOp + k) % blobs_.size()]);
      if (v.ok()) decoded[k] = std::move(v).value();
    }
    uint64_t t1 = NowNs();
    std::string out;
    for (const Value& v : decoded) {
      out.clear();
      asterix::adm::SerializeValue(v, &out);
    }
    uint64_t t2 = NowNs();
    for (const Value& v : decoded) (void)asterix::adm::EncodeKey(v.GetField("messageId"));
    uint64_t t3 = NowNs();
    trace->spans.Record("adm.decode", t0, t1, kPerOp);
    trace->spans.Record("adm.encode", t1, t2, kPerOp);
    trace->spans.Record("adm.key_encode", t2, t3, kPerOp);
  }

 private:
  std::vector<std::string> blobs_;
};

size_t TextBytes(const Value& v) { return v.ToString().size(); }

Status CreateSchema(Instance* db, bool with_indexes, CallClock* clock) {
  auto r = clock->Time([&] { return db->ExecuteScript(Generator::Ddl(with_indexes)); });
  return r.ok() ? Status::OK() : r.status();
}

Status Upsert(Instance* db, const char* dataset, const Value& v,
              CallClock* clock) {
  return clock->Time([&] { return db->UpsertValue(dataset, v); });
}

// Gleambook users and messages loaded through UpsertValue, with the
// shadows the oracles read. Analytics and lookup share it.
class GleambookAtRest {
 public:
  GleambookAtRest(int64_t users, int64_t messages)
      : num_users_(users), num_messages_(messages) {}

  GeneratorOptions Options(uint64_t seed) const {
    GeneratorOptions o;
    o.seed = seed;
    o.num_users = num_users_;
    o.num_messages = num_messages_;
    return o;
  }

  // Generate once: the initial shadows and per-record facts. `on_user` /
  // `on_message` see every record in load order.
  template <typename U, typename M>
  void Generate(uint64_t seed, U&& on_user, M&& on_message) {
    seed_ = seed;
    Generator gen(Options(seed));
    initial_users_.Reset(static_cast<size_t>(num_users_));
    initial_messages_.Reset(static_cast<size_t>(num_messages_));
    for (int64_t id = 0; id < num_users_; id++) {
      Value u = gen.MakeUser(id);
      initial_users_.Put(id, u.Hash(), TextBytes(u));
      on_user(id, u);
    }
    for (int64_t id = 0; id < num_messages_; id++) {
      Value m = gen.MakeMessage(id);
      initial_messages_.Put(id, m.Hash(), TextBytes(m));
      probe_.Add(m);
      on_message(id, m);
    }
  }

  Status Load(Instance* db, bool with_indexes, CallClock* clock) {
    AX_RETURN_NOT_OK(CreateSchema(db, with_indexes, clock));
    Generator gen(Options(seed_));  // same seed: the same records again
    for (int64_t id = 0; id < num_users_; id++) {
      AX_RETURN_NOT_OK(Upsert(db, kUsers, gen.MakeUser(id), clock));
    }
    for (int64_t id = 0; id < num_messages_; id++) {
      AX_RETURN_NOT_OK(Upsert(db, kMessages, gen.MakeMessage(id), clock));
    }
    users_ = initial_users_;
    messages_ = initial_messages_;
    return Status::OK();
  }

  uint64_t LiveTextBytes() const {
    return users_.live_text_bytes() + messages_.live_text_bytes();
  }
  uint64_t WrittenTextBytes() const {
    return users_.written_text_bytes() + messages_.written_text_bytes();
  }
  void ResetWritten() {
    users_.ResetWritten();
    messages_.ResetWritten();
  }

  int64_t num_users() const { return num_users_; }
  int64_t num_messages() const { return num_messages_; }
  ShadowStore& messages() { return messages_; }
  AdmProbe& probe() { return probe_; }

 private:
  int64_t num_users_;
  int64_t num_messages_;
  uint64_t seed_ = 0;
  ShadowStore initial_users_, initial_messages_;
  ShadowStore users_, messages_;
  AdmProbe probe_;
};

int64_t IntField(const Value& row, const char* field) {
  const Value& v = row.GetField(field);
  return v.is_int() ? v.AsInt() : -1;
}

// The oracle's last check: COUNT(*) over the messages equals the live count.
bool MessageCountIs(Instance* db, size_t live) {
  auto r = db->Execute("SELECT COUNT(*) AS n FROM GleambookMessages m");
  return r.ok() && r->rows.size() == 1 &&
         IntField(r->rows[0], "n") == static_cast<int64_t>(live);
}

// ---------------------------------------------------------------------------
// analytics: four SQL++ query classes, round-robin, over data at rest.
// ---------------------------------------------------------------------------
class Analytics : public Workload {
 public:
  static constexpr int64_t kGroups = 128;
  static constexpr int64_t kMinFriends = 10;
  static constexpr size_t kTopK = 10;

  Analytics() : data_(6000, 30000) {}

  const char* name() const override { return "analytics"; }
  const std::vector<std::string>& classes() const override {
    static const std::vector<std::string> k = {"scan_agg", "join", "topk",
                                               "count"};
    return k;
  }
  double tail_percentile() const override { return 75; }
  uint64_t warmup_ops() const override { return 8; }

  void Generate(uint64_t seed) override {
    std::vector<int64_t> friends(static_cast<size_t>(data_.num_users()));
    std::vector<std::pair<int64_t, int64_t>> order;  // (-author, id)
    group_counts_.assign(kGroups, 0);
    join_count_ = 0;
    data_.Generate(
        seed,
        [&](int64_t id, const Value& u) {
          friends[static_cast<size_t>(id)] =
              static_cast<int64_t>(u.GetField("friendIds").items().size());
        },
        [&](int64_t id, const Value& m) {
          int64_t author = m.GetField("authorId").AsInt();
          group_counts_[static_cast<size_t>(author % kGroups)]++;
          if (friends[static_cast<size_t>(author)] >= kMinFriends) join_count_++;
          order.emplace_back(-author, id);
        });
    std::partial_sort(order.begin(), order.begin() + kTopK, order.end());
    topk_.clear();
    for (size_t k = 0; k < kTopK; k++) topk_.push_back(order[k].second);
  }

  Status Load(Instance* db, CallClock* clock) override {
    return data_.Load(db, /*with_indexes=*/false, clock);
  }

  OpResult RunOp(Instance* db, uint64_t i, TraceContext* trace) override {
    static const char* kSpan[] = {"op.scan_agg", "op.join", "op.topk",
                                  "op.count"};
    static const std::string kQuery[] = {
        "SELECT g AS grp, COUNT(*) AS n FROM GleambookMessages m "
        "GROUP BY m.authorId % 128 AS g",
        // Users on the right: the hash join builds on its right input, and
        // 30k messages sit so close to the operator budget that some seeds
        // spilled and others did not.
        "SELECT COUNT(*) AS n FROM GleambookMessages m JOIN GleambookUsers u "
        "ON m.authorId = u.id WHERE COLL_COUNT(u.friendIds) >= 10",
        "SELECT VALUE m.messageId FROM GleambookMessages m "
        "ORDER BY m.authorId DESC, m.messageId LIMIT 10",
        "SELECT COUNT(*) AS n FROM GleambookMessages m"};
    OpResult out;
    out.op_class = i % 4;
    if (trace != nullptr) trace->spans.BeginOp(kSpan[out.op_class]);
    auto r = RunStatement(db, kQuery[out.op_class], trace, &out.latency_ms);
    data_.probe().Run(i, trace);
    if (trace != nullptr) trace->spans.EndOp();
    out.ok = r.ok() && Check(out.op_class, r->rows);
    return out;
  }

  uint64_t LiveTextBytes() const override { return data_.LiveTextBytes(); }
  uint64_t WrittenTextBytes() const override { return data_.WrittenTextBytes(); }
  void ResetWritten() override { data_.ResetWritten(); }

 private:
  bool Check(size_t op_class, const std::vector<Value>& rows) const {
    switch (op_class) {
      case 0: {  // every group's count, so their sum is the message count
        std::vector<int64_t> got(kGroups, 0);
        int64_t sum = 0;
        for (const Value& row : rows) {
          int64_t g = IntField(row, "grp");
          if (g < 0 || g >= kGroups || got[static_cast<size_t>(g)] != 0) return false;
          got[static_cast<size_t>(g)] = IntField(row, "n");
          sum += got[static_cast<size_t>(g)];
        }
        return got == group_counts_ && sum == data_.num_messages();
      }
      case 1:
        return rows.size() == 1 && IntField(rows[0], "n") == join_count_;
      case 2: {
        if (rows.size() != topk_.size()) return false;
        for (size_t k = 0; k < rows.size(); k++) {
          if (!rows[k].is_int() || rows[k].AsInt() != topk_[k]) return false;
        }
        return true;
      }
      default:
        return rows.size() == 1 &&
               IntField(rows[0], "n") == data_.num_messages();
    }
  }

  GleambookAtRest data_;
  std::vector<int64_t> group_counts_;
  int64_t join_count_ = 0;
  std::vector<int64_t> topk_;
};

// ---------------------------------------------------------------------------
// lookup: short statements over an indexed Gleambook larger than the cache.
// ---------------------------------------------------------------------------
class Lookup : public Workload {
 public:
  static constexpr size_t kRing = 16384;

  Lookup() : data_(20000, 100000) {}

  const char* name() const override { return "lookup"; }
  const std::vector<std::string>& classes() const override {
    static const std::vector<std::string> k = {"pk", "secondary", "upsert"};
    return k;
  }
  double tail_percentile() const override { return 99; }
  uint64_t warmup_ops() const override { return 2000; }

  void Generate(uint64_t seed) override {
    author_of_.assign(static_cast<size_t>(data_.num_messages()), 0);
    authored_.assign(static_cast<size_t>(data_.num_users()), AuthorAgg{});
    data_.Generate(
        seed, [](int64_t, const Value&) {},
        [&](int64_t id, const Value& m) {
          int64_t author = m.GetField("authorId").AsInt();
          author_of_[static_cast<size_t>(id)] = static_cast<int32_t>(author);
          AuthorAgg& a = authored_[static_cast<size_t>(author)];
          a.count++;
          a.id_sum += id;
          a.id_xor ^= id;
        });
    Rng rng(seed ^ 0x6c6f6f6b7570ULL);
    ring_.clear();
    ring_.reserve(kRing);
    for (size_t k = 0; k < kRing; k++) {
      uint64_t dice = rng.Uniform(10);
      Op op;
      if (dice < 8) {
        op.op_class = 0;
        op.key = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(data_.num_messages())));
        op.stmt = "SELECT VALUE m FROM GleambookMessages m WHERE m.messageId = " +
                  std::to_string(op.key);
      } else if (dice == 8) {
        op.op_class = 1;
        op.key = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(data_.num_users())));
        op.stmt = "SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.authorId = " +
                  std::to_string(op.key);
      } else {
        op.op_class = 2;
        op.key = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(data_.num_messages())));
        Value rec = NewVersion(op.key, &rng);
        op.fingerprint = rec.Hash();
        op.text_bytes = static_cast<uint32_t>(TextBytes(rec));
        op.stmt = "UPSERT INTO GleambookMessages (" + rec.ToString() + ")";
      }
      ring_.push_back(std::move(op));
    }
  }

  Status Load(Instance* db, CallClock* clock) override {
    return data_.Load(db, /*with_indexes=*/true, clock);
  }

  OpResult RunOp(Instance* db, uint64_t i, TraceContext* trace) override {
    static const char* kSpan[] = {"op.pk", "op.secondary", "op.upsert"};
    const Op& op = ring_[i % ring_.size()];
    OpResult out;
    out.op_class = op.op_class;
    if (trace != nullptr) trace->spans.BeginOp(kSpan[op.op_class]);
    auto r = RunStatement(db, op.stmt, trace, &out.latency_ms);
    bool ok = r.ok();
    if (ok && op.op_class == 0) {
      const ShadowStore::Entry& want = data_.messages().Get(op.key);
      ok = r->rows.size() == 1 && r->rows[0].Hash() == want.fingerprint;
      if (trace != nullptr) {
        Value rec;
        auto got = Traced(&trace->spans, "asterix.get_by_key", [&] {
          return db->GetByKey(kMessages, Value::Int(op.key), &rec);
        });
        ok = ok && got.ok() && *got && rec.Hash() == want.fingerprint;
      }
    } else if (ok && op.op_class == 1) {
      AuthorAgg got;
      for (const Value& row : r->rows) {
        ok = ok && row.is_int();
        got.count++;
        got.id_sum += row.is_int() ? row.AsInt() : 0;
        got.id_xor ^= row.is_int() ? row.AsInt() : 0;
      }
      ok = ok && got == authored_[static_cast<size_t>(op.key)];
    } else if (ok) {
      ok = r->mutated == 1;
      data_.messages().Put(op.key, op.fingerprint, op.text_bytes);
    }
    data_.probe().Run(i, trace);
    if (trace != nullptr) trace->spans.EndOp();
    out.ok = ok;
    return out;
  }

  CheckResult Verify(Instance* db) override {
    return {1, MessageCountIs(db, data_.messages().live_count()) ? 0u : 1u};
  }

  uint64_t LiveTextBytes() const override { return data_.LiveTextBytes(); }
  uint64_t WrittenTextBytes() const override { return data_.WrittenTextBytes(); }
  void ResetWritten() override { data_.ResetWritten(); }

 private:
  struct AuthorAgg {
    int64_t count = 0;
    int64_t id_sum = 0;
    int64_t id_xor = 0;
    bool operator==(const AuthorAgg&) const = default;
  };
  struct Op {
    size_t op_class = 0;
    int64_t key = 0;
    std::string stmt;
    uint64_t fingerprint = 0;  // upsert: the new record's
    uint32_t text_bytes = 0;
  };

  // A new version of message `key`: same author (so the secondary oracle
  // stays fixed), new text and location.
  Value NewVersion(int64_t key, Rng* rng) const {
    std::string text = "rev";
    int words = 3 + static_cast<int>(rng->Uniform(12));
    for (int w = 0; w < words; w++) text += " word" + std::to_string(rng->Uniform(400));
    return asterix::adm::ObjectBuilder()
        .Add("messageId", Value::Int(key))
        .Add("authorId", Value::Int(author_of_[static_cast<size_t>(key)]))
        .Add("senderLocation",
             Value::MakePoint(static_cast<double>(rng->Uniform(10000)) / 100,
                              static_cast<double>(rng->Uniform(10000)) / 100))
        .Add("message", Value::String(std::move(text)))
        .Build();
  }

  GleambookAtRest data_;
  std::vector<int32_t> author_of_;
  std::vector<AuthorAgg> authored_;
  std::vector<Op> ring_;
};

// ---------------------------------------------------------------------------
// ingest: feed-style upserts and deletes over a fixed key space.
// ---------------------------------------------------------------------------
class Ingest : public Workload {
 public:
  static constexpr int64_t kKeys = 50000;
  static constexpr int64_t kAuthors = 5000;
  static constexpr size_t kRing = 8192;

  const char* name() const override { return "ingest"; }
  const std::vector<std::string>& classes() const override {
    static const std::vector<std::string> k = {"upsert", "delete"};
    return k;
  }
  double tail_percentile() const override { return 99; }
  uint64_t warmup_ops() const override { return 2000; }

  void Generate(uint64_t seed) override {
    seed_ = seed;
    initial_.Reset(kKeys);
    Generator gen(Options(seed));
    for (int64_t id = 0; id < kKeys; id++) {
      Value m = gen.MakeMessage(id);
      initial_.Put(id, m.Hash(), TextBytes(m));
      probe_.Add(m);
    }
    Generator versions(Options(seed + 1));
    Rng rng(seed ^ 0x696e67657374ULL);
    ring_.clear();
    ring_.reserve(kRing);
    for (size_t k = 0; k < kRing; k++) {
      Op op;
      op.key = static_cast<int64_t>(rng.Uniform(kKeys));
      op.is_delete = rng.Uniform(10) == 0;
      if (!op.is_delete) {
        op.record = versions.MakeMessage(op.key);
        op.fingerprint = op.record.Hash();
        op.text_bytes = static_cast<uint32_t>(TextBytes(op.record));
      }
      op.key_text_bytes = static_cast<uint32_t>(TextBytes(Value::Int(op.key)));
      ring_.push_back(std::move(op));
    }
  }

  Status Load(Instance* db, CallClock* clock) override {
    AX_RETURN_NOT_OK(CreateSchema(db, /*with_indexes=*/true, clock));
    Generator gen(Options(seed_));
    for (int64_t id = 0; id < kKeys; id++) {
      AX_RETURN_NOT_OK(Upsert(db, kMessages, gen.MakeMessage(id), clock));
    }
    shadow_ = initial_;
    return Status::OK();
  }

  OpResult RunOp(Instance* db, uint64_t i, TraceContext* trace) override {
    const Op& op = ring_[i % ring_.size()];
    OpResult out;
    out.op_class = op.is_delete ? 1 : 0;
    Tracer* spans = trace != nullptr ? &trace->spans : nullptr;
    if (spans != nullptr) spans->BeginOp(op.is_delete ? "op.delete" : "op.upsert");
    uint64_t start = NowNs();
    if (op.is_delete) {
      auto r = Traced(spans, "asterix.delete", [&] {
        return db->DeleteByKey(kMessages, Value::Int(op.key));
      });
      out.latency_ms = MsBetween(start, NowNs());
      bool was_live = shadow_.Erase(op.key, op.key_text_bytes);
      out.ok = r.ok() && *r == was_live;
    } else {
      Status s = Traced(spans, "asterix.upsert", [&] {
        return db->UpsertValue(kMessages, op.record);
      });
      out.latency_ms = MsBetween(start, NowNs());
      shadow_.Put(op.key, op.fingerprint, op.text_bytes);
      out.ok = s.ok();
    }
    probe_.Run(i, trace);
    if (spans != nullptr) spans->EndOp();
    return out;
  }

  uint64_t checkpoint_every() const override { return 20000; }

  // Every key against the shadow, then the live count.
  CheckResult Verify(Instance* db) override {
    CheckResult out;
    for (int64_t key = 0; key < kKeys; key++) {
      const ShadowStore::Entry& want = shadow_.Get(key);
      Value rec;
      auto found = db->GetByKey(kMessages, Value::Int(key), &rec);
      bool ok = found.ok() && *found == want.live &&
                (!want.live || rec.Hash() == want.fingerprint);
      out.attempted++;
      if (!ok) out.failed++;
    }
    out.attempted++;
    if (!MessageCountIs(db, shadow_.live_count())) out.failed++;
    return out;
  }

  uint64_t LiveTextBytes() const override { return shadow_.live_text_bytes(); }
  uint64_t WrittenTextBytes() const override {
    return shadow_.written_text_bytes();
  }
  void ResetWritten() override { shadow_.ResetWritten(); }

 private:
  struct Op {
    int64_t key = 0;
    bool is_delete = false;
    Value record;
    uint64_t fingerprint = 0;
    uint32_t text_bytes = 0;
    uint32_t key_text_bytes = 0;
  };

  static GeneratorOptions Options(uint64_t seed) {
    GeneratorOptions o;
    o.seed = seed;
    o.num_users = kAuthors;
    o.num_messages = kKeys;
    return o;
  }

  uint64_t seed_ = 0;
  ShadowStore initial_, shadow_;
  AdmProbe probe_;
  std::vector<Op> ring_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "analytics") return std::make_unique<Analytics>();
  if (name == "lookup") return std::make_unique<Lookup>();
  if (name == "ingest") return std::make_unique<Ingest>();
  return nullptr;
}

}  // namespace perfbench
