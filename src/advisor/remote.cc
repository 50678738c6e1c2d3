#include "advisor/remote.h"

#include <utility>

#include "common/frame.h"
#include "common/rpc.h"
#include "common/string_util.h"

namespace trap::advisor {
namespace {

using common::JsonValue;
using common::Status;
using common::StatusOr;

// ColumnId <-> [table, column].
JsonValue EncodeColumnId(catalog::ColumnId id) {
  JsonValue v = JsonValue::Array();
  v.Push(JsonValue::Number(id.table));
  v.Push(JsonValue::Number(id.column));
  return v;
}

StatusOr<catalog::ColumnId> DecodeColumnId(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kArray || v.items.size() != 2 ||
      v.items[0].kind != JsonValue::Kind::kNumber ||
      v.items[1].kind != JsonValue::Kind::kNumber) {
    return Status::InvalidArgument("column id: want [table, column]");
  }
  catalog::ColumnId id;
  id.table = static_cast<int>(v.items[0].number_value);
  id.column = static_cast<int>(v.items[1].number_value);
  return id;
}

StatusOr<catalog::ColumnId> DecodeColumnIdAt(const JsonValue& obj,
                                             std::string_view key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument(std::string("missing field: ") +
                                   std::string(key));
  }
  return DecodeColumnId(*v);
}

// Enums ride as their underlying integer; decoders range-check so a peer
// built against a future enum value is rejected, not misinterpreted.
template <typename EnumT>
StatusOr<EnumT> DecodeEnumAt(const JsonValue& obj, std::string_view key,
                             int max_inclusive) {
  std::optional<std::int64_t> raw = obj.IntAt(key);
  if (!raw.has_value() || *raw < 0 || *raw > max_inclusive) {
    return Status::InvalidArgument(std::string("bad enum field: ") +
                                   std::string(key));
  }
  return static_cast<EnumT>(*raw);
}

JsonValue EncodeValue(const sql::Value& value) {
  JsonValue v = JsonValue::Object();
  v.Set("t", JsonValue::Number(static_cast<int>(value.type)));
  v.Set("v", JsonValue::Number(value.numeric));
  return v;
}

StatusOr<sql::Value> DecodeValue(const JsonValue& v) {
  sql::Value out;
  TRAP_ASSIGN_OR_RETURN(out.type, (DecodeEnumAt<catalog::ColumnType>(
                                      v, "t",
                                      static_cast<int>(
                                          catalog::ColumnType::kString))));
  std::optional<double> num = v.NumberAt("v");
  if (!num.has_value()) return Status::InvalidArgument("value: missing v");
  out.numeric = *num;
  return out;
}

// `Out` is a std::vector<T> or another container with reserve/push_back
// (an Index's ColumnList).
template <typename T, typename Out, typename DecodeFn>
Status DecodeArrayAt(const JsonValue& obj, std::string_view key, Out* out,
                     const DecodeFn& decode) {
  const JsonValue* arr = obj.Find(key);
  if (arr == nullptr || arr->kind != JsonValue::Kind::kArray) {
    return Status::InvalidArgument(std::string("missing array field: ") +
                                   std::string(key));
  }
  out->reserve(arr->items.size());
  for (const JsonValue& item : arr->items) {
    TRAP_ASSIGN_OR_RETURN(T value, decode(item));
    out->push_back(std::move(value));
  }
  return Status::Ok();
}

}  // namespace

JsonValue EncodeQuery(const sql::Query& q) {
  JsonValue v = JsonValue::Object();
  JsonValue select = JsonValue::Array();
  for (const sql::SelectItem& item : q.select) {
    JsonValue s = JsonValue::Object();
    s.Set("agg", JsonValue::Number(static_cast<int>(item.agg)));
    s.Set("col", EncodeColumnId(item.column));
    select.Push(std::move(s));
  }
  v.Set("select", std::move(select));
  JsonValue tables = JsonValue::Array();
  for (int t : q.tables) tables.Push(JsonValue::Number(t));
  v.Set("tables", std::move(tables));
  JsonValue joins = JsonValue::Array();
  for (const sql::JoinPredicate& j : q.joins) {
    JsonValue jp = JsonValue::Object();
    jp.Set("l", EncodeColumnId(j.left));
    jp.Set("r", EncodeColumnId(j.right));
    joins.Push(std::move(jp));
  }
  v.Set("joins", std::move(joins));
  JsonValue filters = JsonValue::Array();
  for (const sql::Predicate& p : q.filters) {
    JsonValue f = JsonValue::Object();
    f.Set("col", EncodeColumnId(p.column));
    f.Set("op", JsonValue::Number(static_cast<int>(p.op)));
    f.Set("val", EncodeValue(p.value));
    filters.Push(std::move(f));
  }
  v.Set("filters", std::move(filters));
  v.Set("conj", JsonValue::Number(static_cast<int>(q.conjunction)));
  JsonValue group_by = JsonValue::Array();
  for (catalog::ColumnId id : q.group_by) group_by.Push(EncodeColumnId(id));
  v.Set("group_by", std::move(group_by));
  JsonValue order_by = JsonValue::Array();
  for (catalog::ColumnId id : q.order_by) order_by.Push(EncodeColumnId(id));
  v.Set("order_by", std::move(order_by));
  return v;
}

StatusOr<sql::Query> DecodeQuery(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("query: want an object");
  }
  sql::Query q;
  TRAP_RETURN_IF_ERROR(DecodeArrayAt<sql::SelectItem>(
      v, "select", &q.select,
      [](const JsonValue& s) -> StatusOr<sql::SelectItem> {
        sql::SelectItem item;
        TRAP_ASSIGN_OR_RETURN(item.agg, (DecodeEnumAt<sql::AggFunc>(
                                            s, "agg",
                                            static_cast<int>(
                                                sql::AggFunc::kMax))));
        TRAP_ASSIGN_OR_RETURN(item.column, DecodeColumnIdAt(s, "col"));
        return item;
      }));
  TRAP_RETURN_IF_ERROR(DecodeArrayAt<int>(
      v, "tables", &q.tables, [](const JsonValue& t) -> StatusOr<int> {
        if (t.kind != JsonValue::Kind::kNumber) {
          return Status::InvalidArgument("tables: want numbers");
        }
        return static_cast<int>(t.number_value);
      }));
  TRAP_RETURN_IF_ERROR(DecodeArrayAt<sql::JoinPredicate>(
      v, "joins", &q.joins,
      [](const JsonValue& j) -> StatusOr<sql::JoinPredicate> {
        sql::JoinPredicate jp;
        TRAP_ASSIGN_OR_RETURN(jp.left, DecodeColumnIdAt(j, "l"));
        TRAP_ASSIGN_OR_RETURN(jp.right, DecodeColumnIdAt(j, "r"));
        return jp;
      }));
  TRAP_RETURN_IF_ERROR(DecodeArrayAt<sql::Predicate>(
      v, "filters", &q.filters,
      [](const JsonValue& f) -> StatusOr<sql::Predicate> {
        sql::Predicate p;
        TRAP_ASSIGN_OR_RETURN(p.column, DecodeColumnIdAt(f, "col"));
        TRAP_ASSIGN_OR_RETURN(
            p.op, (DecodeEnumAt<sql::CmpOp>(
                      f, "op", static_cast<int>(sql::CmpOp::kGe))));
        const JsonValue* val = f.Find("val");
        if (val == nullptr) {
          return Status::InvalidArgument("filter: missing val");
        }
        TRAP_ASSIGN_OR_RETURN(p.value, DecodeValue(*val));
        return p;
      }));
  TRAP_ASSIGN_OR_RETURN(q.conjunction,
                        (DecodeEnumAt<sql::Conjunction>(
                            v, "conj",
                            static_cast<int>(sql::Conjunction::kOr))));
  TRAP_RETURN_IF_ERROR(
      DecodeArrayAt<catalog::ColumnId>(v, "group_by", &q.group_by,
                                       DecodeColumnId));
  TRAP_RETURN_IF_ERROR(
      DecodeArrayAt<catalog::ColumnId>(v, "order_by", &q.order_by,
                                       DecodeColumnId));
  return q;
}

JsonValue EncodeWorkload(const workload::Workload& w) {
  JsonValue v = JsonValue::Object();
  JsonValue queries = JsonValue::Array();
  for (const workload::WorkloadQuery& wq : w.queries) {
    JsonValue q = JsonValue::Object();
    q.Set("query", EncodeQuery(wq.query));
    q.Set("weight", JsonValue::Number(wq.weight));
    queries.Push(std::move(q));
  }
  v.Set("queries", std::move(queries));
  return v;
}

StatusOr<workload::Workload> DecodeWorkload(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("workload: want an object");
  }
  workload::Workload w;
  TRAP_RETURN_IF_ERROR(DecodeArrayAt<workload::WorkloadQuery>(
      v, "queries", &w.queries,
      [](const JsonValue& q) -> StatusOr<workload::WorkloadQuery> {
        workload::WorkloadQuery wq;
        const JsonValue* query = q.Find("query");
        if (query == nullptr) {
          return Status::InvalidArgument("workload query: missing query");
        }
        TRAP_ASSIGN_OR_RETURN(wq.query, DecodeQuery(*query));
        std::optional<double> weight = q.NumberAt("weight");
        if (!weight.has_value()) {
          return Status::InvalidArgument("workload query: missing weight");
        }
        wq.weight = *weight;
        return wq;
      }));
  return w;
}

JsonValue EncodeIndexConfig(const engine::IndexConfig& config) {
  JsonValue v = JsonValue::Object();
  JsonValue indexes = JsonValue::Array();
  for (const engine::Index& index : config.indexes()) {
    JsonValue columns = JsonValue::Array();
    for (catalog::ColumnId id : index.columns) {
      columns.Push(EncodeColumnId(id));
    }
    JsonValue i = JsonValue::Object();
    i.Set("columns", std::move(columns));
    indexes.Push(std::move(i));
  }
  v.Set("indexes", std::move(indexes));
  return v;
}

StatusOr<engine::IndexConfig> DecodeIndexConfig(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("index config: want an object");
  }
  std::vector<engine::Index> indexes;
  TRAP_RETURN_IF_ERROR(DecodeArrayAt<engine::Index>(
      v, "indexes", &indexes,
      [](const JsonValue& i) -> StatusOr<engine::Index> {
        engine::Index index;
        TRAP_RETURN_IF_ERROR(DecodeArrayAt<catalog::ColumnId>(
            i, "columns", &index.columns, DecodeColumnId));
        if (index.columns.empty()) {
          return Status::InvalidArgument("index: empty column list");
        }
        for (catalog::ColumnId id : index.columns) {
          if (id.table != index.columns[0].table) {
            return Status::InvalidArgument(
                "index: columns span multiple tables");
          }
        }
        return index;
      }));
  return engine::IndexConfig(std::move(indexes));
}

JsonValue EncodeConstraint(const TuningConstraint& constraint) {
  JsonValue v = JsonValue::Object();
  v.Set("storage_budget_bytes",
        JsonValue::Number(
            static_cast<double>(constraint.storage_budget_bytes)));
  v.Set("max_indexes", JsonValue::Number(constraint.max_indexes));
  return v;
}

StatusOr<TuningConstraint> DecodeConstraint(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("constraint: want an object");
  }
  TuningConstraint c;
  std::optional<std::int64_t> storage = v.IntAt("storage_budget_bytes");
  std::optional<std::int64_t> count = v.IntAt("max_indexes");
  if (!storage.has_value() || !count.has_value() || *storage < 0 ||
      *count < 0) {
    return Status::InvalidArgument("constraint: bad budget fields");
  }
  c.storage_budget_bytes = *storage;
  c.max_indexes = static_cast<int>(*count);
  return c;
}

RemoteAdvisor::RemoteAdvisor(RemoteAdvisorOptions options)
    : options_(std::move(options)) {}

RemoteAdvisor::~RemoteAdvisor() { Teardown(); }

std::string RemoteAdvisor::name() const {
  return "Remote(" + options_.advisor + ")";
}

void RemoteAdvisor::Teardown() {
  // fclose closes the underlying pipe fds; stdin-EOF is the polite
  // shutdown signal, the kill covers a child that ignores it.
  if (to_child_ != nullptr) std::fclose(to_child_);
  if (from_child_ != nullptr) std::fclose(from_child_);
  to_child_ = nullptr;
  from_child_ = nullptr;
  child_.stdin_fd = -1;
  child_.stdout_fd = -1;
  if (child_.running()) {
    common::Kill(&child_);
    common::Reap(&child_);
  }
}

common::Status RemoteAdvisor::EnsureSpawned() {
  if (child_.running() && to_child_ != nullptr) return Status::Ok();
  Teardown();
  if (options_.argv.empty()) {
    return Status::InvalidArgument("remote advisor: empty argv");
  }
  TRAP_ASSIGN_OR_RETURN(child_, common::SpawnWithPipes(options_.argv));
  to_child_ = ::fdopen(child_.stdin_fd, "w");
  from_child_ = ::fdopen(child_.stdout_fd, "r");
  if (to_child_ == nullptr || from_child_ == nullptr) {
    Teardown();
    return Status::Internal("remote advisor: fdopen failed");
  }
  // The host speaks first: validate version + role before any request.
  common::FrameDecoder decoder;
  std::string hello;
  Status read = common::ReadFrame(from_child_, &decoder, &hello);
  if (!read.ok()) {
    Teardown();
    return Status::Unavailable("remote advisor: no hello from " +
                               options_.argv[0] + ": " + read.ToString());
  }
  Status handshake = common::rpc::CheckHello(hello, "trap-serve");
  if (!handshake.ok()) {
    Teardown();
    return handshake;
  }
  return Status::Ok();
}

common::StatusOr<engine::IndexConfig> RemoteAdvisor::TryRecommend(
    const workload::Workload& w, const TuningConstraint& constraint,
    const common::EvalContext& ctx) {
  TRAP_RETURN_IF_ERROR(EnterRecommend(name(), w, ctx));
  TRAP_RETURN_IF_ERROR(EnsureSpawned());

  common::rpc::Request req;
  req.id = ++next_id_;
  req.method = "advise";
  req.params = JsonValue::Object();
  req.params.Set("advisor", JsonValue::Str(options_.advisor));
  req.params.Set("workload", EncodeWorkload(w));
  req.params.Set("constraint", EncodeConstraint(constraint));

  Status written =
      common::WriteFrame(to_child_, common::rpc::EncodeRequest(req));
  if (!written.ok()) {
    Teardown();
    return Status::Unavailable("remote advisor: write failed: " +
                               written.ToString());
  }
  common::FrameDecoder decoder;
  std::string payload;
  Status read = common::ReadFrame(from_child_, &decoder, &payload);
  if (!read.ok()) {
    Teardown();
    return Status::Unavailable("remote advisor: no response: " +
                               read.ToString());
  }
  StatusOr<common::rpc::Response> resp = common::rpc::DecodeResponse(payload);
  if (!resp.ok()) {
    Teardown();
    return resp.status();
  }
  if (resp->id != req.id) {
    Teardown();
    return Status::Internal(common::StrFormat(
        "remote advisor: response id 0x%llx for request 0x%llx",
        static_cast<unsigned long long>(resp->id),
        static_cast<unsigned long long>(req.id)));
  }
  // A structured error is the remote advisor's own failure (deadline,
  // injected fault, rejection): surface it as-is, keep the child alive.
  TRAP_RETURN_IF_ERROR(resp->ToStatus());
  const JsonValue* config = resp->result.Find("config");
  if (config == nullptr) {
    Teardown();
    return Status::Internal("remote advisor: response without config");
  }
  return DecodeIndexConfig(*config);
}

}  // namespace trap::advisor
