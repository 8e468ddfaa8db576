#ifndef SQOD_TESTS_PROTO_REFERENCE_H_
#define SQOD_TESTS_PROTO_REFERENCE_H_

// The reference wire decoder: the DOM-based decode logic the library used
// before its decoders became single-pass JsonReader walks. It parses the
// whole payload with ParseJson and then looks fields up in the tree, which
// makes the protocol's rules easy to read off (first duplicate key wins via
// std::map::emplace, optional fields fall back to their defaults, ...). The
// fuzz and protocol tests hold DecodeClientMessage / DecodeServerMessage to
// it: same verdict, same StatusCode, same message field by field.

#include <string>
#include <string_view>
#include <vector>

#include "src/obs/context.h"
#include "src/obs/json.h"
#include "src/proto/proto.h"

namespace sqod {
namespace reference {

// ---- decode helpers: every accessor yields kInvalidArgument with the
// field name, so protocol errors point at the offending key.

inline Status MissingField(std::string_view key) {
  return Status::InvalidArgument("missing or mis-typed field '" +
                                 std::string(key) + "'");
}

inline Result<const JsonValue*> GetMember(const JsonValue& obj,
                                          const std::string& key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return MissingField(key);
  return v;
}

inline Result<std::string> GetString(const JsonValue& obj,
                                     const std::string& key) {
  SQOD_ASSIGN_OR_RETURN(const JsonValue* v, GetMember(obj, key));
  if (!v->is_string()) return MissingField(key);
  return v->string;
}

inline std::string GetStringOr(const JsonValue& obj, const std::string& key,
                               std::string fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_string() ? v->string : std::move(fallback);
}

inline Result<int64_t> GetInt64(const JsonValue& obj, const std::string& key) {
  SQOD_ASSIGN_OR_RETURN(const JsonValue* v, GetMember(obj, key));
  Result<int64_t> parsed = WireInt64(*v);
  if (!parsed.ok()) return MissingField(key);
  return parsed;
}

inline int64_t GetInt64Or(const JsonValue& obj, const std::string& key,
                          int64_t fallback) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  Result<int64_t> parsed = WireInt64(*v);
  return parsed.ok() ? parsed.value() : fallback;
}

inline bool GetBoolOr(const JsonValue& obj, const std::string& key,
                      bool fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kBool ? v->boolean
                                                           : fallback;
}

inline std::vector<SpanRecord> DecodeSpans(const JsonValue& payload) {
  std::vector<SpanRecord> spans;
  const JsonValue* arr = payload.Find("spans");
  if (arr == nullptr || !arr->is_array()) return spans;
  spans.reserve(arr->array.size());
  for (const JsonValue& item : arr->array) {
    if (!item.is_object()) continue;
    SpanRecord span;
    span.id = static_cast<int>(GetInt64Or(item, "id", -1));
    span.parent_id = static_cast<int>(GetInt64Or(item, "parent", -1));
    span.name = GetStringOr(item, "name", "");
    span.start_ns = GetInt64Or(item, "start_ns", 0);
    span.duration_ns = GetInt64Or(item, "dur_ns", 0);
    const JsonValue* attrs = item.Find("attrs");
    if (attrs != nullptr && attrs->is_object()) {
      for (const auto& [key, value] : attrs->object) {
        Result<int64_t> parsed = WireInt64(value);
        if (parsed.ok()) span.attrs.emplace_back(key, parsed.value());
      }
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

inline EvalStats DecodeEvalStats(const JsonValue& payload) {
  EvalStats stats;
  const JsonValue* obj = payload.Find("stats");
  if (obj == nullptr || !obj->is_object()) return stats;
  stats.iterations = GetInt64Or(*obj, "iterations", 0);
  stats.rule_firings = GetInt64Or(*obj, "rule_firings", 0);
  stats.tuples_derived = GetInt64Or(*obj, "tuples_derived", 0);
  stats.duplicate_derivations = GetInt64Or(*obj, "duplicate_derivations", 0);
  stats.join_probes = GetInt64Or(*obj, "join_probes", 0);
  stats.comparison_checks = GetInt64Or(*obj, "comparison_checks", 0);
  return stats;
}

inline MaintainStats DecodeMaintainStats(const JsonValue& payload) {
  MaintainStats stats;
  const JsonValue* obj = payload.Find("stats");
  if (obj == nullptr || !obj->is_object()) return stats;
  stats.version = GetInt64Or(*obj, "version", 0);
  stats.recomputed = GetBoolOr(*obj, "recomputed", false);
  stats.edb_inserted = GetInt64Or(*obj, "edb_inserted", 0);
  stats.edb_deleted = GetInt64Or(*obj, "edb_deleted", 0);
  stats.idb_inserted = GetInt64Or(*obj, "idb_inserted", 0);
  stats.idb_deleted = GetInt64Or(*obj, "idb_deleted", 0);
  stats.over_deleted = GetInt64Or(*obj, "over_deleted", 0);
  stats.rederived = GetInt64Or(*obj, "rederived", 0);
  stats.count_updates = GetInt64Or(*obj, "count_updates", 0);
  stats.strata_incremental =
      static_cast<int>(GetInt64Or(*obj, "strata_incremental", 0));
  stats.strata_recomputed =
      static_cast<int>(GetInt64Or(*obj, "strata_recomputed", 0));
  stats.strata_skipped =
      static_cast<int>(GetInt64Or(*obj, "strata_skipped", 0));
  stats.maintain_ns = GetInt64Or(*obj, "maintain_ns", 0);
  return stats;
}

inline Status DecodeStatus(const JsonValue& payload) {
  Result<std::string> code_name = GetString(payload, "code");
  if (!code_name.ok()) return code_name.status();
  Result<StatusCode> code = StatusCodeFromName(code_name.value());
  if (!code.ok()) return code.status();
  if (code.value() == StatusCode::kOk) return Status::Ok();
  return Status::Error(code.value(), GetStringOr(payload, "error", ""));
}


inline Result<ClientMessage> DecodeClientMessage(std::string_view payload) {
  SQOD_ASSIGN_OR_RETURN(JsonValue root, ParseJson(payload));
  if (!root.is_object()) {
    return Status::InvalidArgument("request payload is not a JSON object");
  }
  ClientMessage msg;
  SQOD_ASSIGN_OR_RETURN(std::string type_name, GetString(root, "type"));
  SQOD_ASSIGN_OR_RETURN(msg.type, MsgTypeFromName(type_name));
  SQOD_ASSIGN_OR_RETURN(int64_t id, GetInt64(root, "id"));
  msg.id = static_cast<uint64_t>(id);

  switch (msg.type) {
    case MsgType::kHello: {
      msg.hello.token = GetStringOr(root, "token", "");
      msg.hello.min_version = static_cast<int>(
          GetInt64Or(root, "min_version", kProtoVersionMin));
      msg.hello.max_version = static_cast<int>(
          GetInt64Or(root, "max_version", msg.hello.min_version));
      break;
    }
    case MsgType::kLoadProgram: {
      SQOD_ASSIGN_OR_RETURN(msg.load.session, GetString(root, "session"));
      SQOD_ASSIGN_OR_RETURN(msg.load.source, GetString(root, "source"));
      break;
    }
    case MsgType::kQuery: {
      msg.query.session = GetStringOr(root, "session", "");
      msg.query.source = GetStringOr(root, "source", "");
      if (msg.query.session.empty() == msg.query.source.empty()) {
        return Status::InvalidArgument(
            "query needs exactly one of 'session' or 'source'");
      }
      msg.query.deadline_ms = GetInt64Or(root, "deadline_ms", -1);
      msg.query.materialized = GetBoolOr(root, "materialized", false);
      msg.query.trace = GetBoolOr(root, "trace", false);
      msg.query.explain = GetBoolOr(root, "explain", false);
      const JsonValue* passes = root.Find("disabled_passes");
      if (passes != nullptr) {
        if (!passes->is_array()) return MissingField("disabled_passes");
        for (const JsonValue& item : passes->array) {
          if (!item.is_string()) return MissingField("disabled_passes");
          msg.query.disabled_passes.push_back(item.string);
        }
      }
      break;
    }
    case MsgType::kExplain: {
      SQOD_ASSIGN_OR_RETURN(msg.query.session, GetString(root, "session"));
      msg.query.explain = true;
      break;
    }
    case MsgType::kApplyDelta: {
      SQOD_ASSIGN_OR_RETURN(msg.delta.session, GetString(root, "session"));
      for (const auto& [key, into] :
           {std::pair<const char*, std::vector<std::string>*>(
                "inserts", &msg.delta.inserts),
            std::pair<const char*, std::vector<std::string>*>(
                "deletes", &msg.delta.deletes)}) {
        const JsonValue* arr = root.Find(key);
        if (arr == nullptr) continue;
        if (!arr->is_array()) return MissingField(key);
        for (const JsonValue& item : arr->array) {
          if (!item.is_string()) {
            return Status::InvalidArgument(
                std::string(key) + " entries must be fact strings");
          }
          into->push_back(item.string);
        }
      }
      msg.delta.trace = GetBoolOr(root, "trace", false);
      break;
    }
    case MsgType::kMetrics:
    case MsgType::kClose:
      break;
  }
  return msg;
}

inline Result<ServerMessage> DecodeServerMessage(std::string_view payload) {
  SQOD_ASSIGN_OR_RETURN(JsonValue root, ParseJson(payload));
  if (!root.is_object()) {
    return Status::InvalidArgument("response payload is not a JSON object");
  }
  ServerMessage msg;
  SQOD_ASSIGN_OR_RETURN(std::string type_name, GetString(root, "type"));
  SQOD_ASSIGN_OR_RETURN(msg.type, MsgTypeFromName(type_name));
  SQOD_ASSIGN_OR_RETURN(int64_t id, GetInt64(root, "id"));
  msg.id = static_cast<uint64_t>(id);
  msg.status = DecodeStatus(root);

  switch (msg.type) {
    case MsgType::kHello: {
      msg.hello.version = static_cast<int>(GetInt64Or(root, "version", 0));
      msg.hello.tenant = GetStringOr(root, "tenant", "");
      msg.hello.server = GetStringOr(root, "server", "");
      msg.hello.max_frame_bytes = GetInt64Or(root, "max_frame_bytes", 0);
      break;
    }
    case MsgType::kLoadProgram: {
      msg.query.status = msg.status;
      msg.query.trace_id = TraceIdFromHex(GetStringOr(root, "trace_id", ""));
      break;
    }
    case MsgType::kQuery:
    case MsgType::kExplain: {
      Response& r = msg.query;
      r.status = msg.status;
      r.trace_id = TraceIdFromHex(GetStringOr(root, "trace_id", ""));
      const JsonValue* answers = root.Find("answers");
      if (answers != nullptr && answers->is_array()) {
        r.answers.reserve(answers->array.size());
        for (const JsonValue& row : answers->array) {
          if (!row.is_array()) {
            return Status::InvalidArgument("answer row is not an array");
          }
          Tuple tuple;
          tuple.reserve(row.array.size());
          for (const JsonValue& cell : row.array) {
            SQOD_ASSIGN_OR_RETURN(Value v, WireValue(cell));
            tuple.push_back(v);
          }
          r.answers.push_back(std::move(tuple));
        }
      }
      r.stats = DecodeEvalStats(root);
      r.snapshot_version = GetInt64Or(root, "snapshot_version", -1);
      r.served_from_view = GetBoolOr(root, "served_from_view", false);
      r.optimized = GetBoolOr(root, "optimized", false);
      r.prepare_cache_hit = GetBoolOr(root, "prepare_cache_hit", false);
      r.passes_ran = static_cast<int>(GetInt64Or(root, "passes_ran", 0));
      r.queue_wait_ns = GetInt64Or(root, "queue_wait_ns", 0);
      r.prepare_ns = GetInt64Or(root, "prepare_ns", 0);
      r.execute_ns = GetInt64Or(root, "execute_ns", 0);
      r.spans = DecodeSpans(root);
      r.explain_json = GetStringOr(root, "explain", "");
      break;
    }
    case MsgType::kApplyDelta: {
      DeltaResponse& r = msg.delta;
      r.status = msg.status;
      r.trace_id = TraceIdFromHex(GetStringOr(root, "trace_id", ""));
      r.snapshot_version = GetInt64Or(root, "snapshot_version", -1);
      r.stats = DecodeMaintainStats(root);
      r.queue_wait_ns = GetInt64Or(root, "queue_wait_ns", 0);
      r.materialize_ns = GetInt64Or(root, "materialize_ns", 0);
      r.maintain_ns = GetInt64Or(root, "maintain_ns", 0);
      r.spans = DecodeSpans(root);
      break;
    }
    case MsgType::kMetrics: {
      const JsonValue* metrics = root.Find("metrics");
      if (metrics != nullptr) msg.metrics = *metrics;
      break;
    }
    case MsgType::kClose:
      break;
  }
  return msg;
}

}  // namespace reference
}  // namespace sqod

#endif  // SQOD_TESTS_PROTO_REFERENCE_H_
