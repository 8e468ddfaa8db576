#include "src/proto/proto.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <tuple>

#include "src/obs/context.h"

namespace sqod {

namespace {

// Exact-double range for int64s on the wire; see the header comment.
constexpr int64_t kMaxExactDouble = (int64_t{1} << 53) - 1;

void AppendQuoted(std::string_view s, std::string* out) {
  out->push_back('"');
  out->append(JsonEscape(s));
  out->push_back('"');
}

void AppendKey(std::string_view key, std::string* out) {
  AppendQuoted(key, out);
  out->push_back(':');
}

void AppendBool(bool b, std::string* out) {
  out->append(b ? "true" : "false");
}

// ---- spans: serialized so remote callers see the same per-request span
// trees an in-process Submit returns (and sqo_cli can merge Chrome traces
// from over the wire).

void AppendSpans(const std::vector<SpanRecord>& spans, std::string* out) {
  AppendKey("spans", out);
  out->push_back('[');
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i > 0) out->push_back(',');
    out->append("{\"id\":");
    AppendWireInt64(span.id, out);
    out->append(",\"parent\":");
    AppendWireInt64(span.parent_id, out);
    out->push_back(',');
    AppendKey("name", out);
    AppendQuoted(span.name, out);
    out->push_back(',');
    AppendKey("start_ns", out);
    AppendWireInt64(span.start_ns, out);
    out->push_back(',');
    AppendKey("dur_ns", out);
    AppendWireInt64(span.duration_ns, out);
    out->push_back(',');
    AppendKey("attrs", out);
    out->push_back('{');
    for (size_t a = 0; a < span.attrs.size(); ++a) {
      if (a > 0) out->push_back(',');
      AppendKey(span.attrs[a].first, out);
      AppendWireInt64(span.attrs[a].second, out);
    }
    out->append("}}");
  }
  out->push_back(']');
}

void AppendEvalStats(const EvalStats& stats, std::string* out) {
  AppendKey("stats", out);
  out->push_back('{');
  AppendKey("iterations", out);
  AppendWireInt64(stats.iterations, out);
  out->push_back(',');
  AppendKey("rule_firings", out);
  AppendWireInt64(stats.rule_firings, out);
  out->push_back(',');
  AppendKey("tuples_derived", out);
  AppendWireInt64(stats.tuples_derived, out);
  out->push_back(',');
  AppendKey("duplicate_derivations", out);
  AppendWireInt64(stats.duplicate_derivations, out);
  out->push_back(',');
  AppendKey("join_probes", out);
  AppendWireInt64(stats.join_probes, out);
  out->push_back(',');
  AppendKey("comparison_checks", out);
  AppendWireInt64(stats.comparison_checks, out);
  out->push_back('}');
}

void AppendMaintainStats(const MaintainStats& stats, std::string* out) {
  AppendKey("stats", out);
  out->push_back('{');
  AppendKey("version", out);
  AppendWireInt64(stats.version, out);
  out->push_back(',');
  AppendKey("recomputed", out);
  AppendBool(stats.recomputed, out);
  out->push_back(',');
  AppendKey("edb_inserted", out);
  AppendWireInt64(stats.edb_inserted, out);
  out->push_back(',');
  AppendKey("edb_deleted", out);
  AppendWireInt64(stats.edb_deleted, out);
  out->push_back(',');
  AppendKey("idb_inserted", out);
  AppendWireInt64(stats.idb_inserted, out);
  out->push_back(',');
  AppendKey("idb_deleted", out);
  AppendWireInt64(stats.idb_deleted, out);
  out->push_back(',');
  AppendKey("over_deleted", out);
  AppendWireInt64(stats.over_deleted, out);
  out->push_back(',');
  AppendKey("rederived", out);
  AppendWireInt64(stats.rederived, out);
  out->push_back(',');
  AppendKey("count_updates", out);
  AppendWireInt64(stats.count_updates, out);
  out->push_back(',');
  AppendKey("strata_incremental", out);
  AppendWireInt64(stats.strata_incremental, out);
  out->push_back(',');
  AppendKey("strata_recomputed", out);
  AppendWireInt64(stats.strata_recomputed, out);
  out->push_back(',');
  AppendKey("strata_skipped", out);
  AppendWireInt64(stats.strata_skipped, out);
  out->push_back(',');
  AppendKey("maintain_ns", out);
  AppendWireInt64(stats.maintain_ns, out);
  out->push_back('}');
}

// Envelope opener: {"type":"<t>","id":N  — callers append the rest.
std::string OpenEnvelope(MsgType type, uint64_t id) {
  std::string out = "{\"type\":\"";
  out.append(MsgTypeName(type));
  out.append("\",\"id\":");
  AppendWireInt64(static_cast<int64_t>(id), &out);
  return out;
}

void AppendStatus(const Status& status, std::string* out) {
  out->push_back(',');
  AppendKey("code", out);
  AppendQuoted(StatusCodeName(status.code()), out);
  if (!status.ok()) {
    out->push_back(',');
    AppendKey("error", out);
    AppendQuoted(status.message(), out);
  }
}

}  // namespace

// ------------------------------------------------------------------ frames

std::string EncodeFrame(std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  const uint32_t n = static_cast<uint32_t>(payload.size());
  frame.push_back(static_cast<char>((n >> 24) & 0xff));
  frame.push_back(static_cast<char>((n >> 16) & 0xff));
  frame.push_back(static_cast<char>((n >> 8) & 0xff));
  frame.push_back(static_cast<char>(n & 0xff));
  frame.append(payload);
  return frame;
}

Result<bool> FrameReader::Next(std::string* payload) {
  if (buf_.size() - pos_ < kFrameHeaderBytes) {
    // Compact eagerly when everything buffered has been consumed: the
    // common steady state, and it keeps the buffer from creeping.
    if (pos_ == buf_.size() && pos_ != 0) {
      buf_.clear();
      pos_ = 0;
    }
    return false;
  }
  const unsigned char* h =
      reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
  const size_t n = (size_t{h[0]} << 24) | (size_t{h[1]} << 16) |
                   (size_t{h[2]} << 8) | size_t{h[3]};
  if (n < 2) {
    return Status::InvalidArgument("malformed frame: payload of " +
                                   std::to_string(n) + " byte(s)");
  }
  if (n > max_frame_bytes_) {
    return Status::ResourceExhausted(
        "frame of " + std::to_string(n) + " bytes exceeds the limit of " +
        std::to_string(max_frame_bytes_));
  }
  if (buf_.size() - pos_ - kFrameHeaderBytes < n) return false;
  payload->assign(buf_, pos_ + kFrameHeaderBytes, n);
  pos_ += kFrameHeaderBytes + n;
  // Compact once the dead prefix dominates, so long-lived connections
  // don't accrete every frame they ever read.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

// ------------------------------------------------------------ wire helpers

void AppendWireInt64(int64_t value, std::string* out) {
  if (value >= -kMaxExactDouble && value <= kMaxExactDouble) {
    out->append(std::to_string(value));
  } else {
    out->push_back('"');
    out->append(std::to_string(value));
    out->push_back('"');
  }
}

namespace {

// WireInt64's rule for a JSON number: integral, and inside int64 (casting
// anything wider to int64 is undefined).
Status IntegralDouble(double d, int64_t* out) {
  if (std::nearbyint(d) != d) {
    return Status::InvalidArgument("expected an integer, got " +
                                   std::to_string(d));
  }
  if (!(d >= -0x1p63 && d < 0x1p63)) {
    return Status::InvalidArgument("integer out of int64 range: " +
                                   std::to_string(d));
  }
  *out = static_cast<int64_t>(d);
  return Status::Ok();
}

// WireInt64's rule for a JSON string: all of it one strtoll decimal.
Status DecimalInt64(const std::string& s, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE) {
    return Status::InvalidArgument("not a decimal int64: '" + s + "'");
  }
  *out = static_cast<int64_t>(parsed);
  return Status::Ok();
}

}  // namespace

Result<int64_t> WireInt64(const JsonValue& value) {
  int64_t out = 0;
  Status status = Status::InvalidArgument("expected an integer");
  if (value.is_number()) status = IntegralDouble(value.number, &out);
  if (value.is_string()) status = DecimalInt64(value.string, &out);
  if (!status.ok()) return status;
  return out;
}

void AppendWireValue(const Value& value, std::string* out) {
  if (value.is_int()) {
    const int64_t v = value.as_int();
    if (v >= -kMaxExactDouble && v <= kMaxExactDouble) {
      out->append(std::to_string(v));
    } else {
      out->append("{\"i\":\"");
      out->append(std::to_string(v));
      out->append("\"}");
    }
  } else {
    AppendQuoted(value.symbol_name(), out);
  }
}

Result<Value> WireValue(const JsonValue& value) {
  if (value.is_number()) {
    SQOD_ASSIGN_OR_RETURN(int64_t v, WireInt64(value));
    return Value::Int(v);
  }
  if (value.is_string()) return Value::Symbol(value.string);
  if (value.is_object()) {
    const JsonValue* i = value.Find("i");
    if (i != nullptr) {
      SQOD_ASSIGN_OR_RETURN(int64_t v, WireInt64(*i));
      return Value::Int(v);
    }
  }
  return Status::InvalidArgument("malformed value in answer tuple");
}

Result<StatusCode> StatusCodeFromName(std::string_view name) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kCancelled); ++c) {
    const StatusCode code = static_cast<StatusCode>(c);
    if (name == StatusCodeName(code)) return code;
  }
  return Status::InvalidArgument("unknown status code '" +
                                 std::string(name) + "'");
}

// ---------------------------------------------------------------- messages

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kLoadProgram: return "load_program";
    case MsgType::kQuery: return "query";
    case MsgType::kApplyDelta: return "apply_delta";
    case MsgType::kExplain: return "explain";
    case MsgType::kMetrics: return "metrics";
    case MsgType::kClose: return "close";
  }
  return "unknown";
}

Result<MsgType> MsgTypeFromName(std::string_view name) {
  for (MsgType type :
       {MsgType::kHello, MsgType::kLoadProgram, MsgType::kQuery,
        MsgType::kApplyDelta, MsgType::kExplain, MsgType::kMetrics,
        MsgType::kClose}) {
    if (name == MsgTypeName(type)) return type;
  }
  return Status::InvalidArgument("unknown message type '" +
                                 std::string(name) + "'");
}

// -------------------------------------------------------------- encode side

std::string EncodeHello(uint64_t id, const HelloParams& params) {
  std::string out = OpenEnvelope(MsgType::kHello, id);
  out.push_back(',');
  AppendKey("token", &out);
  AppendQuoted(params.token, &out);
  out.append(",\"min_version\":");
  AppendWireInt64(params.min_version, &out);
  out.append(",\"max_version\":");
  AppendWireInt64(params.max_version, &out);
  out.push_back('}');
  return out;
}

std::string EncodeLoadProgram(uint64_t id, const LoadProgramParams& params) {
  std::string out = OpenEnvelope(MsgType::kLoadProgram, id);
  out.push_back(',');
  AppendKey("session", &out);
  AppendQuoted(params.session, &out);
  out.push_back(',');
  AppendKey("source", &out);
  AppendQuoted(params.source, &out);
  out.push_back('}');
  return out;
}

std::string EncodeQuery(uint64_t id, const QueryParams& params) {
  std::string out = OpenEnvelope(MsgType::kQuery, id);
  if (!params.session.empty()) {
    out.push_back(',');
    AppendKey("session", &out);
    AppendQuoted(params.session, &out);
  }
  if (!params.source.empty()) {
    out.push_back(',');
    AppendKey("source", &out);
    AppendQuoted(params.source, &out);
  }
  out.append(",\"deadline_ms\":");
  AppendWireInt64(params.deadline_ms, &out);
  out.append(",\"materialized\":");
  AppendBool(params.materialized, &out);
  out.append(",\"trace\":");
  AppendBool(params.trace, &out);
  out.append(",\"explain\":");
  AppendBool(params.explain, &out);
  if (!params.disabled_passes.empty()) {
    out.push_back(',');
    AppendKey("disabled_passes", &out);
    out.push_back('[');
    for (size_t i = 0; i < params.disabled_passes.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendQuoted(params.disabled_passes[i], &out);
    }
    out.push_back(']');
  }
  out.push_back('}');
  return out;
}

std::string EncodeExplain(uint64_t id, const std::string& session) {
  std::string out = OpenEnvelope(MsgType::kExplain, id);
  out.push_back(',');
  AppendKey("session", &out);
  AppendQuoted(session, &out);
  out.push_back('}');
  return out;
}

std::string EncodeApplyDelta(uint64_t id, const ApplyDeltaParams& params) {
  std::string out = OpenEnvelope(MsgType::kApplyDelta, id);
  out.push_back(',');
  AppendKey("session", &out);
  AppendQuoted(params.session, &out);
  for (const auto& [key, facts] :
       {std::pair<const char*, const std::vector<std::string>*>(
            "inserts", &params.inserts),
        std::pair<const char*, const std::vector<std::string>*>(
            "deletes", &params.deletes)}) {
    out.push_back(',');
    AppendKey(key, &out);
    out.push_back('[');
    for (size_t i = 0; i < facts->size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendQuoted((*facts)[i], &out);
    }
    out.push_back(']');
  }
  out.append(",\"trace\":");
  AppendBool(params.trace, &out);
  out.push_back('}');
  return out;
}

std::string EncodeMetricsRequest(uint64_t id) {
  std::string out = OpenEnvelope(MsgType::kMetrics, id);
  out.push_back('}');
  return out;
}

std::string EncodeClose(uint64_t id) {
  std::string out = OpenEnvelope(MsgType::kClose, id);
  out.push_back('}');
  return out;
}

std::string EncodeHelloResponse(uint64_t id, const HelloResult& result) {
  std::string out = OpenEnvelope(MsgType::kHello, id);
  AppendStatus(Status::Ok(), &out);
  out.append(",\"version\":");
  AppendWireInt64(result.version, &out);
  out.push_back(',');
  AppendKey("tenant", &out);
  AppendQuoted(result.tenant, &out);
  out.push_back(',');
  AppendKey("server", &out);
  AppendQuoted(result.server, &out);
  out.append(",\"max_frame_bytes\":");
  AppendWireInt64(result.max_frame_bytes, &out);
  out.push_back('}');
  return out;
}

std::string EncodeLoadProgramResponse(uint64_t id, const Response& response) {
  std::string out = OpenEnvelope(MsgType::kLoadProgram, id);
  AppendStatus(response.status, &out);
  out.push_back(',');
  AppendKey("trace_id", &out);
  AppendQuoted(TraceIdHex(response.trace_id), &out);
  out.push_back('}');
  return out;
}

std::string EncodeQueryResponse(uint64_t id, MsgType type,
                                const Response& response) {
  std::string out = OpenEnvelope(type, id);
  AppendStatus(response.status, &out);
  out.push_back(',');
  AppendKey("trace_id", &out);
  AppendQuoted(TraceIdHex(response.trace_id), &out);
  if (response.status.ok()) {
    out.push_back(',');
    AppendKey("answers", &out);
    out.push_back('[');
    for (size_t i = 0; i < response.answers.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.push_back('[');
      const Tuple& tuple = response.answers[i];
      for (size_t j = 0; j < tuple.size(); ++j) {
        if (j > 0) out.push_back(',');
        AppendWireValue(tuple[j], &out);
      }
      out.push_back(']');
    }
    out.push_back(']');
    out.push_back(',');
    AppendEvalStats(response.stats, &out);
  }
  out.append(",\"snapshot_version\":");
  AppendWireInt64(response.snapshot_version, &out);
  out.append(",\"served_from_view\":");
  AppendBool(response.served_from_view, &out);
  out.append(",\"optimized\":");
  AppendBool(response.optimized, &out);
  out.append(",\"prepare_cache_hit\":");
  AppendBool(response.prepare_cache_hit, &out);
  out.append(",\"passes_ran\":");
  AppendWireInt64(response.passes_ran, &out);
  out.append(",\"queue_wait_ns\":");
  AppendWireInt64(response.queue_wait_ns, &out);
  out.append(",\"prepare_ns\":");
  AppendWireInt64(response.prepare_ns, &out);
  out.append(",\"execute_ns\":");
  AppendWireInt64(response.execute_ns, &out);
  if (!response.spans.empty()) {
    out.push_back(',');
    AppendSpans(response.spans, &out);
  }
  if (!response.explain_json.empty()) {
    out.push_back(',');
    AppendKey("explain", &out);
    AppendQuoted(response.explain_json, &out);
  }
  out.push_back('}');
  return out;
}

std::string EncodeApplyDeltaResponse(uint64_t id,
                                     const DeltaResponse& response) {
  std::string out = OpenEnvelope(MsgType::kApplyDelta, id);
  AppendStatus(response.status, &out);
  out.push_back(',');
  AppendKey("trace_id", &out);
  AppendQuoted(TraceIdHex(response.trace_id), &out);
  out.append(",\"snapshot_version\":");
  AppendWireInt64(response.snapshot_version, &out);
  if (response.status.ok()) {
    out.push_back(',');
    AppendMaintainStats(response.stats, &out);
  }
  out.append(",\"queue_wait_ns\":");
  AppendWireInt64(response.queue_wait_ns, &out);
  out.append(",\"materialize_ns\":");
  AppendWireInt64(response.materialize_ns, &out);
  out.append(",\"maintain_ns\":");
  AppendWireInt64(response.maintain_ns, &out);
  if (!response.spans.empty()) {
    out.push_back(',');
    AppendSpans(response.spans, &out);
  }
  out.push_back('}');
  return out;
}

std::string EncodeMetricsResponse(uint64_t id,
                                  const std::string& metrics_json) {
  std::string out = OpenEnvelope(MsgType::kMetrics, id);
  AppendStatus(Status::Ok(), &out);
  out.push_back(',');
  AppendKey("metrics", &out);
  out.append(metrics_json);
  out.push_back('}');
  return out;
}

std::string EncodeCloseResponse(uint64_t id) {
  std::string out = OpenEnvelope(MsgType::kClose, id);
  AppendStatus(Status::Ok(), &out);
  out.push_back('}');
  return out;
}

std::string EncodeErrorResponse(uint64_t id, MsgType type,
                                const Status& status) {
  std::string out = OpenEnvelope(type, id);
  AppendStatus(status, &out);
  out.push_back('}');
  return out;
}

// -------------------------------------------------------------- decode side
//
// Both decoders walk the payload once with JsonReader; no DOM is built
// except for the metrics reply body. The field rules (docs/protocol.md):
// members come in any order, the first occurrence of a duplicated key wins
// (later ones are syntax-checked and dropped), unknown members are
// syntax-checked and skipped, and an optional member of the wrong type
// keeps its default. Semantic errors are reported only after the whole
// payload parsed, in a fixed order (type, id, then the fields of that
// type), so a syntax error anywhere takes precedence.

namespace {

using Kind = JsonReader::Kind;

Status MissingField(std::string_view key) {
  return Status::InvalidArgument("missing or mis-typed field '" +
                                 std::string(key) + "'");
}

// The index of `key` in `names`, or -1 when it is unknown or was seen
// before in this object (the first occurrence wins).
template <size_t N>
int FieldIndex(std::string_view key, const std::string_view (&names)[N],
               uint64_t* seen) {
  static_assert(N <= 64);
  for (size_t i = 0; i < N; ++i) {
    if (key != names[i]) continue;
    const uint64_t bit = uint64_t{1} << i;
    if (*seen & bit) return -1;
    *seen |= bit;
    return static_cast<int>(i);
  }
  return -1;
}

// Reads the next value under WireInt64's rule. Returns false only when the
// payload is malformed; otherwise *error says whether *out is a wire int.
bool ReadWireInt64(JsonReader* r, int64_t* out, Status* error) {
  Kind kind;
  if (!r->Peek(&kind)) return false;
  if (kind == Kind::kNumber) {
    JsonNumber number;
    if (!r->ReadNumber(&number)) return false;
    if (number.is_small_int) {
      *out = number.integer;
      *error = Status::Ok();
    } else {
      *error = IntegralDouble(number.ToDouble(), out);
    }
    return true;
  }
  if (kind == Kind::kString) {
    std::string_view text;
    if (!r->ReadStringView(&text)) return false;
    *error = DecimalInt64(std::string(text), out);
    return true;
  }
  *error = Status::InvalidArgument("expected an integer");
  return r->SkipValue();
}

// ReadTyped reads the next value into *out when it has *out's wire type (a
// string, a bool, a wire int) and returns true; any other value is skipped
// and leaves *out alone.
bool ReadTyped(JsonReader* r, std::string* out) {
  Kind kind;
  if (!r->Peek(&kind)) return false;
  if (kind != Kind::kString) {
    r->SkipValue();
    return false;
  }
  return r->ReadString(out);
}

bool ReadTyped(JsonReader* r, bool* out) {
  Kind kind;
  if (!r->Peek(&kind)) return false;
  if (kind != Kind::kBool) {
    r->SkipValue();
    return false;
  }
  return r->ReadBool(out);
}

bool ReadTyped(JsonReader* r, int64_t* out) {
  int64_t value = 0;
  Status error;
  if (!ReadWireInt64(r, &value, &error) || !error.ok()) return false;
  *out = value;
  return true;
}

template <typename T>
void ReadTyped(JsonReader* r, std::optional<T>* out) {
  T value{};
  if (ReadTyped(r, &value)) *out = std::move(value);
}

// A member holding a list of strings (disabled_passes, inserts, deletes).
struct StringList {
  enum State { kAbsent, kOk, kNotArray, kBadItem } state = kAbsent;
  std::vector<std::string> items;
};

void ReadStringList(JsonReader* r, StringList* out) {
  Kind kind;
  if (!r->Peek(&kind)) return;
  if (kind != Kind::kArray) {
    out->state = StringList::kNotArray;
    r->SkipValue();
    return;
  }
  out->state = StringList::kOk;
  r->EnterArray();
  while (r->NextElement()) {
    std::string item;
    if (!ReadTyped(r, &item)) {
      out->state = StringList::kBadItem;
    } else if (out->state == StringList::kOk) {
      out->items.push_back(std::move(item));
    }
  }
}

// Reads one answer cell under WireValue's rule. Returns false only when the
// payload is malformed; a well-formed cell that is no wire value sets
// *error.
bool ReadWireValue(JsonReader* r, Value* out, Status* error) {
  Kind kind;
  if (!r->Peek(&kind)) return false;
  switch (kind) {
    case Kind::kNumber: {
      JsonNumber number;
      if (!r->ReadNumber(&number)) return false;
      if (number.is_small_int) {
        *out = Value::Int(number.integer);
        return true;
      }
      int64_t v = 0;
      *error = IntegralDouble(number.ToDouble(), &v);
      *out = Value::Int(v);
      return true;
    }
    case Kind::kString: {
      std::string_view name;
      if (!r->ReadStringView(&name)) return false;
      *out = Value::Symbol(name);
      return true;
    }
    case Kind::kObject: {
      // {"i": <wire int>}, the form of ints outside the exact-double range;
      // other members are ignored.
      bool found = false;
      int64_t v = 0;
      Status int_error;
      std::string_view key;
      r->EnterObject();
      while (r->NextMember(&key)) {
        if (key == "i" && !found) {
          found = true;
          if (!ReadWireInt64(r, &v, &int_error)) return false;
        } else if (!r->SkipValue()) {
          return false;
        }
      }
      if (!r->ok()) return false;
      if (!found) {
        *error = Status::InvalidArgument("malformed value in answer tuple");
      } else if (!int_error.ok()) {
        *error = std::move(int_error);
      } else {
        *out = Value::Int(v);
      }
      return true;
    }
    default:
      *error = Status::InvalidArgument("malformed value in answer tuple");
      return r->SkipValue();
  }
}

// The answers member: rows decode straight into tuples. A non-array is
// ignored; the first malformed row or cell lands in *error, and the rest is
// only syntax-checked.
void ReadAnswers(JsonReader* r, std::vector<Tuple>* out, Status* error) {
  Kind kind;
  if (!r->Peek(&kind)) return;
  if (kind != Kind::kArray) {
    r->SkipValue();
    return;
  }
  size_t arity = 0;
  r->EnterArray();
  while (r->NextElement()) {
    if (!error->ok()) {
      r->SkipValue();
      continue;
    }
    if (!r->Peek(&kind)) return;
    if (kind != Kind::kArray) {
      *error = Status::InvalidArgument("answer row is not an array");
      r->SkipValue();
      continue;
    }
    Tuple tuple;
    tuple.reserve(arity);
    r->EnterArray();
    while (r->NextElement()) {
      Value value;
      if (!error->ok()) {
        r->SkipValue();
      } else if (ReadWireValue(r, &value, error)) {
        tuple.push_back(value);
      }
    }
    arity = tuple.size();
    out->push_back(std::move(tuple));
  }
}

// Span attributes, sorted by key as a parsed JsonValue object holds them:
// the first of duplicated keys wins, and entries that are no wire int are
// dropped.
void ReadSpanAttrs(JsonReader* r,
                   std::vector<std::pair<std::string, int64_t>>* attrs) {
  Kind kind;
  if (!r->Peek(&kind)) return;
  if (kind != Kind::kObject) {
    r->SkipValue();
    return;
  }
  std::vector<std::pair<std::string, std::optional<int64_t>>> entries;
  std::string_view key;
  r->EnterObject();
  while (r->NextMember(&key)) {
    entries.emplace_back(std::string(key), std::nullopt);
    ReadTyped(r, &entries.back().second);
  }
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < entries.size();) {
    size_t run = i + 1;
    while (run < entries.size() && entries[run].first == entries[i].first) {
      ++run;
    }
    if (entries[i].second) {
      attrs->emplace_back(std::move(entries[i].first), *entries[i].second);
    }
    i = run;
  }
}

enum SpanField { kSpanId, kSpanParent, kSpanName, kSpanStart, kSpanDur,
                 kSpanAttrs };
constexpr std::string_view kSpanFields[] = {"id",       "parent", "name",
                                            "start_ns", "dur_ns", "attrs"};

// The spans member; entries that are not objects are skipped.
void ReadSpans(JsonReader* r, std::vector<SpanRecord>* spans) {
  Kind kind;
  if (!r->Peek(&kind)) return;
  if (kind != Kind::kArray) {
    r->SkipValue();
    return;
  }
  r->EnterArray();
  while (r->NextElement()) {
    if (!r->Peek(&kind)) return;
    if (kind != Kind::kObject) {
      r->SkipValue();
      continue;
    }
    SpanRecord span;
    uint64_t seen = 0;
    int64_t v = 0;
    std::string_view key;
    r->EnterObject();
    while (r->NextMember(&key)) {
      switch (FieldIndex(key, kSpanFields, &seen)) {
        case kSpanId:
          if (ReadTyped(r, &v)) span.id = static_cast<int>(v);
          break;
        case kSpanParent:
          if (ReadTyped(r, &v)) span.parent_id = static_cast<int>(v);
          break;
        case kSpanName: ReadTyped(r, &span.name); break;
        case kSpanStart: ReadTyped(r, &span.start_ns); break;
        case kSpanDur: ReadTyped(r, &span.duration_ns); break;
        case kSpanAttrs: ReadSpanAttrs(r, &span.attrs); break;
        default: r->SkipValue(); break;
      }
    }
    spans->push_back(std::move(span));
  }
}

// The stats member: EvalStats keys (query replies) and MaintainStats keys
// (delta replies) are disjoint, so one pass fills both and the message
// type, which may come later, picks one.
enum StatsField {
  kIterations, kRuleFirings, kTuplesDerived, kDuplicateDerivations,
  kJoinProbes, kComparisonChecks, kVersion, kRecomputed, kEdbInserted,
  kEdbDeleted, kIdbInserted, kIdbDeleted, kOverDeleted, kRederived,
  kCountUpdates, kStrataIncremental, kStrataRecomputed, kStrataSkipped,
  kMaintainNs
};
constexpr std::string_view kStatsFields[] = {
    "iterations",         "rule_firings",      "tuples_derived",
    "duplicate_derivations", "join_probes",    "comparison_checks",
    "version",            "recomputed",        "edb_inserted",
    "edb_deleted",        "idb_inserted",      "idb_deleted",
    "over_deleted",       "rederived",         "count_updates",
    "strata_incremental", "strata_recomputed", "strata_skipped",
    "maintain_ns"};

void ReadStats(JsonReader* r, EvalStats* eval, MaintainStats* maintain) {
  Kind kind;
  if (!r->Peek(&kind)) return;
  if (kind != Kind::kObject) {
    r->SkipValue();
    return;
  }
  uint64_t seen = 0;
  int64_t v = 0;
  std::string_view key;
  r->EnterObject();
  while (r->NextMember(&key)) {
    switch (FieldIndex(key, kStatsFields, &seen)) {
      case kIterations: ReadTyped(r, &eval->iterations); break;
      case kRuleFirings: ReadTyped(r, &eval->rule_firings); break;
      case kTuplesDerived: ReadTyped(r, &eval->tuples_derived); break;
      case kDuplicateDerivations:
        ReadTyped(r, &eval->duplicate_derivations);
        break;
      case kJoinProbes: ReadTyped(r, &eval->join_probes); break;
      case kComparisonChecks: ReadTyped(r, &eval->comparison_checks); break;
      case kVersion: ReadTyped(r, &maintain->version); break;
      case kRecomputed: ReadTyped(r, &maintain->recomputed); break;
      case kEdbInserted: ReadTyped(r, &maintain->edb_inserted); break;
      case kEdbDeleted: ReadTyped(r, &maintain->edb_deleted); break;
      case kIdbInserted: ReadTyped(r, &maintain->idb_inserted); break;
      case kIdbDeleted: ReadTyped(r, &maintain->idb_deleted); break;
      case kOverDeleted: ReadTyped(r, &maintain->over_deleted); break;
      case kRederived: ReadTyped(r, &maintain->rederived); break;
      case kCountUpdates: ReadTyped(r, &maintain->count_updates); break;
      case kStrataIncremental:
        if (ReadTyped(r, &v)) {
          maintain->strata_incremental = static_cast<int>(v);
        }
        break;
      case kStrataRecomputed:
        if (ReadTyped(r, &v)) {
          maintain->strata_recomputed = static_cast<int>(v);
        }
        break;
      case kStrataSkipped:
        if (ReadTyped(r, &v)) {
          maintain->strata_skipped = static_cast<int>(v);
        }
        break;
      case kMaintainNs: ReadTyped(r, &maintain->maintain_ns); break;
      default: r->SkipValue(); break;
    }
  }
}

// Opens the payload's root object. Returns false with *status set when the
// payload is malformed or not an object (`what` names the payload).
bool EnterRoot(JsonReader* r, const char* what, Status* status) {
  Kind kind;
  if (r->Peek(&kind) && kind == Kind::kObject) return r->EnterObject();
  if (r->SkipValue() && r->Finish()) {
    *status = Status::InvalidArgument(std::string(what) +
                                      " payload is not a JSON object");
  } else {
    *status = r->status();
  }
  return false;
}

enum ClientField {
  kCType, kCId, kCToken, kCMinVersion, kCMaxVersion, kCSession, kCSource,
  kCDeadlineMs, kCMaterialized, kCTrace, kCExplain, kCDisabledPasses,
  kCInserts, kCDeletes
};
constexpr std::string_view kClientFields[] = {
    "type",       "id",      "token",           "min_version", "max_version",
    "session",    "source",  "deadline_ms",     "materialized", "trace",
    "explain",    "disabled_passes", "inserts", "deletes"};

}  // namespace

Result<ClientMessage> DecodeClientMessage(std::string_view payload) {
  JsonReader r(payload);
  Status root_status;
  if (!EnterRoot(&r, "request", &root_status)) return root_status;

  std::optional<std::string> type, token, session, source;
  std::optional<int64_t> id, min_version, max_version, deadline_ms;
  std::optional<bool> materialized, trace, explain;
  StringList disabled_passes, inserts, deletes;
  uint64_t seen = 0;
  std::string_view key;
  while (r.NextMember(&key)) {
    switch (FieldIndex(key, kClientFields, &seen)) {
      case kCType: ReadTyped(&r, &type); break;
      case kCId: ReadTyped(&r, &id); break;
      case kCToken: ReadTyped(&r, &token); break;
      case kCMinVersion: ReadTyped(&r, &min_version); break;
      case kCMaxVersion: ReadTyped(&r, &max_version); break;
      case kCSession: ReadTyped(&r, &session); break;
      case kCSource: ReadTyped(&r, &source); break;
      case kCDeadlineMs: ReadTyped(&r, &deadline_ms); break;
      case kCMaterialized: ReadTyped(&r, &materialized); break;
      case kCTrace: ReadTyped(&r, &trace); break;
      case kCExplain: ReadTyped(&r, &explain); break;
      case kCDisabledPasses: ReadStringList(&r, &disabled_passes); break;
      case kCInserts: ReadStringList(&r, &inserts); break;
      case kCDeletes: ReadStringList(&r, &deletes); break;
      default: r.SkipValue(); break;
    }
  }
  if (!r.Finish()) return r.status();

  ClientMessage msg;
  if (!type) return MissingField("type");
  SQOD_ASSIGN_OR_RETURN(msg.type, MsgTypeFromName(*type));
  if (!id) return MissingField("id");
  msg.id = static_cast<uint64_t>(*id);

  switch (msg.type) {
    case MsgType::kHello: {
      msg.hello.token = token.value_or("");
      msg.hello.min_version =
          static_cast<int>(min_version.value_or(kProtoVersionMin));
      msg.hello.max_version =
          static_cast<int>(max_version.value_or(msg.hello.min_version));
      break;
    }
    case MsgType::kLoadProgram: {
      if (!session) return MissingField("session");
      if (!source) return MissingField("source");
      msg.load.session = std::move(*session);
      msg.load.source = std::move(*source);
      break;
    }
    case MsgType::kQuery: {
      msg.query.session = session.value_or("");
      msg.query.source = source.value_or("");
      if (msg.query.session.empty() == msg.query.source.empty()) {
        return Status::InvalidArgument(
            "query needs exactly one of 'session' or 'source'");
      }
      msg.query.deadline_ms = deadline_ms.value_or(-1);
      msg.query.materialized = materialized.value_or(false);
      msg.query.trace = trace.value_or(false);
      msg.query.explain = explain.value_or(false);
      if (disabled_passes.state != StringList::kAbsent &&
          disabled_passes.state != StringList::kOk) {
        return MissingField("disabled_passes");
      }
      msg.query.disabled_passes = std::move(disabled_passes.items);
      break;
    }
    case MsgType::kExplain: {
      if (!session) return MissingField("session");
      msg.query.session = std::move(*session);
      msg.query.explain = true;
      break;
    }
    case MsgType::kApplyDelta: {
      if (!session) return MissingField("session");
      msg.delta.session = std::move(*session);
      for (auto [key_name, list, into] :
           {std::make_tuple("inserts", &inserts, &msg.delta.inserts),
            std::make_tuple("deletes", &deletes, &msg.delta.deletes)}) {
        if (list->state == StringList::kNotArray) return MissingField(key_name);
        if (list->state == StringList::kBadItem) {
          return Status::InvalidArgument(std::string(key_name) +
                                         " entries must be fact strings");
        }
        *into = std::move(list->items);
      }
      msg.delta.trace = trace.value_or(false);
      break;
    }
    case MsgType::kMetrics:
    case MsgType::kClose:
      break;
  }
  return msg;
}

namespace {

enum ServerField {
  kSType, kSId, kSCode, kSError, kSVersion, kSTenant, kSServer,
  kSMaxFrameBytes, kSTraceId, kSAnswers, kSStats, kSSnapshotVersion,
  kSServedFromView, kSOptimized, kSPrepareCacheHit, kSPassesRan,
  kSQueueWaitNs, kSPrepareNs, kSExecuteNs, kSMaterializeNs, kSMaintainNs,
  kSSpans, kSExplain, kSMetrics
};
constexpr std::string_view kServerFields[] = {
    "type",          "id",           "code",          "error",
    "version",       "tenant",       "server",        "max_frame_bytes",
    "trace_id",      "answers",      "stats",         "snapshot_version",
    "served_from_view", "optimized", "prepare_cache_hit", "passes_ran",
    "queue_wait_ns", "prepare_ns",   "execute_ns",    "materialize_ns",
    "maintain_ns",   "spans",        "explain",       "metrics"};

// The reply's status from its code/error members; a missing or unknown
// code becomes the status itself, not a decode failure.
Status ReplyStatus(const std::optional<std::string>& code,
                   const std::optional<std::string>& error) {
  if (!code) return MissingField("code");
  Result<StatusCode> parsed = StatusCodeFromName(*code);
  if (!parsed.ok()) return parsed.status();
  if (parsed.value() == StatusCode::kOk) return Status::Ok();
  return Status::Error(parsed.value(), error.value_or(""));
}

}  // namespace

Result<ServerMessage> DecodeServerMessage(std::string_view payload) {
  JsonReader r(payload);
  Status root_status;
  if (!EnterRoot(&r, "response", &root_status)) return root_status;

  std::optional<std::string> type, code, error, tenant, server, trace_id,
      explain;
  std::optional<int64_t> id, version, max_frame_bytes, snapshot_version,
      passes_ran, queue_wait_ns, prepare_ns, execute_ns, materialize_ns,
      maintain_ns;
  std::optional<bool> served_from_view, optimized, prepare_cache_hit;
  std::vector<Tuple> answers;
  Status answers_error;
  EvalStats eval_stats;
  MaintainStats maintain_stats;
  std::vector<SpanRecord> spans;
  std::optional<JsonValue> metrics;
  uint64_t seen = 0;
  std::string_view key;
  while (r.NextMember(&key)) {
    switch (FieldIndex(key, kServerFields, &seen)) {
      case kSType: ReadTyped(&r, &type); break;
      case kSId: ReadTyped(&r, &id); break;
      case kSCode: ReadTyped(&r, &code); break;
      case kSError: ReadTyped(&r, &error); break;
      case kSVersion: ReadTyped(&r, &version); break;
      case kSTenant: ReadTyped(&r, &tenant); break;
      case kSServer: ReadTyped(&r, &server); break;
      case kSMaxFrameBytes: ReadTyped(&r, &max_frame_bytes); break;
      case kSTraceId: ReadTyped(&r, &trace_id); break;
      case kSAnswers: ReadAnswers(&r, &answers, &answers_error); break;
      case kSStats: ReadStats(&r, &eval_stats, &maintain_stats); break;
      case kSSnapshotVersion: ReadTyped(&r, &snapshot_version); break;
      case kSServedFromView: ReadTyped(&r, &served_from_view); break;
      case kSOptimized: ReadTyped(&r, &optimized); break;
      case kSPrepareCacheHit: ReadTyped(&r, &prepare_cache_hit); break;
      case kSPassesRan: ReadTyped(&r, &passes_ran); break;
      case kSQueueWaitNs: ReadTyped(&r, &queue_wait_ns); break;
      case kSPrepareNs: ReadTyped(&r, &prepare_ns); break;
      case kSExecuteNs: ReadTyped(&r, &execute_ns); break;
      case kSMaterializeNs: ReadTyped(&r, &materialize_ns); break;
      case kSMaintainNs: ReadTyped(&r, &maintain_ns); break;
      case kSSpans: ReadSpans(&r, &spans); break;
      case kSExplain: ReadTyped(&r, &explain); break;
      case kSMetrics:
        ReadJsonValue(&r, &metrics.emplace());
        break;
      default: r.SkipValue(); break;
    }
  }
  if (!r.Finish()) return r.status();

  ServerMessage msg;
  if (!type) return MissingField("type");
  SQOD_ASSIGN_OR_RETURN(msg.type, MsgTypeFromName(*type));
  if (!id) return MissingField("id");
  msg.id = static_cast<uint64_t>(*id);
  msg.status = ReplyStatus(code, error);

  switch (msg.type) {
    case MsgType::kHello: {
      msg.hello.version = static_cast<int>(version.value_or(0));
      msg.hello.tenant = tenant.value_or("");
      msg.hello.server = server.value_or("");
      msg.hello.max_frame_bytes = max_frame_bytes.value_or(0);
      break;
    }
    case MsgType::kLoadProgram: {
      msg.query.status = msg.status;
      msg.query.trace_id = TraceIdFromHex(trace_id.value_or(""));
      break;
    }
    case MsgType::kQuery:
    case MsgType::kExplain: {
      if (!answers_error.ok()) return answers_error;
      Response& q = msg.query;
      q.status = msg.status;
      q.trace_id = TraceIdFromHex(trace_id.value_or(""));
      q.answers = std::move(answers);
      q.stats = eval_stats;
      q.snapshot_version = snapshot_version.value_or(-1);
      q.served_from_view = served_from_view.value_or(false);
      q.optimized = optimized.value_or(false);
      q.prepare_cache_hit = prepare_cache_hit.value_or(false);
      q.passes_ran = static_cast<int>(passes_ran.value_or(0));
      q.queue_wait_ns = queue_wait_ns.value_or(0);
      q.prepare_ns = prepare_ns.value_or(0);
      q.execute_ns = execute_ns.value_or(0);
      q.spans = std::move(spans);
      q.explain_json = explain.value_or("");
      break;
    }
    case MsgType::kApplyDelta: {
      DeltaResponse& d = msg.delta;
      d.status = msg.status;
      d.trace_id = TraceIdFromHex(trace_id.value_or(""));
      d.snapshot_version = snapshot_version.value_or(-1);
      d.stats = maintain_stats;
      d.queue_wait_ns = queue_wait_ns.value_or(0);
      d.materialize_ns = materialize_ns.value_or(0);
      d.maintain_ns = maintain_ns.value_or(0);
      d.spans = std::move(spans);
      break;
    }
    case MsgType::kMetrics: {
      if (metrics) msg.metrics = std::move(*metrics);
      break;
    }
    case MsgType::kClose:
      break;
  }
  return msg;
}

}  // namespace sqod
