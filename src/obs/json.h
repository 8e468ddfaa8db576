#ifndef SQOD_OBS_JSON_H_
#define SQOD_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"

namespace sqod {

// A deliberately minimal JSON layer: one tokenizer (JsonReader) that the
// wire decoders walk field by field, plus a small DOM (JsonValue) built on
// it for the exporters' round trips (tests, the CLI --check-json flag, the
// CTest smoke test, the metrics reply). Zero dependencies; not a
// general-purpose library.

// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
std::string JsonEscape(std::string_view s);

// A parsed JSON value. Numbers are kept as doubles (sufficient for the
// exporters, which emit at most ns-scale integers < 2^53).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  // Object member access; returns nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

// One number token as JsonReader scanned it. An integer literal of at most
// 15 digits (no fraction, no exponent) also carries its exact value, so
// callers that want an integer skip the double conversion.
struct JsonNumber {
  std::string_view token;
  bool is_small_int = false;
  int64_t integer = 0;

  // The token's value as strtod would give it (from_chars; strtod only for
  // the out-of-range tokens from_chars refuses).
  double ToDouble() const;
};

// A single-pass pull reader over one JSON document. It validates as it
// goes and never builds a tree: callers ask for the next value's kind and
// then read it (ReadString, ReadNumber, ...), enter it (EnterObject /
// EnterArray, then NextMember / NextElement until they return false), or
// SkipValue it. Every call returns false once the document is malformed,
// and status() then carries the error with its byte offset; the first
// error sticks. Call Finish() after the top-level value to reject trailing
// characters.
//
// Grammar and limits are those of ParseJson, which is built on this
// reader: a value nested inside more than kMaxDepth containers is an
// error, duplicate object keys are reported as they come, and \u escapes
// decode to UTF-8 (a valid surrogate pair to one 4-byte sequence, a lone
// surrogate to its 3-byte form).
class JsonReader {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  static constexpr int kMaxDepth = 200;

  explicit JsonReader(std::string_view text) : text_(text) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  // The kind of the next value, consuming only whitespace. A character that
  // starts no value reports kNumber; reading it then fails.
  bool Peek(Kind* kind);

  bool ReadNull();
  bool ReadBool(bool* out);
  bool ReadNumber(JsonNumber* out);
  // Replaces *out with the unescaped string.
  bool ReadString(std::string* out);
  // The unescaped string as a view into the document when it has no
  // escapes, else into a buffer the next string read overwrites.
  bool ReadStringView(std::string_view* out);

  // Containers: Enter consumes the opening bracket; NextMember /
  // NextElement return true while another member / element follows (after
  // NextMember, *key is the member's unescaped name, valid until the next
  // key is read) and false at the closing bracket or on error. The caller
  // reads or skips exactly one value per true.
  bool EnterObject();
  bool NextMember(std::string_view* key);
  bool EnterArray();
  bool NextElement();

  // Consumes one value of any kind, checking its syntax and nesting.
  bool SkipValue();

  // Rejects anything but whitespace after the top-level value.
  bool Finish();

 private:
  bool Fail(const char* what);
  void SkipWs();
  bool Eat(char c);
  // Depth check + whitespace + end-of-input check at the start of a value.
  bool BeginValue();
  bool ExpectLiteral(std::string_view literal);
  bool ScanString(std::string_view* out, std::string* scratch);
  bool Close(char bracket, const char* what);

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;      // containers currently open
  bool first_ = false;  // just entered a container: no member read yet
  Status status_;
  std::string key_scratch_;
  std::string value_scratch_;
};

// Builds the DOM of the reader's next value; false when it is malformed
// (reader->status() says why).
bool ReadJsonValue(JsonReader* reader, JsonValue* out);

// Parses a complete JSON document (trailing whitespace allowed, trailing
// garbage is an error). Errors carry a byte offset.
Result<JsonValue> ParseJson(std::string_view text);

// Syntax-only check: ParseJson's verdict, without building the DOM.
Status ValidateJson(std::string_view text);

}  // namespace sqod

#endif  // SQOD_OBS_JSON_H_
