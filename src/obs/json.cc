#include "src/obs/json.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <system_error>
#include <utility>

namespace sqod {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

double JsonNumber::ToDouble() const {
  double d = 0;
  const std::from_chars_result r =
      std::from_chars(token.data(), token.data() + token.size(), d);
  if (r.ec == std::errc() && r.ptr == token.data() + token.size()) return d;
  // Overflow / underflow: keep strtod's answers (+-HUGE_VAL, denormals, 0).
  return std::strtod(std::string(token).c_str(), nullptr);
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// The four hex digits at text[at..at+4), or -1.
int HexQuad(std::string_view text, size_t at) {
  int code = 0;
  for (size_t i = at; i < at + 4; ++i) {
    const int h = HexDigit(text[i]);
    if (h < 0) return -1;
    code = code * 16 + h;
  }
  return code;
}

void AppendUtf8(uint32_t code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (code >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

}  // namespace

// ------------------------------------------------------------- JsonReader

bool JsonReader::Fail(const char* what) {
  if (status_.ok()) {
    status_ = Status::InvalidArgument(std::string("json: ") + what +
                                      " at offset " + std::to_string(pos_));
  }
  return false;
}

void JsonReader::SkipWs() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

bool JsonReader::Eat(char c) {
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

bool JsonReader::BeginValue() {
  if (!status_.ok()) return false;
  if (depth_ > kMaxDepth) return Fail("nesting too deep");
  SkipWs();
  if (pos_ >= text_.size()) return Fail("unexpected end of input");
  return true;
}

bool JsonReader::Peek(Kind* kind) {
  if (!BeginValue()) return false;
  switch (text_[pos_]) {
    case '{': *kind = Kind::kObject; break;
    case '[': *kind = Kind::kArray; break;
    case '"': *kind = Kind::kString; break;
    case 't':
    case 'f': *kind = Kind::kBool; break;
    case 'n': *kind = Kind::kNull; break;
    default: *kind = Kind::kNumber; break;
  }
  return true;
}

bool JsonReader::ExpectLiteral(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) {
    return Fail("bad literal");
  }
  pos_ += literal.size();
  return true;
}

bool JsonReader::ReadNull() {
  return BeginValue() && ExpectLiteral("null");
}

bool JsonReader::ReadBool(bool* out) {
  if (!BeginValue()) return false;
  *out = text_[pos_] == 't';
  return ExpectLiteral(*out ? "true" : "false");
}

bool JsonReader::ReadNumber(JsonNumber* out) {
  if (!BeginValue()) return false;
  const size_t start = pos_;
  const bool negative = Eat('-');
  if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
    return Fail("expected value");
  }
  int64_t integer = 0;
  const size_t digits_start = pos_;
  while (pos_ < text_.size() && IsDigit(text_[pos_])) {
    if (pos_ - digits_start < 15) integer = integer * 10 + (text_[pos_] - '0');
    ++pos_;
  }
  bool is_int = pos_ - digits_start <= 15;
  if (Eat('.')) {
    is_int = false;
    if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
      return Fail("bad number");
    }
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    is_int = false;
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
      return Fail("bad number");
    }
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
  }
  out->token = text_.substr(start, pos_ - start);
  out->is_small_int = is_int;
  out->integer = is_int ? (negative ? -integer : integer) : 0;
  return true;
}

bool JsonReader::ScanString(std::string_view* out, std::string* scratch) {
  ++pos_;  // opening quote
  const size_t start = pos_;
  // Fast path: no escapes, the string is a slice of the document.
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      *out = text_.substr(start, pos_ - start);
      ++pos_;
      return true;
    }
    if (c == '\\') break;
    if (static_cast<unsigned char>(c) < 0x20) {
      return Fail("control character in string");
    }
    ++pos_;
  }
  scratch->assign(text_.substr(start, pos_ - start));
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      *out = *scratch;
      ++pos_;
      return true;
    }
    if (c == '\\') {
      ++pos_;
      if (pos_ >= text_.size()) break;
      switch (text_[pos_]) {
        case '"': scratch->push_back('"'); break;
        case '\\': scratch->push_back('\\'); break;
        case '/': scratch->push_back('/'); break;
        case 'b': scratch->push_back('\b'); break;
        case 'f': scratch->push_back('\f'); break;
        case 'n': scratch->push_back('\n'); break;
        case 'r': scratch->push_back('\r'); break;
        case 't': scratch->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 >= text_.size()) return Fail("bad \\u escape");
          const int quad = HexQuad(text_, pos_ + 1);
          if (quad < 0) return Fail("bad \\u escape");
          uint32_t code = static_cast<uint32_t>(quad);
          pos_ += 4;
          // A high surrogate directly followed by an escaped low one is one
          // code point. A lone surrogate is accepted and written as its own
          // 3-byte sequence.
          if (code >= 0xD800 && code < 0xDC00 && pos_ + 6 < text_.size() &&
              text_[pos_ + 1] == '\\' && text_[pos_ + 2] == 'u') {
            const int low = HexQuad(text_, pos_ + 3);
            if (low >= 0xDC00 && low < 0xE000) {
              code = 0x10000 + ((code - 0xD800) << 10) +
                     (static_cast<uint32_t>(low) - 0xDC00);
              pos_ += 6;
            }
          }
          AppendUtf8(code, scratch);
          break;
        }
        default:
          return Fail("bad escape");
      }
      ++pos_;
      continue;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      return Fail("control character in string");
    }
    scratch->push_back(c);
    ++pos_;
  }
  return Fail("unterminated string");
}

bool JsonReader::ReadStringView(std::string_view* out) {
  if (!BeginValue()) return false;
  if (text_[pos_] != '"') return Fail("expected string");
  return ScanString(out, &value_scratch_);
}

bool JsonReader::ReadString(std::string* out) {
  std::string_view view;
  if (!ReadStringView(&view)) return false;
  out->assign(view);
  return true;
}

bool JsonReader::EnterObject() {
  if (!BeginValue()) return false;
  if (!Eat('{')) return Fail("expected object");
  ++depth_;
  first_ = true;
  return true;
}

bool JsonReader::EnterArray() {
  if (!BeginValue()) return false;
  if (!Eat('[')) return Fail("expected array");
  ++depth_;
  first_ = true;
  return true;
}

bool JsonReader::Close(char bracket, const char* what) {
  SkipWs();
  if (Eat(bracket)) {
    --depth_;
    first_ = false;
    return false;
  }
  return Fail(what);
}

bool JsonReader::NextMember(std::string_view* key) {
  if (!status_.ok()) return false;
  SkipWs();
  if (first_) {
    first_ = false;
    if (Eat('}')) {
      --depth_;
      return false;
    }
  } else if (!Eat(',')) {
    return Close('}', "expected ',' or '}'");
  }
  SkipWs();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Fail("expected object key");
  }
  if (!ScanString(key, &key_scratch_)) return false;
  SkipWs();
  if (!Eat(':')) return Fail("expected ':'");
  return true;
}

bool JsonReader::NextElement() {
  if (!status_.ok()) return false;
  SkipWs();
  if (first_) {
    first_ = false;
    if (Eat(']')) {
      --depth_;
      return false;
    }
    return true;
  }
  if (Eat(',')) return true;
  return Close(']', "expected ',' or ']'");
}

bool JsonReader::SkipValue() {
  Kind kind;
  if (!Peek(&kind)) return false;
  switch (kind) {
    case Kind::kNull:
      return ReadNull();
    case Kind::kBool: {
      bool b;
      return ReadBool(&b);
    }
    case Kind::kNumber: {
      JsonNumber n;
      return ReadNumber(&n);
    }
    case Kind::kString: {
      std::string_view s;
      return ReadStringView(&s);
    }
    case Kind::kArray:
      if (!EnterArray()) return false;
      while (NextElement()) {
        if (!SkipValue()) return false;
      }
      return ok();
    case Kind::kObject: {
      if (!EnterObject()) return false;
      std::string_view key;
      while (NextMember(&key)) {
        if (!SkipValue()) return false;
      }
      return ok();
    }
  }
  return false;
}

bool JsonReader::Finish() {
  if (!status_.ok()) return false;
  SkipWs();
  if (pos_ != text_.size()) return Fail("trailing characters");
  return true;
}

// ------------------------------------------------------------------- DOM

bool ReadJsonValue(JsonReader* reader, JsonValue* out) {
  JsonReader::Kind kind;
  if (!reader->Peek(&kind)) return false;
  switch (kind) {
    case JsonReader::Kind::kNull:
      out->kind = JsonValue::Kind::kNull;
      return reader->ReadNull();
    case JsonReader::Kind::kBool:
      out->kind = JsonValue::Kind::kBool;
      return reader->ReadBool(&out->boolean);
    case JsonReader::Kind::kNumber: {
      JsonNumber number;
      if (!reader->ReadNumber(&number)) return false;
      out->kind = JsonValue::Kind::kNumber;
      out->number = number.ToDouble();
      return true;
    }
    case JsonReader::Kind::kString:
      out->kind = JsonValue::Kind::kString;
      return reader->ReadString(&out->string);
    case JsonReader::Kind::kArray:
      out->kind = JsonValue::Kind::kArray;
      if (!reader->EnterArray()) return false;
      while (reader->NextElement()) {
        out->array.emplace_back();
        if (!ReadJsonValue(reader, &out->array.back())) return false;
      }
      return reader->ok();
    case JsonReader::Kind::kObject: {
      out->kind = JsonValue::Kind::kObject;
      if (!reader->EnterObject()) return false;
      std::string_view key;
      while (reader->NextMember(&key)) {
        JsonValue value;
        std::string name(key);
        if (!ReadJsonValue(reader, &value)) return false;
        // The first occurrence of a duplicated key wins.
        out->object.emplace(std::move(name), std::move(value));
      }
      return reader->ok();
    }
  }
  return false;
}

Result<JsonValue> ParseJson(std::string_view text) {
  JsonReader reader(text);
  JsonValue value;
  if (!ReadJsonValue(&reader, &value) || !reader.Finish()) {
    return reader.status();
  }
  return value;
}

Status ValidateJson(std::string_view text) {
  JsonReader reader(text);
  reader.SkipValue();
  reader.Finish();
  return reader.status();
}

}  // namespace sqod
