// Minimal JSON emit / parse support for the telemetry layer.
//
// JsonWriter is a streaming builder producing a compact, deterministic
// document (keys are emitted in the order the caller writes them; doubles
// round-trip via shortest-form formatting). JsonValue/ParseJson is the
// matching reader — just enough JSON to let tests and tools load a
// RunReport back without an external dependency.
#ifndef PIVOTSCALE_UTIL_JSON_WRITER_H_
#define PIVOTSCALE_UTIL_JSON_WRITER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pivotscale {

// Streaming JSON builder. Usage:
//   JsonWriter w;
//   w.BeginObject();
//   w.Key("total"); w.Value(std::uint64_t{42});
//   w.Key("values"); w.BeginArray(); ... w.EndArray();
//   w.EndObject();
//   std::string doc = w.str();
// Nesting is tracked; mismatched Begin/End or a Key outside an object
// throws std::logic_error so malformed documents fail at write time.
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  // Emits an object key; must be inside an object, before the value.
  void Key(const std::string& name);

  void Value(const std::string& s);
  void Value(const char* s);
  void Value(double d);
  void Value(std::uint64_t u);
  void Value(std::int64_t i);
  void Value(int i) { Value(static_cast<std::int64_t>(i)); }
  void Value(bool b);
  void Null();

  // The finished document. Throws std::logic_error if containers are
  // still open.
  std::string str() const;

  // Escapes `s` as a JSON string literal (with surrounding quotes).
  static std::string Escape(const std::string& s);

 private:
  enum class Frame { kObject, kArray };
  void Comma();
  void OnValue();

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_;   // parallel to stack_: no comma needed yet
  bool key_pending_ = false;  // a Key() was written, value expected
};

// A parsed JSON document. Numbers are stored as double (telemetry counters
// fit exactly up to 2^53, far beyond what a run report holds).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool bool_value = false;
  double number = 0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool IsObject() const { return type == Type::kObject; }
  bool IsArray() const { return type == Type::kArray; }
  bool IsNumber() const { return type == Type::kNumber; }
  bool IsString() const { return type == Type::kString; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

// Parses a complete JSON document. Throws std::runtime_error (with a byte
// offset) on malformed input, trailing garbage, or arrays and objects
// nested more than 64 deep.
JsonValue ParseJson(const std::string& text);

}  // namespace pivotscale

#endif  // PIVOTSCALE_UTIL_JSON_WRITER_H_
