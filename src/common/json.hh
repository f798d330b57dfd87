/**
 * @file
 * Minimal JSON support for the telemetry tooling: the one string
 * escaper every exporter (stats records, lint reports, trace events)
 * uses, and the matching reader for the aggregation side (dmp report),
 * a small recursive-descent parser into a plain Value tree. The parser
 * accepts RFC 8259 (\uXXXX escapes decode to UTF-8; surrogate pairs are
 * not combined) and reports malformed input with a byte offset instead
 * of throwing.
 */

#ifndef DMP_COMMON_JSON_HH
#define DMP_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dmp::json
{

/** One parsed JSON value; a tagged tree owned by the root. */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<Value> array;
    /** Insertion-ordered members (duplicate keys keep the first). */
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Member lookup; nullptr when absent or not an object. */
    const Value *get(std::string_view key) const;

    /** Nested counter-style lookup: get(a) then ->get(b). */
    const Value *get(std::string_view a, std::string_view b) const;

    /** Number as u64 (0 when not a number or negative). */
    std::uint64_t asU64() const;

    /** Number value (0 when not a number). */
    double asDouble() const { return isNumber() ? number : 0.0; }
};

/**
 * Escape `s` for the inside of a JSON string literal: quote, backslash,
 * newline and tab by name, every other byte below 0x20 as \u00XX, and
 * everything else unchanged.
 */
std::string escape(std::string_view s);

/**
 * Parse one JSON document.
 * @return true on success; on failure `err` holds "offset N: reason".
 */
bool parse(std::string_view text, Value &out, std::string &err);

} // namespace dmp::json

#endif // DMP_COMMON_JSON_HH
