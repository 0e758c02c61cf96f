/**
 * @file
 * Minimal JSON support for the observability layer: a streaming writer
 * with deterministic output (insertion order, fixed number formatting)
 * used by every machine-readable exporter, and a small recursive-descent
 * parser used by tests and validators to check that exported documents
 * are well-formed. No external dependencies, no DOM fanciness — just
 * enough JSON to make stats, traces, and bench results auditable.
 */

#ifndef SI_COMMON_JSON_HH
#define SI_COMMON_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace si::json {

/** Escape @p s for inclusion inside a JSON string literal (no quotes). */
std::string escape(std::string_view s);

/** Format a double the way the writer does (deterministic "%.12g"). */
std::string formatNumber(double v);

/**
 * Streaming JSON writer. Call begin/end and key/value in document
 * order; commas and nesting are handled internally. Output is compact
 * (no whitespace) and deterministic: object keys appear exactly in the
 * order they were written, which is what "stable key order" means for
 * every exporter built on this.
 */
class Writer
{
  public:
    Writer &beginObject();
    Writer &endObject();
    Writer &beginArray();
    Writer &endArray();

    /** Write an object key; must be followed by exactly one value. */
    Writer &key(std::string_view k);

    Writer &value(std::string_view v);
    Writer &value(const char *v) { return value(std::string_view(v)); }
    Writer &value(double v);
    Writer &value(std::uint64_t v);
    Writer &value(std::int64_t v);
    Writer &value(int v) { return value(std::int64_t(v)); }
    Writer &value(unsigned v) { return value(std::uint64_t(v)); }
    Writer &value(bool v);
    Writer &null();

    /** Splice an already-serialized JSON value verbatim. */
    Writer &raw(std::string_view json_text);

    /** The finished document. */
    const std::string &str() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    void separate();

    std::string out_;
    /** One entry per open container: true once it has an element. */
    std::vector<bool> hasItems_;
    bool afterKey_ = false;
};

/** A parsed JSON value (tree form). Object key order is preserved. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member lookup for objects; nullptr when absent or not an object. */
    const Value *find(std::string_view key) const;
};

/**
 * The unsigned 64-bit integer @p v holds: a finite, integral number in
 * [0, 2^64). nullopt for any other number or kind — the one checked
 * conversion of parsed (untrusted) numbers to integers.
 */
std::optional<std::uint64_t> asU64(const Value &v);

/** Outcome of parse(): ok, or an error with a byte offset. */
struct ParseResult
{
    bool ok = false;
    std::string error;
    std::size_t offset = 0;
    Value value;
};

/** Parse a complete JSON document (trailing garbage is an error). */
ParseResult parse(std::string_view text);

} // namespace si::json

#endif // SI_COMMON_JSON_HH
