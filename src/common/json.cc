#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace si::json {

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "0"; // JSON has no NaN/Inf; exporters must not emit them
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

void
Writer::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (!hasItems_.empty()) {
        if (hasItems_.back())
            out_ += ',';
        hasItems_.back() = true;
    }
}

Writer &
Writer::beginObject()
{
    separate();
    out_ += '{';
    hasItems_.push_back(false);
    return *this;
}

Writer &
Writer::endObject()
{
    out_ += '}';
    hasItems_.pop_back();
    return *this;
}

Writer &
Writer::beginArray()
{
    separate();
    out_ += '[';
    hasItems_.push_back(false);
    return *this;
}

Writer &
Writer::endArray()
{
    out_ += ']';
    hasItems_.pop_back();
    return *this;
}

Writer &
Writer::key(std::string_view k)
{
    separate();
    out_ += '"';
    out_ += escape(k);
    out_ += "\":";
    afterKey_ = true;
    return *this;
}

Writer &
Writer::value(std::string_view v)
{
    separate();
    out_ += '"';
    out_ += escape(v);
    out_ += '"';
    return *this;
}

Writer &
Writer::value(double v)
{
    separate();
    out_ += formatNumber(v);
    return *this;
}

Writer &
Writer::value(std::uint64_t v)
{
    separate();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out_ += buf;
    return *this;
}

Writer &
Writer::value(std::int64_t v)
{
    separate();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out_ += buf;
    return *this;
}

Writer &
Writer::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

Writer &
Writer::null()
{
    separate();
    out_ += "null";
    return *this;
}

Writer &
Writer::raw(std::string_view json_text)
{
    separate();
    out_ += json_text;
    return *this;
}

const Value *
Value::find(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::optional<std::uint64_t>
asU64(const Value &v)
{
    // 2^64 is exactly representable as a double; NaN fails every test.
    constexpr double twoTo64 = 18446744073709551616.0;
    if (!v.isNumber() || !(v.number >= 0 && v.number < twoTo64) ||
        std::trunc(v.number) != v.number)
        return std::nullopt;
    return std::uint64_t(v.number);
}

namespace {

/** Recursive-descent parser state. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    ParseResult
    run()
    {
        ParseResult res;
        skipWs();
        if (!parseValue(res.value)) {
            res.error = error_;
            res.offset = pos_;
            return res;
        }
        skipWs();
        if (pos_ != text_.size()) {
            res.error = "trailing characters after document";
            res.offset = pos_;
            return res;
        }
        res.ok = true;
        return res;
    }

  private:
    bool
    fail(const char *msg)
    {
        if (error_.empty())
            error_ = msg;
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    literal(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    bool
    parseValue(Value &out)
    {
        if (++depth_ > maxDepth_)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        bool ok;
        switch (text_[pos_]) {
          case '{': ok = parseObject(out); break;
          case '[': ok = parseArray(out); break;
          case '"':
            out.kind = Value::Kind::String;
            ok = parseString(out.str);
            break;
          case 't':
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            ok = literal("true") || fail("bad literal");
            break;
          case 'f':
            out.kind = Value::Kind::Bool;
            out.boolean = false;
            ok = literal("false") || fail("bad literal");
            break;
          case 'n':
            out.kind = Value::Kind::Null;
            ok = literal("null") || fail("bad literal");
            break;
          default:
            ok = parseNumber(out);
        }
        --depth_;
        return ok;
    }

    bool
    parseObject(Value &out)
    {
        out.kind = Value::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            Value v;
            if (!parseValue(v))
                return false;
            out.object.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(Value &out)
    {
        out.kind = Value::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            Value v;
            if (!parseValue(v))
                return false;
            out.array.push_back(std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    hex4(unsigned &out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            unsigned d;
            if (c >= '0' && c <= '9')
                d = unsigned(c - '0');
            else if (c >= 'a' && c <= 'f')
                d = unsigned(c - 'a') + 10;
            else if (c >= 'A' && c <= 'F')
                d = unsigned(c - 'A') + 10;
            else
                return fail("bad hex digit in \\u escape");
            out = out * 16 + d;
        }
        return true;
    }

    void
    appendUtf8(std::string &s, unsigned cp)
    {
        if (cp < 0x80) {
            s += char(cp);
        } else if (cp < 0x800) {
            s += char(0xc0 | (cp >> 6));
            s += char(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            s += char(0xe0 | (cp >> 12));
            s += char(0x80 | ((cp >> 6) & 0x3f));
            s += char(0x80 | (cp & 0x3f));
        } else {
            s += char(0xf0 | (cp >> 18));
            s += char(0x80 | ((cp >> 12) & 0x3f));
            s += char(0x80 | ((cp >> 6) & 0x3f));
            s += char(0x80 | (cp & 0x3f));
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return fail("truncated escape");
                const char e = text_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    unsigned cp;
                    if (!hex4(cp))
                        return false;
                    // Combine a surrogate pair when one follows.
                    if (cp >= 0xd800 && cp <= 0xdbff &&
                        text_.substr(pos_, 2) == "\\u") {
                        pos_ += 2;
                        unsigned lo;
                        if (!hex4(lo))
                            return false;
                        if (lo >= 0xdc00 && lo <= 0xdfff) {
                            cp = 0x10000 + ((cp - 0xd800) << 10) +
                                 (lo - 0xdc00);
                        } else {
                            return fail("invalid surrogate pair");
                        }
                    }
                    appendUtf8(out, cp);
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character");
            out += c;
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            return fail("expected a value");
        const std::string tok(text_.substr(start, pos_ - start));
        char *end = nullptr;
        out.number = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            return fail("malformed number");
        out.kind = Value::Kind::Number;
        return true;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    static constexpr int maxDepth_ = 64;
    std::string error_;
};

} // namespace

ParseResult
parse(std::string_view text)
{
    return Parser(text).run();
}

} // namespace si::json
