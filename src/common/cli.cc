#include "common/cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace si::cli {

namespace {

/** Column at which help text starts, and the width it wraps to. */
constexpr std::size_t helpColumn = 24;
constexpr std::size_t lineWidth = 79;

/** Append @p help word-wrapped from helpColumn, after @p left. */
void
appendEntry(std::string &out, const std::string &left,
            const std::string &help)
{
    out += left;
    std::size_t col = left.size();
    if (col + 2 > helpColumn) {
        out += '\n';
        col = 0;
    }
    std::istringstream words(help);
    std::string word;
    bool first = true;
    while (words >> word) {
        if (!first && col + 1 + word.size() > lineWidth) {
            out += '\n';
            col = 0;
        }
        if (col < helpColumn) {
            out.append(helpColumn - col, ' ');
            col = helpColumn;
        } else {
            out += ' ';
            ++col;
        }
        out += word;
        col += word.size();
        first = false;
    }
    out += '\n';
}

} // namespace

std::string
parseNumber(const std::string &text, std::uint64_t lo, std::uint64_t hi,
            std::uint64_t &out)
{
    // strtoull alone would skip blanks, accept a sign (negating "-1"
    // into 2^64-1) and stop at the first junk character.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return "'" + text + "' is not an unsigned number";
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (*end != '\0')
        return "'" + text + "' is not an unsigned number";
    if (errno == ERANGE || v < lo || v > hi) {
        return "'" + text + "' is out of range " + std::to_string(lo) +
               ".." + std::to_string(hi);
    }
    out = v;
    return "";
}

bool
writeOutput(const std::string &path, const std::string &text,
            const std::string &tool)
{
    if (path == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return true;
    }
    std::ofstream f(path, std::ios::binary);
    if (f << text)
        return true;
    std::fprintf(stderr, "%s: cannot write '%s'\n", tool.c_str(),
                 path.c_str());
    return false;
}

Parser::Parser(std::string tool, std::string synopsis, int usage_status)
    : tool_(std::move(tool)), synopsis_(std::move(synopsis)),
      usageStatus_(usage_status)
{
}

Parser &
Parser::add(const std::string &name, const std::string &metavar,
            const std::string &help, bool toggle, Apply apply)
{
    rows_.push_back({name, metavar, help, toggle, std::move(apply)});
    return *this;
}

Parser &
Parser::flag(const std::string &name, bool &target, const std::string &help)
{
    return flag(name, [&target] { target = true; }, help);
}

Parser &
Parser::flag(const std::string &name, std::function<void()> action,
             const std::string &help)
{
    return add(name, "", help, false,
               [action = std::move(action)](const std::string &) {
                   action();
                   return std::string();
               });
}

Parser &
Parser::text(const std::string &name, std::string &target,
             const std::string &metavar, const std::string &help)
{
    return add(name, metavar, help, false, [&target](const std::string &v) {
        target = v;
        return std::string();
    });
}

Parser &
Parser::toggle(const std::string &name, bool &target, const std::string &help)
{
    return add(name, "", help, true, [&target](const std::string &v) {
        if (v != "on" && v != "off")
            return "'" + v + "' is not on or off";
        target = v == "on";
        return std::string();
    });
}

Parser &
Parser::positional(std::vector<std::string> &target,
                   const std::string &metavar, std::size_t min,
                   std::size_t max)
{
    positional_ = &target;
    positionalName_ = metavar;
    positionalMin_ = min;
    positionalMax_ = max;
    return *this;
}

Parser &
Parser::fastForward(bool &target)
{
    return toggle("--fast-forward", target,
                  "event-driven cycle leaping (default on): quiet "
                  "stretches of the clock loop are skipped in one step "
                  "with exact stats back-fill, so every artifact is "
                  "bit-identical either way. =off ticks every cycle");
}

Parser &
Parser::jobs(unsigned &target)
{
    return number("--jobs", target,
                  "worker threads, 0.." + std::to_string(maxJobs) +
                      " (default 1 = serial, 0 = all cores); output is "
                      "collected in input order, so it is byte-identical "
                      "at any value",
                  0, maxJobs);
}

int
Parser::reject(const std::string &subject, const std::string &reason) const
{
    std::fprintf(stderr, "%s: %s: %s\n%s", tool_.c_str(), subject.c_str(),
                 reason.c_str(), usage().c_str());
    return usageStatus_;
}

std::optional<int>
Parser::parse(int argc, const char *const *argv) const
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            std::fputs(usage().c_str(), stdout);
            return 0;
        }
    }
    if (positional_)
        positional_->clear();
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.size() < 2 || a[0] != '-') {
            if (!positional_ || positional_->size() == positionalMax_)
                return reject(a, "unexpected argument");
            positional_->push_back(a);
            continue;
        }
        const std::size_t eq = a.find('=');
        const auto row =
            std::find_if(rows_.begin(), rows_.end(), [&](const Row &r) {
                return r.name == a ||
                       (r.toggle && r.name == a.substr(0, eq));
            });
        if (row == rows_.end())
            return reject(a, "unknown option");
        std::string value = "on";
        if (eq != std::string::npos && row->toggle) {
            value = a.substr(eq + 1);
        } else if (!row->metavar.empty()) {
            if (i + 1 == argc)
                return reject(a, "missing value");
            value = argv[++i];
        }
        if (const std::string why = row->apply(value); !why.empty())
            return reject(row->name, why);
    }
    if (positional_ && positional_->size() < positionalMin_)
        return reject(positionalName_, "missing");
    return std::nullopt;
}

std::string
Parser::usage() const
{
    std::string out = "usage: " + tool_ + " " + synopsis_ + "\n\noptions:\n";
    for (const Row &r : rows_) {
        std::string left = "  " + r.name;
        if (r.toggle)
            left += "[=off]";
        else if (!r.metavar.empty())
            left += " " + r.metavar;
        appendEntry(out, left, r.help);
    }
    appendEntry(out, "  --help, -h", "print this usage on stdout and exit 0");
    return out;
}

} // namespace si::cli
