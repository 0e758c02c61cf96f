/**
 * @file
 * Table-driven command-line parsing for every tool and bench binary.
 *
 * A tool declares each option once, as a row: its name, its kind (flag,
 * unsigned number, string, named choice, or --x/--x=on/--x=off toggle),
 * its help text and the target it sets. Parser::parse() owns the rest:
 * --help/-h, unknown flags, missing values and strict unsigned parsing
 * (no sign, no value past the target type or the row's range, no
 * trailing junk). The usage text is generated from the same rows, so
 * the help text in the table is the one option reference.
 */

#ifndef SI_COMMON_CLI_HH
#define SI_COMMON_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace si::cli {

/** Upper bound of every worker-count option (--jobs, --campaign-jobs). */
inline constexpr unsigned maxJobs = 1024;

/**
 * Upper bound of every trace ring-buffer capacity option (swsim
 * --trace-ring, swprof --ring), in events: the ring is allocated up
 * front, so an unbounded value would abort on allocation.
 */
inline constexpr unsigned maxTraceRing = 1u << 22;

/**
 * Parse @p text as an unsigned number in [@p lo, @p hi]: decimal, or
 * hex with a 0x prefix (a leading 0 reads as octal, as strtoul does).
 * Returns the rejection reason, or "" with @p out set.
 */
std::string parseNumber(const std::string &text, std::uint64_t lo,
                        std::uint64_t hi, std::uint64_t &out);

/**
 * Write @p text to the file @p path, or to stdout when @p path is "-".
 * On failure prints "tool: cannot write 'path'" and returns false.
 */
bool writeOutput(const std::string &path, const std::string &text,
                 const std::string &tool);

/**
 * One tool's option table and its parser. Rows keep references to their
 * targets, so the targets must outlive parse().
 */
class Parser
{
  public:
    /**
     * @param tool         program name, the prefix of every message
     * @param synopsis     what follows the name on the usage line
     * @param usage_status exit status of a rejected command line
     */
    Parser(std::string tool, std::string synopsis, int usage_status = 1);

    /** `--name`: set @p target. */
    Parser &flag(const std::string &name, bool &target,
                 const std::string &help);

    /** `--name`: run @p action (for a flag that implies another). */
    Parser &flag(const std::string &name, std::function<void()> action,
                 const std::string &help);

    /** `--name N`: an unsigned number in [@p lo, @p hi]. */
    template <typename T>
    Parser &
    number(const std::string &name, T &target, const std::string &help,
           std::uint64_t lo = 0,
           std::uint64_t hi = std::numeric_limits<T>::max())
    {
        return add(name, "N", help, false,
                   [&target, lo, hi](const std::string &v) {
                       std::uint64_t n = 0;
                       std::string why = parseNumber(v, lo, hi, n);
                       if (why.empty())
                           target = T(n);
                       return why;
                   });
    }

    /** `--name VALUE`: any string; @p metavar names it in the usage. */
    Parser &text(const std::string &name, std::string &target,
                 const std::string &metavar, const std::string &help);

    /** `--name C`: one of @p choices, by name. */
    template <typename T, typename V>
    Parser &
    choice(const std::string &name, T &target,
           const std::vector<std::pair<std::string, V>> &choices,
           const std::string &help)
    {
        std::string names;
        for (const auto &c : choices)
            names += (names.empty() ? "" : "|") + c.first;
        return add(name, names, help, false,
                   [&target, choices, names](const std::string &v) {
                       for (const auto &c : choices) {
                           if (c.first == v) {
                               target = c.second;
                               return std::string();
                           }
                       }
                       return "'" + v + "' is not one of " + names;
                   });
    }

    /** `--name`, `--name=on` (both set @p target) or `--name=off`. */
    Parser &toggle(const std::string &name, bool &target,
                   const std::string &help);

    /** Non-option arguments: between @p min and @p max of them. */
    Parser &positional(std::vector<std::string> &target,
                       const std::string &metavar, std::size_t min,
                       std::size_t max);

    /** The one definition of --fast-forward[=off] (default on). */
    Parser &fastForward(bool &target);

    /** The one definition of --jobs N (0 = all cores, at most maxJobs). */
    Parser &jobs(unsigned &target);

    /**
     * Apply @p argv to the targets, left to right (a repeated option's
     * last value wins). Returns nothing when the tool should go on,
     * otherwise the status to exit with: 0 after --help/-h printed the
     * usage on stdout, or the usage status after printing
     * "tool: --flag: reason" and the usage on stderr.
     */
    std::optional<int> parse(int argc, const char *const *argv) const;

    /** The usage text: synopsis, then one entry per row. */
    std::string usage() const;

  private:
    /** Parse and store a value; returns the rejection reason or "". */
    using Apply = std::function<std::string(const std::string &)>;

    struct Row
    {
        std::string name;
        std::string metavar; ///< "" for a row that takes no value
        std::string help;
        bool toggle = false;
        Apply apply;
    };

    Parser &add(const std::string &name, const std::string &metavar,
                const std::string &help, bool toggle, Apply apply);

    /** Print "tool: subject: reason" and the usage on stderr. */
    int reject(const std::string &subject, const std::string &reason) const;

    std::string tool_;
    std::string synopsis_;
    int usageStatus_;
    std::vector<Row> rows_;
    std::vector<std::string> *positional_ = nullptr;
    std::string positionalName_;
    std::size_t positionalMin_ = 0;
    std::size_t positionalMax_ = 0;
};

} // namespace si::cli

#endif // SI_COMMON_CLI_HH
