/**
 * @file
 * Table-driven command-line flags for asim-run, asim2c and asim-serve.
 *
 * Each binary declares one FlagTable. Every entry gives a flag's
 * spelling, its help line and a setter that parses the value into the
 * option field it binds; the same table drives the parse loop and
 * prints `--help`, so each flag is written down in exactly one place.
 */

#ifndef ASIM_CLI_FLAGS_HH
#define ASIM_CLI_FLAGS_HH

#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/text.hh"

namespace asim::cli {

/** Applies a flag's value ("" for a switch) to the field it binds. */
using Setter = std::function<void(const std::string &value)>;

/** A setter's verdict on a malformed value; reported as
 *  `<flag> wants <what()>, got "<value>"`. Any other exception a
 *  setter throws is reported as `<flag>: <what()>`. */
struct BadValue : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

struct Flag
{
    /** How the flag is written, which also fixes how it takes a
     *  value: `--cycles=N` takes the text after '=', `-o FILE` takes
     *  the next argument, `--stats` takes none. An empty spelling
     *  makes `help` a heading in the help text. */
    std::string spelling;

    /** Help text; each '\n' starts an indented continuation line. */
    std::string help;

    Setter set = nullptr;
};

/** The flags of one binary. */
struct FlagTable
{
    /** "asim-run [options] <spec-file>" */
    std::string usage;

    std::vector<Flag> flags;

    /** The usage line, --help itself, and every flag with its help. */
    void printHelp(std::ostream &os) const;

    /** The usage line with a pointer to --help. */
    void printUsage(std::ostream &os) const;

    /**
     * Apply argv[1..argc) in order. Arguments not starting with '-'
     * are appended to `positional`; they are errors when it is null.
     * @return nullopt to go on, or the exit status: 0 after --help/-h
     *         printed the help, 1 after an error was reported (both
     *         on stderr)
     */
    std::optional<int> parse(int argc, char **argv,
                             std::vector<std::string> *positional) const;
};

/// @{ Setters for the common field types.
Setter text(std::string &field);
Setter assign(bool &field, bool value = true);
Setter port(int &field);
Setter componentValue(std::string &component, int32_t &value);

/** An integer from `min` up to `max` (parseU64). */
template <typename T>
Setter
number(T &field, uint64_t min = 0,
       uint64_t max = std::numeric_limits<T>::max())
{
    return [&field, min, max](const std::string &v) {
        auto n = parseU64(v, max);
        if (!n || *n < min) {
            std::string what =
                min ? "a positive count" : "a non-negative integer";
            if (max < static_cast<uint64_t>(std::numeric_limits<T>::max()))
                what += " up to " + std::to_string(max);
            throw BadValue(what);
        }
        field = static_cast<T>(*n);
    };
}

/** A positive count up to `max`. */
template <typename T>
Setter
count(T &field, uint64_t max = std::numeric_limits<T>::max())
{
    return number(field, 1, max);
}
/// @}

} // namespace asim::cli

#endif // ASIM_CLI_FLAGS_HH
