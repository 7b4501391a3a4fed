#include "cli/flags.hh"

#include <algorithm>
#include <iostream>

namespace asim::cli {

namespace {

void
printEntry(std::ostream &os, const std::string &spelling,
           const std::string &help, size_t width)
{
    os << "  " << spelling << std::string(width + 2 - spelling.size(), ' ');
    for (char c : help)
        os << c << (c == '\n' ? std::string(width + 4, ' ') : "");
    os << "\n";
}

} // namespace

void
FlagTable::printHelp(std::ostream &os) const
{
    const std::string self = "--help, -h";
    size_t width = self.size();
    for (const Flag &f : flags)
        width = std::max(width, f.spelling.size());
    os << "usage: " << usage << "\n";
    printEntry(os, self, "print this help and exit", width);
    for (const Flag &f : flags) {
        if (f.spelling.empty())
            os << "\n" << f.help << "\n";
        else
            printEntry(os, f.spelling, f.help, width);
    }
}

void
FlagTable::printUsage(std::ostream &os) const
{
    os << "usage: " << usage << " (--help lists the options)\n";
}

std::optional<int>
FlagTable::parse(int argc, char **argv,
                 std::vector<std::string> *positional) const
{
    auto fail = [this](const std::string &message, bool usage = false) {
        std::cerr << message << "\n";
        if (usage)
            printUsage(std::cerr);
        return 1;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(std::cerr);
            return 0;
        }
        if (arg.empty() || arg[0] != '-') {
            if (!positional)
                return fail("unexpected argument " + arg, true);
            positional->push_back(arg);
            continue;
        }
        const std::string name = arg.substr(0, arg.find('='));
        auto flag = std::find_if(flags.begin(), flags.end(), [&](auto &f) {
            return !f.spelling.empty() &&
                   f.spelling.substr(0, f.spelling.find_first_of("= ")) ==
                       name;
        });
        if (flag == flags.end())
            return fail("unknown option " + arg, true);

        // '=' for `--x=V`, ' ' for `-x V`, '\0' for a switch.
        const auto at = flag->spelling.find_first_of("= ");
        const char form = at == std::string::npos ? '\0' : flag->spelling[at];
        const bool inlineValue = name.size() < arg.size();
        if (form == '\0' && inlineValue)
            return fail(name + " takes no value");
        if (form != '\0' &&
            (inlineValue != (form == '=') || (form == ' ' && i + 1 == argc)))
            return fail(name + " needs a value: " + flag->spelling);
        const std::string value = form == '=' ? arg.substr(name.size() + 1)
                                  : form == ' ' ? argv[++i]
                                                : "";
        try {
            flag->set(value);
        } catch (const BadValue &e) {
            return fail(name + " wants " + e.what() + ", got \"" + value +
                        "\"");
        } catch (const std::exception &e) {
            return fail(name + ": " + e.what());
        }
    }
    return std::nullopt;
}

Setter
text(std::string &field)
{
    return [&field](const std::string &v) { field = v; };
}

Setter
assign(bool &field, bool value)
{
    return [&field, value](const std::string &) { field = value; };
}

Setter
port(int &field)
{
    return [&field](const std::string &v) {
        auto p = parsePort(v);
        if (!p)
            throw BadValue("a port in 0..65535");
        field = *p;
    };
}

Setter
componentValue(std::string &component, int32_t &value)
{
    return [&component, &value](const std::string &v) {
        auto cv = parseComponentValue(v);
        if (!cv)
            throw BadValue("component:value");
        component = cv->component;
        value = cv->value;
    };
}

} // namespace asim::cli
