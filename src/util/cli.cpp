#include "util/cli.h"

#include <charconv>
#include <stdexcept>

namespace ezflow::util {

Cli::Cli(int argc, const char* const* argv)
{
    if (argc > 0) program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(std::move(arg));
            continue;
        }
        arg.erase(0, 2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else {
            flags_[arg] = "true";
        }
    }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const
{
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
}

double Cli::get_double(const std::string& name, double fallback) const
{
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback : parse_double(it->second, "--" + name);
}

int Cli::get_int(const std::string& name, int fallback) const
{
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback : parse_int(it->second, "--" + name);
}

bool Cli::get_bool(const std::string& name, bool fallback) const
{
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback : parse_bool(it->second, "--" + name);
}

namespace {

template <typename T>
T parse_number(const std::string& text, const std::string& what, const char* kind)
{
    T value{};
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error == std::errc::result_out_of_range)
        throw std::out_of_range(what + ": '" + text + "' is out of range");
    if (error != std::errc() || stop != end)
        throw std::invalid_argument(what + ": '" + text + "' is not " + kind);
    return value;
}

}  // namespace

int Cli::parse_int(const std::string& text, const std::string& what)
{
    return parse_number<int>(text, what, "an integer");
}

std::uint64_t Cli::parse_uint64(const std::string& text, const std::string& what)
{
    return parse_number<std::uint64_t>(text, what, "a non-negative integer");
}

double Cli::parse_double(const std::string& text, const std::string& what)
{
    return parse_number<double>(text, what, "a number");
}

bool Cli::parse_bool(const std::string& text, const std::string& what)
{
    if (text == "true" || text == "1" || text == "yes" || text == "on") return true;
    if (text == "false" || text == "0" || text == "no" || text == "off") return false;
    throw std::invalid_argument(what + ": '" + text +
                                "' is not a boolean (true/1/yes/on or false/0/no/off)");
}

}  // namespace ezflow::util
