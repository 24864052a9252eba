#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ezflow::util {

/// Tiny command-line flag parser for the ezflow CLI and the bench
/// harnesses. Accepts `--name=value` pairs and bare `--switch` flags
/// (true); anything else is collected as a positional argument.
class Cli {
public:
    Cli(int argc, const char* const* argv);

    /// Strict value parsers behind every typed getter: the whole text must
    /// parse (no leading or trailing characters), and booleans accept only
    /// true/1/yes/on and false/0/no/off. Throw std::invalid_argument on a
    /// malformed value and std::out_of_range on one that does not fit; the
    /// message names `what` (e.g. "--shards") and the offending text.
    static int parse_int(const std::string& text, const std::string& what);
    static std::uint64_t parse_uint64(const std::string& text, const std::string& what);
    static double parse_double(const std::string& text, const std::string& what);
    static bool parse_bool(const std::string& text, const std::string& what);

    bool has(const std::string& name) const;
    std::string get(const std::string& name, const std::string& fallback) const;
    /// Typed getters: the fallback when the flag is absent, otherwise the
    /// strictly parsed value (throws as the parsers above).
    double get_double(const std::string& name, double fallback) const;
    int get_int(const std::string& name, int fallback) const;
    bool get_bool(const std::string& name, bool fallback) const;

    const std::vector<std::string>& positional() const { return positional_; }
    const std::string& program() const { return program_; }
    /// All parsed `--name=value` flags (switches carry the value "true").
    const std::map<std::string, std::string>& flags() const { return flags_; }

private:
    std::string program_;
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

}  // namespace ezflow::util
