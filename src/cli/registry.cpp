#include "cli/registry.h"

#include <stdexcept>

#include "util/cli.h"

namespace ezflow::cli {

std::vector<std::uint64_t> FigureContext::seed_grid() const
{
    std::vector<std::uint64_t> grid;
    grid.reserve(static_cast<std::size_t>(seeds));
    for (int i = 0; i < seeds; ++i) grid.push_back(seed + static_cast<std::uint64_t>(i));
    return grid;
}

int FigureContext::extra_int(const std::string& name, int fallback) const
{
    extra_consumed.insert(name);
    const auto it = extra.find(name);
    return it == extra.end() ? fallback : util::Cli::parse_int(it->second, "--" + name);
}

double FigureContext::extra_double(const std::string& name, double fallback) const
{
    extra_consumed.insert(name);
    const auto it = extra.find(name);
    return it == extra.end() ? fallback : util::Cli::parse_double(it->second, "--" + name);
}

FigureRegistry& FigureRegistry::instance()
{
    static FigureRegistry registry;
    return registry;
}

void FigureRegistry::add(FigureSpec spec)
{
    if (spec.name.empty()) throw std::invalid_argument("FigureRegistry: empty name");
    if (!spec.run)
        throw std::invalid_argument("FigureRegistry: figure '" + spec.name + "' has no run");
    if (find(spec.name) != nullptr)
        throw std::invalid_argument("FigureRegistry: duplicate figure '" + spec.name + "'");
    specs_.emplace(spec.name, std::move(spec));
}

const FigureSpec* FigureRegistry::find(const std::string& name) const
{
    const auto it = specs_.find(name);
    return it != specs_.end() ? &it->second : nullptr;
}

std::vector<const FigureSpec*> FigureRegistry::list() const
{
    std::vector<const FigureSpec*> specs;
    specs.reserve(specs_.size());
    for (const auto& [key, spec] : specs_) specs.push_back(&spec);
    return specs;  // std::map iteration is already name-sorted
}

}  // namespace ezflow::cli
