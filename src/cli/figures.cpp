#include "cli/figures.h"

#include "cli/registry.h"

namespace ezflow::cli {

void register_builtin_figures()
{
    static const bool registered = [] {
        register_chain_figures();
        register_testbed_figures();
        register_scenario1_figures();
        register_scenario2_figures();
        register_model_figures();
        register_grid_figures();
        register_ampdu_figures();
        register_failover_figures();
        register_ablation_figures();
        return true;
    }();
    (void)registered;
}

}  // namespace ezflow::cli
