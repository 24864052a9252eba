#pragma once

// Per-family registration hooks for the built-in figure runners. Each
// function adds its FigureSpecs to FigureRegistry::instance(); call them
// through register_builtin_figures() (registry.h), which is idempotent.
namespace ezflow::cli {

void register_chain_figures();      // fig01
void register_testbed_figures();    // fig04, table1, table2
void register_scenario1_figures();  // fig06, fig07, fig08
void register_scenario2_figures();  // fig10, fig11, table3
void register_model_figures();      // fig12, table4
void register_grid_figures();       // grid_cross, grid_gateway, grid_maxmin, islands
void register_ampdu_figures();      // ampdu (gateway convergecast at K = 1, 4, 16)
void register_failover_figures();   // failover_gateway, failover_relay
void register_ablation_figures();   // ablation_*

}  // namespace ezflow::cli
