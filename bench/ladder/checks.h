#pragma once

// Output checks every ladder experiment must pass. A benchmark number is
// only reported for a run whose packets all balance and whose simulated
// outcome matches every other repetition of the same seed.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiment.h"

namespace ezflow::ladder {

/// Check one finished experiment and return its simulated-outcome digest.
/// Appends one line to `failures` per failed check:
///  * the drop-accounting audit must balance (a skipped audit fails too:
///    no ladder workload installs the pacer, so a skip means coverage was
///    lost, not that the run is exempt);
///  * every flow's sink must have received at least one packet.
/// The digest (FNV-1a, 64 bit) hashes per-flow sink packets and bytes,
/// per-node MAC attempts, successes, retransmissions and retry drops,
/// channel transmissions and the drop ledger. It deliberately leaves out
/// scheduler events and sharded-engine epochs, so work that collapses
/// events or re-partitions shards keeps it unchanged.
std::uint64_t check_experiment(analysis::Experiment& experiment,
                               std::vector<std::string>& failures);

/// Fold `value` into an FNV-1a 64-bit digest.
std::uint64_t fold_digest(std::uint64_t digest, std::uint64_t value);

/// The FNV-1a 64-bit offset basis (the digest of nothing).
constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/// 16 lowercase hex digits.
std::string digest_hex(std::uint64_t digest);

}  // namespace ezflow::ladder
