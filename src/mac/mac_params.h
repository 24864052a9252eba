#pragma once

#include <cstdint>

#include "util/units.h"

namespace ezflow::mac {

using util::SimTime;

/// Largest A-MPDU batch: the compressed block-ack bitmap is 64 bits wide.
constexpr int kMaxAmpduMpdus = 64;

/// IEEE 802.11b DCF timing and policy parameters (DSSS PHY, long preamble,
/// 1 Mb/s, RTS/CTS disabled — the configuration used throughout the paper).
struct MacParams {
    SimTime slot_us = 20;
    SimTime sifs_us = 10;
    SimTime difs_us = 50;  ///< SIFS + 2 * slot
    /// Extended IFS, used instead of DIFS after a busy period the station
    /// could not decode (collision, or energy above carrier-sense but
    /// below decode threshold): SIFS + ACK airtime + DIFS. This is what
    /// protects a hidden exchange's ACK from stations that only saw noise.
    SimTime eifs_us = 10 + (192 + 112) + 50;

    /// Default minimum contention window (number of backoff slots drawn
    /// from [0, cw-1]). 802.11b default is 32; EZ-Flow overrides this
    /// per successor queue within [2^4, 2^15].
    int cw_min = 32;
    /// Binary-exponential escalation cap for retries. When EZ-Flow raises
    /// a queue's CWmin above this, escalation starts saturated.
    int cw_max_escalation = 1024;
    /// Maximum number of retransmissions of a data frame before it is
    /// dropped (802.11 short retry limit).
    int retry_limit = 7;

    /// MAC interface queue capacity in packets. The paper stresses that
    /// off-the-shelf hardware has "a standard MAC buffer of only 50
    /// packets"; the instability of Fig. 1 manifests as this buffer
    /// saturating at relays.
    int queue_capacity = 50;

    /// Extra slack added to the ACK timeout beyond SIFS + ACK airtime.
    SimTime ack_timeout_slack_us = 20;

    /// RTS/CTS handshake. The paper disables it (its testbed and ns-2
    /// configurations both run basic access); the option exists to test
    /// that design claim (§5.1) under the simulator's hidden-terminal
    /// regimes. When enabled, data payloads of at least
    /// `rts_threshold_bytes` are preceded by an RTS/CTS exchange whose
    /// Duration fields set third-party NAVs over the whole exchange.
    bool rts_cts_enabled = false;
    int rts_threshold_bytes = 0;

    /// Block-ack agreement: maximum MPDUs dequeued into one A-MPDU batch
    /// (at most kMaxAmpduMpdus). 1 (the default, every paper figure) sends
    /// one MPDU per access, answered by a normal ACK; above 1 a batch
    /// travels as an A-MPDU answered by a compressed block-ack, always with
    /// basic access (no RTS/CTS).
    int ampdu_max_mpdus = 1;
    /// Byte ceiling on one A-MPDU batch (payload bytes of the batched
    /// MSDUs); 0 means unlimited. The batch always admits at least one
    /// MPDU so an oversized head-of-line packet cannot wedge the queue.
    std::int64_t ampdu_max_bytes = 0;
};

}  // namespace ezflow::mac
