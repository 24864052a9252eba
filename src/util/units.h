#pragma once

#include <cstdint>

// Basic simulation units. The simulator clock is an integer count of
// microseconds: every 802.11b timing constant (20 us slot, 10 us SIFS,
// 192 us PLCP preamble, 8 us per byte at 1 Mb/s) is an exact multiple of
// 1 us, so integer time avoids floating-point drift in event ordering.
namespace ezflow::util {

/// Simulation time in microseconds.
using SimTime = std::int64_t;

inline constexpr SimTime kMicrosecond = 1;
inline constexpr SimTime kMillisecond = 1000 * kMicrosecond;
inline constexpr SimTime kSecond = 1000 * kMillisecond;

/// Shared by the propagation and topology geometry (C++17 has no
/// std::numbers::pi).
inline constexpr double kPi = 3.14159265358979323846;

/// Convert a microsecond timestamp to (floating) seconds, for reporting.
constexpr double to_seconds(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// Convert seconds to the integer microsecond clock (truncating).
constexpr SimTime from_seconds(double s)
{
    return static_cast<SimTime>(s * static_cast<double>(kSecond));
}

/// Throughput helper: bits delivered over a duration, in kilobits/second.
constexpr double kbps(std::int64_t bits, SimTime duration)
{
    if (duration <= 0) return 0.0;
    return static_cast<double>(bits) / (static_cast<double>(duration) / 1000.0);
}

}  // namespace ezflow::util
