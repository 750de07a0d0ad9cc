// Host-speed reference probe.
//
// A fixed kernel — small complex GEMMs plus sorts of small integer arrays —
// that lives in the benchmark's own directory, so no library change can
// alter the work it does. The benchmark runs it while the server is idle,
// between traffic slices, and scales every timed metric by
// kNominalRate / (the adjacent probe rates), raised to the workload's host
// elasticity: a host that is momentarily slower (other tenants sharing the
// core's caches and execution units) slows the probe and the served path
// alike, the served path by a measured power of the probe's slowdown, and
// the scaled ratio cancels most of it.
// The mix was chosen by measurement: cache-resident GEMM and branchy sort
// work tracked the served decoders' speed, a strided memory sweep did not.
#pragma once

#include <cstdint>

namespace perfbench {

/// Probe units per second on the reference host; defines "nominal speed".
inline constexpr double kNominalRate = 3000.0;

/// Runs `units` units of the reference kernel and returns an exact checksum
/// of its results (integer-valued arithmetic, so the value is independent
/// of evaluation order and pins the amount of work done).
[[nodiscard]] std::uint64_t probe_kernel(unsigned units);

/// Times the kernel: median rate over a few short repeats, in units/s.
[[nodiscard]] double probe_rate();

}  // namespace perfbench
