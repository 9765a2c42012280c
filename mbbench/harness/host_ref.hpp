// A fixed reference kernel that measures how fast the host runs right now.
//
// On a shared VM every workload's speed drifts together, by more than a
// quarter over minutes. This kernel churns a std::map: allocations, frees
// and branchy dependent loads, the mix a simulation's queues and tables
// make. It runs none of the simulator's code, so a change to the simulator
// cannot move it. On the 4-vCPU host the bounds were set on, 99 paired
// samples over five minutes put the log-log slope of RADIX and 429.mcf run
// time against this kernel's time at 1.0 (a fill kernel gave 1.1, a
// pointer chase 0.6). So run.py divides the drift out of the timings with
// a plain ratio (benchlib.py, HOST_REF_NOMINAL_MS).
//
// Never change this kernel or its build flags: every normalised figure is
// relative to it, and a change would rescale them all.
#pragma once

namespace mbbench {

/// Runs the kernel once and returns its wall time in seconds.
double hostRefSeconds();

}  // namespace mbbench
