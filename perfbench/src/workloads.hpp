// The three workloads. Each runs its set-up several times, then repeats
// its timed passes until `args.seconds` have passed, checks every
// product against a serial reference, and returns the end-to-end
// metrics (args.trace == false) or the per-layer metrics (true). With
// tracing on, spans around every call into a layer go to `tracer`.
#pragma once

#include "common.hpp"
#include "obs/trace.hpp"

namespace perfbench {

RunResult run_gen_backscatter(const Args& args, quicsand::obs::Tracer* tracer);
RunResult run_pcap_quicscan(const Args& args, quicsand::obs::Tracer* tracer);
RunResult run_live_loopback(const Args& args, quicsand::obs::Tracer* tracer);

}  // namespace perfbench
