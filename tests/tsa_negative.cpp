// Negative-compile probes for the thread-safety annotations in
// obs/events.hpp and core/parallel_pipeline.hpp.
//
// This file is NOT part of the normal build. scripts/check_tsa.sh
// compiles it with clang -fsyntax-only -Werror=thread-safety once per
// TSA_PROBE value: probe 0 (a correctly-locked control) must build,
// every probe >= 1 accesses one guarded field or lock-held helper
// without its mutex and must be rejected. If deleting any single
// QS_GUARDED_BY/QS_REQUIRES from those headers lets its probe compile,
// the script — and CI — fails. Keep the probe list in sync with the
// annotations there.
#include <cstddef>
#include <cstdint>

#include "core/parallel_pipeline.hpp"
#include "obs/events.hpp"

#ifndef TSA_PROBE
#define TSA_PROBE 0
#endif

namespace quicsand::obs {

struct TsaNegativeProbe {
#if TSA_PROBE == 0
  // Control: the same accesses, correctly locked. Must compile — this
  // proves the harness (include paths, clang, the annotations) works.
  static std::uint64_t control(EventSubscription& sub) {
    util::LockGuard lock(sub.mutex_);
    return sub.lines_.size() + sub.dropped_ +
           static_cast<std::uint64_t>(sub.closed_);
  }
#elif TSA_PROBE == 1
  static std::size_t probe(EventSubscription& sub) {
    return sub.lines_.size();  // lines_ without mutex_
  }
#elif TSA_PROBE == 2
  static std::uint64_t probe(EventSubscription& sub) {
    return sub.dropped_;  // dropped_ without mutex_
  }
#elif TSA_PROBE == 3
  static bool probe(EventSubscription& sub) {
    return sub.closed_;  // closed_ without mutex_
  }
#elif TSA_PROBE == 4
  static void probe(EventLog& log, const DetectorEvent& event) {
    log.tee_locked(event, "{}");  // REQUIRES(mutex_) helper without it
  }
#elif TSA_PROBE == 5
  static std::size_t probe(EventLog& log) {
    return log.events_.size();  // events_ without mutex_
  }
#elif TSA_PROBE == 6
  static bool probe(EventLog& log) {
    return log.stream_ != nullptr;  // stream_ without mutex_
  }
#elif TSA_PROBE == 7
  static std::size_t probe(EventLog& log) {
    return log.subscriptions_.size();  // subscriptions_ without mutex_
  }
#endif
};

}  // namespace quicsand::obs

namespace quicsand::core {

struct TsaNegativeProbe {
#if TSA_PROBE == 0
  static std::size_t control(ParallelPipeline& pipeline) {
    util::LockGuard lock(pipeline.inflight_mutex_);
    return pipeline.inflight_ + pipeline.sequencers_.size() +
           pipeline.slots_.size() +
           static_cast<std::size_t>(pipeline.submitted_);
  }
#elif TSA_PROBE == 8
  static void probe(ParallelPipeline& pipeline, util::UniqueLock& lock) {
    pipeline.wait_for_inflight_slot(lock);  // REQUIRES(inflight_mutex_)
  }
#elif TSA_PROBE == 9
  static std::size_t probe(ParallelPipeline& pipeline) {
    return pipeline.inflight_;  // inflight_ without inflight_mutex_
  }
#elif TSA_PROBE == 10
  static std::size_t probe(ParallelPipeline& pipeline) {
    return pipeline.batch_pool_.size();  // batch_pool_ without pool_mutex_
  }
#elif TSA_PROBE == 11
  static std::size_t probe(ParallelPipeline& pipeline) {
    return pipeline.sequencers_.size();  // sequencers_ without the mutex
  }
#elif TSA_PROBE == 12
  static std::size_t probe(ParallelPipeline& pipeline) {
    return pipeline.slots_.size();  // slots_ without inflight_mutex_
  }
#elif TSA_PROBE == 13
  static std::uint64_t probe(ParallelPipeline& pipeline) {
    return pipeline.submitted_;  // submitted_ without inflight_mutex_
  }
#endif
};

}  // namespace quicsand::core
