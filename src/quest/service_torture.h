#ifndef QATK_QUEST_SERVICE_TORTURE_H_
#define QATK_QUEST_SERVICE_TORTURE_H_

#include <cstdint>
#include <string>

namespace qatk::quest {

/// Parameters of one seeded service-level crash-recovery schedule.
struct ServiceTortureOptions {
  /// Seeds the mutation script, the fault schedule, and the crash point.
  /// Two runs with the same seed and options are byte-identical, so any
  /// failure replays from the printed seed alone.
  uint64_t seed = 0;
  /// Randomized confirm/define/retrain/checkpoint operations after the
  /// initial training pass.
  int num_ops = 16;
  /// Bundles in the initial training corpus.
  int seed_bundles = 12;
  /// Service data dir. The run deletes its service.log / service.snapshot
  /// files before starting.
  std::string data_dir;
};

/// Outcome of one service crash schedule.
struct ServiceTortureReport {
  /// True when the recovered service state was bit-identical to a legal
  /// reference (and the run hit no unexpected error).
  bool ok = false;
  /// True when the scheduled fault actually crashed the simulated process
  /// (a crash point drawn past the workload's end leaves this false and
  /// the run degenerates to a clean shutdown/reopen check).
  bool crashed = false;
  /// Empty when ok; otherwise what went wrong.
  std::string detail;
  /// The fault schedule, printable for deterministic replay.
  std::string schedule;
  /// Log records replayed by the recovery under test.
  uint64_t replayed_records = 0;
};

/// \brief Runs one seeded service-level crash schedule end to end.
///
/// Builds a deterministic mutation script (an initial Train, then
/// randomized ConfirmAssignment / DefineErrorCode / Retrain / Checkpoint
/// operations), dry-runs it fault-free to count fault-injection points,
/// then reruns it against a durable RecommendationService with a
/// FaultInjector armed with a crash at a seed-drawn point — sometimes a
/// torn write into the log or the snapshot tmp file — plus a sprinkle of
/// transient faults (each simply fails its mutation, which must then
/// leave no trace). After the simulated crash the service object is
/// destroyed without checkpointing, the data dir is reopened cleanly, and
/// the recovered state is fingerprinted against ephemeral reference
/// services replaying (a) exactly the acknowledged mutations and (b)
/// those plus the in-flight one. Recovery must reproduce one of the two
/// bit-identically: an acknowledged mutation can never be lost, an
/// unacknowledged one can never surface (the in-flight mutation is atomic
/// or absent), and the fingerprint covers the knowledge nodes (their
/// concept features included), frequency table, catalogs, full lists,
/// and live recommendation scores, so "identical" means identical serving
/// behaviour. The services annotate with a small fixed taxonomy: one
/// concept per script word plus a few multiword concepts.
///
/// Shared by tests/service_durability_test.cc and bench/bench_crash_recovery.
ServiceTortureReport RunServiceCrashSchedule(
    const ServiceTortureOptions& options);

}  // namespace qatk::quest

#endif  // QATK_QUEST_SERVICE_TORTURE_H_
