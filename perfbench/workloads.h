// The benchmark's workloads: seeded input generators that sit outside
// the measured program. The benchmark hands the engine only the reports a
// WorkloadSource produces; the seed never reaches the engine.
//
//   city_paper       the paper's reference: 100K network-bound objects x
//                    100K moving square range queries, single grid.
//   hotspot_sharded  Zipf hotspots plus one fast-drifting hotspot that
//                    crosses shard cuts, hotspot-following range/circle/
//                    k-NN queries, 4 shards with refinement + rebalance.
//   durable_churn    every object reports every period with velocity,
//                    light range + predictive queries, PersistentServer
//                    with per-tick sync and checkpoints, lossy delivery
//                    and client partitions.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stq/common/clock.h"
#include "stq/common/ids.h"
#include "stq/core/options.h"
#include "stq/gen/network_generator.h"
#include "stq/geo/point.h"
#include "stq/geo/rect.h"

namespace perfbench {

enum class QueryShape : uint8_t { kRange, kCircle, kKnn, kPredictive };

// One query registration: owner client, shape and initial placement.
struct QuerySpec {
  stq::QueryId id = 0;
  stq::ClientId client = 0;
  QueryShape shape = QueryShape::kRange;
  stq::Rect region;       // kRange, kPredictive
  stq::Point center;      // kCircle, kKnn
  double radius = 0.0;    // kCircle
  int k = 0;              // kKnn
};

// One query movement report.
struct QueryMove {
  stq::QueryId id = 0;
  QueryShape shape = QueryShape::kRange;
  stq::Rect region;   // kRange, kPredictive
  stq::Point center;  // kCircle, kKnn
};

// Everything that arrives in one evaluation period.
struct PeriodInput {
  stq::Timestamp time = 0.0;
  std::vector<stq::ObjectReport> objects;
  std::vector<QueryMove> queries;
  // Clients unreachable (both directions) for this period.
  std::vector<stq::ClientId> partitioned;
};

// How stq_e2e assembles the program for a workload.
struct WorkloadSpec {
  std::string name;
  stq::QueryProcessorOptions engine;
  size_t num_clients = 0;
  // Objects report with velocity (ReportPredictiveObject).
  bool predictive_objects = false;
  // PersistentServer on the POSIX Env instead of the in-memory Server.
  bool durable = false;
  // Checkpoint after every Nth period (0 = never).
  size_t checkpoint_every = 0;
  // FaultInjectionTransport drop probability (0 = PerfectTransport).
  double drop_rate = 0.0;
  // Share of clients partitioned away for one period, each period.
  double partition_share = 0.0;
  // Periods run after set-up before measurement starts.
  size_t warmup_periods = 0;
};

class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  const WorkloadSpec& spec() const { return spec_; }

  // The initial object placements and query registrations (set-up input).
  virtual void Initial(std::vector<stq::ObjectReport>* objects,
                       std::vector<QuerySpec>* queries) = 0;

  // Generates the next period's reports; periods are 1, 2, ... and
  // period k is stamped k x 5 s.
  virtual void NextPeriod(PeriodInput* out) = 0;

 protected:
  WorkloadSpec spec_;
};

// nullptr for an unknown name. `workers` caps engine worker threads.
std::unique_ptr<WorkloadSource> MakeWorkload(const std::string& name,
                                             uint64_t seed, int workers);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
