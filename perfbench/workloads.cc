#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "stq/common/random.h"
#include "stq/gen/query_generator.h"
#include "stq/gen/road_network.h"

namespace perfbench {
namespace {

constexpr double kPeriodSeconds = 5.0;

// The paper's city (bench_common.h PaperWorkloadOptions): a 50 x 50 grid
// city with random-walk vehicles. The map is fixed, as the paper's
// Oldenburg map was; the seed places and steers vehicles and queries.
stq::RoadNetwork PaperCity() {
  stq::RoadNetwork::GridCityOptions city;
  city.rows = 50;
  city.cols = 50;
  city.seed = 42;
  return stq::RoadNetwork::MakeGridCity(city);
}

stq::NetworkGenerator::Options Vehicles(size_t n, uint64_t seed) {
  stq::NetworkGenerator::Options o;
  o.num_objects = n;
  o.seed = seed;
  o.route = stq::NetworkGenerator::RouteStrategy::kRandomWalk;
  return o;
}

stq::QueryGenerator::Options MovingSquares(size_t n, double side,
                                           uint64_t seed) {
  stq::QueryGenerator::Options o;
  o.num_queries = n;
  o.side_length = side;
  o.moving_fraction = 1.0;
  o.seed = seed ^ 0xC0FFEEull;
  o.route = stq::NetworkGenerator::RouteStrategy::kRandomWalk;
  return o;
}

// 100K objects x 100K moving square range queries of side 0.02; half the
// objects and a tenth of the queries report each period; 10K clients
// with 10 queries each; single grid, one worker.
class CityPaper final : public WorkloadSource {
 public:
  explicit CityPaper(uint64_t seed)
      : city_(PaperCity()),
        objects_(&city_, Vehicles(kObjects, seed)),
        queries_(&city_, MovingSquares(kQueries, 0.02, seed)) {
    spec_.name = "city_paper";
    spec_.engine.grid_cells_per_side = 64;
    spec_.engine.worker_threads = 1;
    spec_.num_clients = kQueries / 10;
    spec_.warmup_periods = 8;
  }

  void Initial(std::vector<stq::ObjectReport>* objects,
               std::vector<QuerySpec>* queries) override {
    *objects = objects_.InitialReports(0.0);
    for (const stq::QueryRegionReport& q : queries_.InitialRegions(0.0)) {
      QuerySpec s;
      s.id = q.id;
      s.client = (q.id - 1) / 10 + 1;
      s.region = q.region;
      queries->push_back(s);
    }
  }

  void NextPeriod(PeriodInput* out) override {
    ++period_;
    out->time = static_cast<double>(period_) * kPeriodSeconds;
    out->objects = objects_.Step(out->time, kPeriodSeconds, 0.5);
    out->queries.clear();
    for (const stq::QueryRegionReport& q :
         queries_.Step(out->time, kPeriodSeconds, 0.1)) {
      out->queries.push_back(QueryMove{q.id, QueryShape::kRange, q.region, {}});
    }
  }

 private:
  static constexpr size_t kObjects = 100000;
  static constexpr size_t kQueries = 100000;
  stq::RoadNetwork city_;
  stq::NetworkGenerator objects_;
  stq::QueryGenerator queries_;
  size_t period_ = 0;
};

// Four fixed Zipf-weighted hotspots (90K objects; hotspot k holds a
// share ~ (k+1)^-1.5) plus one hotspot (10K objects) circling the centre
// of the world, so its mass keeps crossing shard cuts — the ablation_skew
// zipf and hot-cold scenarios in one world. The hotspot geometry is
// fixed; the seed draws each object's offset and jitter and each query's
// placement, so every seed asks the engine for about the same work.
// 60% of queries follow a Zipf hotspot and 10% the circling one, at a
// fixed offset; 30% sit uniformly. Shapes: 60% squares of side 0.01, 30%
// circles of radius 0.006, 10% 8-NN. Half the objects and a fifth of the
// hotspot-following queries report each period.
class HotspotSharded final : public WorkloadSource {
 public:
  HotspotSharded(uint64_t seed, int workers) : rng_(seed * 31 + 7) {
    spec_.name = "hotspot_sharded";
    stq::QueryProcessorOptions& e = spec_.engine;
    e.grid_cells_per_side = 32;
    e.num_shards = 4;
    e.worker_threads = workers;
    e.adaptive.enabled = true;
    e.adaptive.rebalance = true;
    e.adaptive.rebalance_cooldown_ticks = 4;
    spec_.num_clients = kQueries / 10;
    spec_.warmup_periods = 6;
  }

  void Initial(std::vector<stq::ObjectReport>* objects,
               std::vector<QuerySpec>* queries) override {
    objects_.resize(kObjects);
    for (size_t i = 0; i < kObjects; ++i) {
      Mover& o = objects_[i];
      o.home = i < kZipfObjects ? ZipfPick() : kCircling;
      o.offset = stq::Point{kSigma * rng_.NextGaussian(),
                            kSigma * rng_.NextGaussian()};
      objects->push_back(stq::ObjectReport{static_cast<stq::ObjectId>(i + 1),
                                           Place(o.home, o.offset, 0.0),
                                           stq::Velocity{}, 0.0});
    }
    anchors_.resize(kQueries);
    for (size_t i = 0; i < kQueries; ++i) {
      Mover& a = anchors_[i];
      const double u = rng_.NextDouble();
      if (u < 0.6) {
        a.home = ZipfPick();
      } else if (u < 0.7) {
        a.home = kCircling;
      } else {
        a.home = kNowhere;
      }
      a.offset = a.home == kNowhere
                     ? stq::Point{rng_.NextDouble(), rng_.NextDouble()}
                     : stq::Point{0.04 * rng_.NextGaussian(),
                                  0.04 * rng_.NextGaussian()};
      QuerySpec s;
      s.id = static_cast<stq::QueryId>(i + 1);
      s.client = static_cast<stq::ClientId>(i / 10 + 1);
      const double shape = rng_.NextDouble();
      s.shape = shape < 0.6   ? QueryShape::kRange
                : shape < 0.9 ? QueryShape::kCircle
                              : QueryShape::kKnn;
      s.center = Place(a.home, a.offset, 0.0);
      s.region = Square(s.center);
      s.radius = kRadius;
      s.k = kK;
      shapes_.push_back(s.shape);
      queries->push_back(s);
    }
  }

  void NextPeriod(PeriodInput* out) override {
    ++period_;
    const double t = static_cast<double>(period_) * kPeriodSeconds;
    out->time = t;
    out->objects.clear();
    for (size_t i = 0; i < kObjects; ++i) {
      if (!rng_.NextBool(0.5)) continue;
      const Mover& o = objects_[i];
      stq::Point p = Place(o.home, o.offset, t);
      p.x = std::clamp(p.x + kJitter * rng_.NextGaussian(), 0.0, 1.0);
      p.y = std::clamp(p.y + kJitter * rng_.NextGaussian(), 0.0, 1.0);
      out->objects.push_back(stq::ObjectReport{
          static_cast<stq::ObjectId>(i + 1), p, stq::Velocity{}, t});
    }
    out->queries.clear();
    for (size_t i = 0; i < kQueries; ++i) {
      const Mover& a = anchors_[i];
      if (a.home == kNowhere || !rng_.NextBool(0.2)) continue;
      QueryMove m;
      m.id = static_cast<stq::QueryId>(i + 1);
      m.shape = shapes_[i];
      m.center = Place(a.home, a.offset, t);
      m.center.x = std::clamp(m.center.x + 0.0005 * rng_.NextGaussian(), 0.0, 1.0);
      m.center.y = std::clamp(m.center.y + 0.0005 * rng_.NextGaussian(), 0.0, 1.0);
      m.region = Square(m.center);
      out->queries.push_back(m);
    }
  }

 private:
  static constexpr size_t kObjects = 100000;
  static constexpr size_t kZipfObjects = 90000;
  static constexpr size_t kQueries = 20000;
  static constexpr size_t kHotspots = 4;
  static constexpr size_t kCircling = kHotspots;
  static constexpr size_t kNowhere = kHotspots + 1;
  static constexpr double kSigma = 0.02;
  static constexpr double kJitter = 0.0005;
  static constexpr double kHalfSide = 0.005;
  static constexpr double kRadius = 0.006;
  static constexpr int kK = 8;
  // The circling hotspot: radius 0.25 around the centre, 0.01 rad/s.
  static constexpr double kOrbit = 0.25;
  static constexpr double kAngularSpeed = 0.01;

  struct Mover {
    size_t home = 0;     // hotspot index, kCircling or kNowhere
    stq::Point offset;   // from the hotspot (absolute for kNowhere)
  };

  size_t ZipfPick() {
    double norm = 0.0;
    for (size_t k = 0; k < kHotspots; ++k) norm += std::pow(k + 1.0, -1.5);
    const double u = rng_.NextDouble(0.0, norm);
    double acc = 0.0;
    for (size_t k = 0; k < kHotspots; ++k) {
      acc += std::pow(k + 1.0, -1.5);
      if (u <= acc) return k;
    }
    return kHotspots - 1;
  }

  static stq::Point Place(size_t home, const stq::Point& offset, double t) {
    static const stq::Point kCenters[kHotspots] = {
        {0.28, 0.30}, {0.72, 0.27}, {0.30, 0.71}, {0.69, 0.73}};
    stq::Point c = offset;
    if (home < kHotspots) {
      c = stq::Point{kCenters[home].x + offset.x, kCenters[home].y + offset.y};
    } else if (home == kCircling) {
      const double a = kAngularSpeed * t;
      c = stq::Point{0.5 + kOrbit * std::cos(a) + offset.x,
                     0.5 + kOrbit * std::sin(a) + offset.y};
    }
    c.x = std::clamp(c.x, 0.0, 1.0);
    c.y = std::clamp(c.y, 0.0, 1.0);
    return c;
  }

  static stq::Rect Square(const stq::Point& c) {
    return stq::Rect{c.x - kHalfSide, c.y - kHalfSide, c.x + kHalfSide,
                     c.y + kHalfSide};
  }

  stq::Xorshift128Plus rng_;
  std::vector<Mover> objects_;
  std::vector<Mover> anchors_;
  std::vector<QueryShape> shapes_;
  size_t period_ = 0;
};

// Every one of 100K vehicles reports every period with its velocity; 10K
// small queries of side 0.005 (odd ids square ranges, even ids
// predictive "within the next 10 s") on 1K clients. PersistentServer
// with per-tick sync and a checkpoint every 5 periods; 0.5% envelope
// drops and 2% of clients partitioned away for one period, each period.
// The queries are small, and the grid's cells (1/128) near their size,
// so the match pass stays light next to the WAL, checkpoints and
// resyncs.
class DurableChurn final : public WorkloadSource {
 public:
  explicit DurableChurn(uint64_t seed)
      : city_(PaperCity()),
        objects_(&city_, Vehicles(kObjects, seed)),
        queries_(&city_, MovingSquares(kQueries, 0.005, seed)),
        rng_(seed * 131 + 17) {
    spec_.name = "durable_churn";
    spec_.engine.grid_cells_per_side = 128;
    spec_.engine.worker_threads = 1;
    spec_.engine.prediction_horizon = 10.0;
    spec_.num_clients = kQueries / 10;
    spec_.predictive_objects = true;
    spec_.durable = true;
    spec_.checkpoint_every = 5;
    spec_.drop_rate = 0.005;
    spec_.partition_share = 0.02;
    spec_.warmup_periods = 4;
  }

  void Initial(std::vector<stq::ObjectReport>* objects,
               std::vector<QuerySpec>* queries) override {
    *objects = objects_.InitialReports(0.0);
    for (stq::ObjectReport& r : *objects) r.vel = objects_.VelocityOf(r.id);
    for (const stq::QueryRegionReport& q : queries_.InitialRegions(0.0)) {
      QuerySpec s;
      s.id = q.id;
      s.client = (q.id - 1) / 10 + 1;
      s.shape = q.id % 2 == 0 ? QueryShape::kPredictive : QueryShape::kRange;
      s.region = q.region;
      queries->push_back(s);
    }
  }

  void NextPeriod(PeriodInput* out) override {
    ++period_;
    out->time = static_cast<double>(period_) * kPeriodSeconds;
    out->objects = objects_.Step(out->time, kPeriodSeconds, 1.0);
    out->queries.clear();
    for (const stq::QueryRegionReport& q :
         queries_.Step(out->time, kPeriodSeconds, 0.2)) {
      out->queries.push_back(QueryMove{
          q.id, q.id % 2 == 0 ? QueryShape::kPredictive : QueryShape::kRange,
          q.region, {}});
    }
    out->partitioned.clear();
    for (stq::ClientId c = 1; c <= spec_.num_clients; ++c) {
      if (rng_.NextBool(spec_.partition_share)) out->partitioned.push_back(c);
    }
  }

 private:
  static constexpr size_t kObjects = 100000;
  static constexpr size_t kQueries = 10000;
  stq::RoadNetwork city_;
  stq::NetworkGenerator objects_;
  stq::QueryGenerator queries_;
  stq::Xorshift128Plus rng_;
  size_t period_ = 0;
};

}  // namespace

std::unique_ptr<WorkloadSource> MakeWorkload(const std::string& name,
                                             uint64_t seed, int workers) {
  if (name == "city_paper") return std::make_unique<CityPaper>(seed);
  if (name == "hotspot_sharded") {
    return std::make_unique<HotspotSharded>(seed, workers);
  }
  if (name == "durable_churn") return std::make_unique<DurableChurn>(seed);
  return nullptr;
}

}  // namespace perfbench
