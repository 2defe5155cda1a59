// Reproduces the paper's worked examples (Figures 1-4) and prints the
// update streams in the paper's own notation. The same geometries are
// asserted bit-exactly in tests/scenario_paper_test.cc; this binary is
// the human-readable version.
//
// Build & run:  ./build/examples/paper_figures

#include <cstdio>
#include <vector>

#include "stq/core/client.h"
#include "stq/core/query_processor.h"
#include "stq/core/server.h"

namespace {

void PrintUpdates(const char* label, const std::vector<stq::Update>& updates) {
  std::printf("%s:", label);
  if (updates.empty()) std::printf(" (no updates)");
  for (const stq::Update& u : updates) {
    std::printf(" %s", u.DebugString().c_str());
  }
  std::printf("\n");
}

void Figure1RangeQueries() {
  std::printf("--- Figure 1: continuous range queries ---\n");
  stq::QueryProcessorOptions options;
  options.grid_cells_per_side = 8;
  stq::QueryProcessor qp(options);

  qp.UpsertObject(1, {0.05, 0.05}, 0.0);
  qp.UpsertObject(2, {0.55, 0.55}, 0.0);
  qp.UpsertObject(3, {0.45, 0.45}, 0.0);
  qp.UpsertObject(4, {0.90, 0.90}, 0.0);
  qp.UpsertObject(5, {0.15, 0.15}, 0.0);
  qp.UpsertObject(6, {0.15, 0.75}, 0.0);
  qp.UpsertObject(7, {0.75, 0.15}, 0.0);
  qp.UpsertObject(8, {0.25, 0.75}, 0.0);
  qp.UpsertObject(9, {0.40, 0.90}, 0.0);
  qp.RegisterRangeQuery(1, {0.10, 0.10, 0.20, 0.20});
  qp.RegisterRangeQuery(2, {0.50, 0.50, 0.60, 0.60});
  qp.RegisterRangeQuery(3, {0.70, 0.10, 0.80, 0.20});
  qp.RegisterRangeQuery(4, {0.10, 0.70, 0.20, 0.80});
  qp.RegisterRangeQuery(5, {0.85, 0.85, 0.95, 0.95});
  PrintUpdates("T0 (first answers)", qp.EvaluateTick(0.0).updates);

  qp.UpsertObject(2, {0.75, 0.75}, 1.0);
  qp.UpsertObject(3, {0.55, 0.58}, 1.0);
  qp.UpsertObject(6, {0.15, 0.60}, 1.0);
  qp.UpsertObject(8, {0.18, 0.72}, 1.0);
  qp.MoveRangeQuery(1, {0.30, 0.30, 0.40, 0.40});
  qp.MoveRangeQuery(3, {0.70, 0.30, 0.80, 0.40});
  qp.MoveRangeQuery(5, {0.85, 0.60, 0.95, 0.70});
  PrintUpdates("T1 (incremental)  ", qp.EvaluateTick(1.0).updates);
  std::printf("paper reports: (Q1,-p5) (Q2,-p2) (Q2,+p3) (Q3,-p7) "
              "(Q4,-p6) (Q4,+p8) (Q5,-p4)\n\n");
}

void Figure2KnnQueries() {
  std::printf("--- Figure 2: continuous k-NN queries (k=3) ---\n");
  stq::QueryProcessorOptions options;
  options.grid_cells_per_side = 8;
  stq::QueryProcessor qp(options);

  qp.UpsertObject(1, {0.50, 0.50}, 0.0);
  qp.UpsertObject(2, {0.18, 0.20}, 0.0);
  qp.UpsertObject(3, {0.20, 0.25}, 0.0);
  qp.UpsertObject(4, {0.28, 0.20}, 0.0);
  qp.UpsertObject(5, {0.78, 0.80}, 0.0);
  qp.UpsertObject(6, {0.80, 0.85}, 0.0);
  qp.UpsertObject(7, {0.88, 0.80}, 0.0);
  qp.UpsertObject(8, {0.80, 0.90}, 0.0);
  qp.RegisterKnnQuery(1, {0.20, 0.20}, 3);
  qp.RegisterKnnQuery(2, {0.80, 0.80}, 3);
  PrintUpdates("T0 (first answers)", qp.EvaluateTick(0.0).updates);

  qp.UpsertObject(1, {0.22, 0.20}, 1.0);  // p1 drives next to Q1
  qp.UpsertObject(7, {0.95, 0.95}, 1.0);  // p7 drives away from Q2
  PrintUpdates("T1 (incremental)  ", qp.EvaluateTick(1.0).updates);
  double q2_radius = 0.0;
  qp.ForEachQueryInfo([&](const stq::QueryProcessor::QueryInfo& q) {
    if (q.id == 2) q2_radius = q.circle.radius;
  });
  std::printf("note: Q2's answer circle radius grew to %.3f — unlike range "
              "queries, k-NN regions change size over time\n\n",
              q2_radius);
}

void Figure3Predictive() {
  std::printf("--- Figure 3: predictive range query ---\n");
  stq::QueryProcessorOptions options;
  options.grid_cells_per_side = 8;
  stq::QueryProcessor qp(options);

  qp.UpsertPredictiveObject(1, {0.00, 0.50}, {0.05, 0.0}, 0.0);
  qp.UpsertPredictiveObject(2, {0.00, 0.00}, {0.01, 0.01}, 0.0);
  qp.UpsertPredictiveObject(3, {1.00, 0.50}, {0.0, 0.0}, 0.0);
  qp.UpsertPredictiveObject(4, {0.50, 0.30}, {0.0, 0.02}, 0.0);
  qp.UpsertPredictiveObject(5, {0.90, 0.90}, {-0.01, -0.01}, 0.0);
  qp.RegisterPredictiveQuery(1, {0.40, 0.40, 0.60, 0.60}, 10.0, 12.0);
  PrintUpdates("T0 (who will be in R during [10,12])",
               qp.EvaluateTick(0.0).updates);

  qp.UpsertPredictiveObject(1, {0.25, 0.50}, {0.0, 0.05}, 5.0);
  qp.UpsertPredictiveObject(2, {0.30, 0.50}, {0.02, 0.0}, 5.0);
  qp.UpsertPredictiveObject(3, {1.00, 0.50}, {0.0, 0.01}, 5.0);
  PrintUpdates("T1 (new velocities for p1,p2,p3)",
               qp.EvaluateTick(5.0).updates);
  std::printf("note: p3 reported new information but its membership did "
              "not change, and p4/p5 sent nothing — no tuples for them\n\n");
}

void Figure4OutOfSync() {
  std::printf("--- Figure 4: out-of-sync client recovery ---\n");
  stq::Server::Options options;
  options.processor.grid_cells_per_side = 8;
  stq::Server server(options);
  stq::Client client(100);

  server.AttachClient(100);
  server.RegisterRangeQuery(1, 100, {0.40, 0.40, 0.60, 0.60});
  server.ReportObject(1, {0.45, 0.50}, 0.0);
  server.ReportObject(2, {0.55, 0.50}, 0.0);
  server.ReportObject(3, {0.10, 0.10}, 0.0);
  server.ReportObject(4, {0.90, 0.90}, 0.0);

  for (const auto& d : server.Tick(1.0)) client.ApplyUpdates(d.updates);
  server.CommitQuery(1);
  client.Commit(1);
  std::printf("T1: committed answer = {p1, p2}\n");

  server.DisconnectClient(100);
  server.ReportObject(2, {0.90, 0.10}, 2.0);
  server.Tick(2.0);
  std::printf("T2: client disconnected, (Q1,-p2) lost\n");
  server.ReportObject(3, {0.50, 0.45}, 3.0);
  server.ReportObject(4, {0.50, 0.55}, 3.0);
  server.Tick(3.0);
  std::printf("T3: still disconnected, (Q1,+p3) (Q1,+p4) lost\n");

  stq::Result<stq::Server::Delivery> recovery = server.ReconnectClient(100);
  PrintUpdates("T4 wakeup: server ships diff(committed, current)",
               recovery->updates);
  client.RollbackToCommitted();
  client.ApplyUpdates(recovery->updates);
  std::printf("client converged to {");
  for (stq::ObjectId id : client.SortedAnswerOf(1)) {
    std::printf(" p%llu", (unsigned long long)id);
  }
  std::printf(" } — the correct answer, without resending p1\n");
}

}  // namespace

int main() {
  Figure1RangeQueries();
  Figure2KnnQueries();
  Figure3Predictive();
  Figure4OutOfSync();
  return 0;
}
