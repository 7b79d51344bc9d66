// Ablation study of PivotScale's design choices (Sections IV & V):
//
//  1. Early termination (Section V-A): counting with the pruning rules
//     disabled — same counts, how much more work?
//  2. All-k-up-to-k mode (Section V-A): the paper claims every clique size
//     up through k costs "only a modest amount of additional work" over
//     single-k; measure the overhead.
//  3. Scheduling (Section IV): the paper sweeps chunk sizes and scheduler
//     types and finds load balance is a minor factor; replay the work
//     trace under static and dynamic scheduling with several chunk sizes.
// Ablations 1 and 2 exit 1 when a count differs from the default single-k
// run (for all-up-to-k, when any per_size[s], s <= k, differs from the
// all-k run), and so does the all-size leaf histogram (a kAllK run's
// per_size[k] and its profile's CountK(k)), so a small-scale run
// (--scale 0.05) doubles as a CI exactness check of the early-termination,
// closed-form tail and histogram rules. Those runs all share the
// production kernels, so the default run is also checked against the
// paper's dense structure, a PivotCounter that shares no code with the
// bitmap kernel (STRUCTURE MISMATCH).
#include <iostream>

#include "bench_common.h"
#include "graph/dag.h"
#include "order/core_order.h"
#include "pivot/count.h"
#include "pivot/count_on.h"
#include "sim/scaling_sim.h"
#include "sim/work_trace.h"
#include "util/table.h"
#include "util/timer.h"

using namespace pivotscale;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  // Default to a representative subset to keep the bare run bounded.
  if (!args.Has("datasets")) {
    TablePrinter note("Ablations (defaults: 3 representative graphs; use "
                      "--datasets for more)",
                      {"section"});
    note.AddRow({"1: early termination  2: all-k overhead  3: scheduling"});
    note.Print();
  }
  const auto suite = [&] {
    if (args.Has("datasets")) return bench::LoadSuite(args);
    std::vector<Dataset> s;
    for (const char* name :
         {"dblp-like", "skitter-like", "livejournal-like"})
      s.push_back(MakeDataset(name, args.GetDouble("scale", 1.0)));
    return s;
  }();
  const auto k = args.GetK(8);

  // --- 1 & 2: recursion-mode ablations -----------------------------------
  TablePrinter modes("Ablation: early termination and all-k overhead (k=" +
                         std::to_string(k) + ", seconds / edge-ops ratio)",
                     {"graph", "single-k (s)", "no-early-term (s)",
                      "slowdown", "ops ratio", "all-up-to-k (s)",
                      "overhead vs single-k"});
  for (const Dataset& d : suite) {
    const Graph dag = Directionalize(d.graph, CoreOrdering(d.graph).ranks);

    CountOptions base;
    base.k = k;
    base.collect_op_stats = true;
    Timer t1;
    const CountResult with_term = CountCliques(dag, base);
    const double base_seconds = t1.Seconds();

    if (CountCliquesOn(dag, base, SubgraphKind::kDense).total !=
        with_term.total) {
      std::cerr << "STRUCTURE MISMATCH on " << d.name << "\n";
      return 1;
    }

    CountOptions no_term = base;
    no_term.early_termination = false;
    Timer t2;
    const CountResult without_term = CountCliques(dag, no_term);
    const double no_term_seconds = t2.Seconds();
    if (with_term.total != without_term.total) {
      std::cerr << "ABLATION MISMATCH on " << d.name << "\n";
      return 1;
    }

    CountOptions all_sizes = base;
    all_sizes.mode = CountMode::kAllK;
    const CountResult all_k = CountCliques(dag, all_sizes);
    // total is per_size[k] in kAllK (0 past the clique bound).
    if (all_k.total != with_term.total) {
      std::cerr << "ALL-K MISMATCH on " << d.name << "\n";
      return 1;
    }

    // kAllUpToK's closed-form tail records leaves of every size up to k,
    // and the serving engine answers smaller k from them: every per_size
    // up to k must match the full-recursion kAllK run.
    CountOptions upto = base;
    upto.mode = CountMode::kAllUpToK;
    Timer t3;
    const CountResult up_to_k = CountCliques(dag, upto);
    const double upto_seconds = t3.Seconds();
    bool upto_exact = up_to_k.total == with_term.total &&
                      up_to_k.per_size.size() == all_k.per_size.size();
    for (std::uint32_t s = 1; upto_exact && s <= k && s < all_k.per_size.size();
         ++s)
      upto_exact = up_to_k.per_size[s] == all_k.per_size[s];
    if (!upto_exact) {
      std::cerr << "ALL-UP-TO-K MISMATCH on " << d.name << "\n";
      return 1;
    }
    if (all_k.profile.CountK(k) != with_term.total) {
      std::cerr << "PROFILE MISMATCH on " << d.name << "\n";
      return 1;
    }

    modes.AddRow(
        {d.name, TablePrinter::Cell(base_seconds, 3),
         TablePrinter::Cell(no_term_seconds, 3),
         TablePrinter::Cell(no_term_seconds / base_seconds, 2),
         TablePrinter::Cell(static_cast<double>(without_term.ops.edge_ops) /
                                static_cast<double>(with_term.ops.edge_ops),
                            2),
         TablePrinter::Cell(upto_seconds, 3),
         TablePrinter::Cell(upto_seconds / base_seconds, 2)});
  }
  modes.Print();
  std::cout << "\n";

  // --- 3: scheduling ablation (simulated 64 threads) ---------------------
  TablePrinter sched(
      "Ablation: scheduling policy, simulated speedup at 64 threads",
      {"graph", "static", "dynamic c=1", "dynamic c=16", "dynamic c=64",
       "dynamic c=256"});
  for (const Dataset& d : suite) {
    const Graph dag = Directionalize(d.graph, CoreOrdering(d.graph).ranks);
    CountOptions options;
    options.k = k;
    options.num_threads = 1;
    WorkTrace trace;
    CountCliquesOn(dag, options, SubgraphKind::kBitmap, &trace);

    std::vector<std::string> row = {d.name};
    ScalingSimConfig config;
    config.num_threads = 64;
    config.static_schedule = true;
    row.push_back(TablePrinter::Cell(
        SimulateSpeedup(trace, config), 1));
    config.static_schedule = false;
    for (int chunk : {1, 16, 64, 256}) {
      config.chunk_size = chunk;
      row.push_back(TablePrinter::Cell(
          SimulateSpeedup(trace, config), 1));
    }
    sched.AddRow(std::move(row));
  }
  sched.Print();
  return 0;
}
