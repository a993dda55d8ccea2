#include "fvc/experiments/experiments.hpp"

#include <ostream>

#include "fvc/experiments/entries.hpp"

namespace fvc::experiments {

const std::vector<Experiment>& experiment_table() {
  static const std::vector<Experiment> table = {
      {"FIG7", "CSA vs effective angle theta (n = 1000)", &fig7},
      {"FIG8", "CSA vs number of cameras n (theta = pi/4)", &fig8},
      {"T1-VAL", "Theorem 1 (necessary-condition CSA), uniform deployment",
       &thm1_necessary},
      {"T2-VAL", "Theorem 2 (sufficient-condition CSA), uniform deployment",
       &thm2_sufficient},
      {"T3-VAL", "Theorem 3 (P_N under Poisson deployment), theta = pi/2",
       &thm3_poisson_necessary},
      {"T4-VAL", "Theorem 4 (P_S under Poisson deployment), theta = pi/2",
       &thm4_poisson_sufficient},
      {"AREA-EQ", "decisive role of sensing area (Section VI-A)", &area_equivalence},
      {"GAP", "the necessary/sufficient band (Section VI-C, Figure 9)", &gap_phase},
      {"1COV", "theta = pi degeneration to 1-coverage (Section VII-A)", &one_coverage},
      {"KCOV", "full view vs k-coverage, k = ceil(pi/theta) (Section VII-B)", &k_coverage},
      {"WC-CMP", "Wang & Cao lattice baseline (Section VII-C)", &wang_cao},
      {"HET", "CSA as a weighted-sum criterion (Definition 2)", &heterogeneity},
      {"BARRIER", "full-view barrier coverage vs area coverage", &barrier},
      {"KFV", "k-full-view coverage (fault tolerance extension)", &k_full_view},
      {"PROB", "probabilistic sensing extension", &probabilistic},
      {"BOUNDARY", "torus vs bounded square (ablation of Section II-A)", &boundary},
      {"REPAIR", "greedy hole-patching cost across the CSA band", &repair},
      {"STEER", "fixed orientations vs steerable cameras", &steering},
      {"EXACT", "exact per-point full-view probability (Stevens mixture)", &exact_theory},
      {"CONJ", "probing the critical-condition conjecture (Section VI-C)", &conjecture},
      {"CONN", "full-view coverage vs communication connectivity", &connectivity},
      {"OCCL", "coverage under disc obstacles", &occlusion},
      {"MOB", "mobility compensates sparse deployments", &mobility},
      {"DUTY", "duty cycling == sensing-area thinning (and lifetime)", &duty_cycle},
      {"ORIENT", "von-Mises orientation bias vs the uniform assumption",
       &orientation_bias},
      {"AIM", "one-shot orientation optimization vs random aim", &aim},
      {"PROVISION", "empirical stopping population vs CSA predictions", &provision},
      {"CLUSTER", "Matern-clustered airdrops vs independent positions", &cluster},
  };
  return table;
}

const Experiment* find_experiment(std::string_view id) {
  for (const Experiment& e : experiment_table()) {
    if (e.id == id) {
      return &e;
    }
  }
  return nullptr;
}

bool print_report(const Experiment& e, const Report& report, std::ostream& out) {
  out << "=== " << e.id << ": " << e.title << " ===\n";
  if (!report.setup.empty()) {
    out << report.setup << "\n";
  }
  for (const Panel& panel : report.panels) {
    out << "\n";
    if (!panel.heading.empty()) {
      out << "--- " << panel.heading << " ---\n";
    }
    panel.table.print(out);
  }

  std::size_t failed = 0;
  out << "\nShape checks:\n";
  for (const Check& check : report.checks) {
    out << "  * " << check.name << " -> " << (check.ok ? "OK" : "MISMATCH") << "\n";
    failed += check.ok ? 0 : 1;
  }
  if (failed == 0) {
    out << "Overall: OK (" << report.checks.size() << " of " << report.checks.size()
        << " checks hold)\n";
  } else {
    out << "Overall: MISMATCH (" << failed << " of " << report.checks.size()
        << " checks fail)\n";
  }

  if (report.csv.columns() > 0) {
    out << "\nCSV:\n";
    report.csv.write_csv(out);
  }
  return failed == 0;
}

}  // namespace fvc::experiments
