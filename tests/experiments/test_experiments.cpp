/// The experiment registry against its committed outputs and its docs.
///
/// Every experiment runs with fixed seeds, and its results do not depend
/// on the thread count, so its printed report is pinned byte for byte in
/// tests/experiments/<ID>.txt.  After an intended change, regenerate one
/// with `fvc_sim experiment --id ID > tests/experiments/ID.txt`.

#include "fvc/experiments/experiments.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace fvc::experiments {

/// gtest prints a failing test's parameter; show the experiment's ID.
void PrintTo(const Experiment& e, std::ostream* os) { *os << e.id; }

namespace {

std::string read_source_file(const std::string& relative) {
  std::ifstream in(std::string(FVC_SOURCE_DIR) + "/" + relative, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class ExperimentGolden : public ::testing::TestWithParam<Experiment> {};

TEST_P(ExperimentGolden, OutputMatchesGoldenAndEveryCheckHolds) {
  const Experiment& e = GetParam();
  std::ostringstream out;
  const bool ok = print_report(e, e.run(), out);
  const std::string golden = "tests/experiments/" + std::string(e.id) + ".txt";
  EXPECT_EQ(out.str(), read_source_file(golden))
      << "regenerate with: fvc_sim experiment --id " << e.id << " > " << golden;
  EXPECT_TRUE(ok) << "a shape check of " << e.id << " failed";
}

INSTANTIATE_TEST_SUITE_P(Registry, ExperimentGolden, ::testing::ValuesIn(experiment_table()),
                         [](const ::testing::TestParamInfo<Experiment>& info) {
                           std::string name(info.param.id);
                           for (char& c : name) {
                             c = c == '-' ? '_' : c;
                           }
                           return name;
                         });

std::set<std::string> registry_ids() {
  std::set<std::string> ids;
  for (const Experiment& e : experiment_table()) {
    ids.emplace(e.id);
  }
  return ids;
}

/// IDs of EXPERIMENTS.md's "### ID — title" headings; one heading may
/// name several experiments as "ID / ID".
std::set<std::string> experiments_md_ids() {
  std::set<std::string> ids;
  std::istringstream doc(read_source_file("EXPERIMENTS.md"));
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("### ", 0) != 0) {
      continue;
    }
    std::string names = line.substr(4, line.find(" — ") - 4);
    for (std::size_t slash; (slash = names.find(" / ")) != std::string::npos;) {
      ids.insert(names.substr(0, slash));
      names.erase(0, slash + 3);
    }
    ids.insert(names);
  }
  return ids;
}

/// The first column of DESIGN.md's section 4 table.
std::set<std::string> design_md_ids() {
  std::set<std::string> ids;
  std::istringstream doc(read_source_file("DESIGN.md"));
  bool in_section = false;
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line.rfind("## 4.", 0) == 0;
    } else if (in_section && line.rfind("| ", 0) == 0) {
      ids.insert(line.substr(2, line.find(" |") - 2));
    }
  }
  ids.erase("Exp. id");  // the header row
  return ids;
}

TEST(ExperimentDocs, ExperimentsMdHeadingsNameExactlyTheRegistry) {
  EXPECT_EQ(experiments_md_ids(), registry_ids());
}

TEST(ExperimentDocs, DesignMdIndexNamesExactlyTheRegistry) {
  EXPECT_EQ(design_md_ids(), registry_ids());
}

}  // namespace
}  // namespace fvc::experiments
