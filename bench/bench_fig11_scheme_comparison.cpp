// Fig. 11 reproduction: execution time of NAS, DAS and TS for the three
// Table-I kernels at 24 GB on 24 nodes. The paper reports DAS over 30%
// faster than TS and over 60% faster than NAS.
#include "bench_common.hpp"

#include "core/scheme.hpp"

int main(int argc, char** argv) {
  using das::core::RunReport;
  using das::core::Scheme;
  namespace bench = das::bench;

  bench::print_banner(
      "Fig. 11: Comparison of Execution Time for NAS, DAS and TS Schemes",
      "DAS > 30% faster than TS and > 60% faster than NAS at 24 GB");

  std::vector<bench::Cell> cells;
  std::vector<das::runner::ShapeCheck> checks;

  for (const std::string& kernel : das::runner::paper_kernels()) {
    const RunReport nas = das::runner::run_cell(Scheme::kNAS, kernel, 24, 24);
    const RunReport das_r =
        das::runner::run_cell(Scheme::kDAS, kernel, 24, 24);
    const RunReport ts = das::runner::run_cell(Scheme::kTS, kernel, 24, 24);
    cells.push_back({"Fig11/" + kernel + "/NAS", nas});
    cells.push_back({"Fig11/" + kernel + "/DAS", das_r});
    cells.push_back({"Fig11/" + kernel + "/TS", ts});

    const double vs_ts = 1.0 - das_r.exec_seconds / ts.exec_seconds;
    const double vs_nas = 1.0 - das_r.exec_seconds / nas.exec_seconds;
    checks.push_back(das::runner::ShapeCheck{
        "DAS improvement over TS, " + kernel, "over 30%", vs_ts,
        vs_ts > 0.30});
    checks.push_back(das::runner::ShapeCheck{
        "DAS improvement over NAS, " + kernel, "over 60%", vs_nas,
        vs_nas > 0.60});
  }

  return bench::finish(argc, argv, cells, checks);
}
