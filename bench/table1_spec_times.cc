// Table 1: absolute SPEC execution times for native, Chrome, and Firefox,
// plus geomean/median slowdowns. The simulator is deterministic, so each
// cell is one run's exact simulated seconds (the paper reports the mean of
// 5 hardware runs +- stderr).
#include "bench/bench_util.h"

using namespace nsf;

int main() {
  printf("== Table 1: SPEC execution times (simulated seconds) ==\n\n");
  auto rows = RunSuite(AllSpec(),
                       {CodegenOptions::NativeClang(), CodegenOptions::ChromeV8(),
                        CodegenOptions::FirefoxSM()});
  std::vector<std::vector<std::string>> table = {
      {"benchmark", "native", "chrome", "firefox"}};
  std::vector<double> chrome_ratios;
  std::vector<double> firefox_ratios;
  for (const SuiteRow& row : rows) {
    const RunResult& nat = row.by_profile.at("native-clang");
    const RunResult& ch = row.by_profile.at("chrome-v8");
    const RunResult& fx = row.by_profile.at("firefox-spidermonkey");
    table.push_back({row.name, StrFormat("%.6f", nat.seconds), StrFormat("%.6f", ch.seconds),
                     StrFormat("%.6f", fx.seconds)});
    chrome_ratios.push_back(ch.seconds / nat.seconds);
    firefox_ratios.push_back(fx.seconds / nat.seconds);
  }
  table.push_back({"slowdown: geomean", "-", StrFormat("%.2fx", GeoMean(chrome_ratios)),
                   StrFormat("%.2fx", GeoMean(firefox_ratios))});
  table.push_back({"slowdown: median", "-", StrFormat("%.2fx", Median(chrome_ratios)),
                   StrFormat("%.2fx", Median(firefox_ratios))});
  printf("%s\n", RenderTable(table).c_str());
  printf("Paper (Table 1): geomean 1.55x / 1.45x, median 1.53x / 1.54x.\n");
  WriteBenchJson("table1_spec_times", SuiteRowsJson(rows));
  return 0;
}
