// Table 4: stopping crowd sizes for startup-company servers — Base stage on
// 107 servers, Small Query on 82 (plus the Large Object result quoted in the
// text: ~30% stop below crowd 30). Max crowd 50, θ=100 ms.
#include "bench/survey_common.h"

int main(int argc, char** argv) {
  using mfc::Cohort;
  using mfc::StageKind;
  return mfc::RunSurveyBench(
      argc, argv,
      {"table4_startups", "Survey: startup-company servers", "Table 4 (Section 5.2)",
       {{Cohort::kStartup, StageKind::kBase, 107, 50, 40},
        {Cohort::kStartup, StageKind::kSmallQuery, 82, 50, 41},
        {Cohort::kStartup, StageKind::kLargeObject, 103, 50, 42}},
       "\n(rows: Base, Small Query, Large Object)\n"
       "\nPaper: Base — 24% stop <=20, 6%/7%/6% in 20-30/30-40/40-50, 58% NoStop.\n"
       "Small Query — 33% stop <=20, 12%/6%/5%, 44% NoStop. Large Object —\n"
       "qualitatively like Base, ~30% stopping below 30.\n"});
}
