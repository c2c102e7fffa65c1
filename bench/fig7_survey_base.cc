// Figure 7: breakdown of Base-stage stopping crowd sizes across Quantcast
// rank bands (114 + 107 + 118 + 148 servers in the paper; θ=100 ms, at most
// one request per client, up to 85 clients).
#include "bench/survey_common.h"

int main(int argc, char** argv) {
  using mfc::Cohort;
  constexpr mfc::StageKind kStage = mfc::StageKind::kBase;
  return mfc::RunSurveyBench(
      argc, argv,
      {"fig7_survey_base", "Survey: Base stage stopping crowd sizes by Quantcast rank",
       "Figure 7 (Section 5.1)",
       {{Cohort::kRank1To1K, kStage, 114, 85, 700},
        {Cohort::kRank1KTo10K, kStage, 107, 85, 701},
        {Cohort::kRank10KTo100K, kStage, 118, 85, 702},
        {Cohort::kRank100KTo1M, kStage, 148, 85, 703}},
       "\nPaper shape: stop fraction rises monotonically with rank index — 17% for\n"
       "1-1K up to 45% for 100K-1M; >15% of 100K-1M servers stop at <=20; ~10% of\n"
       "even the top band stops below 40.\n"});
}
