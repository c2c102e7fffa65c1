// Figure 9: breakdown of Large-Object-stage stopping crowd sizes across
// Quantcast rank bands (129/100/114/103 servers in the paper).
#include "bench/survey_common.h"

int main(int argc, char** argv) {
  using mfc::Cohort;
  constexpr mfc::StageKind kStage = mfc::StageKind::kLargeObject;
  return mfc::RunSurveyBench(
      argc, argv,
      {"fig9_survey_large", "Survey: Large Object stage stopping crowd sizes by Quantcast rank",
       "Figure 9 (Section 5.1)",
       {{Cohort::kRank1To1K, kStage, 129, 85, 900},
        {Cohort::kRank1KTo10K, kStage, 100, 85, 901},
        {Cohort::kRank10KTo100K, kStage, 114, 85, 902},
        {Cohort::kRank100KTo1M, kStage, 103, 85, 903}},
       "\nPaper shape: bandwidth provisioning is less rank-correlated than the\n"
       "back-end: outside the top band, ~45-57% of servers stop by 50, and the\n"
       "lower two bands look better here than they did on Small Query.\n"});
}
