// Figure 8: breakdown of Small-Query-stage stopping crowd sizes across
// Quantcast rank bands (106/103/103/122 servers in the paper).
#include "bench/survey_common.h"

int main(int argc, char** argv) {
  using mfc::Cohort;
  constexpr mfc::StageKind kStage = mfc::StageKind::kSmallQuery;
  return mfc::RunSurveyBench(
      argc, argv,
      {"fig8_survey_query", "Survey: Small Query stage stopping crowd sizes by Quantcast rank",
       "Figure 8 (Section 5.1)",
       {{Cohort::kRank1To1K, kStage, 106, 85, 800},
        {Cohort::kRank1KTo10K, kStage, 103, 85, 801},
        {Cohort::kRank10KTo100K, kStage, 103, 85, 802},
        {Cohort::kRank100KTo1M, kStage, 122, 85, 803}},
       "\nPaper shape: strong rank correlation, and uniformly worse than Base — for\n"
       "100K-1M, ~75% cannot handle 50 simultaneous queries and ~45% cannot handle\n"
       "20; even in the 1-1K band ~20% stop by 40.\n"});
}
