// Table 5: Base-stage stopping crowd sizes for 89 PhishTank-listed servers,
// compared against the Quantcast 100K-1M band (the paper's conclusion:
// phishing sites are hosted on hardware resembling low-end legitimate sites).
#include "bench/survey_common.h"

int main(int argc, char** argv) {
  using mfc::Cohort;
  constexpr mfc::StageKind kStage = mfc::StageKind::kBase;
  return mfc::RunSurveyBench(
      argc, argv,
      {"table5_phishing", "Survey: phishing servers (Base stage)", "Table 5 (Section 5.3)",
       // The comparison band runs at the phishing row's size and crowd ceiling.
       {{Cohort::kPhishing, kStage, 89, 50, 55}, {Cohort::kRank100KTo1M, kStage, 89, 50, 56}},
       "\n(rows: phishing, then Quantcast 100K-1M at the same crowd ceiling)\n"
       "\nPaper: phishing — 12% stop in 10-20, 16% in 20-30, 11%/11% above, 50%\n"
       "NoStop; 28% cannot handle 30 requests vs 18% for the 100K-1M band, whose\n"
       "NoStop fraction (62%) is only slightly higher.\n"});
}
