// Golden modeled numbers: every Counters and Timing field of every
// simulated kernel, pinned exactly. The simulator is deterministic, so a
// change that only makes it cheaper to run must leave all of them
// bit-identical; a change to the model itself updates this table on
// purpose (a failing case prints its new row).
//
// Row counts: one lane, a partial warp, a partial block and a grid of 31
// blocks, which wraps the 30 SMs so two blocks share one L1. Each case
// launches twice on one device without resetting it. Device::alloc never
// rewinds, so launch 2 mirrors every array at fresh addresses; what it
// pins is the counters accumulated across launches. Every kernel runs on
// the TITAN Xp config; the hybrid kernel also runs with a shrunken L2, and
// the collaborative kernel with 1 KiB of shared memory (128 packed nodes),
// so each tree's subtrees are staged over several batches.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "gpukernels/ablation_kernels.hpp"
#include "gpukernels/kernels.hpp"
#include "layout/csr.hpp"
#include "layout/hierarchical.hpp"

namespace hrf::gpukernels {
namespace {

struct GoldenTiming {
  double cycles, seconds, compute_cycles, dram_cycles, l2_cycles, atomic_cycles;
  const char* limiter;
};

struct Golden {
  const char* kernel;
  std::size_t rows;
  int launch;
  // Field order of gpusim::Counters: gld_requests, gst_requests,
  // gld_transactions, gst_transactions, l1_hits, l2_hits,
  // dram_transactions, smem_loads, smem_stores, branches,
  // divergent_branches, atomic_transactions, warp_instructions.
  gpusim::Counters counters;
  GoldenTiming timing;
};

// Recorded from the forest and queries of GoldenModel.
constexpr Golden kGolden[] = {
    {"csr", 1, 1, {158, 1, 158, 1, 105, 0, 53, 0, 0, 34, 0, 0, 445},
     {19.972208219178082, 1.2624657534246575e-08, 3.7083333333333335, 19.972208219178082, 9.986104109589041, 0, "dram"}},
    {"csr", 1, 2, {316, 2, 316, 2, 210, 0, 106, 0, 0, 68, 0, 0, 890},
     {39.944416438356164, 2.524931506849315e-08, 7.416666666666667, 39.944416438356164, 19.972208219178082, 0, "dram"}},
    {"independent", 1, 1, {92, 1, 92, 1, 53, 0, 39, 0, 0, 62, 0, 0, 407},
     {14.794228310502282, 9.3515981735159806e-09, 3.3916666666666666, 14.794228310502282, 7.397114155251141, 0, "dram"}},
    {"independent", 1, 2, {184, 2, 184, 2, 106, 0, 78, 0, 0, 124, 0, 0, 814},
     {29.588456621004564, 1.8703196347031961e-08, 6.7833333333333332, 29.588456621004564, 14.794228310502282, 0, "dram"}},
    {"collaborative", 1, 1, {148, 1, 354, 1, 124, 0, 230, 44, 117, 892, 0, 0, 2374},
     {85.436668493150677, 5.400547945205479e-08, 19.783333333333335, 85.436668493150677, 42.718334246575338, 0, "dram"}},
    {"collaborative", 1, 2, {296, 2, 708, 2, 248, 0, 460, 88, 234, 1784, 0, 0, 4748},
     {170.87333698630135, 1.0801095890410958e-07, 39.56666666666667, 170.87333698630135, 85.436668493150677, 0, "dram"}},
    {"hybrid", 1, 1, {59, 1, 80, 1, 36, 0, 44, 27, 12, 62, 0, 0, 413},
     {16.643506849315067, 1.0520547945205479e-08, 3.4416666666666669, 16.643506849315067, 8.3217534246575333, 0, "dram"}},
    {"hybrid", 1, 2, {118, 2, 160, 2, 72, 0, 88, 54, 24, 124, 0, 0, 826},
     {33.287013698630133, 2.1041095890410957e-08, 6.8833333333333337, 33.287013698630133, 16.643506849315067, 0, "dram"}},
    {"fil", 1, 1, {68, 1, 68, 1, 41, 0, 27, 0, 0, 34, 0, 0, 355},
     {10.355959817351598, 6.5461187214611871e-09, 2.9583333333333335, 10.355959817351598, 5.1779799086757992, 0, "dram"}},
    {"fil", 1, 2, {136, 2, 136, 2, 82, 0, 54, 0, 0, 68, 0, 0, 710},
     {20.711919634703197, 1.3092237442922374e-08, 5.916666666666667, 20.711919634703197, 10.355959817351598, 0, "dram"}},
    {"tree_per_block", 1, 1, {98, 7, 98, 7, 48, 10, 40, 0, 0, 62, 0, 6, 419},
     {53.383218264840181, 3.3744132910771293e-08, 3.4916666666666667, 17.383218264840181, 10.540887671232877, 36, "dram"}},
    {"tree_per_block", 1, 2, {196, 14, 196, 14, 96, 20, 80, 0, 0, 124, 0, 12, 838},
     {106.76643652968036, 6.7488265821542586e-08, 6.9833333333333334, 34.766436529680362, 21.081775342465754, 72, "dram"}},
    {"csr", 31, 1, {348, 1, 825, 1, 590, 1, 234, 0, 0, 72, 33, 0, 1015},
     {86.916091324200906, 5.4940639269406389e-08, 8.7333333333333325, 86.916091324200906, 43.642973515981737, 0, "dram"}},
    {"csr", 31, 2, {696, 2, 1650, 2, 1180, 2, 468, 0, 0, 144, 66, 0, 2030},
     {173.83218264840181, 1.0988127853881278e-07, 17.466666666666665, 173.83218264840181, 87.285947031963474, 0, "dram"}},
    {"independent", 31, 1, {204, 1, 691, 1, 542, 0, 149, 0, 0, 138, 33, 0, 937},
     {55.478356164383563, 3.5068493150684933e-08, 8.0833333333333339, 55.478356164383563, 27.739178082191781, 0, "dram"}},
    {"independent", 31, 2, {408, 2, 1382, 2, 1084, 0, 298, 0, 0, 276, 66, 0, 1874},
     {110.95671232876713, 7.0136986301369866e-08, 16.166666666666668, 110.95671232876713, 55.478356164383563, 0, "dram"}},
    {"collaborative", 31, 1, {257, 1, 822, 1, 565, 0, 257, 186, 117, 1125, 78, 0, 3767},
     {95.422772602739727, 6.0317808219178076e-08, 32.041666666666664, 95.422772602739727, 47.711386301369863, 0, "dram"}},
    {"collaborative", 31, 2, {514, 2, 1644, 2, 1130, 0, 514, 372, 234, 2250, 156, 0, 7534},
     {190.84554520547945, 1.2063561643835615e-07, 64.083333333333329, 190.84554520547945, 95.422772602739727, 0, "dram"}},
    {"hybrid", 31, 1, {162, 1, 656, 1, 504, 0, 152, 36, 12, 138, 33, 0, 943},
     {56.587923287671231, 3.5769863013698628e-08, 8.1333333333333329, 56.587923287671231, 28.293961643835615, 0, "dram"}},
    {"hybrid", 31, 2, {324, 2, 1312, 2, 1008, 0, 304, 72, 24, 276, 66, 0, 1886},
     {113.17584657534246, 7.1539726027397257e-08, 16.266666666666666, 113.17584657534246, 56.587923287671231, 0, "dram"}},
    {"fil", 31, 1, {144, 1, 588, 1, 446, 0, 142, 0, 0, 72, 33, 0, 811},
     {52.889366210045658, 3.3431963470319632e-08, 7.0333333333333332, 52.889366210045658, 26.444683105022829, 0, "dram"}},
    {"fil", 31, 2, {288, 2, 1176, 2, 892, 0, 284, 0, 0, 144, 66, 0, 1622},
     {105.77873242009132, 6.6863926940639265e-08, 14.066666666666666, 105.77873242009132, 52.889366210045658, 0, "dram"}},
    {"tree_per_block", 31, 1, {243, 40, 768, 78, 553, 63, 152, 0, 0, 138, 33, 77, 1015},
     {547.06681278538815, 3.458070877278054e-07, 8.7333333333333325, 85.066812785388123, 54.18386118721461, 462, "l2"}},
    {"tree_per_block", 31, 2, {486, 80, 1536, 156, 1106, 126, 304, 0, 0, 276, 66, 154, 2030},
     {1094.1336255707763, 6.916141754556108e-07, 17.466666666666665, 170.13362557077625, 108.36772237442922, 924, "l2"}},
    {"csr", 1000, 1, {10231, 32, 25515, 32, 23408, 1475, 632, 0, 0, 2123, 1036, 0, 29765},
     {395.56067945205479, 2.5003835616438358e-07, 256.67500000000001, 245.58418995433789, 395.56067945205479, 0, "l2"}},
    {"csr", 1000, 2, {20462, 64, 51030, 64, 46816, 2950, 1264, 0, 0, 4246, 2072, 0, 59530},
     {791.12135890410957, 5.0007671232876716e-07, 513.35000000000002, 491.16837990867577, 791.12135890410957, 0, "l2"}},
    {"independent", 1000, 1, {5978, 32, 21883, 32, 20649, 672, 562, 0, 0, 4054, 1036, 0, 27443},
     {237.32499999999999, 1.5001580278128949e-07, 237.32499999999999, 219.6942904109589, 234.11866301369864, 0, "compute"}},
    {"independent", 1000, 2, {11956, 64, 43766, 64, 41298, 1344, 1124, 0, 0, 8108, 2072, 0, 54886},
     {474.64999999999998, 3.0003160556257897e-07, 474.64999999999998, 439.3885808219178, 468.23732602739727, 0, "compute"}},
    {"collaborative", 1000, 1, {5413, 32, 16550, 32, 15201, 792, 557, 6495, 468, 36809, 2738, 0, 119859},
     {1021.6416666666667, 6.4579119258322797e-07, 1021.6416666666667, 217.8450118721461, 255.38536621004565, 0, "compute"}},
    {"collaborative", 1000, 2, {10826, 64, 33100, 64, 30402, 1584, 1114, 12990, 936, 73618, 5476, 0, 239718},
     {2043.2833333333333, 1.2915823851664559e-06, 2043.2833333333333, 435.6900237442922, 510.77073242009129, 0, "compute"}},
    {"hybrid", 1000, 1, {4336, 32, 19872, 32, 18648, 662, 562, 1114, 48, 4054, 1036, 0, 26963},
     {233.32499999999999, 1.4748735777496839e-07, 233.32499999999999, 219.6942904109589, 232.26938447488584, 0, "compute"}},
    {"hybrid", 1000, 2, {8672, 64, 39744, 64, 37296, 1324, 1124, 2228, 96, 8108, 2072, 0, 53926},
     {466.64999999999998, 2.9497471554993678e-07, 466.64999999999998, 439.3885808219178, 464.53876894977168, 0, "compute"}},
    {"fil", 1000, 1, {4246, 32, 18088, 32, 16872, 652, 564, 0, 0, 2123, 1036, 0, 23780},
     {230.7899616438356, 1.458849315068493e-07, 206.80000000000001, 220.43400182648401, 230.7899616438356, 0, "l2"}},
    {"fil", 1000, 2, {8492, 64, 36176, 64, 33744, 1304, 1128, 0, 0, 4246, 2072, 0, 47560},
     {461.57992328767119, 2.9176986301369859e-07, 413.60000000000002, 440.86800365296801, 461.57992328767119, 0, "l2"}},
    {"tree_per_block", 1000, 1, {7206, 1260, 24444, 2593, 21884, 1904, 656, 0, 0, 4054, 1036, 2561, 29899},
     {16567.661194520548, 1.0472605053426389e-05, 257.79166666666669, 1201.661194520548, 952.9332310502283, 15366, "l2"}},
    {"tree_per_block", 1000, 2, {14412, 2520, 48888, 5186, 43768, 3808, 1312, 0, 0, 8108, 2072, 5122, 59798},
     {33135.322389041095, 2.0945210106852777e-05, 515.58333333333337, 2403.3223890410959, 1905.8664621004566, 30732, "l2"}},
    {"csr", 7681, 1, {78258, 241, 196087, 241, 180036, 13533, 2518, 0, 0, 16230, 8006, 0, 227785},
     {3012.8445954337899, 1.9044529680365296e-06, 1964.925, 1020.4318977168949, 3012.8445954337899, 0, "l2"}},
    {"csr", 7681, 2, {156516, 482, 392174, 482, 360072, 27066, 5036, 0, 0, 32460, 16012, 0, 455570},
     {6025.6891908675798, 3.8089059360730591e-06, 3929.8499999999999, 2040.8637954337898, 6025.6891908675798, 0, "l2"}},
    {"independent", 7681, 1, {45732, 241, 168270, 241, 158750, 7066, 2454, 0, 0, 31014, 8006, 0, 210043},
     {1817.075, 1.1485935524652339e-06, 1817.075, 996.76113242009126, 1805.0807817351597, 0, "compute"}},
    {"independent", 7681, 2, {91464, 482, 336540, 482, 317500, 14132, 4908, 0, 0, 62028, 16012, 0, 420086},
     {3634.1500000000001, 2.2971871049304678e-06, 3634.1500000000001, 1993.5222648401825, 3610.1615634703194, 0, "compute"}},
    {"collaborative", 7681, 1, {41748, 241, 127536, 241, 117348, 7750, 2438, 49861, 3627, 278991, 21164, 0, 912844},
     {7783.3999999999996, 4.9199747155499363e-06, 7783.3999999999996, 990.8434410958904, 1928.6125881278538, 0, "compute"}},
    {"collaborative", 7681, 2, {83496, 482, 255072, 482, 234696, 15500, 4876, 99722, 7254, 557982, 42328, 0, 1825688},
     {15566.799999999999, 9.8399494310998727e-06, 15566.799999999999, 1981.6868821917808, 3857.2251762557075, 0, "compute"}},
    {"hybrid", 7681, 1, {33316, 241, 153096, 241, 143728, 6914, 2454, 8450, 372, 31014, 8006, 0, 206449},
     {1787.125, 1.1296618204804046e-06, 1787.125, 996.76113242009126, 1776.9717479452054, 0, "compute"}},
    {"hybrid", 7681, 2, {66632, 482, 306192, 482, 287456, 13828, 4908, 16900, 744, 62028, 16012, 0, 412898},
     {3574.25, 2.2593236409608093e-06, 3574.25, 1993.5222648401825, 3553.9434958904108, 0, "compute"}},
    {"fil", 7681, 1, {32460, 241, 138906, 241, 129602, 6828, 2476, 0, 0, 16230, 8006, 0, 181987},
     {1765.1363652968037, 1.1157625570776255e-06, 1583.2750000000001, 1004.8979579908676, 1765.1363652968037, 0, "l2"}},
    {"fil", 7681, 2, {64920, 482, 277812, 482, 259204, 13656, 4952, 0, 0, 32460, 16012, 0, 363974},
     {3530.2727305936073, 2.231525114155251e-06, 3166.5500000000002, 2009.7959159817351, 3530.2727305936073, 0, "l2"}},
    {"tree_per_block", 7681, 1, {55184, 9693, 188115, 20086, 170302, 14638, 3175, 0, 0, 31014, 8006, 19845, 228947},
     {127673.21361826484, 8.0703674853517594e-05, 1974.6083333333333, 8603.2136182648392, 7008.580734246575, 119070, "dram"}},
    {"tree_per_block", 7681, 2, {110368, 19386, 376230, 40172, 340604, 29276, 6350, 0, 0, 62028, 16012, 39690, 457894},
     {255346.42723652968, 0.00016140734970703519, 3949.2166666666667, 17206.427236529678, 14017.16146849315, 238140, "dram"}},
    // The hybrid kernel on a 24 KB L2, which evicts staged root-subtree lines
    // between blocks, so its temporal load hint decides where re-touches hit.
    {"hybrid_small_l2", 1, 1, {59, 1, 80, 1, 36, 0, 44, 27, 12, 62, 0, 0, 413},
     {16.643506849315067, 1.0520547945205479e-08, 3.4416666666666669, 16.643506849315067, 8.3217534246575333, 0, "dram"}},
    {"hybrid_small_l2", 1, 2, {118, 2, 160, 2, 72, 0, 88, 54, 24, 124, 0, 0, 826},
     {33.287013698630133, 2.1041095890410957e-08, 6.8833333333333337, 33.287013698630133, 16.643506849315067, 0, "dram"}},
    {"hybrid_small_l2", 31, 1, {162, 1, 656, 1, 504, 0, 152, 36, 12, 138, 33, 0, 943},
     {56.587923287671231, 3.5769863013698628e-08, 8.1333333333333329, 56.587923287671231, 28.293961643835615, 0, "dram"}},
    {"hybrid_small_l2", 31, 2, {324, 2, 1312, 2, 1008, 0, 304, 72, 24, 276, 66, 0, 1886},
     {113.17584657534246, 7.1539726027397257e-08, 16.266666666666666, 113.17584657534246, 56.587923287671231, 0, "dram"}},
    {"hybrid_small_l2", 1000, 1, {4336, 32, 19872, 32, 18648, 80, 1144, 1114, 48, 4054, 1036, 0, 26963},
     {434.9503123287671, 2.7493698630136985e-07, 233.32499999999999, 434.9503123287671, 232.26938447488584, 0, "dram"}},
    {"hybrid_small_l2", 1000, 2, {8672, 64, 39744, 64, 37296, 160, 2288, 2228, 96, 8108, 2072, 0, 53926},
     {869.90062465753419, 5.4987397260273969e-07, 466.64999999999998, 869.90062465753419, 464.53876894977168, 0, "dram"}},
    {"hybrid_small_l2", 7681, 1, {33316, 241, 153096, 241, 143728, 789, 8579, 8450, 372, 31014, 8006, 0, 206449},
     {3262.1273424657534, 2.0620273972602738e-06, 1787.125, 3262.1273424657534, 1776.9717479452054, 0, "dram"}},
    {"hybrid_small_l2", 7681, 2, {66632, 482, 306192, 482, 287456, 1578, 17158, 16900, 744, 62028, 16012, 0, 412898},
     {6524.2546849315067, 4.1240547945205477e-06, 3574.25, 6524.2546849315067, 3553.9434958904108, 0, "dram"}},
    // The collaborative kernel with 1 KiB of shared memory: 128 packed nodes
    // per batch, so every tree is staged over several batches.
    {"collaborative_small_smem", 1, 1, {149, 1, 365, 1, 135, 0, 230, 44, 118, 892, 0, 0, 2376},
     {85.436668493150677, 5.400547945205479e-08, 19.800000000000001, 85.436668493150677, 42.718334246575338, 0, "dram"}},
    {"collaborative_small_smem", 1, 2, {298, 2, 730, 2, 270, 0, 460, 88, 236, 1784, 0, 0, 4752},
     {170.87333698630135, 1.0801095890410958e-07, 39.600000000000001, 170.87333698630135, 85.436668493150677, 0, "dram"}},
    {"collaborative_small_smem", 31, 1, {258, 1, 833, 1, 576, 0, 257, 186, 118, 1125, 78, 0, 3769},
     {95.422772602739727, 6.0317808219178076e-08, 32.05833333333333, 95.422772602739727, 47.711386301369863, 0, "dram"}},
    {"collaborative_small_smem", 31, 2, {516, 2, 1666, 2, 1152, 0, 514, 372, 236, 2250, 156, 0, 7538},
     {190.84554520547945, 1.2063561643835615e-07, 64.11666666666666, 190.84554520547945, 95.422772602739727, 0, "dram"}},
    {"collaborative_small_smem", 1000, 1, {5417, 32, 16594, 32, 15245, 792, 557, 6495, 472, 36809, 2738, 0, 119867},
     {1021.7083333333334, 6.4583333333333333e-07, 1021.7083333333334, 217.8450118721461, 255.38536621004565, 0, "compute"}},
    {"collaborative_small_smem", 1000, 2, {10834, 64, 33188, 64, 30490, 1584, 1114, 12990, 944, 73618, 5476, 0, 239734},
     {2043.4166666666667, 1.2916666666666667e-06, 2043.4166666666667, 435.6900237442922, 510.77073242009129, 0, "compute"}},
    {"collaborative_small_smem", 7681, 1, {41779, 241, 127877, 241, 117689, 7750, 2438, 49861, 3658, 278991, 21164, 0, 912906},
     {7783.916666666667, 4.920301306363253e-06, 7783.916666666667, 990.8434410958904, 1928.6125881278538, 0, "compute"}},
    {"collaborative_small_smem", 7681, 2, {83558, 482, 255754, 482, 235378, 15500, 4876, 99722, 7316, 557982, 42328, 0, 1825812},
     {15567.833333333334, 9.8406026127265061e-06, 15567.833333333334, 1981.6868821917808, 3857.2251762557075, 0, "compute"}}
};

std::string row_literal(const char* kernel, std::size_t rows, int launch, const KernelResult& r) {
  const gpusim::Counters& c = r.counters;
  const gpusim::Timing& t = r.timing;
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %zu, %d, {%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
                "%llu, %llu, %llu},\n {%.17g, %.17g, %.17g, %.17g, %.17g, %.17g, \"%s\"}},",
                kernel, rows, launch, static_cast<unsigned long long>(c.gld_requests),
                static_cast<unsigned long long>(c.gst_requests),
                static_cast<unsigned long long>(c.gld_transactions),
                static_cast<unsigned long long>(c.gst_transactions),
                static_cast<unsigned long long>(c.l1_hits),
                static_cast<unsigned long long>(c.l2_hits),
                static_cast<unsigned long long>(c.dram_transactions),
                static_cast<unsigned long long>(c.smem_loads),
                static_cast<unsigned long long>(c.smem_stores),
                static_cast<unsigned long long>(c.branches),
                static_cast<unsigned long long>(c.divergent_branches),
                static_cast<unsigned long long>(c.atomic_transactions),
                static_cast<unsigned long long>(c.warp_instructions), t.cycles, t.seconds,
                t.compute_cycles, t.dram_cycles, t.l2_cycles, t.atomic_cycles,
                t.limiter.c_str());
  return buf;
}

struct GoldenModel {
  Forest forest;
  CsrForest csr;
  HierarchicalForest hier;
  DeviceImage fil_image;

  static RandomForestSpec spec() {
    RandomForestSpec s;
    s.num_trees = 6;
    s.max_depth = 12;
    s.branch_prob = 0.75;
    s.num_features = 9;
    s.num_classes = 3;
    s.seed = 2026;
    return s;
  }

  GoldenModel()
      : forest(make_random_forest(spec())),
        csr(CsrForest::build(forest)),
        hier(HierarchicalForest::build(forest,
                                       HierConfig{.subtree_depth = 4, .root_subtree_depth = 6})),
        fil_image(forest) {}

  KernelResult run(const std::string& kernel, gpusim::Device& d, const Dataset& q) const {
    if (kernel == "csr") return run_csr(d, csr, q);
    if (kernel == "independent") return run_independent(d, hier, q);
    if (kernel.starts_with("collaborative")) return run_collaborative(d, hier, q);
    if (kernel.starts_with("hybrid")) return run_hybrid(d, hier, q);
    if (kernel == "fil") return run_fil_baseline(d, forest, fil_image, q);
    return run_tree_per_block(d, hier, q);
  }
};

class GoldenCounters : public testing::TestWithParam<std::size_t> {};

TEST_P(GoldenCounters, EveryKernelReproducesItsRecordedCountersAndTiming) {
  static const GoldenModel model;
  const std::size_t rows = GetParam();
  const Dataset queries =
      make_random_queries(rows, GoldenModel::spec().num_features, /*seed=*/7);
  const auto want_preds = model.forest.classify_batch(queries.features(), rows);

  int checked = 0;
  for (const char* kernel : {"csr", "independent", "collaborative", "hybrid", "fil",
                             "tree_per_block", "hybrid_small_l2", "collaborative_small_smem"}) {
    SCOPED_TRACE(kernel);
    gpusim::DeviceConfig cfg = gpusim::DeviceConfig::titan_xp();
    if (std::string(kernel) == "hybrid_small_l2") cfg.l2_bytes = 24 * 1024;
    if (std::string(kernel) == "collaborative_small_smem") cfg.shared_mem_per_block = 1024;
    gpusim::Device device(cfg);
    for (int launch = 1; launch <= 2; ++launch) {
      const KernelResult got = model.run(kernel, device, queries);
      EXPECT_EQ(got.predictions, want_preds);
      const Golden* want = nullptr;
      for (const Golden& g : kGolden) {
        if (std::string(g.kernel) == kernel && g.rows == rows && g.launch == launch) want = &g;
      }
      ASSERT_NE(want, nullptr) << "no golden row; got:\n" << row_literal(kernel, rows, launch, got);
      ++checked;
      SCOPED_TRACE("launch " + std::to_string(launch) + ", got:\n" +
                   row_literal(kernel, rows, launch, got));
      const gpusim::Counters& c = got.counters;
      const gpusim::Counters& w = want->counters;
      EXPECT_EQ(c.gld_requests, w.gld_requests);
      EXPECT_EQ(c.gst_requests, w.gst_requests);
      EXPECT_EQ(c.gld_transactions, w.gld_transactions);
      EXPECT_EQ(c.gst_transactions, w.gst_transactions);
      EXPECT_EQ(c.l1_hits, w.l1_hits);
      EXPECT_EQ(c.l2_hits, w.l2_hits);
      EXPECT_EQ(c.dram_transactions, w.dram_transactions);
      EXPECT_EQ(c.smem_loads, w.smem_loads);
      EXPECT_EQ(c.smem_stores, w.smem_stores);
      EXPECT_EQ(c.branches, w.branches);
      EXPECT_EQ(c.divergent_branches, w.divergent_branches);
      EXPECT_EQ(c.atomic_transactions, w.atomic_transactions);
      EXPECT_EQ(c.warp_instructions, w.warp_instructions);
      const gpusim::Timing& t = got.timing;
      const GoldenTiming& wt = want->timing;
      EXPECT_EQ(t.cycles, wt.cycles);
      EXPECT_EQ(t.seconds, wt.seconds);
      EXPECT_EQ(t.compute_cycles, wt.compute_cycles);
      EXPECT_EQ(t.dram_cycles, wt.dram_cycles);
      EXPECT_EQ(t.l2_cycles, wt.l2_cycles);
      EXPECT_EQ(t.atomic_cycles, wt.atomic_cycles);
      EXPECT_EQ(t.limiter, wt.limiter);
    }
  }
  EXPECT_EQ(checked, 16);
}

INSTANTIATE_TEST_SUITE_P(Rows, GoldenCounters, testing::Values(1, 31, 1000, 7681),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

}  // namespace
}  // namespace hrf::gpukernels
