#pragma once

/// Umbrella header for the hrf library: hierarchical random forest
/// classification on simulated GPU and FPGA backends, reproducing
/// Shah et al., "Accelerating Random Forest Classification on GPU and
/// FPGA" (ICPP 2022).
///
/// Typical use:
///
///   #include "core/hrf.hpp"
///
///   hrf::Dataset data = hrf::make_susy_like(300'000);
///   auto [train, test] = data.split();
///   hrf::Classifier clf = hrf::Classifier::train(
///       train, hrf::TrainConfig{.num_trees = 100, .max_depth = 20},
///       {.variant = hrf::Variant::Hybrid, .backend = hrf::Backend::GpuSim,
///        .layout = {.subtree_depth = 8, .root_subtree_depth = 12}});
///   hrf::RunReport r = clf.classify(test);

#include "core/classifier.hpp"
#include "core/degradation_plan.hpp"
#include "core/paper.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "forest/forest.hpp"
#include "forest/random_forest_gen.hpp"
#include "layout/csr.hpp"
#include "layout/hierarchical.hpp"
#include "layout/layout_io.hpp"
#include "layout/quantized.hpp"
#include "layout/tree_clustering.hpp"
#include "serve/server.hpp"
#include "train/forest_trainer.hpp"
#include "train/regression.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
