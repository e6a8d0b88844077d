#include "core/degradation_plan.hpp"

#include <algorithm>

namespace hrf {

int max_fitting_rsd(const ClassifierOptions& options) {
  // Both backends store the layout's 8-byte node records on chip.
  constexpr std::size_t kNodeBytes = sizeof(PackedNode);
  std::size_t capacity = 0;
  if (options.backend == Backend::GpuSim) {
    capacity = options.gpu.shared_mem_per_block;
  } else if (options.backend == Backend::FpgaSim) {
    const std::size_t cus = options.fpga_split_stage1
                                ? 1
                                : static_cast<std::size_t>(options.fpga_layout.cus_per_slr);
    capacity = options.fpga.onchip_bytes_per_slr / std::max<std::size_t>(cus, 1);
  }
  const std::size_t max_nodes = capacity / kNodeBytes;  // need 2^rsd - 1 <= max_nodes
  int rsd = 0;
  while (rsd < 24 && ((1ull << (rsd + 1)) - 1) <= max_nodes) ++rsd;
  return rsd;
}

DegradationPlan build_degradation_plan(std::shared_ptr<const Classifier> primary) {
  const ClassifierOptions& opt = primary->options();
  // Every rung shares the primary's forest; only layouts are per rung.
  const std::shared_ptr<const Forest>& forest = primary->shared_forest();
  DegradationPlan plan;
  plan.push_back({primary, opt.variant, ""});
  if (opt.backend != Backend::CpuNative) {
    if (opt.variant == Variant::Hybrid) {
      const int fit = max_fitting_rsd(opt);
      const int cur = opt.layout.effective_root_depth();
      if (fit >= 1 && fit < cur) {
        ClassifierOptions shrunk = opt;
        shrunk.layout.root_subtree_depth = fit;
        plan.push_back({std::make_shared<const Classifier>(forest, shrunk), Variant::Hybrid,
                        "shrink rsd " + std::to_string(cur) + " -> " + std::to_string(fit)});
      }
    }
    if (opt.variant == Variant::Hybrid || opt.variant == Variant::Collaborative) {
      plan.push_back({primary, Variant::Independent,
                      std::string("variant ") + to_string(opt.variant) + " -> independent"});
    } else if (opt.variant == Variant::FilBaseline) {
      ClassifierOptions csr = opt;
      csr.variant = Variant::Csr;
      plan.push_back({std::make_shared<const Classifier>(forest, csr), Variant::Csr,
                      "variant fil-baseline -> csr"});
    }
  }
  // The CPU step keeps the hierarchical layout when the primary uses one
  // (same indexing scheme), else the CSR baseline.
  ClassifierOptions cpu = opt;
  cpu.backend = Backend::CpuNative;
  cpu.variant = opt.variant == Variant::Csr || opt.variant == Variant::FilBaseline
                    ? Variant::Csr
                    : Variant::Independent;
  plan.push_back({std::make_shared<const Classifier>(forest, cpu), cpu.variant,
                  std::string("backend ") + to_string(opt.backend) + " -> cpu-native fallback (" +
                      to_string(cpu.variant) + ")"});
  return plan;
}

}  // namespace hrf
