#include "coll/registry.h"

#include "base/shm_component.h"
#include "base/tuned.h"
#include "base/ucc.h"
#include "base/xbrc.h"
#include "core/xhc_component.h"
#include "util/check.h"

namespace xhc::coll {

std::unique_ptr<Component> make_component(std::string_view name,
                                          mach::Machine& machine,
                                          Tuning tuning) {
  if (name == "xhc") {
    return std::make_unique<core::XhcComponent>(machine, std::move(tuning),
                                                "xhc");
  }
  if (name == "xhc-flat") {
    // xhc-flat stripes from ucc's 128 KiB. On Fig. 8 that pays off only at
    // 4 MiB on the Epycs and costs 2.7-3.8x at 256 KiB and 1 MiB (ROADMAP
    // item 3 has the table); the pin stays, as Fig. 8's baseline.
    tuning.sensitivity = "flat";
    tuning.stripe_threshold = 128 * 1024;
    return std::make_unique<core::XhcComponent>(machine, std::move(tuning),
                                                "xhc-flat");
  }
  if (name == "tuned") {
    return std::make_unique<base::TunedComponent>(machine, std::move(tuning));
  }
  if (name == "sm") {
    tuning.sensitivity = "flat";
    tuning.sync = SyncMethod::kAtomicFetchAdd;
    return std::make_unique<base::ShmComponent>(machine, std::move(tuning),
                                                "sm");
  }
  if (name == "ucc") {
    return std::make_unique<base::UccComponent>(machine, std::move(tuning));
  }
  if (name == "smhc") {
    // Socket-aware on multi-socket machines; [18]'s flat variant otherwise
    // (the paper does the same on Epyc-1P, §V-C).
    tuning.sensitivity =
        machine.topology().n_sockets() > 1 ? "socket" : "flat";
    tuning.sync = SyncMethod::kSingleWriter;
    return std::make_unique<base::ShmComponent>(machine, std::move(tuning),
                                                "smhc");
  }
  if (name == "smhc-flat") {
    tuning.sensitivity = "flat";
    tuning.sync = SyncMethod::kSingleWriter;
    return std::make_unique<base::ShmComponent>(machine, std::move(tuning),
                                                "smhc-flat");
  }
  if (name == "xbrc") {
    return std::make_unique<base::XbrcComponent>(machine, std::move(tuning));
  }
  XHC_REQUIRE(false, "unknown component '", std::string(name), "'");
  return nullptr;
}

std::vector<std::string_view> component_names() {
  return {"xhc", "xhc-flat", "tuned", "sm", "ucc", "smhc", "smhc-flat",
          "xbrc"};
}

std::vector<std::string_view> bcast_component_names() {
  return {"xhc", "xhc-flat", "tuned", "sm", "ucc", "smhc"};
}

std::vector<std::string_view> allreduce_component_names() {
  return {"xhc", "xhc-flat", "tuned", "sm", "ucc", "xbrc"};
}

}  // namespace xhc::coll
