#include "sim/line_model.h"

#include <algorithm>

#include "util/cacheline.h"
#include "util/check.h"

namespace xhc::sim {

LineModel::LineModel(const topo::Topology* topo, const SimParams* params)
    : topo_(topo), params_(params) {
  XHC_REQUIRE(topo_ != nullptr && params_ != nullptr, "null dependency");
  words_ = static_cast<std::uint32_t>(topo_->n_llc() + 63) / 64;
  core_port_free_.assign(static_cast<std::size_t>(topo_->n_cores()), 0.0);
}

LineModel::Line& LineModel::line(std::uintptr_t id) {
  const auto [it, fresh] = lines_.try_emplace(id);
  if (fresh) {
    it->second.sharers = static_cast<std::uint32_t>(sharer_words_.size());
    sharer_words_.resize(sharer_words_.size() + words_, 0);
  }
  return it->second;
}

bool LineModel::drop_sharers(Line& l) noexcept {
  bool any = false;
  for (std::uint32_t w = 0; w < words_; ++w) {
    any |= sharer_words_[l.sharers + w] != 0;
    sharer_words_[l.sharers + w] = 0;
  }
  return any;
}

std::uint64_t LineModel::store_seq(const void* addr) const noexcept {
  auto it = lines_.find(util::line_of(addr));
  return it == lines_.end() ? 0 : it->second.store_seq;
}

int LineModel::owner_of(const void* addr) const noexcept {
  auto it = lines_.find(util::line_of(addr));
  return it == lines_.end() ? -1 : it->second.owner_core;
}

double LineModel::read(const void* addr, int core, double t, bool pipelined) {
  const double expose = pipelined ? 0.25 : 1.0;
  Line& l = line(util::line_of(addr));
  const bool shared_llc = topo_->has_shared_llc();

  if (l.owner_core < 0 || l.owner_core == core) {
    // Never written, or reading our own line: a local hit.
    if (tracking()) {
      stats_->on_line_read(addr, core, CohEvent::kLocalHit, -1);
    }
    return t + params_->line_hit;
  }

  const int reader_llc = topo_->core(core).llc;
  if (shared_llc && shared_by(l, reader_llc)) {
    // A group peer already pulled the line into our LLC (the implicit
    // hardware assist of paper §V-D1).
    if (tracking()) {
      stats_->on_line_read(addr, core, CohEvent::kLlcHit, -1);
    }
    return t + params_->line_lat_llc;
  }

  const topo::Distance dist = topo_->distance(core, l.owner_core);
  double done;
  if (l.dirty) {
    // First read after a store: serviced by the owner core's port; all
    // concurrent first-reads of this core's lines serialize here. This is
    // the modeled HITM — a load answered by a remote core's modified copy.
    if (tracking()) {
      stats_->on_line_read(addr, core, CohEvent::kHitm, l.owner_core);
    }
    double& port = core_port_free_[static_cast<std::size_t>(l.owner_core)];
    const double start = std::max(t, port);
    port = start + params_->core_port_service;
    done = start + std::max(params_->line_hit, params_->line_lat(dist) * expose);
    l.dirty = false;
    if (shared_llc) {
      add_sharer(l, topo_->core(l.owner_core).llc);
    } else {
      l.in_slc = true;
    }
  } else if (shared_llc) {
    // Served by a providing LLC group; fetches of this line serialize on the
    // line's service point.
    if (tracking()) {
      stats_->on_line_read(addr, core, CohEvent::kRemoteFill, -1);
    }
    const double start = std::max(t, l.line_free);
    l.line_free = start + params_->line_service;
    done = start + std::max(params_->line_hit, params_->line_lat(dist) * expose);
  } else {
    // SLC machine: single physical location; every fetch serializes there
    // and no core-local reuse across cores is possible.
    if (tracking()) {
      stats_->on_line_read(addr, core, CohEvent::kSlcHit, -1);
    }
    const double start = std::max(t, l.line_free);
    l.line_free = start + params_->line_service;
    done = start + std::max(params_->line_hit, params_->line_lat_numa * expose);
  }

  if (shared_llc) add_sharer(l, reader_llc);
  return done;
}

double LineModel::write(const void* addr, int core, double t) {
  Line& l = line(util::line_of(addr));
  const bool invalidated = drop_sharers(l) || l.in_slc ||
                           (l.owner_core >= 0 && l.owner_core != core);
  double cost = params_->store_cost;
  if (invalidated) {
    cost += params_->inval_cost;
  }
  if (tracking()) {
    const bool transfer = l.owner_core >= 0 && l.owner_core != core;
    stats_->on_line_write(addr, core, invalidated, transfer);
  }
  l.owner_core = core;
  l.dirty = true;
  l.in_slc = false;
  ++l.store_seq;
  const double done = t + cost;
  l.line_free = std::max(l.line_free, done);
  return done;
}

double LineModel::rmw(const void* addr, int core, double t) {
  Line& l = line(util::line_of(addr));
  // Exclusive ownership must be acquired; concurrent RMWs serialize on the
  // line regardless of topology.
  const double start = std::max(t, l.line_free);
  double transfer = params_->line_hit;
  const bool moved = l.owner_core >= 0 && l.owner_core != core;
  if (moved) {
    transfer = params_->line_lat(topo_->distance(core, l.owner_core));
  }
  if (tracking()) {
    stats_->on_line_rmw(addr, core, moved);
  }
  l.owner_core = core;
  l.dirty = true;
  l.in_slc = false;
  drop_sharers(l);
  ++l.store_seq;
  const double done = start + transfer + params_->rmw_service;
  l.line_free = done;
  return done;
}

void LineModel::reset() {
  lines_.clear();
  sharer_words_.clear();
  std::fill(core_port_free_.begin(), core_port_free_.end(), 0.0);
}

}  // namespace xhc::sim
