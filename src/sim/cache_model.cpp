#include "sim/cache_model.h"

#include <algorithm>

#include "util/check.h"

namespace xhc::sim {

const char* to_string(ServeKind k) {
  switch (k) {
    case ServeKind::kLocalLlc:
      return "local-llc";
    case ServeKind::kSlc:
      return "slc";
    case ServeKind::kProducerLlc:
      return "producer-llc";
    case ServeKind::kMemory:
      return "memory";
  }
  return "?";
}

CacheModel::CacheModel(const topo::Topology* topo, const SimParams* params)
    : topo_(topo), params_(params) {
  XHC_REQUIRE(topo_ != nullptr && params_ != nullptr, "null dependency");
  llc_rep_.assign(static_cast<std::size_t>(topo_->n_llc()), -1);
  numa_socket_.assign(static_cast<std::size_t>(topo_->n_numa()), -1);
  for (auto it = topo_->cores().rbegin(); it != topo_->cores().rend(); ++it) {
    llc_rep_[static_cast<std::size_t>(it->llc)] = it->core;
    numa_socket_[static_cast<std::size_t>(it->numa)] = it->socket;
  }
}

bool CacheModel::Block::resident(int llc) const noexcept {
  return std::find(resident_llcs.begin(), resident_llcs.end(), llc) !=
         resident_llcs.end();
}

bool CacheModel::Block::pulled(int key, std::size_t n) {
  auto it = std::find_if(read_progress.begin(), read_progress.end(),
                         [key](const auto& p) { return p.first == key; });
  if (it == read_progress.end()) {
    it = read_progress.insert(read_progress.end(), {key, 0});
  }
  it->second += n;
  return it->second >= bytes;
}

void CacheModel::add_block(std::uint64_t id, std::size_t bytes, int home_numa) {
  Block b;
  b.bytes = bytes;
  b.home_numa = home_numa;
  blocks_[id] = b;
}

void CacheModel::remove_block(std::uint64_t id) { blocks_.erase(id); }

bool CacheModel::fits_llc(const Block& b) const noexcept {
  if (params_->llc_bytes == 0) return false;
  // Several ranks per LLC group each keep their own working buffers; a
  // buffer enjoys residency only while a group share of the LLC can hold it
  // (paper Fig. 7: the caching benefit disappears above ~1 MB).
  return b.bytes * 5 <= params_->llc_bytes;
}

bool CacheModel::fits_slc(const Block& b) const noexcept {
  if (params_->slc_bytes == 0) return false;
  return b.bytes * 8 <= params_->slc_bytes;
}

void CacheModel::on_write(std::uint64_t id, int writer_core) {
  auto it = blocks_.find(id);
  if (it == blocks_.end()) return;
  Block& b = it->second;
  if (tracking() && (!b.resident_llcs.empty() || b.in_slc)) {
    // The version bump is the buffer-granularity analogue of an
    // invalidation broadcast: live cached copies of the old version die.
    stats_->on_block_inval(writer_core);
  }
  ++b.version;
  b.resident_llcs.clear();
  b.in_slc = false;
  b.read_progress.clear();
  b.producer_llc = topo_->has_shared_llc() ? topo_->core(writer_core).llc : -1;
  if (topo_->has_shared_llc() && fits_llc(b)) {
    // The writer just produced the data; its own LLC group holds it.
    b.resident_llcs.push_back(b.producer_llc);
  }
}

ServeInfo CacheModel::on_read(std::uint64_t id, int reader_core,
                              std::size_t bytes) {
  auto it = blocks_.find(id);
  XHC_CHECK(it != blocks_.end(), "read of unregistered block");
  Block& b = it->second;
  const topo::CorePlace& reader = topo_->core(reader_core);

  ServeInfo info;
  if (topo_->has_shared_llc() && b.resident(reader.llc)) {
    info.kind = ServeKind::kLocalLlc;
    info.src_llc = reader.llc;
    info.src_numa = reader.numa;
    info.distance = topo::Distance::kLlcLocal;
    if (tracking()) {
      stats_->on_block_read(reader_core, CohEvent::kBlockLocalLlc);
    }
    return info;  // no residency change, no interconnect crossing
  }
  if (b.in_slc) {
    info.kind = ServeKind::kSlc;
    info.src_numa = b.home_numa;
    info.distance = topo::Distance::kIntraNuma;  // latency via params_->slc
  } else if (topo_->has_shared_llc() && b.producer_llc >= 0 &&
             b.resident(b.producer_llc)) {
    info.kind = ServeKind::kProducerLlc;
    info.src_llc = b.producer_llc;
    // Distance from the reader to the serving LLC group.
    const int rep = llc_rep_[static_cast<std::size_t>(b.producer_llc)];
    info.src_numa = topo_->core(rep).numa;
    info.distance = topo_->distance(reader_core, rep);
  } else {
    info.kind = ServeKind::kMemory;
    info.src_numa = b.home_numa;
    info.distance = numa_distance(reader_core, b.home_numa);
  }

  // Residency update: a cache holds the version only after a full block's
  // worth of bytes has flowed toward it (chunked pulls stay priced at the
  // source until the whole buffer has moved).
  // The reader's group is not resident here (that returned above).
  if (topo_->has_shared_llc() && fits_llc(b) && b.pulled(reader.llc, bytes)) {
    b.resident_llcs.push_back(reader.llc);
  }
  if (!topo_->has_shared_llc() && fits_slc(b) && b.pulled(-1, bytes)) {
    b.in_slc = true;
  }
  if (tracking()) {
    switch (info.kind) {
      case ServeKind::kLocalLlc:
        stats_->on_block_read(reader_core, CohEvent::kBlockLocalLlc);
        break;
      case ServeKind::kSlc:
        stats_->on_block_read(reader_core, CohEvent::kBlockSlc);
        break;
      case ServeKind::kProducerLlc:
        stats_->on_block_read(reader_core, CohEvent::kBlockProducerLlc);
        break;
      case ServeKind::kMemory:
        stats_->on_block_read(reader_core, CohEvent::kBlockMemory);
        break;
    }
  }
  return info;
}

ServeInfo CacheModel::local_read(int reader_core) const {
  ServeInfo info;
  info.kind = ServeKind::kMemory;
  info.src_numa = topo_->core(reader_core).numa;
  info.distance = topo::Distance::kIntraNuma;
  return info;
}

std::uint64_t CacheModel::version(std::uint64_t id) const {
  auto it = blocks_.find(id);
  return it == blocks_.end() ? 0 : it->second.version;
}

bool CacheModel::resident_in_llc(std::uint64_t id, int llc) const {
  auto it = blocks_.find(id);
  return it != blocks_.end() && it->second.resident(llc);
}

topo::Distance CacheModel::numa_distance(int reader_core, int numa) const {
  const topo::CorePlace& reader = topo_->core(reader_core);
  if (reader.numa == numa) return topo::Distance::kIntraNuma;
  return numa_socket_[static_cast<std::size_t>(numa)] == reader.socket
             ? topo::Distance::kCrossNuma
             : topo::Distance::kCrossSocket;
}

}  // namespace xhc::sim
