#include "netsim/network.h"

#include <algorithm>

#include "common/string_util.h"

namespace msql::netsim {

void Network::AddSite(std::string_view name) {
  sites_.emplace(ToLower(name), SiteState{});
}

Status Network::SetSiteDown(std::string_view name, bool down) {
  auto it = sites_.find(ToLower(name));
  if (it == sites_.end()) {
    return Status::NotFound("cannot set site '" + ToLower(name) +
                            (down ? "' down" : "' up") +
                            ": no such site");
  }
  it->second.down = down;
  return Status::OK();
}

Status Network::SetLink(std::string_view from, std::string_view to,
                        LinkParams params) {
  std::string from_key = ToLower(from);
  std::string to_key = ToLower(to);
  for (const auto& key : {from_key, to_key}) {
    if (sites_.count(key) == 0) {
      return Status::NotFound("cannot set link " + from_key + " -> " +
                              to_key + ": site '" + key +
                              "' does not exist");
    }
  }
  links_[{std::move(from_key), std::move(to_key)}] = params;
  return Status::OK();
}

LinkParams Network::GetLink(std::string_view from,
                            std::string_view to) const {
  auto it = links_.find({ToLower(from), ToLower(to)});
  return it != links_.end() ? it->second : default_link_;
}

Result<int64_t> Network::TransferMicros(std::string_view from,
                                        std::string_view to, int64_t bytes) {
  std::string from_key = ToLower(from);
  std::string to_key = ToLower(to);
  auto from_it = sites_.find(from_key);
  auto to_it = sites_.find(to_key);
  if (from_it == sites_.end() || to_it == sites_.end()) {
    return Status::Unavailable("unknown site in transfer " + from_key +
                               " -> " + to_key);
  }
  if (from_it->second.down || to_it->second.down) {
    return Status::Unavailable("site down in transfer " + from_key +
                               " -> " + to_key);
  }
  if (bytes < 0) {
    return Status::InvalidArgument("negative transfer size " +
                                   std::to_string(bytes) + " bytes");
  }
  LinkParams link = GetLink(from_key, to_key);
  // Ceiling division over a 128-bit intermediate: truncation used to
  // charge sub-KB messages zero bandwidth, and bytes * micros_per_kb
  // overflowed int64 for multi-GB payloads on slow links.
  unsigned __int128 weighted =
      static_cast<unsigned __int128>(bytes) *
      static_cast<unsigned __int128>(std::max<int64_t>(link.micros_per_kb, 0));
  int64_t serialization =
      static_cast<int64_t>((weighted + 1023) / 1024);
  int64_t micros = link.latency_micros + serialization;
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  return micros;
}

}  // namespace msql::netsim
